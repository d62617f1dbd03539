"""Seifert matrix algebra.

A Seifert matrix here is any square integer matrix V of even dimension with
det(V - V^t) = 1.  The Alexander polynomial is the raw determinant
det(V - t*V^t), with no sign or power normalization, so Delta(1) = 1 holds
identically and downstream resultants are unambiguous.  alexander() finds
it from genus-many determinants of the pencil V + x(V - V^t), whose
determinant is a polynomial of degree genus in x(x+1), by an exact integer
interpolation.

Each SeifertMatrix instance keeps a successful validation and its Alexander
polynomial on the instance (there is no cache across instances); a failed
validation is not kept, so it runs again on the next call.
"""

from __future__ import annotations

from .errors import BadTorusParameter, InvalidSeifertMatrix
from .exactpoly import (
    IntPolynomial,
    _exact_quotient,
    brief_int,
    integer_determinant,
    integer_tuple,
)


class SeifertMatrix:
    """Immutable integer matrix with Seifert-matrix validation.

    The 0x0 matrix is the unknot.  Construction only requires integer
    entries, by exactpoly.integer_tuple's rule: 0.5, 1.0, "1", True and
    False raise TypeError.  validate() (which every operation calls)
    checks the Seifert invariants and raises InvalidSeifertMatrix on the
    first that fails.  A success and the Alexander polynomial are memoized
    on the instance; a failure is not.
    """

    __slots__ = ("rows", "_valid", "_alexander")

    def __init__(self, rows=()):
        object.__setattr__(self, "rows", tuple(map(integer_tuple, rows)))
        object.__setattr__(self, "_valid", False)
        object.__setattr__(self, "_alexander", None)

    def __setattr__(self, name, value):
        raise AttributeError("SeifertMatrix is immutable")

    def __reduce__(self):
        return SeifertMatrix, (self.rows,)  # the memos are recomputed

    @property
    def dim(self):
        return len(self.rows)

    @property
    def genus(self):
        return self.dim // 2

    def __eq__(self, other):
        if not isinstance(other, SeifertMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "SeifertMatrix(%r)" % (list(list(r) for r in self.rows),)

    # -- validation -------------------------------------------------------

    def validate(self):
        """Raise InvalidSeifertMatrix unless square, of even dim, with det(V - V^t) = 1."""
        if self._valid:
            return
        n, rows = self.dim, self.rows
        if any(len(row) != n for row in rows):
            failure = "matrix is not square"
        elif n % 2 != 0:
            failure = "dimension %d is odd" % n
        else:
            skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
            d = integer_determinant(skew)
            if d == 1:
                object.__setattr__(self, "_valid", True)
                return
            failure = "skew-symmetrization determinant is %s, expected 1" % brief_int(d)
        raise InvalidSeifertMatrix("invalid Seifert matrix: " + failure)


def alexander(V):
    """Alexander polynomial Delta(t) = det(V - t*V^t), exact.

    Computed once per instance, from g = genus determinants of the pencil
    V + xK, K = V - V^t.  Since (V + xK)^t = V + (-1-x)K, P(x) = det(V + xK)
    is symmetric under x -> -1-x, so P(x) = Q(x(x+1)) for an integer
    polynomial Q(u) = sum_k q_k u^k of degree g, with q_g = det K = 1 (as
    validation has checked) and q_0 = det V.  From V - tV^t = (1-t)V + tK,

        Delta(t) = sum_k q_k t^k (1-t)^(2(g-k)),

    so t^(-g) Delta(t) = D(t + 1/t) with D(s) = sum_k q_k (s-2)^(g-k): the
    q_k are the Taylor coefficients of D at s = 2.

    q_1 .. q_(g-1) come from P at x = 1 .. g-1, that is u = 2, 6, 12, ...:
    R(u) = (P(x) - q_0 - u^g) / u has degree g - 2, and Newton's divided
    differences interpolate it.  Every division is exact and checked: u
    divides P(x) - q_0 - u^g, and the divided differences of an integer
    polynomial at integer nodes are integers (each is a sum of its
    coefficients times complete symmetric polynomials in the nodes).  Each
    node matrix is V's rows plus x times K's nonzero entries, 2g of them for
    a standard symplectic K.  Delta is then expanded by Horner's rule in
    w = (1-t)^2: Delta = (...(q_0 w + q_1 t) w + ...) w + q_g t^g.
    """
    if V._alexander is None:
        V.validate()
        g, n, rows = V.genus, V.dim, V.rows
        skew = [
            (i, j, rows[i][j] - rows[j][i])
            for i in range(n)
            for j in range(n)
            if rows[i][j] != rows[j][i]
        ]
        q0 = integer_determinant(rows)
        us, r = [], []
        for x in range(1, g):
            m = [list(row) for row in rows]
            for i, j, k in skew:
                m[i][j] += x * k
            u = x * (x + 1)
            us.append(u)
            r.append(_exact_quotient(integer_determinant(m) - q0 - u**g, u))
        for level in range(1, len(us)):
            for k in range(len(us) - 1, level - 1, -1):
                r[k] = _exact_quotient(r[k] - r[k - 1], us[k] - us[k - level])
        c = r[-1:]  # Newton form to ascending coefficients
        for k in range(len(us) - 2, -1, -1):
            c = [a - us[k] * b for a, b in zip([0] + c, c + [0])]
            c[0] += r[k]
        q = [q0] + c + [1]  # at g = 0, q0 = det of the 0x0 matrix = 1
        delta = [q[0]]
        for k in range(1, g + 1):
            delta = [
                a - 2 * b + e
                for a, b, e in zip(delta + [0, 0], [0] + delta + [0], [0, 0] + delta)
            ]
            delta[k] += q[k]
        object.__setattr__(V, "_alexander", IntPolynomial(delta))
    return V._alexander


def _block_sum(blocks):
    """Block-diagonal sum of valid blocks, valid as det(V - V^t) is multiplicative."""
    n, rows = sum(V.dim for V in blocks), []
    for V in blocks:
        left, right = len(rows), n - len(rows) - V.dim
        rows.extend([0] * left + list(row) + [0] * right for row in V.rows)
    return SeifertMatrix(rows)


def connected_sum(V1, V2):
    """Block sum; Alexander polynomials multiply, signatures add."""
    V1.validate()
    V2.validate()
    return _block_sum((V1, V2))


def mirror(V):
    """Seifert matrix -V^t of the reversed mirror; signatures negate."""
    V.validate()
    n = V.dim
    return SeifertMatrix(
        [[-V.rows[j][i] for j in range(n)] for i in range(n)]
    )


def multiple(V, n):
    """n-fold block sum; n = 0 is the unknot."""
    if n < 0:
        raise ValueError("multiplicity must be nonnegative")
    V.validate()
    return _block_sum((V,) * n)


def require_torus_q(q):
    """Raise BadTorusParameter unless T(2,q) is a knot with q >= 3."""
    if q < 3 or q % 2 == 0:
        raise BadTorusParameter("q must be odd and >= 3, got %d" % q)


# Largest q whose T(2,q) matrix torus_2q builds.  Its (q-1)^2 entries grow
# as q^2: `knotconc --json torus 1001` takes about 1 s and 110 MB, and
# q = 2001 about 3.8 s and 390 MB (Python 3.11, Intel Xeon).
MAX_TORUS_Q = 1001


def torus_2q(q):
    """Standard (q-1)x(q-1) Seifert matrix for the (2,q) torus knot.

    Convention: +1 on the diagonal, -1 on the superdiagonal, chosen so the
    signature at omega = -1 is +(q-1).  The opposite chirality is mirror().
    q past MAX_TORUS_Q is refused before anything is allocated.
    """
    require_torus_q(q)
    if q > MAX_TORUS_Q:
        raise BadTorusParameter(
            "q = %d is past %d, the largest q whose (q-1)x(q-1) T(2,q) matrix "
            "is built" % (q, MAX_TORUS_Q)
        )
    n = q - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        if i + 1 < n:
            rows[i][i + 1] = -1
    return SeifertMatrix(rows)


def torus_2q_signatures(q):
    """sigma_{a/q}(T(2,q)) = 2 min(a, q-a) for a = 0..q-1, in the sign
    convention of torus_2q (Litherland, Signatures of iterated torus knots,
    1979); 0 at a = 0.  signatures.verify_torus_lemma checks it against
    certified eliminations."""
    require_torus_q(q)
    return [0] + [2 * min(a, q - a) for a in range(1, q)]


UNKNOT = SeifertMatrix()
TREFOIL = torus_2q(3)
FIGURE_EIGHT = SeifertMatrix([[1, 1], [0, -1]])
