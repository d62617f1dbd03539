"""Seifert matrix algebra.

A Seifert matrix here is any square integer matrix V of even dimension with
det(V - V^t) = 1.  The Alexander polynomial is the raw determinant
det(V - t*V^t), with no sign or power normalization, so Delta(1) = 1 holds
identically and downstream resultants are unambiguous.  It is palindromic of
formal degree dim, so alexander() finds it from genus-many determinants and
the validated Delta(1) = 1, by an exact integer linear solve.

Each SeifertMatrix instance keeps a successful validation and its Alexander
polynomial on the instance (there is no cache across instances); a failed
validation is not kept, so it runs again on the next call.
"""

from __future__ import annotations

from .errors import BadTorusParameter, InvalidSeifertMatrix
from .exactpoly import (
    IntPolynomial,
    brief_int,
    integer_determinant,
    integer_solution,
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

    Computed once per instance, from g = genus determinants.  Transposing,
    Delta(t) = det(V^t - t*V) = (-t)^{2g} det(V - t^{-1}*V^t) = t^{2g}
    Delta(1/t), so Delta is palindromic of formal degree 2g (Levine 1969):
    Delta(t) = sum_{k<g} c_k (t^k + t^{2g-k}) + c_g t^g.  The g+1 unknowns
    c_0..c_g come from Delta(1) = det(V - V^t) = 1, which validation has
    checked, and from the determinants at the g nodes t = 0, -1, 2, -2, 3,
    ..., through one integer linear solve.  The system is nonsingular: t = 0
    gives c_0 = Delta(0) alone, and at t != 0 the rest of t^{-g}Delta(t) is
    a polynomial of degree < g in s = t + 1/t (t^j + t^{-j} is monic of
    degree j in s), taken at g distinct values of s, because t -> t + 1/t is
    injective on t >= 1 and on t <= -1 and maps them to s >= 2 and s <= -2.
    """
    if V._alexander is None:
        V.validate()
        g, n, rows = V.genus, V.dim, V.rows
        nodes = ([1, 0] + [(k // 2 + 1) * (-1) ** k for k in range(1, g)])[: g + 1]
        values = [1] + [
            integer_determinant(
                [[rows[i][j] - t * rows[j][i] for j in range(n)] for i in range(n)]
            )
            for t in nodes[1:]
        ]
        system = [[t**k + t ** (2 * g - k) for k in range(g)] + [t**g] for t in nodes]
        c = integer_solution(system, values)
        object.__setattr__(V, "_alexander", IntPolynomial(c[:-1] + c[::-1]))
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
