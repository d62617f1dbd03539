"""Seifert matrix algebra.

A Seifert matrix here is any square integer matrix V of even dimension with
det(V - V^t) = 1.  The Alexander polynomial is the raw determinant
det(V - t*V^t), with no sign or power normalization, so Delta(1) = 1 holds
identically and downstream resultants are unambiguous.

Each SeifertMatrix instance validates itself at most once and computes its
Alexander polynomial at most once; both results are kept on the instance
(there is no cache across instances).
"""

from __future__ import annotations

import math

from .errors import BadTorusParameter, InvalidSeifertMatrix
from .exactpoly import IntPolynomial, Record, integer_determinant


class ValidityReport(Record):
    __slots__ = ("valid", "failures")  # bool, tuple of messages


class SeifertMatrix:
    """Immutable integer matrix with Seifert-matrix validation.

    The 0x0 matrix is the unknot.  Construction is permissive; use
    validate() (or any operation, which validates implicitly) to check
    the Seifert invariants.  The validity report and the Alexander
    polynomial are memoized on the instance.
    """

    __slots__ = ("rows", "_report", "_alexander")

    def __init__(self, rows=()):
        object.__setattr__(
            self, "rows", tuple(tuple(int(c) for c in row) for row in rows)
        )
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_alexander", None)

    def __setattr__(self, name, value):
        raise AttributeError("SeifertMatrix is immutable")

    @property
    def dim(self):
        return len(self.rows)

    @property
    def genus(self):
        return self.dim // 2

    def is_square(self):
        return all(len(row) == self.dim for row in self.rows)

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
        """Check squareness, even dimension, and det(V - V^t) = 1, once."""
        if self._report is not None:
            return self._report
        failures = []
        if not self.is_square():
            failures.append("matrix is not square")
        else:
            if self.dim % 2 != 0:
                failures.append("dimension %d is odd" % self.dim)
            else:
                n = self.dim
                skew = [
                    [self.rows[i][j] - self.rows[j][i] for j in range(n)]
                    for i in range(n)
                ]
                d = integer_determinant(skew)
                if d != 1:
                    failures.append(
                        "skew-symmetrization determinant is %d, expected 1" % d
                    )
        report = ValidityReport(valid=not failures, failures=tuple(failures))
        object.__setattr__(self, "_report", report)
        return report

    def require_valid(self):
        report = self.validate()
        if not report.valid:
            raise InvalidSeifertMatrix(
                "invalid Seifert matrix: %s" % "; ".join(report.failures)
            )


def alexander(V):
    """Alexander polynomial det(V - t*V^t), exact.

    Computed once per instance, by evaluating the determinant at the dim+1
    integer points 0..dim and reconstructing the (degree <= dim) polynomial
    by Newton interpolation.
    """
    if V._alexander is None:
        V.require_valid()
        n = V.dim
        values = [
            integer_determinant(
                [[V.rows[i][j] - c * V.rows[j][i] for j in range(n)] for i in range(n)]
            )
            for c in range(n + 1)
        ]
        object.__setattr__(V, "_alexander", IntPolynomial(_interpolate_integer(values)))
    return V._alexander


def _interpolate_integer(values):
    """Coefficients of the polynomial p of degree <= n with p(x) = values[x]
    for x = 0..n; they must be integers.

    Newton's forward form p(x) = sum_k D^k p(0) x(x-1)...(x-k+1) / k!, with
    D^k p(0) the integer forward differences, is scaled by n! so that every
    term is an integer polynomial; the final division by n! must be exact.
    """
    n = len(values) - 1
    diffs = list(values)
    scaled = [0] * (n + 1)  # n! * p, ascending coefficients
    falling = [1]  # x(x-1)...(x-k+1), ascending coefficients
    scale = math.factorial(n)
    weight = scale  # n! / k!
    for k in range(n + 1):
        term = diffs[0] * weight
        for i, c in enumerate(falling):
            scaled[i] += term * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [0] + falling
        for i in range(k + 1):
            falling[i] -= k * falling[i + 1]
        weight //= k + 1
    out = []
    for c in scaled:
        quotient, remainder = divmod(c, scale)
        assert remainder == 0, "interpolation produced non-integer %s/%d!" % (c, n)
        out.append(quotient)
    return out


def connected_sum(V1, V2):
    """Block sum; Alexander polynomials multiply, signatures add."""
    V1.require_valid()
    V2.require_valid()
    n1, n2 = V1.dim, V2.dim
    rows = []
    for i in range(n1):
        rows.append(list(V1.rows[i]) + [0] * n2)
    for i in range(n2):
        rows.append([0] * n1 + list(V2.rows[i]))
    return SeifertMatrix(rows)


def mirror(V):
    """Seifert matrix -V^t of the reversed mirror; signatures negate."""
    V.require_valid()
    n = V.dim
    return SeifertMatrix(
        [[-V.rows[j][i] for j in range(n)] for i in range(n)]
    )


def multiple(V, n):
    """n-fold block sum; n = 0 is the unknot."""
    if n < 0:
        raise ValueError("multiplicity must be nonnegative")
    V.require_valid()
    out = SeifertMatrix()
    for _ in range(n):
        out = connected_sum(out, V)
    return out


def require_torus_q(q):
    """Raise BadTorusParameter unless T(2,q) is a knot with q >= 3."""
    if q < 3 or q % 2 == 0:
        raise BadTorusParameter("q must be odd and >= 3, got %d" % q)


def torus_2q(q):
    """Standard (q-1)x(q-1) Seifert matrix for the (2,q) torus knot.

    Convention: +1 on the diagonal, -1 on the superdiagonal, chosen so the
    signature at omega = -1 is +(q-1).  The opposite chirality is mirror().
    """
    require_torus_q(q)
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
