"""Tristram-Levine signatures at rational angles, with certified arithmetic.

The signature at omega = exp(i*theta), theta = 2*pi*a/q, is the signature of
the n x n Hermitian form

    H = (1-omega)V + (1-conj(omega))V^t = (1-cos theta)(V+V^t) + i sin theta (V^t-V).

Jump locations (roots of the Alexander polynomial on the unit circle) are
decided exactly; evaluation at a jump is refused, and a profile marks it
JUMP.  Between jumps the signature is constant, so every signature is
evaluated through one path that eliminates once per arc of the circle (see
Arcs below).

Off jumps, the inertia is certified by block elimination.  Each step takes a
1x1 pivot whose real value is certified nonzero or, failing that, a 2x2
pivot whose real determinant a*c - |b|^2 is certified negative (one
eigenvalue of each sign), and replaces the rest of the matrix by the exact
Schur complement.  By Sylvester's law of inertia the pivots' signs add up to
the inertia of H.  Every entry is held as an enclosure of the exact Schur
complement entry, so a certified sign is the exact sign.

Float step.  An entry is a complex midpoint z and a float radius r with
|exact - z| <= r.  Arithmetic is IEEE binary64, round to nearest, unit
roundoff u = 2^-53.  With the exact values of the float midpoints, the
exact results of the operations are enclosed by

    product      |x'y' - xy|   <= |x| r_y + r_x |y| + r_x r_y
    difference   |x'-y' - (x-y)| <= r_x + r_y
    quotient     |z'/d' - z/d| <= (r_z + |z/d| r_d) / (|d| - r_d)

where d is real and |d| > r_d (every pivot of a Hermitian form is real, so
every division is by a real number).  The computed midpoint adds its own
rounding error:

    x*y   CPython computes (ac - bd) + i(ad + bc); the error is at most
          sqrt(5) u |x||y| (Brent, Percival and Zimmermann, 2007); the
          code uses 2.25u >= sqrt(5)u
    x-y   one rounding per component: at most u |x - y|
    z/d   divided per component, one rounding each: at most u |z/d|

and abs() of a complex number is hypot, within one ulp: |z| <= (1+2u)abs(z).
Each new radius is the sum of the propagated radius, the midpoint's
rounding bound and ETA = 2^-500, which covers every underflow (absolute
error at most 2^-1075 per rounding) of the step.  The radius sum is itself
evaluated to nearest: at most ten roundings and three hypot values, so it
falls short of the exact bound by less than a factor 1 + 17u; it is
multiplied by 1 + 32u and rounded once more, which makes it an upper bound.
Hence by induction over the steps every radius encloses the exact entry.

Two guards keep that argument inside the range of binary64: every pivot's
certified margin |d| - r_d is at least 2^-250, and the multiplicands of each
update sum to at most 2^250 in midpoint plus radius.  No product can then
overflow, an underflow error is amplified at most 2^250 times on its way
into a radius (far below ETA), and infinities and NaNs fail the guards
(comparisons with NaN are false), so they never certify anything.

A real product x*y rounds once, at most u |fl(xy)|, so its disc is the
complex one with u in place of 2.25u; the radius sum takes the same
1 + 32u inflation and ETA.

The starting entries need discs of 1 - cos theta and sin theta, theta =
2*pi*a/q, and no more than binary64:

    reduction  theta = pi*n/(4q) with n = 8a.  In integers, n = 2q*j + m
               with -q <= m < q, so theta = j*pi/2 + psi, psi = pi*m/(4q),
               |psi| <= pi/4; cos theta and sin theta are +-cos psi and
               +-sin psi by the quarter turn j, and sin psi is odd in m.
               Both are computed at phi = pi*|m|/(4q) in [0, pi/4].
    angle      q <= 2^50, so |m| and 4q are exact floats (a larger q goes
               to the fallback).  x = fl(math.pi * fl(|m| / 4q)) takes two
               roundings, and |pi - math.pi| < 1.2247e-16 = 0.352u math.pi,
               so |phi - x| <= (2.352u + u^2)(1 + 3u) x < fl(2.5u x).
    series     sin phi = phi S(phi^2) and 1 - cos phi = phi^2 C(phi^2),
               where S and C are the Taylor series of sin(t)/t and
               (1 - cos t)/t^2, summed by Horner's rule in discs from the
               disc (x, fl(2.5u x)) of phi and its square.  The
               coefficients 1/k!, k <= 18, are one rounding each, since
               k! <= 22! is an exact float: radius u/k!.  For phi <= 1 the
               terms alternate and decrease, so each omitted tail is at
               most its first term, phi^18/19! in S and phi^18/20! in C;
               Horner starts from the disc (0, 2/19!) or (0, 2/20!)
               standing for it.
    quarter    for j = 0 (mod 4), 1 - cos theta is the disc of 1 - cos phi
               itself, accurate relative to its size near theta = 0; for the
               other quarters cos theta <= 1/sqrt 2, and 1 - cos theta is one
               rounded difference, as is cos psi = 1 - (1 - cos phi).

The integer entries of V + V^t and V^t - V must be at most 2^53 so that
they are exact floats.  The midpoint of (1-cos)S + i sin K is
complex(fl(c S), fl(s K)) with radius r_c|S| + r_s|K| + u(|cS| + |sK|) + ETA.
A 1x1 pivot d is the real part of a diagonal midpoint (the exact entry is
real, so its distance from d is at most r_d).  A pivot d, or a 2x2
determinant d < 0, is certified when fl(|d| - r_d) >= 2^-250; rounding to
nearest is monotone, so then |d| - r_d > 0 exactly.

Fallback.  If no pivot certifies, or a guard fails, the float step returns
None and the same elimination runs with mpmath iv.mpc interval entries at
64 bits, doubling the precision up to 4096 bits; past that,
SignatureUncertified is raised.  mpmath is imported there, on the first
fallback, and nowhere else.

Arcs.  det H = (1-omega)^n Delta(conj omega), so H is nonsingular off the
roots of Delta and the signature is constant on each arc of the unit circle
between consecutive roots (Levine 1969, Tristram 1969).  Every signature,
a single tl_signature as well as a profile, a jump-step check or the torus
lemma, goes through one evaluator built for that call.  It forms V + V^t,
V^t - V and the Sturm sequence of D once.  For each angle it computes the
discs of 1 - cos theta and sin theta once, locates the angle's arc with
them and starts the float step from them; it eliminates once per arc and
copies the value to the other angles on that arc, keeping the values for
that one call.

    arc index  Delta(t) = t^n Delta(1/t) for n = dim V even, so
               t^(-n/2) Delta(t) = D(t + 1/t) with D an integer polynomial
               of degree <= n/2 (t^k + t^-k is a Chebyshev polynomial in
               t + 1/t).  At omega = exp(i theta), t + 1/t = 2 cos theta,
               which falls from 2 to -2 as theta runs over (0, pi]; the
               roots of Delta there are the roots of D in [-2, 2).  The arc
               of an angle is named by the number of distinct roots of D
               above 2 cos theta: two angles share an arc exactly when no
               root lies between them.
    Sturm      D, D' and the negated pseudo-remainders, each taken with a
               positive multiplier and divided by its content, form an
               integer Sturm sequence of D, built once per call.  For
               a < b, neither a root of D, exactly V(a) - V(b) distinct
               roots lie in (a, b), V counting sign variations; V(x) - V(+inf)
               is the number of roots above x.
    locating   the disc of 1 - cos theta gives a bracket of 2 cos theta,
               widened outward to multiples of 2^-64 so that its endpoints
               lo < hi are exact dyadic numbers.  If D(lo) and D(hi) are
               nonzero and V(lo) = V(hi), no root lies in the bracket and
               V(hi) names the arc; sign variations are counted in integer
               arithmetic, never by a float comparison.
    jumps      a decided bracket has D nonzero at both ends and no root
               of D inside, so 2 cos theta is no root of D and omega no root
               of Delta.
    undecided  otherwise a root may sit in the bracket (or q > 2^50 and
               there is no disc).  Only then is the exact test run: omega is
               a root of Delta iff its cyclotomic polynomial Phi_q divides
               Delta.  A root is a jump; any other undecided angle is
               evaluated by its own elimination.
"""

from __future__ import annotations

import math
import operator

from .errors import (
    BadTorusParameter,
    JumpPoint,
    LemmaViolation,
    PreconditionUnverifiable,
    SignatureUncertified,
    TrivialAngle,
)
from .exactpoly import (
    Record,
    _pseudo_remainder,
    chebyshev_form,
    cyclotomic,
    cyclotomic_factor_extract,
)
from .seifert import MAX_TORUS_Q, alexander, torus_2q, torus_2q_signatures


class UnitRootArg(Record):
    """Reduced fraction a/q standing for omega = exp(2*pi*i*a/q)."""

    __slots__ = ("a", "q")

    def __init__(self, a, q):
        if q < 1:
            raise ValueError("q must be >= 1")
        a %= q
        if a == 0:
            q = 1
        else:
            g = math.gcd(a, q)
            a //= g
            q //= g
        super().__init__(a, q)

    @property
    def is_trivial(self):
        return self.a == 0

    def __str__(self):
        return "%d/%d" % (self.a, self.q)


class _JumpMarker:
    __slots__ = ()

    def __repr__(self):
        return "JUMP"


JUMP = _JumpMarker()


def at_jump(V, w):
    """True iff omega is a root of the Alexander polynomial (decided exactly)."""
    if w.is_trivial:
        raise TrivialAngle("angle 0 is excluded")
    delta = alexander(V)
    # phi(n) >= sqrt(n/2), so a larger order has phi(n) > deg(Delta) and
    # Phi_n cannot divide Delta; this avoids building a huge Phi_n.
    if delta.degree() < 1 or w.q > 2 * delta.degree() ** 2:
        return False
    phi = cyclotomic(w.q)
    if phi.degree() > delta.degree():
        return False
    _, r = delta.divmod_exact(phi)
    return r.is_zero()


_INERTIA_START_PREC = 64
_INERTIA_MAX_PREC = 4096


def tl_signature(V, w):
    """Tristram-Levine signature of V at omega = exp(2*pi*i*a/q); exact."""
    V.require_valid()
    if w.is_trivial:
        raise TrivialAngle("the form vanishes at omega = 1; angle 0 is excluded")
    return _off_jump(_Arcs(V), w)


def _off_jump(arcs, w):
    """arcs.signature(w), raising JumpPoint at a root of the Alexander polynomial."""
    sigma = arcs.signature(w)
    if sigma is JUMP:
        raise JumpPoint("omega = exp(2*pi*i*%s) is a root of the Alexander polynomial" % w)
    return sigma


def _float_inertia(sym, skew, discs):
    """(pos, neg) of H by the float step from the angle's discs, or None
    when it cannot certify."""
    m = _FloatDiscs.of_form(sym, skew, discs)
    return None if m is None else _eliminate(m)


def _interval_ladder(sym, skew, a, q):
    """(pos, neg) of H in interval arithmetic, doubling the precision as needed."""
    import mpmath  # only the fallback needs it; see the module docstring

    iv = mpmath.iv
    saved = iv.prec
    try:
        iv.prec = _INERTIA_START_PREC
        while iv.prec <= _INERTIA_MAX_PREC:
            result = _eliminate(_Intervals.of_form(iv, sym, skew, a, q))
            if result is not None:
                return result
            iv.prec *= 2
    finally:
        iv.prec = saved
    raise SignatureUncertified(
        "could not certify inertia at a/q = %d/%d within %d bits"
        % (a, q, _INERTIA_MAX_PREC)
    )


def _eliminate(m):
    """(pos, neg) of the Hermitian matrix m, consumed by elimination; None
    when no pivot certifies or m refuses an update.

    m holds enclosures of the entries and supplies their arithmetic; a real
    value (a pivot, a determinant) is an enclosure of a real number, and
    m.sign(d) is its certified distance from 0 with the sign of d, or None.
    The largest certified pivot is taken.
    """
    pos = neg = 0
    while len(m):
        k = len(m)
        signs = [m.sign(m.diag(i)) for i in range(k)]
        ones = [(abs(s), i) for i, s in enumerate(signs) if s is not None]
        if ones:
            p = max(ones, key=operator.itemgetter(0))[1]
            d = m.diag(p)
            row, col = m.take(p)
            if not m.update(col, [m.div(z, d) for z in row]):
                return None
            if signs[p] > 0:
                pos += 1
            else:
                neg += 1
            continue
        # No 1x1 pivot: a 2x2 block with a negative determinant has one
        # eigenvalue of each sign.
        dets = {
            (p, r): m.sub(m.mul(m.diag(p), m.diag(r)), m.abs2(m.entry(p, r)))
            for p in range(k)
            for r in range(p + 1, k)
        }
        det_signs = {key: m.sign(d) for key, d in dets.items()}
        twos = [(-s, key) for key, s in det_signs.items() if s is not None and s < 0]
        if not twos:
            return None
        p, r = max(twos, key=operator.itemgetter(0))[1]
        d = dets[(p, r)]
        al, ga, b = m.diag(p), m.diag(r), m.entry(p, r)
        rrow, rcol = m.take(r)
        prow, pcol = m.take(p)
        del rrow[p], rcol[p]
        # The rows of the 2x2 block's inverse applied to the block's rows.
        g = [m.div(m.sub(m.mul(ga, zp), m.mul(b, zr)), d) for zp, zr in zip(prow, rrow)]
        h = [
            m.div(m.sub(m.mul(al, zr), m.mul(m.conj(b), zp)), d)
            for zp, zr in zip(prow, rrow)
        ]
        if not (m.update(pcol, g) and m.update(rcol, h)):
            return None
        pos += 1
        neg += 1
    return pos, neg


# -- float step: midpoint-radius discs in binary64 ---------------------------

_U = 2.0**-53  # unit roundoff
_MUL = 9 * 2.0**-55  # 2.25u >= sqrt(5)u, the complex product bound
_INFL = 1 + 2.0**-48  # 1 + 32u, makes a radius computed to nearest an upper bound
_ETA = 2.0**-500  # absolute term covering every underflow of one operation
_BIG = 2.0**250  # bound on the multiplicands of an update
_TINY = 2.0**-250  # least certified pivot margin
_EXACT = 2**53  # integers up to this size are exact floats


_MAX_Q = 2**50  # 4q is an exact float; a larger q goes to the fallback
_PHI_REL = 5 * 2.0**-54  # 2.5u, relative radius of the reduced angle


def _rmul(x, y):
    """Disc of a real product: one rounding, at most u |fl(xy)|."""
    (x, rx), (y, ry) = x, y
    z = x * y
    return z, (abs(x) * ry + rx * (abs(y) + ry) + _U * abs(z) + _ETA) * _INFL


def _neg(x):
    return -x[0], x[1]


def _series_terms(orders):
    """Discs of the coefficients 1/k!, then the disc standing for the tail."""
    terms = []
    for k in orders:
        c = 1.0 / math.factorial(k)  # k! is an exact float for k <= 22
        terms.append((c, _U * c if k > 2 else 0.0))
    return terms + [(0.0, 2.0 / math.factorial(orders[-1] + 2))]


_SIN_TERMS = _series_terms(range(1, 18, 2))  # sin(x)/x = 1 - x^2/3! + ...
_VERS_TERMS = _series_terms(range(2, 19, 2))  # (1 - cos x)/x^2 = 1/2! - x^2/4! + ...


def _horner(y, terms):
    """Disc of sum_k (-1)^k t_k y^k over the discs t_k, by Horner's rule."""
    acc = terms[-1]
    for t in reversed(terms[:-1]):
        acc = _FloatDiscs.sub(t, _rmul(y, acc))
    return acc


def _angle_discs(a, q):
    """Discs of 1 - cos(theta) and sin(theta), theta = 2*pi*a/q, or None
    when q > 2^50; the bound is in the module docstring."""
    if q > _MAX_Q:
        return None
    j, m = divmod(8 * a + q, 2 * q)
    m -= q
    mid = math.pi * (abs(m) / (4 * q))
    x = mid, _PHI_REL * mid  # the disc of phi = pi*|m|/(4q)
    y = _rmul(x, x)
    sin_psi = _rmul(x, _horner(y, _SIN_TERMS))
    if m < 0:
        sin_psi = _neg(sin_psi)
    vers = _rmul(y, _horner(y, _VERS_TERMS))
    j %= 4
    if j == 0:
        return vers, sin_psi
    one = 1.0, 0.0
    cos_psi = _FloatDiscs.sub(one, vers)
    if j == 1:
        cos_theta, sin_theta = _neg(sin_psi), cos_psi
    elif j == 2:
        cos_theta, sin_theta = _neg(cos_psi), _neg(sin_psi)
    else:
        cos_theta, sin_theta = sin_psi, _neg(cos_psi)
    return _FloatDiscs.sub(one, cos_theta), sin_theta


class _FloatDiscs:
    """Hermitian matrix of (midpoint, radius) discs, rows of complex
    midpoints and rows of float radii; the bounds are in the module docstring."""

    def __init__(self, mids, rads):
        self.mids, self.rads = mids, rads

    @classmethod
    def of_form(cls, sym, skew, discs):
        """Discs of H from the discs of 1 - cos theta and sin theta, or None
        if those are None (q > 2^50) or an integer entry is not an exact float."""
        if discs is None or any(
            abs(x) > _EXACT for rows in (sym, skew) for row in rows for x in row
        ):
            return None
        (oc, roc), (s, rs) = discs
        mids, rads = [], []
        for srow, krow in zip(sym, skew):
            mids.append([complex(oc * x, s * y) for x, y in zip(srow, krow)])
            rads.append([
                (roc * abs(x) + rs * abs(y) + _U * (abs(oc * x) + abs(s * y)) + _ETA)
                * _INFL
                for x, y in zip(srow, krow)
            ])
        return cls(mids, rads)

    def __len__(self):
        return len(self.mids)

    def diag(self, i):
        return self.mids[i][i].real, self.rads[i][i]

    def entry(self, i, j):
        return self.mids[i][j], self.rads[i][j]

    def take(self, p):
        """Remove row and column p; return their entries."""
        row, rrow = self.mids.pop(p), self.rads.pop(p)
        del row[p], rrow[p]
        col = [(m.pop(p), r.pop(p)) for m, r in zip(self.mids, self.rads)]
        return list(zip(row, rrow)), col

    def update(self, xs, ys):
        """Replace each entry a_ij by a disc of a_ij - x_i y_j; False (and
        nothing certified) if the multiplicands exceed the guard."""
        ays = [abs(y) for y, _ in ys]
        rys = [ry for _, ry in ys]
        if not sum(abs(x) + rx for x, rx in xs) + sum(ays) + sum(rys) <= _BIG:
            return False
        ys = [y for y, _ in ys]
        coef_abs = [ry + _MUL * ay for ay, ry in zip(ays, rys)]
        coef_rad = [ay + ry for ay, ry in zip(ays, rys)]
        for i, (x, rx) in enumerate(xs):
            ax = abs(x)
            row = [c - x * y for c, y in zip(self.mids[i], ys)]
            self.rads[i] = [
                (rc + ax * ca + rx * cr + _U * abs(z) + _ETA) * _INFL
                for rc, ca, cr, z in zip(self.rads[i], coef_abs, coef_rad, row)
            ]
            self.mids[i] = row
        return True

    @staticmethod
    def sign(d):
        margin = abs(d[0]) - d[1]
        return math.copysign(margin, d[0]) if margin >= _TINY else None

    @staticmethod
    def conj(x):
        return x[0].conjugate(), x[1]

    @staticmethod
    def mul(x, y):
        (x, rx), (y, ry) = x, y
        ax, ay = abs(x), abs(y)
        return x * y, (ax * ry + rx * (ay + ry) + _MUL * ax * ay + _ETA) * _INFL

    @staticmethod
    def sub(x, y):
        z = x[0] - y[0]
        return z, (x[1] + y[1] + _U * abs(z) + _ETA) * _INFL

    @staticmethod
    def div(z, d):
        """z / d for a real disc d with a certified margin."""
        (z, rz), (d, rd) = z, d
        y = complex(z.real / d, z.imag / d)
        ay = abs(y)
        return y, ((rz + ay * rd) / (abs(d) - rd) + _U * ay + _ETA) * _INFL

    @classmethod
    def abs2(cls, b):
        z, rz = cls.mul(b, cls.conj(b))
        return z.real, rz


# -- fallback: the same elimination in mpmath interval arithmetic -------------


class _Intervals:
    """Hermitian matrix of iv.mpc entries at the current iv.prec."""

    def __init__(self, iv, rows):
        self.iv, self.rows = iv, rows

    @classmethod
    def of_form(cls, iv, sym, skew, a, q):
        theta = 2 * iv.pi * a / q
        oc, s = 1 - iv.cos(theta), iv.sin(theta)
        return cls(iv, [
            [iv.mpc(oc * x, s * y) for x, y in zip(srow, krow)]
            for srow, krow in zip(sym, skew)
        ])

    def __len__(self):
        return len(self.rows)

    def diag(self, i):
        return self.rows[i][i].real

    def entry(self, i, j):
        return self.rows[i][j]

    def take(self, p):
        row = self.rows.pop(p)
        del row[p]
        return row, [other.pop(p) for other in self.rows]

    def update(self, xs, ys):
        for row, x in zip(self.rows, xs):
            row[:] = [c - x * y for c, y in zip(row, ys)]
        return True

    mul = staticmethod(operator.mul)
    sub = staticmethod(operator.sub)
    div = staticmethod(operator.truediv)

    @staticmethod
    def sign(d):
        if d.a > 0:
            return d.a
        if d.b < 0:
            return d.b
        return None

    def conj(self, x):
        return self.iv.mpc(x.real, -x.imag)

    @staticmethod
    def abs2(b):
        return b.real**2 + b.imag**2


# -- arcs: one elimination per arc of the unit circle -------------------------


def _primitive(p):
    g = math.gcd(*p)
    return [c // g for c in p]


def _sturm_sequence(d):
    """D, D', then each negated pseudo-remainder, taken with a positive
    multiplier and divided by its content: an integer Sturm sequence."""
    seq = [_primitive(d)]
    if len(d) > 1:
        seq.append(_primitive([k * c for k, c in enumerate(d)][1:]))
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        r = _pseudo_remainder(a, b)  # lc(b)^(deg a - deg b + 1) a mod b
        if not r:
            break
        if b[-1] > 0 or (len(a) - len(b)) % 2:  # that multiplier is positive
            r = [-c for c in r]
        seq.append(_primitive(r))
    return seq


_ARC_BITS = 64
_ARC_SCALE = 2.0**_ARC_BITS
_ARC_ONE = 1 << _ARC_BITS


def _variations(seq, num):
    """Sign variations of seq at num / 2^64; None at a root of seq[0]."""
    signs = []
    for p in seq:
        acc, shift = p[-1], 0
        for c in reversed(p[:-1]):  # p(num / 2^64) 2^(64 deg p), by Horner
            shift += _ARC_BITS
            acc = acc * num + (c << shift)
        if acc:
            signs.append(acc > 0)
        elif p is seq[0]:
            return None
    return sum(x != y for x, y in zip(signs, signs[1:]))


class _Arcs:
    """The one evaluator of the signatures of V, for one call: V + V^t,
    V^t - V and the Sturm sequence of D are built once, and each arc of the
    upper unit circle is eliminated once; the argument is in the module
    docstring."""

    def __init__(self, V):
        self.V = V
        # alexander() validates V, so the rows below are square.
        self._sturm = _sturm_sequence(chebyshev_form(alexander(V), V.dim).coeffs)
        n, rows = V.dim, V.rows
        self._sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        self._skew = [[rows[j][i] - rows[i][j] for j in range(n)] for i in range(n)]
        self._values = {}  # arc -> signature

    def signature(self, w):
        """Signature at w != 1, or JUMP when omega is a root of Delta.

        A located angle is no root, since its bracket holds no root of D;
        only an undecided angle needs at_jump's division, and it gets its
        own elimination.
        """
        discs = _angle_discs(w.a, w.q)
        arc = None if discs is None else self._locate(discs)
        if arc is None:
            return JUMP if at_jump(self.V, w) else self._inertia(w, discs)
        if arc not in self._values:
            self._values[arc] = self._inertia(w, discs)
        return self._values[arc]

    def _locate(self, discs):
        """The arc of the angle with these discs, or None when undecided."""
        # 2 cos(theta) = 2 - 2(1 - cos theta) lies in [lo, hi] / 2^64: the
        # scaling by 2^64 is exact, and floor and ceil round outward.
        (oc, roc), _ = discs
        r = math.ceil(roc * _ARC_SCALE)
        lo = 2 * (_ARC_ONE - math.ceil(oc * _ARC_SCALE) - r)
        hi = 2 * (_ARC_ONE - math.floor(oc * _ARC_SCALE) + r)
        arc = _variations(self._sturm, hi)
        if arc is None or _variations(self._sturm, lo) != arc:
            return None
        return arc

    def _inertia(self, w, discs):
        sym, skew = self._sym, self._skew
        pos, neg = _float_inertia(sym, skew, discs) or _interval_ladder(sym, skew, w.a, w.q)
        assert pos + neg == self.V.dim
        return pos - neg


class SignatureProfile(Record):
    """Signature at every a/q, a = 1..q-1; JUMP marks Alexander roots."""

    __slots__ = ("q", "values")  # values: a -> int or JUMP

    def non_jump_values(self):
        return [v for v in self.values.values() if v is not JUMP]

    def jump_angles(self):
        return [a for a, v in self.values.items() if v is JUMP]


def signature_profile(V, q):
    """Tristram-Levine signatures of V at all q-th roots of unity except 1."""
    return _profile(_Arcs(V), q)


def _profile(arcs, q):
    if q < 2:
        raise ValueError("q must be >= 2")
    values = {}
    for a in range(1, q):
        # H at conj(omega) is conj(H), with the same inertia and jumps.
        values[a] = values[q - a] if 2 * a > q else arcs.signature(UnitRootArg(a, q))
    return SignatureProfile(q=q, values=values)


class TorusLemmaReport(Record):
    __slots__ = (
        "q",
        "matrix",  # the T(2,q) SeifertMatrix that was checked
        "profile",  # SignatureProfile
        "min_value",
        "sigma_at_minus_one",
        "jump_steps",  # JumpStepReport
    )


# Largest q whose torus lemma verify_torus_lemma checks.  Its (q+1)/2
# eliminations of the (q-1)x(q-1) form cost about q^4.3 in all: 1.4 s at
# q = 61, 4.0 s at 81 and 9.7 s at 101 (in-process, Python 3.11, Intel Xeon).
MAX_VERIFY_Q = 101


def verify_torus_lemma(q):
    """Check sigma_{a/q}(T_{2,q}) = 2 min(a, q-a), the closed form
    seifert.torus_2q_signatures that witness schedules use, for all a != 0
    (so no q-th root is a jump and every value is >= 2) and sigma_{-1} =
    q-1, and run jump_step_check on the same matrix; the profile and the
    jump steps share their arcs, so each arc is eliminated once.  q past
    MAX_VERIFY_Q is refused before the matrix is built."""
    # Past MAX_TORUS_Q, torus_2q refuses q with its own message.
    if MAX_VERIFY_Q < q <= MAX_TORUS_Q:
        raise BadTorusParameter(
            "q = %d is past %d, the largest q whose torus lemma --verify "
            "checks" % (q, MAX_VERIFY_Q)
        )
    V = torus_2q(q)
    arcs = _Arcs(V)
    profile = _profile(arcs, q)
    closed_form = torus_2q_signatures(q)
    for a, v in profile.values.items():
        if v != closed_form[a]:
            raise LemmaViolation(
                "sigma_{%d/%d}(T(2,%d)) is %s, the closed form 2 min(a, q-a) "
                "gives %d" % (a, q, q, v, closed_form[a])
            )
    min_value = min(profile.non_jump_values())
    steps = _jump_steps(arcs, q)
    sigma_minus_one = steps.sigma_at_minus_one
    if sigma_minus_one != q - 1:
        raise LemmaViolation(
            "sigma_{-1}(T(2,%d)) is %s, expected %d" % (q, sigma_minus_one, q - 1)
        )
    return TorusLemmaReport(
        q=q,
        matrix=V,
        profile=profile,
        min_value=min_value,
        sigma_at_minus_one=sigma_minus_one,
        jump_steps=steps,
    )


class JumpInfo(Record):
    __slots__ = (
        "numerator",  # jump at angle numerator/(2q)
        "denominator",
        "ccw_step",  # signature change counterclockwise across the root
        "away_step",  # step in the direction leading away from omega = 1
        "simple",
    )


class JumpStepReport(Record):
    __slots__ = (
        "q",
        "jumps",  # JumpInfo, ascending
        "sigma_at_minus_one",  # None when -1 is itself a root
    )


def jump_step_check(V, q):
    """Locate signature jumps on the 2q-grid and check each simple one is +-2.

    Requires every unit-circle root of the Alexander polynomial to be a root
    of unity of order dividing 2q; one-sided values are read off at the 4q-th
    root midpoints, which are never Alexander roots under that hypothesis.
    The remainder after the cyclotomic factors may be a unit +-t^k, which
    has no root on the unit circle.
    """
    return _jump_steps(_Arcs(V), q)


def _jump_steps(arcs, q):
    if q < 1:
        raise ValueError("q must be >= 1")
    factors, remainder = cyclotomic_factor_extract(alexander(arcs.V))
    if not remainder.is_laurent_unit():
        raise PreconditionUnverifiable(
            "Alexander polynomial has non-cyclotomic factor %s; jump "
            "locations are not certified rational angles" % remainder
        )
    bad = [n for n, _ in factors if (2 * q) % n != 0]
    if bad:
        raise PreconditionUnverifiable(
            "cyclotomic factors with index not dividing %d: %s" % (2 * q, bad)
        )
    # The remainder is a unit, so omega is a root of Delta exactly when its
    # order is the index of one of these factors.
    multiplicity = dict(factors)
    # Signature on each open arc between consecutive 2q-grid points; arc j
    # is the conjugate of arc 2q-1-j, so only the upper half is evaluated.
    mid = [_off_jump(arcs, UnitRootArg(2 * j + 1, 4 * q)) for j in range(q)]
    mid += reversed(mid)
    jumps = []
    for j in range(1, 2 * q):
        w = UnitRootArg(j, 2 * q)
        if w.q not in multiplicity:
            continue
        ccw = mid[j] - mid[j - 1]
        away = ccw if j <= q else -ccw
        simple = multiplicity[w.q] == 1
        if simple and abs(ccw) != 2:
            raise LemmaViolation(
                "jump at %d/%d across a simple root has step %d, expected +-2"
                % (j, 2 * q, ccw)
            )
        jumps.append(
            JumpInfo(
                numerator=j,
                denominator=2 * q,
                ccw_step=ccw,
                away_step=away,
                simple=simple,
            )
        )
    if 2 in multiplicity:
        sigma_minus_one = None
    else:
        sigma_minus_one = _off_jump(arcs, UnitRootArg(1, 2))
    return JumpStepReport(q=q, jumps=tuple(jumps), sigma_at_minus_one=sigma_minus_one)
