"""Tristram-Levine signatures at rational angles, with certified arithmetic.

The signature at omega = exp(i*theta), theta = 2*pi*a/q, is the signature of
the n x n Hermitian form

    H = (1-omega)V + (1-conj(omega))V^t = (1-cos theta)(V+V^t) + i sin theta (V^t-V).

Jump locations (roots of the Alexander polynomial on the unit circle) are
decided exactly; evaluation at a jump is refused, and a profile marks it
JUMP.  Between jumps the signature is constant, so every signature is
evaluated through one path that eliminates at most once per arc (see
Arcs below).

Elimination.  Off jumps, the inertia of an arc is that of one integer
Hermitian form H = A(V+V^t) + iB(V^t-V) (Evaluation point, below),
eliminated exactly over the Gaussian integers by symmetric Bareiss (Bareiss
1968).  Step k takes as its pivot p_k the nonzero diagonal entry of least
absolute value, moving its row and column to the front together, and
replaces each remaining entry h_ij by (p_k h_ij - h_ik h_kj) / p_(k-1),
with p_0 = 1.  By Sylvester's identity that entry is a minor of H, a
Gaussian integer, so the division by the real integer p_(k-1) is exact, and
p_k is the k-th leading principal minor of H so reordered.  The k-th pivot
of its LDL^* factorization is p_k / p_(k-1), with the sign of p_k p_(k-1)
(Jacobi's rule), and by Sylvester's law of inertia these signs add up to
the inertia of H.

A row with h_ik = 0 would only be multiplied by p_k / p_(k-1), so it is
left as stored, stale: its true entries are the stored ones times p / s, p
the latest pivot and s the pivot of the step that last updated the row (1
if none), and its next update is (p_k h_ij - h_ik h_kj) / s on its stored
entries, exact as before.  A row is brought up to date when it becomes the
pivot row, and the pivot is the least |true diagonal entry|, so the pivots
and minors are those of the eager elimination.  On the banded T(2,q) forms
most rows are stale at most steps, so the elimination is quadratic, not
cubic.

When every remaining diagonal entry is 0 but h_cj is not, adding u = h_cj
times row j to row c and conj(u) times column j to column c makes h_cc =
2 Re(u h_jc) = 2|h_cj|^2 > 0, the next pivot.  That is a congruence of H
which leaves the rows already eliminated, and so the earlier minors, as
they are; every row is brought up to date first, since a row operation
needs its two rows at one scale.  A remainder of zeros is the kernel of a
singular form.  Each arc's inertia is checked twice: pos + neg = n, and,
since det H = (2 cos theta - 2)^g D(2 cos theta) (D under Arcs), sigma =
2 [D(2 cos theta') < 0] mod 4 at the evaluation point, which catches one
flipped sign.

The arc next to omega = 1 is not eliminated: sigma = 0 there is a theorem.
For 0 < theta < theta_1, the first root, H / theta tends to i(V^t - V) as
theta -> 0+.  V - V^t is real, skew and unimodular, so the eigenvalues of
i(V^t - V) come in pairs +-lambda, lambda != 0, and its signature is 0;
det H != 0 on the whole arc, so sigma is constant there, and it is 0.
Both checks hold on that arc by the Sturm count that locates it: pos + neg
= n since H is nonsingular there, and sigma = 0 = 2 [D < 0] mod 4 since D
is positive on (x_1, 2], x_1 = 2 cos theta_1, as D(2) = Delta(1) = 1.

Angles.  Each angle gets one integer fixed-point bracket at b bits:
integers c, e with 2 cos theta within 2e of c / 2^b.  A unit is 2^-b, and
every quotient below is floored.

    reduction  theta = pi*n/(4q) with n = 8a.  In integers, n = 2q*j + m
               with -q <= m < q, so theta = j*pi/2 + psi, psi = pi*m/(4q),
               |psi| <= pi/4; cos theta and sin theta are +-cos psi and
               +-sin psi by the quarter turn j, and sin psi is odd in m.
    pi         Machin's 16 arctan(1/5) - 4 arctan(1/239), each arctan(1/x)
               summed at b + 16 bits from the powers 2^(b+16) / x^(2k+1)
               over 2k+1 until the power is 0 (each term under 2.05 units
               low, the tail under 1.05), rounded to b bits: P, within
               e_pi of pi 2^b, kept per b.
    series     y = P|m| / (4q) is within e_pi/4 + 1 of |psi| 2^b.  t_0 = 2^b,
               t_k = (t_(k-1) y / 2^b) / k until t_K = 0: t_k is at most 4
               units below (y/2^b)^k/k! 2^b (its shortfall is at most
               (y/2^b times the last one + 1)/k + 1, y/2^b < 0.8), and each
               alternating tail is under 4, so the sums are within 2K + 6
               of cos and sin at y/2^b, and within e = 2K + e_pi/4 + 8 of
               cos psi and sin psi (slope at most 1); for m = 0, e = 0.
    bits       b = 72 + 2 bitlength(q) at first (_start_bits); b only sets
               which angles the first bracket locates (see locating below).

Arcs.  det H = (1-omega)^n Delta(conj omega), so H is nonsingular off the
roots of Delta and the signature is constant on each arc of the unit circle
between consecutive roots (Levine 1969, Tristram 1969).  Every signature,
a single tl_signature as well as a profile, a jump-step check or the torus
lemma, is one walk over ascending angles (bisection, below) of an
evaluator built for that call, which forms V + V^t, V^t - V and the Sturm
sequence of D once.  For each angle it locates, the walk computes the
bracket once and finds the angle's arc with it; it eliminates once per
arc, at the arc's evaluation point, but the arc next to omega = 1
(Elimination), and copies the value to the other angles on that arc, the
evaluator keeping the values for that one call.  That arc is the one
whose Sturm count is V(2), taken once per evaluator and only when an arc
is about to be eliminated.

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
    locating   the bracket [c - 2e - 1, c + 2e + 1] / 2^b of 2 cos theta,
               widened by one unit so that it is never a point, has exact
               dyadic ends lo < hi.  If D(lo) and D(hi) are nonzero and
               V(lo) = V(hi), no root lies in the bracket and V(hi) names
               the arc; sign variations are counted in integer arithmetic,
               never by a float comparison.
    jumps      a located bracket holds no root of D, so omega is no root
               of Delta.  Only an undecided angle gets the exact test:
               omega is a root of Delta iff q is the index of a factor in
               Delta's cyclotomic split, and a root is a jump.  Any other
               angle has 2 cos theta off every root of D, and doubling b
               shrinks the bracket onto it, so a few doublings locate it:
               every angle off a root is located.
    bisection  on (0, pi] the arc index only grows with theta, so two
               located angles with the same index enclose no root of D,
               and every angle between them shares their arc.  A walk
               locates the two ends of a run of its angles, and splits the
               run at its middle angle only where their indices differ or
               one end is a jump.  A profile at q then locates O(r log q)
               angles for r roots on the circle, not q/2.

Evaluation point.  Each arc is evaluated at one point theta' on it.  With
t = tan(theta'/2) > 0, H at theta' in (0, pi) is 2t/(1+t^2) times t(V+V^t) +
i(V^t-V); for t = A/B it has the inertia of the integer form A(V+V^t) +
iB(V^t-V).  The point aims at the centre x of the located bracket
clipped to [-2, 2], where t^2 = (2-x)/(2+x): (A, B) = (N, 2^k) with N =
max(1, isqrt(4^k t^2)) if t <= 1, else (2^k, N) with N = max(1, isqrt(4^k /
t^2)), so neither is past 2^k.  k doubles from 4 until x' = 2 cos theta' =
2(B^2-A^2)/(A^2+B^2) has the arc's Sturm count V(hi) and D(x') != 0, so that
theta' lies on the arc of theta or of its conjugate (same inertia); a large
enough k lands in the bracket.
"""

import functools
import math

from .errors import (
    BadTorusParameter,
    CertificationFailure,
    JumpPoint,
    LemmaViolation,
    PreconditionUnverifiable,
    TrivialAngle,
)
from .exactpoly import (
    Record,
    _pseudo_remainder,
    chebyshev_form,
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

    def __reduce__(self):
        return "JUMP"  # pickle and copy give back the one JUMP


JUMP = _JumpMarker()


def at_jump(V, w):
    """True iff omega is a root of the Alexander polynomial: iff w's reduced
    order is the index of a factor in Delta's cyclotomic split."""
    if w.is_trivial:
        raise TrivialAngle("angle 0 is excluded")
    factors, _ = cyclotomic_factor_extract(alexander(V))
    return w.q in dict(factors)


def tl_signature(V, w):
    """Tristram-Levine signature of V at omega = exp(2*pi*i*a/q); exact."""
    if w.is_trivial:
        raise TrivialAngle("the form vanishes at omega = 1; angle 0 is excluded")
    return _off_jump(_Arcs(V).walk([w.a], w.q)[0], w)


def _off_jump(sigma, w):
    """The signature sigma at w, raising JumpPoint where it is JUMP, at a
    root of the Alexander polynomial."""
    if sigma is JUMP:
        raise JumpPoint("omega = exp(2*pi*i*%s) is a root of the Alexander polynomial" % w)
    return sigma


def _form_inertia(sym, skew, a, b):
    """(pos, neg) of the Hermitian form a(V+V^t) + ib(V^t-V), exactly, by
    symmetric Bareiss elimination over Z[i]; see Elimination in the module
    docstring.  The real and imaginary parts are kept as integer matrices;
    row i's true entries are its stored ones times last / scale[i]."""
    re = [[a * x for x in row] for row in sym]
    im = [[b * y for y in row] for row in skew]
    scale = [1] * len(re)
    pos = neg = 0
    last = 1  # the previous pivot, a leading principal minor
    while re:
        n = len(re)
        if not any(re[i][i] for i in range(n)):
            nonzero = ((c, j) for c in range(n) for j in range(n) if re[c][j] or im[c][j])
            pair = next(nonzero, None)
            if pair is None:
                break  # the rest is 0: the form is singular
            for i, stale in enumerate(scale):  # row ops need rows at one scale
                if stale != last:
                    re[i] = [r * last // stale for r in re[i]]
                    im[i] = [r * last // stale for r in im[i]]
            scale = [last] * n
            c, j = pair
            x, y = re[c][j], im[c][j]  # u = h_cj = x + iy
            re[c], im[c] = (  # row c plus u row j
                [r + x * rj - y * ij for r, rj, ij in zip(re[c], re[j], im[j])],
                [s + x * ij + y * rj for s, rj, ij in zip(im[c], re[j], im[j])],
            )
            for rrow, irow in zip(re, im):  # column c plus conj(u) column j
                rj, ij = rrow[j], irow[j]
                rrow[c] += x * rj + y * ij
                irow[c] += x * ij - y * rj
        k = min(
            (i for i in range(n) if re[i][i]),
            key=lambda i: abs(re[i][i] * last // scale[i]),
        )
        rk, ik, s = re.pop(k), im.pop(k), scale.pop(k)  # row k: h_kj = rk[j] + i ik[j]
        if s != last:
            rk = [r * last // s for r in rk]
            ik = [r * last // s for r in ik]
        d = rk[k]
        del rk[k], ik[k]
        for i, (rrow, irow) in enumerate(zip(re, im)):
            x, y = rrow.pop(k), irow.pop(k)  # stored h_ik = x + iy
            if x or y:  # (d h_ij - h_ik h_kj) / scale[i]; else the row goes stale
                s = scale[i]
                rrow[:] = [(d * r - x * u + y * v) // s for r, u, v in zip(rrow, rk, ik)]
                irow[:] = [(d * t - x * v - y * u) // s for t, u, v in zip(irow, rk, ik)]
                scale[i] = d
        if (d > 0) == (last > 0):
            pos += 1
        else:
            neg += 1
        last = d
    return pos, neg


# -- angles: one integer bracket of 2 cos theta --------------------------------


def _arctan_inv(x, bits):
    """(S, err): arctan(1/x) 2^bits is within err of S; x >= 5."""
    x2 = x * x
    power = (1 << bits) // x
    total = k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x2
        k += 1
    return total, 3 * k + 2


@functools.lru_cache(maxsize=None)
def _pi_fixed(bits):
    """(P, e_pi): pi 2^bits is within e_pi of P, by Machin's formula."""
    s5, e5 = _arctan_inv(5, bits + 16)
    s239, e239 = _arctan_inv(239, bits + 16)
    return (16 * s5 - 4 * s239 + (1 << 15)) >> 16, ((16 * e5 + 4 * e239) >> 16) + 1


def _start_bits(q):
    """Bits of an angle's first bracket (module docstring, Angles)."""
    return 72 + 2 * q.bit_length()


def _angle_bracket(a, q, bits):
    """(c, e): 2 cos(theta) is within 2e of c / 2^bits, theta = 2*pi*a/q;
    the bound is in the module docstring."""
    j, m = divmod(8 * a + q, 2 * q)
    m -= q
    pi, e_pi = _pi_fixed(bits)
    y = pi * abs(m) // (4 * q)  # |psi| 2^bits
    cos = t = 1 << bits
    sin = k = 0
    while t:
        k += 1
        t = (t * y >> bits) // k
        if k & 1:
            sin += -t if k & 2 else t
        else:
            cos += -t if k & 2 else t
    if m < 0:
        sin = -sin
    cos = (cos, -sin, -cos, sin)[j % 4]
    return 2 * cos, (2 * k + e_pi // 4 + 8 if m else 0)


def _arc_point(sturm, arc, lo, hi, bits):
    """(A, B, D < 0): t = A/B = tan(theta'/2), theta' on the arc with Sturm
    count arc whose located bracket of 2 cos theta is [lo, hi] / 2^bits, and
    whether D is negative at 2 cos theta'; see Evaluation point in the module
    docstring."""
    two = 2 << bits
    lo, hi = max(lo, -two), min(hi, two)
    # Aim at x = (lo + hi) / 2^(bits+1), where t^2 = (2 - x) / (2 + x).
    num, den = 2 * two - lo - hi, 2 * two + lo + hi
    k = 4  # coarse first, so that the form's entries stay small
    while True:
        if num <= den:
            a, b = max(1, math.isqrt((num << 2 * k) // den)), 1 << k
        else:
            a, b = 1 << k, max(1, math.isqrt((den << 2 * k) // num))
        a2, b2 = a * a, b * b
        at = _variations(sturm, 2 * (b2 - a2), a2 + b2)
        if at is not None and at[0] == arc:
            return a, b, at[1]
        k *= 2


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


def _variations(seq, num, den):
    """(V, D < 0) at num / den, den > 0: the sign variations of seq, and
    whether seq[0], D over its positive content, is negative there; None at
    a root of seq[0].  Two points with the same V have no root of D between
    them, so D has one sign there too."""
    signs = []
    for p in seq:
        acc, power = p[-1], 1
        for c in reversed(p[:-1]):  # p(num / den) den^(deg p), by Horner
            power *= den
            acc = acc * num + c * power
        if acc:
            signs.append(acc > 0)
        elif p is seq[0]:
            return None
    return sum(x != y for x, y in zip(signs, signs[1:])), not signs[0]


class _Arcs:
    """The evaluator of the signatures of V, for one call, and its one walk:
    V + V^t, V^t - V and the Sturm sequence of D are built once, and each
    arc of the upper unit circle but the one next to omega = 1 is
    eliminated once; the argument is in the module docstring."""

    def __init__(self, V):
        self.V = V
        # alexander() validates V, so the rows below are square.
        self._sturm = _sturm_sequence(chebyshev_form(alexander(V)).coeffs)
        n, rows = V.dim, V.rows
        self._sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        self._skew = [[rows[j][i] - rows[i][j] for j in range(n)] for i in range(n)]
        self._values = {}  # arc -> signature

    def walk(self, numerators, q):
        """Signatures at the angles a/q, a in numerators, ascending in (0,
        q/2], or one angle anywhere off 0: a list of values, JUMP at a root
        of Delta.  The angles are located by bisection (Arcs, module
        docstring): a run whose two ends lie on one arc lies on it whole,
        and is split only where the ends differ or one is a jump.  Each arc
        is evaluated once, at the first angle on it."""
        spots = {}

        def spot(i):
            if i not in spots:
                spots[i] = self.arc_of(UnitRootArg(numerators[i], q))
            return spots[i]

        runs = [(0, len(numerators) - 1)]
        while runs:
            lo, hi = runs.pop()
            first, last = spot(lo), spot(hi)
            if hi - lo < 2:
                continue
            if first is not None and last is not None and first[0] == last[0]:
                spots.update(dict.fromkeys(range(lo + 1, hi), first))
            else:
                mid = (lo + hi) // 2
                runs += [(mid, hi), (lo, mid)]
        values = []
        for s in map(spots.get, range(len(numerators))):
            if s is not None and s[0] not in self._values:
                self._values[s[0]] = self._inertia(*s)
            values.append(JUMP if s is None else self._values[s[0]])
        return values

    def arc_of(self, w):
        """(arc, bracket, bits) of w != 1, or None when omega is a root of
        Delta.

        A located angle is no root, since its bracket holds no root of D;
        only an undecided angle is looked up in Delta's cyclotomic split by
        at_jump, and one that is no root is located by doubling the
        bracket's bits.
        """
        bits = _start_bits(w.q)
        bracket = _angle_bracket(w.a, w.q, bits)
        arc = self._locate(bracket, bits)
        if arc is None and at_jump(self.V, w):
            return None
        while arc is None:
            bits *= 2
            bracket = _angle_bracket(w.a, w.q, bits)
            arc = self._locate(bracket, bits)
        return arc, bracket, bits

    def _locate(self, bracket, bits):
        """The arc of the angle with this bracket, or None when undecided."""
        lo, hi = _ends(bracket)
        at_hi = _variations(self._sturm, hi, 1 << bits)
        if at_hi is None or _variations(self._sturm, lo, 1 << bits) != at_hi:
            return None
        return at_hi[0]

    @functools.cached_property
    def _next_to_one(self):
        """The arc next to omega = 1, whose Sturm count is the one at x = 2:
        D(2) = Delta(1) = 1, so 2 is no root."""
        return _variations(self._sturm, 2, 1)[0]

    def _inertia(self, arc, bracket, bits):
        if arc == self._next_to_one:
            return 0  # a theorem: Elimination, module docstring
        a, b, d_negative = _arc_point(self._sturm, arc, *_ends(bracket), bits)
        pos, neg = _form_inertia(self._sym, self._skew, a, b)
        # sigma = 2 [D < 0] mod 4 at the point: Elimination, module docstring.
        if pos + neg != self.V.dim or (pos - neg) % 4 != 2 * d_negative:
            raise CertificationFailure(
                "the inertia (%d, %d) is off sigma = 2 [D < 0] mod 4" % (pos, neg)
            )
        return pos - neg


def _ends(bracket):
    """The ends lo < hi of the bracket of 2 cos theta, widened by one unit."""
    c, e = bracket
    return c - 2 * e - 1, c + 2 * e + 1


def signature_profile(V, q):
    """Tristram-Levine signatures of V at all q-th roots of unity except 1:
    {a: sigma at a/q, or JUMP at a root of Delta} for a = 1..q-1."""
    return _profile(_Arcs(V), q)


def _profile(arcs, q):
    if q < 2:
        raise ValueError("q must be >= 2")
    half = arcs.walk(range(1, q // 2 + 1), q)
    # H at conj(omega) is conj(H), with the same inertia and jumps.
    return {a: half[min(a, q - a) - 1] for a in range(1, q)}


class TorusLemmaReport(Record):
    __slots__ = (
        "profile",  # signature_profile of T(2,q)
        "jump_steps",  # JumpStepReport of T(2,q)
    )


# Largest q whose torus lemma verify_torus_lemma checks.  Its (q-1)/2
# eliminations of the (q-1)x(q-1) form set the cost: `--json torus q
# --verify` takes 0.14 s at q = 61, 0.36 s at 81 and 0.77 s at 101, of
# which the Alexander polynomial is 0.05 s (in-process, best of 3, Python
# 3.11, Intel Xeon, 2 vCPUs).
MAX_VERIFY_Q = 101


def verify_torus_lemma(q):
    """Check sigma_{a/q}(T_{2,q}) = 2 min(a, q-a), the closed form
    seifert.torus_2q_signatures that witness schedules use, for all a != 0
    (so no q-th root is a jump and every value is >= 2) and sigma_{-1} =
    q-1.  The report holds the profile and the jump steps (_jump_steps,
    the evaluator of jump_step_check); they share their arcs, so each arc
    is eliminated once, and the arc next to 1, which only the jump-step
    midpoint 1/(4q) lies on, not at all: (q-1)/2 eliminations.  q past
    MAX_VERIFY_Q is refused before the matrix is built."""
    # Past MAX_TORUS_Q, torus_2q refuses q with its own message.
    if MAX_VERIFY_Q < q <= MAX_TORUS_Q:
        raise BadTorusParameter(
            "q = %d is past %d, the largest q whose torus lemma --verify "
            "checks" % (q, MAX_VERIFY_Q)
        )
    arcs = _Arcs(torus_2q(q))
    profile = _profile(arcs, q)
    closed_form = torus_2q_signatures(q)
    for a, v in profile.items():
        if v != closed_form[a]:
            raise LemmaViolation(
                "sigma_{%d/%d}(T(2,%d)) is %s, the closed form 2 min(a, q-a) "
                "gives %d" % (a, q, q, v, closed_form[a])
            )
    steps = _jump_steps(arcs, q)
    sigma_minus_one = steps.sigma_at_minus_one
    if sigma_minus_one != q - 1:
        raise LemmaViolation(
            "sigma_{-1}(T(2,%d)) is %s, expected %d" % (q, sigma_minus_one, q - 1)
        )
    return TorusLemmaReport(profile=profile, jump_steps=steps)


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
        "jumps",  # JumpInfo, ascending
        "sigma_at_minus_one",
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
    # Signature on each open arc between consecutive 2q-grid points, at its
    # midpoint (2j+1)/(4q), then at -1 = 2q/(4q), which ends the last one;
    # arc j is the conjugate of arc 2q-1-j, so only the upper half is
    # evaluated.
    numerators = [*range(1, 2 * q, 2), 2 * q]
    mid = [
        _off_jump(sigma, UnitRootArg(a, 4 * q))
        for a, sigma in zip(numerators, arcs.walk(numerators, 4 * q))
    ]
    sigma_minus_one = mid.pop()
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
    return JumpStepReport(jumps=tuple(jumps), sigma_at_minus_one=sigma_minus_one)
