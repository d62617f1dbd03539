import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotconc

from conftest import cyclotomic_coeffs, jump_angles, poly_mul, random_seifert, seifert_rows
from knotconc.errors import (
    CertificationFailure,
    JumpPoint,
    LemmaViolation,
    PreconditionUnverifiable,
    TrivialAngle,
)
from knotconc.exactpoly import IntPolynomial, chebyshev_form, cyclotomic_factor_extract
from knotconc.seifert import (
    FIGURE_EIGHT,
    TREFOIL,
    UNKNOT,
    SeifertMatrix,
    alexander,
    connected_sum,
    mirror,
    multiple,
    torus_2q,
    torus_2q_signatures,
)
from knotconc import signatures
from knotconc.signatures import (
    JUMP,
    JumpInfo,
    JumpStepReport,
    UnitRootArg,
    at_jump,
    jump_step_check,
    signature_profile,
    tl_signature,
    verify_torus_lemma,
)


def _mpmath():
    """mpmath, the arithmetic of the oracles below; a test that needs it
    is skipped where it is not installed."""
    return pytest.importorskip("mpmath")


def numeric_signature(V, a, q, dps=40):
    """Float oracle: eigenvalue signs of (1-w)V + (1-conj(w))V^t."""
    mpmath = _mpmath()
    mpmath.mp.dps = dps
    n = V.dim
    w = mpmath.e ** (2j * mpmath.pi * a / q)
    m = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            m[i, j] = (1 - w) * V.rows[i][j] + (1 - mpmath.conj(w)) * V.rows[j][i]
    return _eigenvalue_signature(m, dps)


def _eigenvalue_signature(m, dps):
    """Eigenvalue signs of the Hermitian mpmath matrix m, at dps digits."""
    mpmath = _mpmath()
    eigvals = mpmath.mp.eigh(m, eigvals_only=True)
    sig = 0
    for lam in eigvals:
        assert abs(lam) > mpmath.mpf(10) ** (-dps // 2), "oracle hit a near-zero eigenvalue"
        sig += 1 if lam > 0 else -1
    return sig


class TestUnitRootArg:
    def test_reduction(self):
        w = UnitRootArg(2, 6)
        assert (w.a, w.q) == (1, 3)

    def test_trivial(self):
        w = UnitRootArg(0, 5)
        assert w.is_trivial and w.q == 1
        assert UnitRootArg(5, 5).is_trivial
        assert UnitRootArg(-10, 5) == UnitRootArg(0, 1) == w

    def test_negative_numerator(self):
        assert UnitRootArg(-1, 3) == UnitRootArg(2, 3)

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            UnitRootArg(1, 0)


class TestAtJump:
    def test_trefoil_sixth_roots(self):
        assert at_jump(TREFOIL, UnitRootArg(1, 6))
        assert at_jump(TREFOIL, UnitRootArg(5, 6))
        assert not at_jump(TREFOIL, UnitRootArg(1, 3))
        assert not at_jump(TREFOIL, UnitRootArg(1, 2))

    def test_figure_eight_never_jumps(self):
        for q in range(2, 13):
            for a in range(1, q):
                assert not at_jump(FIGURE_EIGHT, UnitRootArg(a, q))

    def test_trivial_angle_rejected(self):
        with pytest.raises(TrivialAngle):
            at_jump(TREFOIL, UnitRootArg(0, 1))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(rows=seifert_rows(max_genus=4), summand=st.sampled_from([None, 3, 5, 7]))
    def test_matches_long_division(self, rows, summand):
        # Every order up to past the oracle's bound, as a reduced fraction
        # for odd q and an unreduced one for even q, and two orders far past.
        V = SeifertMatrix(rows)
        if summand is not None:
            V = connected_sum(V, torus_2q(summand))
        delta = alexander(V)
        for q in list(range(2, 2 * delta.degree() ** 2 + 3)) + [2**50 + 1, 2**61 - 1]:
            w = UnitRootArg(q - 1, q) if q % 2 else UnitRootArg(3, 3 * q)
            assert at_jump(V, w) is _divides_by_long_division(delta, q), q


def _long_division(f, g):
    """(quotient, remainder) of f by a monic g, ascending coefficient lists."""
    f, dg = list(f), len(g) - 1
    quotient = [0] * max(0, len(f) - dg)
    for i in range(len(f) - dg - 1, -1, -1):
        quotient[i] = c = f[i + dg]
        for j, x in enumerate(g):
            f[i + j] -= c * x
    return quotient, f[:dg]


def _divides_by_long_division(delta, q):
    """Phi_q | Delta, by long division; shares no code with at_jump's
    cyclotomic split.  phi(q) >= sqrt(q/2), so past q = 2 deg(Delta)^2 no
    Phi_q divides Delta."""
    degree = delta.degree()
    if degree < 1 or q > 2 * degree**2:
        return False
    phi = cyclotomic_coeffs(q)
    return len(phi) - 1 <= degree and not any(_long_division(delta.coeffs, phi)[1])


class TestTLSignature:
    def test_trefoil_spot_values(self):
        assert tl_signature(TREFOIL, UnitRootArg(1, 3)) == 2
        assert tl_signature(TREFOIL, UnitRootArg(1, 2)) == 2

    def test_torus_25_at_minus_one(self):
        assert tl_signature(torus_2q(5), UnitRootArg(1, 2)) == 4

    def test_figure_eight_at_minus_one(self):
        assert tl_signature(FIGURE_EIGHT, UnitRootArg(1, 2)) == 0

    def test_unknot(self):
        assert tl_signature(UNKNOT, UnitRootArg(1, 2)) == 0

    def test_jump_point_rejected(self):
        with pytest.raises(JumpPoint):
            tl_signature(TREFOIL, UnitRootArg(1, 6))

    def test_trivial_angle_rejected(self):
        with pytest.raises(TrivialAngle):
            tl_signature(TREFOIL, UnitRootArg(0, 1))

    def test_against_numeric_oracle(self, rng):
        checked = 0
        while checked < 40:
            V = random_seifert(rng, rng.randint(1, 2))
            a, q = rng.randint(1, 11), 12
            w = UnitRootArg(a, q)
            if w.is_trivial or at_jump(V, w):
                continue
            assert tl_signature(V, w) == numeric_signature(V, w.a, w.q)
            checked += 1

    def test_additivity(self, rng):
        for _ in range(25):
            V1 = random_seifert(rng, 1)
            V2 = random_seifert(rng, 1)
            w = UnitRootArg(rng.randint(1, 6), 7)
            if at_jump(V1, w) or at_jump(V2, w):
                continue
            total = tl_signature(connected_sum(V1, V2), w)
            assert total == tl_signature(V1, w) + tl_signature(V2, w)

    def test_mirror_negates(self, rng):
        for _ in range(25):
            V = random_seifert(rng, rng.randint(1, 2))
            w = UnitRootArg(rng.randint(1, 4), 5)
            if at_jump(V, w):
                continue
            assert tl_signature(mirror(V), w) == -tl_signature(V, w)

    def test_multiple_scales(self, rng):
        for _ in range(15):
            V = random_seifert(rng, 1)
            w = UnitRootArg(1, 5)
            if at_jump(V, w):
                continue
            s = tl_signature(V, w)
            for n in (2, 3):
                assert tl_signature(multiple(V, n), w) == n * s

    def test_conjugation_symmetry(self, rng):
        for _ in range(25):
            V = random_seifert(rng, rng.randint(1, 2))
            q = rng.choice([5, 7, 9])
            a = rng.randint(1, q - 1)
            w = UnitRootArg(a, q)
            wc = UnitRootArg(q - a, q)
            if at_jump(V, w):
                continue
            assert tl_signature(V, w) == tl_signature(V, wc)


class TestProfile:
    def test_trefoil_q6(self):
        profile = signature_profile(TREFOIL, 6)
        assert profile == {1: JUMP, 2: 2, 3: 2, 4: 2, 5: JUMP}
        assert jump_angles(profile) == [1, 5]
        assert [v for v in profile.values() if v is not JUMP] == [2, 2, 2]

    def test_figure_eight_q8(self):
        profile = signature_profile(FIGURE_EIGHT, 8)
        assert jump_angles(profile) == []
        assert all(v in (-1, 0, 1) or v % 2 == 0 for v in profile.values() if v is not JUMP)
        # Conjugation symmetry within a profile.
        for a in range(1, 8):
            assert profile[a] == profile[8 - a]

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            signature_profile(TREFOIL, 1)


class TestTorusLemma:
    def test_small_q(self):
        for q in (3, 5, 7, 9):
            report = verify_torus_lemma(q)
            assert report.min_signature >= 2
            assert report.jump_steps.sigma_at_minus_one == q - 1
            # No q-th root a/q, the grid point 2a/(2q), is a jump.
            assert all(j.numerator % 2 for j in report.jump_steps.jumps)

    @pytest.mark.parametrize("q", list(range(3, 32, 2)) + [49, 61])
    def test_closed_form_matches_elimination(self, q):
        # Litherland's 2 min(a, q-a), which witness schedules use, against
        # certified eliminations of the T(2,q) form.
        profile = signature_profile(torus_2q(q), q)
        assert [profile[a] for a in range(1, q)] == torus_2q_signatures(q)[1:]

    def test_jump_at_a_qth_root_is_a_violation(self, monkeypatch):
        # A jump reported at 2/10, the angle 1/5, must fail the lemma even
        # though the arc after it, sigma 2, matches the closed form.
        check = signatures.jump_step_check

        def planted(V, q):
            report = check(V, q)
            jump = JumpInfo(numerator=2, denominator=2 * q, ccw_step=2, away_step=2, simple=True)
            return JumpStepReport(
                jumps=report.jumps + (jump,),
                sigma_at_minus_one=report.sigma_at_minus_one,
                arc_signatures=report.arc_signatures,
            )

        monkeypatch.setattr(signatures, "jump_step_check", planted)
        with pytest.raises(LemmaViolation, match=r"sigma_\{1/5\}\(T\(2,5\)\) is JUMP"):
            verify_torus_lemma(5)

    def test_reads_one_jump_step_check(self, monkeypatch):
        calls = _counting(monkeypatch, "jump_step_check")
        verify_torus_lemma(7)
        assert calls["jump_step_check"] == [(torus_2q(7), 7)]

    def test_closed_form_mismatch_is_a_violation(self, monkeypatch):
        wrong = [0, 2, 4, 4, 6, 4, 2]  # T(2,7) has 2, 4, 6, 6, 4, 2
        monkeypatch.setattr(signatures, "torus_2q_signatures", lambda q: wrong)
        with pytest.raises(LemmaViolation, match="closed form"):
            verify_torus_lemma(7)

    def test_violation_detection(self):
        # The lemma machinery must notice a matrix that fails the bound:
        # the mirrored torus knot has negative signatures.
        V = mirror(torus_2q(5))
        profile = signature_profile(V, 5)
        assert min(v for v in profile.values() if v is not JUMP) < 2


class TestJumpSteps:
    def test_trefoil(self):
        report = jump_step_check(TREFOIL, 3)
        locations = [(j.numerator, j.denominator) for j in report.jumps]
        assert locations == [(1, 6), (5, 6)]
        assert all(j.simple and j.away_step == 2 for j in report.jumps)
        assert report.sigma_at_minus_one == 2

    def test_torus_25(self):
        report = jump_step_check(torus_2q(5), 5)
        assert len(report.jumps) == 4
        assert all(j.simple and j.away_step == 2 for j in report.jumps)
        assert report.sigma_at_minus_one == 4
        # Two jumps on the way from 1 to -1 account for sigma(-1) = 4.
        upper = [j for j in report.jumps if 2 * j.numerator < j.denominator]
        assert sum(j.away_step for j in upper) == report.sigma_at_minus_one

    def test_rejects_small_q(self):
        with pytest.raises(ValueError, match="q must be >= 1"):
            jump_step_check(TREFOIL, 0)

    def test_unknot_has_no_jumps(self):
        report = jump_step_check(UNKNOT, 4)
        assert report.jumps == ()
        assert report.sigma_at_minus_one == 0

    def test_double_root_not_marked_simple(self):
        V = connected_sum(TREFOIL, TREFOIL)
        report = jump_step_check(V, 3)
        assert [(j.numerator, j.denominator) for j in report.jumps] == [(1, 6), (5, 6)]
        assert all(not j.simple and j.away_step == 4 for j in report.jumps)

    def test_non_cyclotomic_rejected(self):
        # Alexander polynomials with a non-cyclotomic factor: the figure
        # eight's -t^2 + 3t - 1 has no root on the unit circle, and is
        # refused all the same, alone and summed with the trefoil.
        for V in (FIGURE_EIGHT, connected_sum(FIGURE_EIGHT, TREFOIL)):
            with pytest.raises(PreconditionUnverifiable, match="non-cyclotomic factor"):
                jump_step_check(V, 6)

    def test_index_not_dividing_grid_rejected(self):
        with pytest.raises(PreconditionUnverifiable):
            jump_step_check(TREFOIL, 2)  # phi_6 | Delta but 6 does not divide 4

    def test_t_power_factor_is_a_unit(self):
        # [[-2, 1], [0, 0]] has Delta = t, a unit: the trefoil's jumps remain.
        V = connected_sum(SeifertMatrix([[-2, 1], [0, 0]]), TREFOIL)
        assert alexander(V) == poly_mul(alexander(TREFOIL), IntPolynomial([0, 1]))
        report = jump_step_check(V, 3)
        steps = [(j.numerator, j.denominator, j.ccw_step) for j in report.jumps]
        assert steps == [(1, 6, 2), (5, 6, -2)]
        assert all(j.simple for j in report.jumps)


@st.composite
def _jump_step_draws(draw):
    """(V, q): a genus 1-3 matrix with entries in [-3, 3], on some draws
    summed with T(2,3) or T(2,5), and q <= 15, on most of those draws a
    multiple of the summand's q so that its roots lie on the 2q-grid."""
    V = SeifertMatrix(draw(seifert_rows()))
    summand = draw(st.sampled_from([None, 3, 5]))
    if summand is None:
        return V, draw(st.integers(1, 15))
    q = draw(st.one_of(st.integers(1, 15), st.sampled_from(range(summand, 16, summand))))
    return connected_sum(V, torus_2q(summand)), q


class TestJumpStepProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_jump_step_draws())
    def test_report_or_unverifiable(self, draw):
        V, q = draw
        try:
            report = jump_step_check(V, q)
        except PreconditionUnverifiable:
            return
        assert all(abs(j.ccw_step) == 2 for j in report.jumps if j.simple)
        # -1 is never a root: Delta(-1) is odd for a knot, so sigma(-1) is
        # that of arc q-1, which ends there.
        assert report.sigma_at_minus_one == numeric_signature(V, 1, 2)
        assert report.sigma_at_minus_one == report.arc_signatures[q - 1]

    @pytest.mark.parametrize(
        "V, q",
        [
            (torus_2q(3), 3),
            (torus_2q(5), 5),
            (connected_sum(TREFOIL, TREFOIL), 3),  # a double root at 1/6
            (connected_sum(torus_2q(3), torus_2q(5)), 15),
            (UNKNOT, 4),
        ],
    )
    def test_arc_signatures_against_the_oracle(self, V, q):
        # Entry j is sigma on the open arc (j/(2q), (j+1)/(2q)), which holds
        # the midpoint (2j+1)/(4q).
        arcs = jump_step_check(V, q).arc_signatures
        assert len(arcs) == 2 * q
        for j, sigma in enumerate(arcs):
            assert sigma == numeric_signature(V, 2 * j + 1, 4 * q), j


class TestParity:
    """Delta(1) = +-1 and Delta(-1) = Delta(1) (mod 2), so neither 1 nor -1
    is a root of Delta, and no split holds Phi_1 or Phi_2."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=seifert_rows(max_genus=4))
    def test_delta_at_minus_one_is_odd(self, rows):
        delta = alexander(SeifertMatrix(rows))
        assert delta(-1) % 2 == 1
        factors, _ = cyclotomic_factor_extract(delta)
        assert not {1, 2} & {n for n, _ in factors}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        summands=st.lists(st.tuples(st.sampled_from([3, 5, 7, 9]), st.booleans()), max_size=3),
        unit=st.booleans(),
    )
    def test_jump_steps_evaluate_minus_one(self, summands, unit):
        # Sums of T(2,s) and their mirrors, optionally with Delta = t: Delta
        # is cyclotomic up to a unit, and sigma(-1) is the sum of the +-(s-1).
        V = SeifertMatrix([[-2, 1], [0, 0]]) if unit else UNKNOT
        for s, mirrored in summands:
            V = connected_sum(V, mirror(torus_2q(s)) if mirrored else torus_2q(s))
        report = jump_step_check(V, math.lcm(*(s for s, _ in summands)))
        assert type(report.sigma_at_minus_one) is int
        assert report.sigma_at_minus_one == sum(
            (1 - s if mirrored else s - 1) for s, mirrored in summands
        )


# Delta = 2t^2 - 3t + 2 has a unit-circle root at cos(theta) = 3/4; the two
# angles below are continued-fraction convergents of that root's angle.
NEAR_ROOT = SeifertMatrix([[1, 1], [0, 2]])
NEAR_ROOT_3E17 = UnitRootArg(15375095, 133665412)  # 3e-17 turns from the root
NEAR_ROOT_5E16 = UnitRootArg(1722792, 14977319)  # 5e-16 turns from the root


def _form_parts(V):
    """Integer matrices V + V^t and V^t - V; H = (1-cos)(V+V^t) + i sin (V^t-V)."""
    n = V.dim
    sym = [[V.rows[i][j] + V.rows[j][i] for j in range(n)] for i in range(n)]
    skew = [[V.rows[j][i] - V.rows[i][j] for j in range(n)] for i in range(n)]
    return sym, skew


def _bracket(w):
    """The angle's first bracket (c, e) and its bits."""
    bits = signatures._start_bits(w.q)
    return signatures._angle_bracket(w.a, w.q, bits), bits


def _interval(w):
    """(lo, hi, bits): the angle's first bracket, widened as arc_of widens
    it, in units of 2^-bits."""
    (c, e), bits = _bracket(w)
    return c - 2 * e - 1, c + 2 * e + 1, bits


def _located(V, w):
    """(evaluator, arc, lo, hi, bits) of w, whose first bracket must be
    located."""
    arcs = signatures._Arcs(V)
    arc = _locate(arcs, w)
    assert arc is not None
    return (arcs, arc) + _interval(w)


def _point(V, w):
    """The evaluation point (A, B) of the arc of w, as _inertia takes it:
    (1, 0) on the arc through omega = -1, else _aimed_point's."""
    arcs, arc = _located(V, w)[:2]
    if arc == arcs._through_minus_one[0]:
        return 1, 0
    return _aimed_point(V, w)


def _aimed_point(V, w):
    """The point (A, B) that _arc_point aims from the bracket of w, as on
    every arc but the one through omega = -1."""
    arcs, arc, lo, hi, bits = _located(V, w)
    return signatures._arc_point(arcs._sturm, arc, lo, hi, bits)[:2]


def _realified_inertia(sym, skew, a, b):
    """Oracle: (pos, neg) of a(V+V^t) + ib(V^t-V) from its real form
    [[A, -B], [B, A]], A = a(V+V^t), B = b(V^t-V), which has each eigenvalue
    of the Hermitian form twice.  Eliminated over Fraction, with a 1x1 pivot
    where the diagonal has a nonzero entry, else a 2x2 pivot [[0, e], [e, 0]]
    with one eigenvalue of each sign; a remainder of zeros is the kernel."""
    re = [[a * x for x in row] for row in sym]
    im = [[b * y for y in row] for row in skew]
    m = [[Fraction(x) for x in r + [-y for y in i]] for r, i in zip(re, im)]
    m += [[Fraction(x) for x in i + r] for r, i in zip(re, im)]
    pos = neg = 0
    while m:
        n = len(m)
        k = next((i for i in range(n) if m[i][i]), None)
        if k is not None:
            d = m[k][k]
            row = m.pop(k)
            del row[k]
            for r in m:
                f = r.pop(k) / d
                if f:
                    r[:] = [x - f * y for x, y in zip(r, row)]
            pos, neg = pos + (d > 0), neg + (d < 0)
            continue
        pair = next(((p, s) for p in range(n) for s in range(n) if m[p][s]), None)
        if pair is None:
            break
        p, s = pair
        e, rest = m[p][s], [i for i in range(n) if i not in pair]
        m = [[m[i][j] - (m[i][p] * m[s][j] + m[i][s] * m[p][j]) / e for j in rest] for i in rest]
        pos, neg = pos + 1, neg + 1
    return pos // 2, neg // 2


def _inertia_paths(V, w):
    """(elimination, oracle): the inertia of the form of V at the evaluation
    point of the arc of w, by _form_inertia and by the realified oracle."""
    sym, skew = _form_parts(V)
    a, b = _point(V, w)
    return signatures._form_inertia(sym, skew, a, b), _realified_inertia(sym, skew, a, b)


def _numeric_signature_at_point(V, a, b, dps=40):
    """Float oracle: eigenvalue signs of a(V+V^t) + ib(V^t-V), the form at
    t = tan(theta'/2) = a/b up to a positive factor."""
    mpmath = _mpmath()
    mpmath.mp.dps = dps
    sym, skew = _form_parts(V)
    m = mpmath.matrix(V.dim, V.dim)
    for i in range(V.dim):
        for j in range(V.dim):
            m[i, j] = mpmath.mpc(a * sym[i][j], b * skew[i][j])
    return _eigenvalue_signature(m, dps)


def _diagonal_pair(m):
    """[[m, 1], [0, m]]: V + V^t = [[2m, 1], [1, 2m]] is positive definite,
    so the signature at omega = -1 is 2; Delta's roots on the circle lie
    within about 1/m of omega = 1."""
    return SeifertMatrix([[m, 1], [0, m]])


class TestCertifiedInertia:
    def test_near_root_needs_a_64_bit_point(self):
        assert alexander(NEAR_ROOT).coeffs == (2, -3, 2)
        # The angle's arc runs through omega = -1, so the evaluator takes the
        # real point (1, 0).  Aimed from the angle's bracket, as on every
        # other arc, the point has to come within 3e-17 turns of the root,
        # so it needs k = 64: the form's entries are past 2^53.
        assert _point(NEAR_ROOT, NEAR_ROOT_3E17) == (1, 0)
        a, b = _aimed_point(NEAR_ROOT, NEAR_ROOT_3E17)
        assert max(a, b) == 2**64
        sym, skew = _form_parts(NEAR_ROOT)
        assert signatures._form_inertia(sym, skew, a, b) == (2, 0)
        assert _realified_inertia(sym, skew, a, b) == (2, 0)
        elimination, oracle = _inertia_paths(NEAR_ROOT, NEAR_ROOT_3E17)
        assert elimination == oracle == (2, 0)
        # Prompt: Phi_133665412 is never built, its degree exceeds deg(Delta).
        start = time.perf_counter()
        assert not at_jump(NEAR_ROOT, NEAR_ROOT_3E17)
        assert tl_signature(NEAR_ROOT, NEAR_ROOT_3E17) == 2
        assert time.perf_counter() - start < 2.0

    def test_close_to_root(self):
        elimination, oracle = _inertia_paths(NEAR_ROOT, NEAR_ROOT_5E16)
        assert elimination == oracle == (1, 1)
        assert tl_signature(NEAR_ROOT, NEAR_ROOT_5E16) == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        genus=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        near_root=st.booleans(),
        zero_diagonal=st.booleans(),
        digits=st.integers(3, 16),
        side=st.sampled_from([-1, 1]),
    )
    def test_arc_points_match_the_realified_oracle(
        self, genus, seed, near_root, zero_diagonal, digits, side
    ):
        rng = random.Random(seed)
        if zero_diagonal:
            # Every diagonal entry of H vanishes: the elimination starts
            # with a congruence, the oracle with a 2x2 pivot.
            rows = [list(r) for r in random_seifert(rng, genus).rows]
            for i, row in enumerate(rows):
                row[i] = 0
            V = SeifertMatrix(rows)
            w = UnitRootArg(rng.randint(1, 30), 31)
        elif near_root:
            # T(2,3) puts a root at 1/6; approach it from either side.
            V = connected_sum(random_seifert(rng, genus - 1), TREFOIL)
            scale = 10**digits
            w = UnitRootArg(scale + side, 6 * scale)
        else:
            V = random_seifert(rng, genus)
            q = rng.choice([6, 8, 12, 31])
            w = UnitRootArg(rng.randint(1, q - 1), q)
        if at_jump(V, w):
            return
        elimination, oracle = _inertia_paths(V, w)
        assert elimination == oracle
        assert sum(elimination) == V.dim

    def test_exact_path_at_genus_12(self):
        # The 24 x 24 elimination, and the oracle's realified 48 x 48 form
        # over Fraction.
        V = random_seifert(random.Random(12), 12)
        w = UnitRootArg(5, 31)
        start = time.perf_counter()
        elimination, oracle = _inertia_paths(V, w)
        assert time.perf_counter() - start < 2.0
        assert elimination == oracle and sum(elimination) == 24

    @pytest.mark.parametrize("q", [2, 8])
    def test_minus_one_takes_the_real_point(self, monkeypatch, q):
        # The arc through omega = -1 is evaluated at theta' = pi, t =
        # tan(theta'/2) = infinity taken as (A, B) = (1, 0): the real form
        # V + V^t.  The profile's angles share that arc and its one
        # elimination.
        V = _diagonal_pair(2**11 + 1)
        minus_one = UnitRootArg(1, 2)
        assert _point(V, minus_one) == (1, 0)
        calls = _counting(monkeypatch, "_form_inertia")
        assert signature_profile(V, q) == {a: 2 for a in range(1, q)}
        assert [args[2:] for args in calls["_form_inertia"]] == [(1, 0)]

    def test_large_entry_forces_the_exact_path(self, monkeypatch):
        # An entry past 2^50 makes the first minor past 2^100, far past
        # 2^53, the largest integers that a float holds exactly; the
        # elimination is over the integers.
        V = _diagonal_pair(2**49 + 1)
        sym, skew = _form_parts(V)
        assert _point(V, UnitRootArg(1, 2)) == (1, 0)
        assert max(max(row) for row in sym) ** 2 > 2**100
        assert _realified_inertia(sym, skew, 1, 0) == (2, 0)
        calls = _counting(monkeypatch, "_form_inertia")
        assert tl_signature(V, UnitRootArg(1, 2)) == 2
        assert [args[2:] for args in calls["_form_inertia"]] == [(1, 0)]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        genus=st.integers(1, 4),
        seed=st.integers(0, 2**32),
        summand=st.sampled_from([None, 3, 5]),
        q=st.sampled_from([6, 8, 12, 31]),
    )
    def test_point_is_on_the_arc(self, genus, seed, summand, q):
        # The form at each arc's point has the signature mpmath finds at
        # the first angle on that arc.  The point is (1, 0) on the arc
        # through -1, and on any other arc neither A nor B is past 2^k.
        V = _arc_profile_example(seed, genus, summand)
        arcs, seen = signatures._Arcs(V), set()
        for a in range(1, q // 2 + 1):
            w = UnitRootArg(a, q)
            arc = _locate(arcs, w)
            if arc is None or arc in seen:
                continue
            seen.add(arc)
            A, B = _point(V, w)
            if arc == arcs._through_minus_one[0]:
                assert (A, B) == (1, 0)
            else:
                k = max(A, B).bit_length() - 1
                assert max(A, B) == 2**k and k >= 4
            assert _numeric_signature_at_point(V, A, B) == numeric_signature(V, a, q)


@st.composite
def _forms(draw):
    """(sym, skew, a, b): V + V^t and V^t - V of a Seifert matrix, and a
    point with a or b 0 on some draws and past 2^53 on others.  V is a dense
    genus 1-8 draw with entries up to 9, the banded T(2,q) matrix (q <= 17),
    a block sum of a random draw and torus and figure-eight blocks, or a
    dense draw whose symmetric part is then sparsified; its diagonal is 0 on
    some draws.  The banded, block and sparse forms have many rows whose
    multiplier is 0, which the elimination leaves stale."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["dense", "banded", "block", "sparse"]))
    if kind == "banded":
        V = torus_2q(draw(st.sampled_from(range(3, 18, 2))))
    elif kind == "block":
        block = draw(st.sampled_from([TREFOIL, FIGURE_EIGHT, torus_2q(5)]))
        V = connected_sum(
            random_seifert(rng, draw(st.integers(1, 3)), 2),
            multiple(block, draw(st.integers(1, 2))),
        )
    else:
        V = random_seifert(rng, draw(st.integers(1, 8)), draw(st.sampled_from([1, 2, 9])))
    rows = [list(row) for row in V.rows]
    if draw(st.booleans()):
        for i, row in enumerate(rows):
            row[i] = 0
    sym, skew = _form_parts(SeifertMatrix(rows))
    if kind == "sparse":
        keep = draw(st.sampled_from([0.1, 0.3, 0.5]))
        for i in range(len(sym)):
            for j in range(i + 1, len(sym)):
                if rng.random() > keep:
                    sym[i][j] = sym[j][i] = 0
    point = st.one_of(st.just(0), st.integers(1, 2**8), st.integers(2**53, 2**64))
    return sym, skew, draw(point), draw(point)


class TestFormInertia:
    """The one elimination, _form_inertia, against the realified Fraction
    oracle, which shares no code with it and needs no mpmath."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_forms())
    def test_matches_the_realified_oracle(self, form):
        assert signatures._form_inertia(*form) == _realified_inertia(*form)

    def test_zero_diagonal_takes_the_congruence(self):
        # Every diagonal entry of these forms is 0, so the first elimination
        # step has no pivot until the congruence makes h_cc = 2|h_cj|^2: the
        # inertia cannot come out right unless the congruence ran and was
        # sound, and no counter is needed to see it.
        rows = [list(row) for row in random_seifert(random.Random(7), 4).rows]
        for i, row in enumerate(rows):
            row[i] = 0
        sym, skew = _form_parts(SeifertMatrix(rows))
        assert not any(sym[i][i] for i in range(len(sym)))
        for a, b in ((3, 5), (1, 0)):  # b = 0: the real form, no imaginary part
            expected = _realified_inertia(sym, skew, a, b)
            assert signatures._form_inertia(sym, skew, a, b) == expected
        # With a = 0 the form ib(V^t - V) has no real part, and b times
        # i(V^t - V), with V - V^t the standard symplectic form, has inertia
        # (g, g).
        for b in (1, 2**60 + 1):
            assert signatures._form_inertia(sym, skew, 0, b) == (4, 4)
            assert _realified_inertia(sym, skew, 0, b) == (4, 4)

    def test_congruence_with_stale_rows(self):
        # In the first form the pivot -a updates row 1 to [0, 0, -a^2]
        # (scale -a) and leaves row 2, whose multiplier is 0, stale at scale
        # 1.  Both diagonal entries left are then 0, and the congruence adds
        # a multiple of row 2 to row 1 or of row 1 to row 2, so it must bring
        # them to one scale first.  The second form does the same over Z[i].
        forms = [
            ([[-1, -1, 0], [-1, -1, 1], [0, 1, 0]], [[0] * 3] * 3),
            (
                [[0, 0, 0, 0], [0, 0, 2, 0], [0, 2, 0, -1], [0, 0, -1, 0]],
                [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0]],
            ),
        ]
        for sym, skew in forms:
            for a, b in ((1, 1), (2, 1), (3, 2), (2**60, 5), (1, 0)):
                expected = _realified_inertia(sym, skew, a, b)
                assert signatures._form_inertia(sym, skew, a, b) == expected

    def test_a_sign_flip_trips_the_mod_4_check(self, monkeypatch):
        # (pos + 1, neg - 1) keeps pos + neg = dim but moves sigma by 2, off
        # 2 [D(2 cos theta') < 0] mod 4, which every arc checks.
        eliminate = signatures._form_inertia

        def flipped(*form):
            pos, neg = eliminate(*form)
            return pos + 1, neg - 1

        assert tl_signature(TREFOIL, UnitRootArg(1, 2)) == 2  # D(-2) = -3 < 0
        monkeypatch.setattr(signatures, "_form_inertia", flipped)
        for V in (TREFOIL, connected_sum(FIGURE_EIGHT, TREFOIL), torus_2q(7)):
            with pytest.raises(CertificationFailure):
                tl_signature(V, UnitRootArg(1, 2))
        # The figure-eight's circle is the arc next to 1, which is never
        # eliminated: its sigma = 0 is a theorem (Elimination, in the module
        # docstring), so the flipped elimination is not reached.
        assert tl_signature(FIGURE_EIGHT, UnitRootArg(1, 2)) == 0

    def test_minus_one_is_the_real_form(self, monkeypatch):
        # At omega = -1 the signature is that of V + V^t, the form at (1, 0),
        # by the real path of the elimination; some of the draws have a zero
        # diagonal, so that path's congruence runs.
        rng = random.Random(36)
        for genus, zero_diagonal in [(1, False), (2, True), (3, False), (4, True), (6, True)]:
            rows = [list(row) for row in random_seifert(rng, genus).rows]
            if zero_diagonal:
                for i, row in enumerate(rows):
                    row[i] = 0
            V = SeifertMatrix(rows)
            sym, skew = _form_parts(V)
            assert zero_diagonal == (not any(sym[i][i] for i in range(len(sym))))
            pos, neg = _realified_inertia(sym, skew, 1, 0)
            assert tl_signature(V, UnitRootArg(1, 2)) == pos - neg
        # The figure-eight's -1 lies on the arc next to 1: no elimination.
        calls = _counting(monkeypatch, "_form_inertia")
        assert tl_signature(FIGURE_EIGHT, UnitRootArg(1, 2)) == 0
        assert calls["_form_inertia"] == []

    def test_singular_form_leaves_its_kernel(self):
        # [[2, 2], [2, 2]] has eigenvalues 4 and 0; the zero form has only 0.
        zero = [[0, 0], [0, 0]]
        assert signatures._form_inertia([[2, 2], [2, 2]], zero, 1, 1) == (1, 0)
        assert signatures._form_inertia(zero, zero, 1, 1) == (0, 0)
        assert _realified_inertia([[2, 2], [2, 2]], zero, 1, 1) == (1, 0)


def _per_angle_signature(V, w):
    """Signature of V at w, no root of Delta, by the bare elimination at a
    dyadic point of the angle's own 32-bit bracket, which must hold no root:
    no arcs and no arc point."""
    bits = 32
    c, e = signatures._angle_bracket(w.a, w.q, bits)
    lo, hi = c - 2 * e - 1, c + 2 * e + 1
    seq = _sturm(V)
    arc = signatures._variations(seq, hi, 1 << bits)
    assert arc is not None and signatures._variations(seq, lo, 1 << bits) == arc
    # t = tan(theta/2) to 40 bits, on the upper half circle; next to pi the
    # bracket takes any t past 2^17.
    t = math.tan(math.pi * min(w.a, w.q - w.a) / w.q)
    a, b = round(math.ldexp(min(t, 2.0**20), 40)), 1 << 40
    # 2 cos theta' = 2(b^2 - a^2) / (a^2 + b^2) lies in the bracket.
    x, den = 2 * (b * b - a * a) << bits, a * a + b * b
    assert lo * den <= x <= hi * den
    pos, neg = signatures._form_inertia(*_form_parts(V), a, b)
    return pos - neg


def _per_angle_profile(V, q):
    """The profile with one at_jump test and one elimination per angle."""
    values = {}
    for a in range(1, q):
        w = UnitRootArg(a, q)
        values[a] = JUMP if at_jump(V, w) else _per_angle_signature(V, w)
    return values


def _counting(monkeypatch, *names):
    """Replace each named function of signatures by a wrapper that records
    its arguments; returns {name: list of argument tuples}."""
    calls = {}
    for name in names:
        original = getattr(signatures, name)
        calls[name] = []

        def wrapper(*args, _original=original, _seen=calls[name]):
            _seen.append(args)
            return _original(*args)

        monkeypatch.setattr(signatures, name, wrapper)
    return calls


def _locate(arcs, w):
    """The arc of w on arcs at its first bracket, or None when undecided:
    the Sturm count where both ends of the widened bracket have it."""
    lo, hi, bits = _interval(w)
    at_hi = signatures._variations(arcs._sturm, hi, 1 << bits)
    if at_hi is None or signatures._variations(arcs._sturm, lo, 1 << bits) != at_hi:
        return None
    return at_hi[0]


def _root_free_intervals(arcs, bits):
    """{arc: (lo, hi)}: for each Sturm count on [-2, 2], the first interval
    [lo, hi] / 2^bits that bisecting [-2, 2] finds with that count at both
    ends, so that it holds no root of D; no angle's bracket is involved."""
    den, found, runs = 1 << bits, {}, [(-2 << bits, 2 << bits)]
    while runs:
        lo, hi = runs.pop()
        at_lo = signatures._variations(arcs._sturm, lo, den)
        if at_lo is not None and at_lo == signatures._variations(arcs._sturm, hi, den):
            found.setdefault(at_lo[0], (lo, hi))
        elif hi - lo > 1:
            mid = (lo + hi) // 2
            runs += [(lo, mid), (mid, hi)]
    return found


def _sturm(V):
    return signatures._sturm_sequence(chebyshev_form(alexander(V)).coeffs)


def _roots_in_open_interval(seq):
    """Distinct roots of D = seq[0] in (-2, 2), by Sturm's theorem; D(+-2)
    are Delta(1) and +-Delta(-1), which are odd."""
    return signatures._variations(seq, -2, 1)[0] - signatures._variations(seq, 2, 1)[0]


def _upper_circle_roots(V):
    """Distinct roots of Delta on the open upper half circle, by mpmath."""
    mpmath = _mpmath()
    coeffs = list(reversed(alexander(V).coeffs))
    while coeffs and coeffs[-1] == 0:  # t^k factors
        coeffs.pop()
    if len(coeffs) < 2:
        return 0
    with mpmath.workdps(60):
        roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)
        angles = sorted(
            float(mpmath.arg(z))
            for z in roots
            if abs(abs(z) - 1) < 1e-12 and mpmath.im(z) > 0
        )
    return sum(1 for i, x in enumerate(angles) if i == 0 or x - angles[i - 1] > 1e-9)


def _arc_profile_example(seed, genus, summand):
    rng = random.Random(seed)
    V = random_seifert(rng, genus, bound=rng.choice([1, 2, 3]))
    if summand:
        V = connected_sum(V, torus_2q(summand))
    return V


def _assert_zero_next_to_one(V, angles, every=False):
    """sigma = 0, by _per_angle_signature, at each angle located on the arc
    next to 1; with every, each angle must lie on it."""
    arcs = signatures._Arcs(V)
    # Just below x = 2 cos(0) = 2 the variations are those at 2.
    first = signatures._variations(_sturm(V), 2, 1)[0]
    assert _locate(arcs, angles[0]) == first
    for w in angles:
        if _locate(arcs, w) == first:
            assert _per_angle_signature(V, w) == 0, w
        else:
            assert not every, w


def _torus_signature(p, a, q):
    """sigma of T(2,p) at a/q by its step function: the roots of Delta =
    (t^p + 1)/(t + 1) sit at (2k + 1)/(2p) turns, k < (p - 1)/2 on the upper
    half circle, and sigma is 2k on the arc that ends at the k-th one and
    p - 1 past the last (Litherland 1979)."""
    b = min(a, q - a)  # conjugation
    if 2 * p * b % q == 0 and 2 * p * b // q % 2 and 2 * b < q:
        return JUMP
    return 2 * min((p - 1) // 2, (2 * p * b + q) // (2 * q))


class TestArcs:
    """The arc locator and the profiles built on it, against per-angle
    eliminations and mpmath root finding, which locate no arcs."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32),
        genus=st.integers(1, 6),
        summand=st.sampled_from([None, None, 3, 5]),
        q=st.integers(2, 30),
    )
    def test_profile_matches_per_angle_signatures(self, seed, genus, summand, q):
        V = _arc_profile_example(seed, genus, summand)
        assert signature_profile(V, q) == _per_angle_profile(V, q)

    @pytest.mark.parametrize(
        "V",
        [
            connected_sum(TREFOIL, TREFOIL),  # a double root at 1/6
            connected_sum(SeifertMatrix([[-2, 1], [0, 0]]), torus_2q(5)),  # t | Delta
            connected_sum(SeifertMatrix([[-2, 1], [0, 0]]), FIGURE_EIGHT),
            NEAR_ROOT,
            UNKNOT,
        ],
    )
    def test_fixed_cases(self, V):
        for q in range(2, 31):
            assert signature_profile(V, q) == _per_angle_profile(V, q), q

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32),
        genus=st.integers(1, 6),
        summand=st.sampled_from([None, 3, 5]),
        q=st.integers(2, 2000),
    )
    def test_bisection_matches_a_fresh_evaluator_per_angle(self, seed, genus, summand, q):
        # Each angle on an evaluator of its own, so nothing is shared: no
        # run, no memoized arc.
        V = _arc_profile_example(seed, genus, summand)
        profile = signature_profile(V, q)
        for a in range(1, q // 2 + 1):
            assert [profile[a]] == signatures._Arcs(V).walk([a], q), a

    @pytest.mark.parametrize("bits", [None, 40])
    def test_bisection_across_a_near_root(self, monkeypatch, bits):
        # A run of angles 7.5e-9 turns apart around NEAR_ROOT_3E17, which is
        # 3e-17 turns past the root; at 40 bits that angle is undecided, so
        # the walk takes its jump test and doubles its bits.
        if bits:
            monkeypatch.setattr(signatures, "_start_bits", lambda q: bits)
        a, q = NEAR_ROOT_3E17.a, NEAR_ROOT_3E17.q
        numerators = range(a - 3, a + 4)
        expected = [signatures._Arcs(NEAR_ROOT).walk([b], q)[0] for b in numerators]
        assert expected == [0, 0, 0, 2, 2, 2, 2]
        calls = _counting(monkeypatch, "at_jump")
        assert signatures._Arcs(NEAR_ROOT).walk(numerators, q) == expected
        assert calls["at_jump"] == ([(NEAR_ROOT, NEAR_ROOT_3E17)] if bits else [])

    @pytest.mark.parametrize("q, locates", [(62, 31), (20000, 160)])
    def test_torus_profile_by_bisection(self, monkeypatch, q, locates):
        # T(2,31) has 15 roots on the upper half circle.  At q = 62 they sit
        # between the angles, so every angle is located, as with one locate
        # per angle; at q = 20000 bisection locates a few angles per root.
        calls = _counting(monkeypatch, "_angle_bracket")
        profile = signature_profile(torus_2q(31), q)
        assert profile == {a: _torus_signature(31, a, q) for a in range(1, q)}
        assert len(calls["_angle_bracket"]) == locates

    def test_undecided_angle_falls_back_to_elimination(self, monkeypatch):
        # At 40 bits the bracket of NEAR_ROOT_3E17, 3e-17 turns from a root,
        # holds that root.
        monkeypatch.setattr(signatures, "_start_bits", lambda q: 40)
        arcs = signatures._Arcs(NEAR_ROOT)
        assert _locate(arcs, NEAR_ROOT_3E17) is None
        calls = _counting(monkeypatch, "at_jump", "_angle_bracket", "_form_inertia")
        assert arcs.walk([NEAR_ROOT_3E17.a], NEAR_ROOT_3E17.q) == [2]
        # The undecided angle gets the exact jump test, is no root, and is
        # located at twice the bits, then eliminated once.
        assert calls["at_jump"] == [(NEAR_ROOT, NEAR_ROOT_3E17)]
        assert [bits for _, _, bits in calls["_angle_bracket"]] == [40, 80]
        assert len(calls["_form_inertia"]) == 1
        # Memoized by its located arc: the next call locates the angle
        # again but eliminates nothing.
        assert arcs.walk([NEAR_ROOT_3E17.a], NEAR_ROOT_3E17.q) == [2]
        assert len(calls["_form_inertia"]) == 1

    def test_near_root_is_located_at_the_first_bracket(self, monkeypatch):
        calls = _counting(monkeypatch, "at_jump", "_form_inertia")
        arcs = signatures._Arcs(NEAR_ROOT)
        assert arcs.walk([NEAR_ROOT_3E17.a], NEAR_ROOT_3E17.q) == [2]
        assert arcs.walk([NEAR_ROOT_3E17.a], NEAR_ROOT_3E17.q) == [2]
        assert calls["at_jump"] == []
        assert len(calls["_form_inertia"]) == 1

    def test_root_is_undecided_and_a_jump(self, monkeypatch):
        # The bracket of a root holds that root, so only the exact test
        # decides it: the trefoil's 1/6 is the profile's one at_jump call.
        calls = _counting(monkeypatch, "at_jump")
        assert signature_profile(TREFOIL, 6)[1] is JUMP
        assert calls["at_jump"] == [(TREFOIL, UnitRootArg(1, 6))]

    def test_close_angle_is_decided(self):
        arcs = signatures._Arcs(NEAR_ROOT)
        assert _locate(arcs, NEAR_ROOT_5E16) == _locate(arcs, UnitRootArg(1, 100))
        assert _locate(arcs, UnitRootArg(1, 2)) != _locate(arcs, UnitRootArg(1, 100))

    @pytest.mark.parametrize(
        "forms, q",
        [([torus_2q(7)], 14), ([TREFOIL], 12), ([torus_2q(31)], 62)]
        + [([random_seifert(random.Random(seed), g) for seed in range(20)], 12) for g in range(1, 7)],
        ids=["T(2,7)", "trefoil", "T(2,31)"] + ["genus-%d" % g for g in range(1, 7)],
    )
    def test_arc_is_evaluated_from_any_root_free_interval(self, forms, q):
        # _inertia needs an arc's Sturm count and an interval on it that holds
        # no root of D, not an angle: here the intervals come from bisecting
        # [-2, 2] at 24 bits, and each arc's value is the profile's at every
        # angle on it.
        for V in forms:
            arcs = signatures._Arcs(V)
            intervals = _root_free_intervals(arcs, 24)
            first, last = arcs._next_to_one, arcs._through_minus_one[0]
            assert sorted(intervals) == list(range(first, last + 1))
            values = {arc: arcs._inertia(arc, lo, hi, 24) for arc, (lo, hi) in intervals.items()}
            profile = signature_profile(V, q)
            for a in range(1, q):
                spot = arcs.arc_of(UnitRootArg(a, q))
                assert profile[a] == (JUMP if spot is None else values[spot[0]]), (V, a)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32), genus=st.integers(1, 4))
    def test_root_count_matches_polyroots(self, seed, genus):
        V = random_seifert(random.Random(seed), genus)
        assert _roots_in_open_interval(_sturm(V)) == _upper_circle_roots(V)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        halves=st.lists(st.integers(-3, 3), max_size=4),
        quadratics=st.lists(
            st.tuples(st.integers(1, 5), st.integers(-3, 3), st.integers(1, 3)).filter(
                lambda c: c[1] ** 2 < 4 * c[0] * c[2]
            ),
            max_size=2,
        ),
        sign=st.sampled_from([-1, 1]),
    )
    def test_sturm_sequence_counts_known_roots(self, halves, quadratics, sign):
        # D = sign * prod(2x - k) * prod(c0 + c1 x + c2 x^2), the quadratics
        # without real roots: its roots in (-2, 2) are the distinct k/2.
        d = poly_mul(
            sign, *[IntPolynomial([-k, 2]) for k in halves], *map(IntPolynomial, quadratics)
        )
        seq = signatures._sturm_sequence(list(d.coeffs))
        assert _roots_in_open_interval(seq) == len(set(halves))

    def test_sturm_sequence_with_a_negative_multiplier(self):
        # -4x(2x - 1)(x + 1)(2x - 3)(3x^2 + 5): its Sturm sequence has
        # degrees 6, 5, 3, ...; the pseudo-remainder of the degree-5 term by
        # the degree-3 one, whose leading coefficient is negative, is taken
        # with the negative multiplier lc^3.
        d = [0, -60, 100, 44, -20, 48, -48]
        assert _roots_in_open_interval(signatures._sturm_sequence(d)) == 4

    @pytest.mark.parametrize(
        "V, count",
        [
            (TREFOIL, 1),
            (connected_sum(TREFOIL, TREFOIL), 1),
            (torus_2q(7), 3),
            (connected_sum(torus_2q(3), torus_2q(5)), 3),
            (FIGURE_EIGHT, 0),
            (NEAR_ROOT, 1),
        ],
    )
    def test_root_count_of_known_polynomials(self, V, count):
        assert _roots_in_open_interval(_sturm(V)) == count == _upper_circle_roots(V)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32),
        genus=st.integers(1, 6),
        summand=st.sampled_from([None, 3, 5]),
    )
    def test_signature_vanishes_on_the_arc_next_to_one(self, seed, genus, summand):
        # _Arcs returns sigma = 0 on that arc without eliminating it, so the
        # theorem is checked here by the bare elimination at points of the
        # arc, which goes through no _Arcs.
        V = _arc_profile_example(seed, genus, summand)
        _assert_zero_next_to_one(
            V, [UnitRootArg(1, 10**6)] + [UnitRootArg(a, 30) for a in range(1, 16)]
        )

    def test_the_figure_eight_circle_is_the_arc_next_to_one(self):
        # Delta = -t^2 + 3t - 1 has no root on the circle.
        _assert_zero_next_to_one(
            FIGURE_EIGHT, [UnitRootArg(a, 60) for a in range(1, 31)], every=True
        )

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 31])
    def test_torus_mid_angle_is_on_the_arc_next_to_one(self, q):
        # T(2,q)'s first root is at 1/(2q) turns, past its first jump-step
        # midpoint 1/(4q).
        _assert_zero_next_to_one(torus_2q(q), [UnitRootArg(1, 4 * q)], every=True)


class TestEliminationCounts:
    """Calls of the one elimination seam, _form_inertia, and of the exact
    jump test, counted on the arc path."""

    def test_profile_tests_each_angle_once(self, monkeypatch):
        # T(2,7) has roots at 1/14, 3/14 and 5/14 turns: the angles a/12,
        # a <= 6, fall on three arcs.
        calls = _counting(monkeypatch, "at_jump", "_angle_bracket", "_form_inertia")
        signature_profile(torus_2q(7), 12)
        angles = {a: UnitRootArg(a, 12) for a in range(1, 7)}
        # Every angle is located on its arc, so none needs a jump test, and
        # its bracket is computed once.  Bisection locates the ends 1 and 6,
        # which differ, splits at 3, then (1, 3) at 2, (3, 6) at 4 and
        # (4, 6) at 5.  The first angle on each arc aims that arc's
        # evaluation point.
        assert calls["at_jump"] == []
        assert calls["_angle_bracket"] == [
            (w.a, w.q, signatures._start_bits(w.q)) for w in map(angles.get, [1, 6, 3, 2, 4, 5])
        ]
        # The third arc runs through -1, whose point is (1, 0).
        assert [args[2:] for args in calls["_form_inertia"]] == [
            _point(torus_2q(7), angles[1]),
            _point(torus_2q(7), angles[3]),
            (1, 0),
        ]

    @pytest.mark.parametrize(
        "V, q, real", [(TREFOIL, 6, 1), (torus_2q(7), 12, 1), (FIGURE_EIGHT, 12, 0)]
    )
    def test_profile_eliminates_at_most_one_real_form(self, monkeypatch, V, q, real):
        # Only the arc through -1 is eliminated at b = 0, as the real form
        # V + V^t, and only once; the figure-eight's -1 lies on the arc next
        # to 1, which is not eliminated.
        calls = _counting(monkeypatch, "_form_inertia")
        signature_profile(V, q)
        assert [args[2:] for args in calls["_form_inertia"] if args[3] == 0] == [(1, 0)] * real

    def test_profile_locates_only_the_ends_of_a_run(self, monkeypatch):
        # T(2,7) at q = 600: the angles 51..100 all lie between the roots
        # at 1/14 and 3/14 turns; the ends of their run share an arc, so
        # nothing between them is located.
        calls = _counting(monkeypatch, "_angle_bracket")
        arcs = signatures._Arcs(torus_2q(7))
        assert arcs.walk(range(51, 101), 600) == [2] * 50
        assert [args[:2] for args in calls["_angle_bracket"]] == [(17, 200), (1, 6)]

    def test_figure_eight_profile_needs_no_elimination(self, monkeypatch):
        # Its circle is the arc next to 1, where sigma = 0 is a theorem:
        # bisection locates the ends 1/12 and 6/12, and nothing is eliminated.
        calls = _counting(monkeypatch, "_angle_bracket", "_form_inertia")
        profile = signature_profile(FIGURE_EIGHT, 12)
        assert profile == {a: 0 for a in range(1, 12)}
        assert [args[:2] for args in calls["_angle_bracket"]] == [(1, 12), (1, 2)]
        assert calls["_form_inertia"] == []

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 15, 61])
    def test_torus_lemma_eliminates_each_arc_once(self, monkeypatch, q):
        calls = _counting(monkeypatch, "at_jump", "_form_inertia")
        verify_torus_lemma(q)
        # (q + 1) / 2 arcs on the upper half circle; the one next to 1, which
        # holds the jump-step midpoint 1/(4q), needs no elimination.
        assert len(calls["_form_inertia"]) == (q - 1) // 2
        assert [args[3] for args in calls["_form_inertia"]].count(0) == 1
        assert calls["at_jump"] == []

    def test_jump_steps_read_jumps_from_the_factor_list(self, monkeypatch):
        calls = _counting(monkeypatch, "at_jump", "_form_inertia")
        report = jump_step_check(torus_2q(5), 5)
        assert len(report.jumps) == 4 and report.sigma_at_minus_one == 4
        # The jumps come from the factor list and every midpoint is located:
        # no jump test, one elimination per arc but the one next to 1.
        assert calls["at_jump"] == []
        assert len(calls["_form_inertia"]) == 2

    def test_tl_signature_is_one_elimination(self, monkeypatch):
        calls = _counting(monkeypatch, "at_jump", "_form_inertia")
        assert tl_signature(torus_2q(5), UnitRootArg(1, 2)) == 4
        assert calls["at_jump"] == [] and len(calls["_form_inertia"]) == 1

    def test_jump_steps_refuse_a_midpoint_at_a_root(self, monkeypatch):
        # Under its hypothesis no midpoint is a root; were one reported as
        # a jump, the check must raise rather than subtract JUMP.
        arc_of = signatures._Arcs.arc_of
        monkeypatch.setattr(
            signatures._Arcs, "arc_of", lambda self, w: None if w.q == 12 else arc_of(self, w)
        )
        with pytest.raises(JumpPoint, match="1/12"):
            jump_step_check(TREFOIL, 3)


def _assert_bracket_encloses(a, q):
    """The angle's first bracket holds 2 cos(2 pi a/q) within 2e units of
    2^-bits, by mpmath at 200 bits."""
    mpmath = _mpmath()
    w = UnitRootArg(a, q)
    (c, e), bits = _bracket(w)
    with mpmath.workprec(200):
        two_cos = 2 * mpmath.cospi(2 * mpmath.mpf(w.a) / w.q)
        assert abs(two_cos * 2**bits - c) <= 2 * e, w


class TestAngleDiscs:
    """The angle's integer bracket of 2 cos(theta), the disc that every
    arc is located and aimed from, against mpmath at 200 bits, which
    shares no code with it."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(2, 2**62).flatmap(
            lambda q: st.tuples(st.integers(1, q - 1), st.just(q))
        )
    )
    def test_encloses_random_angles(self, angle):
        _assert_bracket_encloses(*angle)

    def test_encloses_every_angle_of_small_order(self):
        for q in range(2, 64):
            for a in range(1, q):
                _assert_bracket_encloses(a, q)

    @pytest.mark.parametrize("n", [1, 3, 10**6, 2**47])
    def test_octant_and_quarter_boundaries(self, n):
        for k in range(1, 8):
            for a in (k * n - 1, k * n, k * n + 1):
                _assert_bracket_encloses(a, 8 * n)

    def test_angles_next_to_one_and_minus_one(self):
        for e in range(1, 63):
            for q in (2**e, 2**e - 1):  # an odd q puts an angle next to -1
                for a in (1, q // 2, q - 1):
                    if a:
                        _assert_bracket_encloses(a, q)

    @pytest.mark.parametrize("bits", [64, 80, 127, 256, 1000])
    def test_pi_within_its_error(self, bits):
        mpmath = _mpmath()
        pi, e_pi = signatures._pi_fixed(bits)
        with mpmath.workprec(bits + 64):
            assert abs(mpmath.pi * 2**bits - pi) <= e_pi <= 2

    @pytest.mark.parametrize("q", [2**50 + 1, 2**61 - 1])
    def test_large_q_gets_a_bracket(self, q):
        # Next to 1 and next to -1 (q odd); the signatures that
        # test_large_q_signatures finds there, against mpmath.
        for a, sigma in ((1, 0), (q // 2, 2)):
            _assert_bracket_encloses(a, q)
            assert numeric_signature(TREFOIL, a, q, 60) == sigma

    @pytest.mark.parametrize("q", [2**50 + 1, 2**61 - 1])
    def test_large_q_signatures(self, q):
        # The same angles, checked with no mpmath: the elimination against
        # the realified oracle, and tl_signature.
        for a, expected in ((1, (1, 1)), (q // 2, (2, 0))):
            w = UnitRootArg(a, q)
            assert _inertia_paths(TREFOIL, w) == (expected, expected)
            assert tl_signature(TREFOIL, w) == expected[0] - expected[1]


_IMPORT_CHECK = """
import contextlib, io, sys
# With mpmath unimportable, every command and every signature path still runs.
sys.modules["mpmath"] = None
from knotconc import cli, signatures
from knotconc.seifert import TREFOIL, SeifertMatrix

# The result records are plain slotted classes: no dataclasses, no inspect.
assert not {"dataclasses", "inspect"} & set(sys.modules), sorted(sys.modules)

def heavy():
    return sorted(m for m in ("mpmath", "numpy") if sys.modules.get(m) is not None)

def run(argv, stdin=""):
    out = io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    assert not heavy(), (argv, heavy())
    return out.getvalue()

assert not heavy(), heavy()
trefoil = sys.argv[1]
run(["--json", "classify", trefoil])
run(["--json", "covers", "--max-r", "12", trefoil])
run(["--json", "signature", "--q", "12", trefoil])
run(["--json", "torus", "7", "--verify"])
print(run(["--json", "witness", "-"], stdin=run(["torus", "5"])))
# NEAR_ROOT_3E17 needs a 64-bit point, and q = 2^50 + 1 a wide bracket.
near_root = SeifertMatrix([[1, 1], [0, 2]])
assert signatures.tl_signature(near_root, signatures.UnitRootArg(15375095, 133665412)) == 2
assert signatures.tl_signature(TREFOIL, signatures.UnitRootArg(2**49, 2**50 + 1)) == 2
assert not heavy(), heavy()
"""


def test_common_commands_import_neither_mpmath_nor_numpy(tmp_path):
    """A fresh interpreter imports knotconc.cli without dataclasses or
    inspect, and with mpmath unimportable runs the common commands and the
    exact path, importing neither mpmath nor numpy."""
    doc = tmp_path / "trefoil.txt"
    doc.write_text("1 -1\n0 1\n")
    src = os.path.dirname(os.path.dirname(knotconc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHECK, str(doc)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"command": "witness"' in proc.stdout
