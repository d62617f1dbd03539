import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconc import exactpoly, obstruction
from knotconc.covers import HomologyOrder
from knotconc.errors import (
    BadTorusParameter,
    HypothesisNotSatisfied,
    InvalidInput,
    NoCharacterModulus,
    SeparationFailure,
    SizeLimit,
)
from knotconc.obstruction import (
    MAX_SCHEDULE_DIGITS,
    FamilyParameters,
    ScheduleEntry,
    WitnessSchedule,
    _character_modulus,
    family_report,
    profile_extremes,
    schedule_digits,
    sum_range,
    verify_separation,
    witness_schedule,
)
from knotconc.seifert import TREFOIL, UNKNOT, torus_2q_signatures


def trefoil_params(n0):
    return FamilyParameters(genus=1, p=3, k=1, q=3, n0=n0)


class TestCharacterModulus:
    def test_largest_odd_prime_power(self):
        assert _character_modulus(HomologyOrder(2**3 * 3**2 * 5)) == 9

    def test_no_odd_prime_power_divisor(self):
        with pytest.raises(NoCharacterModulus) as exc:
            _character_modulus(HomologyOrder(16))
        assert isinstance(exc.value, InvalidInput)
        assert str(exc.value) == (
            "|H1| = 16 has no odd prime power divisor; pass --q explicitly"
        )

    def test_cofactor_past_trial_division(self, monkeypatch):
        monkeypatch.setattr(exactpoly, "TRIAL_DIVISION_BOUND", 10)
        with pytest.raises(NoCharacterModulus) as exc:
            _character_modulus(HomologyOrder(13 * 17))
        assert str(exc.value) == (
            "cannot factor |H1|: cofactor 221 survived trial division up to 10; "
            "pass --q explicitly"
        )


class TestTorusProfiles:
    def test_q3_values(self):
        assert torus_2q_signatures(3) == [0, 2, 2]

    def test_q5_values(self):
        assert torus_2q_signatures(5) == [0, 2, 4, 4, 2]

    def test_extremes(self):
        assert profile_extremes(3) == (2, 2)
        assert profile_extremes(5) == (2, 4)
        assert profile_extremes(7) == (2, 6)
        for q in (9, 25, 27, 49, 101):
            values = torus_2q_signatures(q)[1:]
            assert profile_extremes(q) == (min(values), max(values))

    def test_extremes_of_a_huge_q_cost_nothing(self):
        assert profile_extremes(10**60 + 1) == (2, 10**60)

    @pytest.mark.parametrize("q", [-3, 1, 2, 4, 14])
    def test_torus_parameter_checked(self, q):
        for f in (torus_2q_signatures, profile_extremes):
            with pytest.raises(BadTorusParameter, match="q must be odd and >= 3"):
                f(q)

    def test_sum_range(self):
        params = trefoil_params(0)
        assert params.term_count == 6
        assert sum_range(1, params, (2, 2)) == (2, 12)
        assert sum_range(7, params, (2, 2)) == (14, 84)


class TestParameters:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FamilyParameters(genus=0, p=3, k=1, q=3, n0=0)
        with pytest.raises(ValueError):
            FamilyParameters(genus=1, p=3, k=0, q=3, n0=0)
        with pytest.raises(ValueError):
            FamilyParameters(genus=1, p=3, k=1, q=1, n0=0)
        with pytest.raises(ValueError):
            FamilyParameters(genus=1, p=3, k=1, q=3, n0=-1)


class TestSchedule:
    def test_trefoil_three_members_n0_zero(self):
        schedule = witness_schedule(trefoil_params(0), 3)
        assert [e.n for e in schedule.entries] == [1, 7, 43]
        assert [(e.lo, e.hi) for e in schedule.entries] == [
            (2, 12),
            (14, 84),
            (86, 516),
        ]

    def test_trefoil_two_members_n0_ten(self):
        schedule = witness_schedule(trefoil_params(10), 2)
        assert [e.n for e in schedule.entries] == [11, 77]
        assert [(e.lo, e.hi) for e in schedule.entries] == [(22, 132), (154, 924)]

    def test_empty(self):
        schedule = witness_schedule(trefoil_params(0), 0)
        assert schedule.entries == ()

    def test_growth_is_geometric_in_term_count(self):
        params = trefoil_params(0)
        schedule = witness_schedule(params, 5)
        ns = [e.n for e in schedule.entries]
        for prev, cur in zip(ns, ns[1:]):
            assert cur > params.term_count * prev  # hi_i / s_min dominates

    def test_q5(self):
        params = FamilyParameters(genus=1, p=5, k=1, q=5, n0=0)
        schedule = witness_schedule(params, 3)
        verify_separation(schedule)


class TestSeparation:
    def test_accepts_greedy_schedules(self):
        for n0, count in ((0, 3), (10, 2), (3, 4)):
            schedule = witness_schedule(trefoil_params(n0), count)
            report = verify_separation(schedule)
            assert report.brute_forced == (count >= 2)

    def test_brute_force_flag_off_for_large_q(self):
        params = FamilyParameters(genus=1, p=11, k=1, q=11, n0=0)
        schedule = witness_schedule(params, 2)
        report = verify_separation(schedule)
        assert not report.brute_forced

    def test_rejects_overlapping_ranges(self):
        params = trefoil_params(0)
        entries = (
            ScheduleEntry(n=1, lo=2, hi=12),
            ScheduleEntry(n=2, lo=4, hi=24),  # overlaps the first range
        )
        schedule = WitnessSchedule(entries=entries, parameters=params)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_rejects_wrong_interval(self):
        params = trefoil_params(0)
        entries = (ScheduleEntry(n=1, lo=3, hi=12),)
        schedule = WitnessSchedule(entries=entries, parameters=params)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_rejects_non_increasing_multiplicity(self):
        params = trefoil_params(0)
        entries = (
            ScheduleEntry(n=7, lo=14, hi=84),
            ScheduleEntry(n=7, lo=14, hi=84),
        )
        schedule = WitnessSchedule(entries=entries, parameters=params)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_rejects_pad_violation(self):
        # Valid at n0 = 0 but the claimed n0 = 40 pad swallows the gap.
        params = trefoil_params(40)
        entries = (
            ScheduleEntry(n=41, lo=82, hi=492),
            ScheduleEntry(n=250, lo=500, hi=3000),
        )
        schedule = WitnessSchedule(entries=entries, parameters=params)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)


    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_non_positive_multiplicity(self, n):
        params = trefoil_params(0)
        entries = (ScheduleEntry(n=n, lo=2 * n, hi=12 * n),)
        schedule = WitnessSchedule(entries=entries, parameters=params)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_verifies_800_members_within_budget(self):
        schedule = witness_schedule(trefoil_params(0), 800)
        start = time.perf_counter()
        report = verify_separation(schedule)
        assert time.perf_counter() - start < 0.5
        assert report.brute_forced


def pairwise_oracle_accepts(schedule):
    """Separation checked pair by pair, sharing no code with obstruction.

    Each entry's (lo, hi) must be (2n, L*n*(q-1)) with n increasing and
    lo past the previous hi by more than 2*N0; every pair of ranges, each
    side also able to contribute 0, must stay more than 2*N0 apart; and for
    L <= 8, q <= 7 and two or more entries, every pair of enumerated sum
    sets over all assignments of 2 min(a, q-a) to the L terms must too.
    """
    params, entries = schedule.parameters, schedule.entries
    pad = 2 * params.n0
    terms = 2 * params.genus * params.p**params.k
    for idx, e in enumerate(entries):
        if (e.lo, e.hi) != (2 * e.n, terms * e.n * (params.q - 1)):
            return False
        if idx and entries[idx - 1].n >= e.n:
            return False
        if e.lo <= pad + (entries[idx - 1].hi if idx else 0):
            return False
    for a, b in itertools.combinations(entries, 2):
        if b.lo <= a.hi + pad or b.lo <= pad:
            return False
    if terms <= 8 and params.q <= 7 and len(entries) >= 2:
        values = [0] + [2 * min(a, params.q - a) for a in range(1, params.q)]
        sums = []
        for e in entries:
            every = {0}
            for _ in range(terms):
                every = {s + e.n * v for s in every for v in values}
            sums.append((every, every - {0}))
        for (every_a, nonzero_a), (every_b, nonzero_b) in itertools.combinations(sums, 2):
            for side, other in ((every_a, nonzero_b), (every_b, nonzero_a)):
                if any(abs(s - t) <= pad for s in side for t in other):
                    return False
    return True


def perturbed(schedule, kind, index):
    """schedule with one entry or two entries changed."""
    entries = list(schedule.entries)
    i = index % len(entries)
    j = (i + 1) % len(entries)
    e = entries[i]
    if kind in ("lo-1", "lo+1"):
        entries[i] = ScheduleEntry(n=e.n, lo=e.lo + int(kind[2:]), hi=e.hi)
    elif kind in ("hi-1", "hi+1"):
        entries[i] = ScheduleEntry(n=e.n, lo=e.lo, hi=e.hi + int(kind[2:]))
    elif kind == "swap-n":
        f = entries[j]
        entries[i] = ScheduleEntry(n=f.n, lo=e.lo, hi=e.hi)
        entries[j] = ScheduleEntry(n=e.n, lo=f.lo, hi=f.hi)
    else:
        entries[i], entries[j] = entries[j], entries[i]
    return WitnessSchedule(entries=tuple(entries), parameters=schedule.parameters)


PERTURBATIONS = ["lo-1", "lo+1", "hi-1", "hi+1", "swap-n", "swap-entries"]


class TestSeparationOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n0=st.integers(0, 20),
        count=st.integers(1, 4),
        kind=st.sampled_from(PERTURBATIONS),
        index=st.integers(0, 3),
    )
    def test_rejects_what_the_pairwise_oracle_rejects(self, n0, count, kind, index):
        schedule = witness_schedule(trefoil_params(n0), count)
        assert pairwise_oracle_accepts(schedule)
        report = verify_separation(schedule)
        assert report.brute_forced == (count >= 2)
        bad = perturbed(schedule, kind, index)
        if not pairwise_oracle_accepts(bad):
            with pytest.raises(SeparationFailure):
                verify_separation(bad)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n0=st.integers(0, 20),
        offsets=st.lists(st.integers(-2, 2), min_size=1, max_size=4),
    )
    def test_agrees_with_the_pairwise_oracle_on_exact_ranges(self, n0, offsets):
        # Exact ranges with each n within 2 of the greedy one (6*n_prev +
        # n0 + 1, or n0 + 1 first), so the separation holds, holds with no
        # room, or fails by one; the first n may be 0 or negative.
        ns, prev = [], 0
        for offset in offsets:
            ns.append(6 * prev + n0 + 1 + offset)
            prev = ns[-1]
        entries = tuple(ScheduleEntry(n=n, lo=2 * n, hi=12 * n) for n in ns)
        schedule = WitnessSchedule(entries=entries, parameters=trefoil_params(n0))
        if pairwise_oracle_accepts(schedule):
            verify_separation(schedule)
        else:
            with pytest.raises(SeparationFailure):
                verify_separation(schedule)


class TestFamilyReport:
    def test_trefoil(self):
        report = family_report(TREFOIL, 2, n0=10)
        assert report.witness_r == 2
        assert report.witness_order.value == 3
        assert report.schedule.parameters.q == 3
        assert [e.n for e in report.schedule.entries] == [11, 77]
        assert report.separation.brute_forced

    def test_unknot_gives_no_obstruction(self):
        with pytest.raises(HypothesisNotSatisfied) as exc:
            family_report(UNKNOT, 1)
        assert str(exc.value) == (
            "all prime power branched covers are homology spheres, and so is "
            "every other cover; Delta(t) = 1 gives no obstruction"
        )

    def test_three_prime_cyclotomic_gives_no_obstruction(self, monkeypatch):
        # Phi_30 | Delta: the 30-fold cover has infinite H_1, every prime
        # power cover is a homology sphere.
        monkeypatch.setattr(obstruction, "alexander", lambda V: exactpoly.cyclotomic(30))
        with pytest.raises(HypothesisNotSatisfied, match="spheres, though not every other cover;"):
            family_report(UNKNOT, 1)


class TestScheduleDigitBound:
    def test_refused_past_the_bound_in_q_and_L(self):
        # L = 4 and q = 2*10^400 + 1: each member multiplies n by
        # L(q-1)/2 = 4*10^400, about 400.6 digits.
        params = FamilyParameters(genus=1, p=2, k=1, q=2 * 10**400 + 1, n0=0)
        assert schedule_digits(params, 9) < MAX_SCHEDULE_DIGITS < schedule_digits(params, 10)
        last = witness_schedule(params, 9).entries[-1]
        assert abs(len(str(last.hi)) - schedule_digits(params, 9)) < 2
        with pytest.raises(SizeLimit, match="10 members with L = 4 "):
            witness_schedule(params, 10)

    def test_n0_adds_its_digits(self):
        # A 3000-digit N0 leaves room for few members.
        params = FamilyParameters(genus=1, p=3, k=1, q=3, n0=10**3000)
        assert 3000 < schedule_digits(params, 1) < 3002
        with pytest.raises(SizeLimit):
            witness_schedule(params, 1300)

    def test_trefoil_count_bound_is_admitted(self):
        # 2000 trefoil members (q = 3, L = 6) reach about 1556 digits.
        assert schedule_digits(trefoil_params(0), 2000) < MAX_SCHEDULE_DIGITS
