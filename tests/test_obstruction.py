import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconc import covers, exactpoly, obstruction
from knotconc.errors import (
    BadTorusParameter,
    HypothesisNotSatisfied,
    InvalidInput,
    NoCharacterModulus,
    SeparationFailure,
    SizeLimit,
)
from knotconc.exactpoly import factorize
from knotconc.obstruction import (
    MAX_SCHEDULE_DIGITS,
    FamilyParameters,
    WitnessSchedule,
    _character_modulus,
    family_report,
    profile_extremes,
    schedule_digits,
    sum_range,
    verify_separation,
    witness_schedule,
)
from knotconc.seifert import TREFOIL, UNKNOT, SeifertMatrix, torus_2q_signatures


def trefoil_params(n0):
    return FamilyParameters(genus=1, p=3, k=1, q=3, n0=n0)


# Delta = -t^4 + 3t^2 - 1: |H_1| is 1, 16 and 25 at r = 2, 3 and 4.
SIXTEEN_THEN_25 = SeifertMatrix([[0, 1, 0, -1], [0, 0, 1, -2], [0, 1, 0, -2], [-1, -2, -3, -1]])


class TestCharacterModulus:
    def test_largest_odd_prime_power(self):
        assert _character_modulus(2**3 * 3**2 * 5) == (3, 2)

    def test_witness_order_factorized_once(self, monkeypatch):
        # |H1| of the 2-fold cover is det(V + V^t) = 4 * 2502 - 1 = 10007, a
        # prime; q, p and k all come from its one factorization.
        calls = []

        def counting(n):
            calls.append(n)
            return factorize(n)

        for module in (exactpoly, obstruction):
            monkeypatch.setattr(module, "factorize", counting)
        report = family_report(SeifertMatrix([[1, 1], [0, 2502]]), 2)
        assert (report.witness_r, report.witness_order) == (2, 10007)
        params = report.schedule.parameters
        assert (params.p, params.k, params.q) == (10007, 1, 10007)
        assert calls.count(10007) == 1

    def test_no_odd_prime_power_divisor(self, monkeypatch):
        # The walk stops at r = 3, where |H1| = 16 has no odd prime factor.
        monkeypatch.setattr(covers, "DEFAULT_WITNESS_BOUND", 3)
        with pytest.raises(NoCharacterModulus) as exc:
            family_report(SIXTEEN_THEN_25, 1)
        assert isinstance(exc.value, InvalidInput)
        assert str(exc.value) == (
            "no prime power cover up to 3 has |H1| divisible by an odd prime"
        )

    def test_cofactor_past_trial_division(self, monkeypatch):
        monkeypatch.setattr(exactpoly, "TRIAL_DIVISION_BOUND", 10)
        with pytest.raises(NoCharacterModulus) as exc:
            _character_modulus(13 * 17)
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
        assert sum_range(1, params) == (2, 12)
        assert sum_range(7, params) == (14, 84)


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
        for p in (1, 0):
            with pytest.raises(ValueError, match="p must be >= 2"):
                FamilyParameters(genus=1, p=p, k=1, q=3, n0=0)


class TestSchedule:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: sum_range(0, trefoil_params(0)), "n must be >= 1"),
            (lambda: witness_schedule(trefoil_params(0), -1), "count must be >= 0"),
        ],
    )
    def test_rejects_bad_arguments(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_trefoil_three_members_n0_zero(self):
        params = trefoil_params(0)
        schedule = witness_schedule(params, 3)
        assert schedule.entries == (1, 7, 43)
        assert [sum_range(n, params) for n in schedule.entries] == [
            (2, 12),
            (14, 84),
            (86, 516),
        ]

    def test_trefoil_two_members_n0_ten(self):
        params = trefoil_params(10)
        schedule = witness_schedule(params, 2)
        assert schedule.entries == (11, 77)
        assert [sum_range(n, params) for n in schedule.entries] == [(22, 132), (154, 924)]

    def test_empty(self):
        schedule = witness_schedule(trefoil_params(0), 0)
        assert schedule.entries == ()

    def test_growth_is_geometric_in_term_count(self):
        params = trefoil_params(0)
        schedule = witness_schedule(params, 5)
        ns = schedule.entries
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
            assert verify_separation(schedule) == (count >= 2)

    def test_brute_force_flag_off_for_large_q(self):
        params = FamilyParameters(genus=1, p=11, k=1, q=11, n0=0)
        schedule = witness_schedule(params, 2)
        assert not verify_separation(schedule)

    def test_rejects_overlapping_ranges(self):
        params = trefoil_params(0)
        # [4, 24] overlaps the first range, [2, 12].
        schedule = WitnessSchedule(entries=(1, 2), parameters=params)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_rejects_non_increasing_multiplicity(self):
        params = trefoil_params(0)
        schedule = WitnessSchedule(entries=(7, 7), parameters=params)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_rejects_pad_violation(self):
        # Valid at n0 = 0 but the claimed n0 = 40 pad swallows the gap.
        params = trefoil_params(40)
        schedule = WitnessSchedule(entries=(41, 250), parameters=params)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)


    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_non_positive_multiplicity(self, n):
        params = trefoil_params(0)
        schedule = WitnessSchedule(entries=(n,), parameters=params)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_verifies_800_members_within_budget(self):
        schedule = witness_schedule(trefoil_params(0), 800)
        start = time.perf_counter()
        brute_forced = verify_separation(schedule)
        assert time.perf_counter() - start < 0.5
        assert brute_forced


def pairwise_oracle_accepts(schedule):
    """Separation checked pair by pair, sharing no code with obstruction.

    Each n >= 1 has the range (lo, hi) = (2n, L*n*(q-1)).  The n must
    increase, with each lo past the previous hi by more than 2*N0; every
    pair of ranges, each side also able to contribute 0, must stay more
    than 2*N0 apart; and for L <= 8, q <= 7 and two or more entries, every
    pair of enumerated sum sets over all assignments of 2 min(a, q-a) to
    the L terms must too.
    """
    params, ns = schedule.parameters, schedule.entries
    pad = 2 * params.n0
    terms = 2 * params.genus * params.p**params.k
    if any(n < 1 for n in ns):
        return False
    ranges = [(2 * n, terms * n * (params.q - 1)) for n in ns]
    for idx, (lo, hi) in enumerate(ranges):
        if idx and ns[idx - 1] >= ns[idx]:
            return False
        if lo <= pad + (ranges[idx - 1][1] if idx else 0):
            return False
    for (_, hi_a), (lo_b, _) in itertools.combinations(ranges, 2):
        if lo_b <= hi_a + pad or lo_b <= pad:
            return False
    if terms <= 8 and params.q <= 7 and len(ns) >= 2:
        values = [0] + [2 * min(a, params.q - a) for a in range(1, params.q)]
        sums = []
        for n in ns:
            every = {0}
            for _ in range(terms):
                every = {s + n * v for s in every for v in values}
            sums.append((every, every - {0}))
        for (every_a, nonzero_a), (every_b, nonzero_b) in itertools.combinations(sums, 2):
            for side, other in ((every_a, nonzero_b), (every_b, nonzero_a)):
                if any(abs(s - t) <= pad for s in side for t in other):
                    return False
    return True


def perturbed(schedule, kind, index):
    """schedule with one multiplicity changed, or two swapped."""
    entries = list(schedule.entries)
    i = index % len(entries)
    j = (i + 1) % len(entries)
    if kind in ("n-1", "n+1"):
        entries[i] += int(kind[1:])
    else:
        entries[i], entries[j] = entries[j], entries[i]
    return WitnessSchedule(entries=tuple(entries), parameters=schedule.parameters)


PERTURBATIONS = ["n-1", "n+1", "swap"]


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
        assert verify_separation(schedule) == (count >= 2)
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
        # Each n within 2 of the greedy one (6*n_prev + n0 + 1, or n0 + 1
        # first), so the separation holds, holds with no room, or fails by
        # one; the first n may be 0 or negative.
        ns, prev = [], 0
        for offset in offsets:
            ns.append(6 * prev + n0 + 1 + offset)
            prev = ns[-1]
        schedule = WitnessSchedule(entries=tuple(ns), parameters=trefoil_params(n0))
        if pairwise_oracle_accepts(schedule):
            verify_separation(schedule)
        else:
            with pytest.raises(SeparationFailure):
                verify_separation(schedule)


class TestFamilyReport:
    def test_trefoil(self):
        report = family_report(TREFOIL, 2, n0=10)
        assert report.witness_r == 2
        assert report.witness_order == 3
        assert report.schedule.parameters.q == 3
        assert report.schedule.entries == (11, 77)
        assert report.brute_forced

    def test_q_with_no_character_is_refused(self):
        # Every prime-power cover of the trefoil has |H1| 1, 3 or 4, so every
        # character to Z_5 is trivial.
        with pytest.raises(NoCharacterModulus) as exc:
            family_report(TREFOIL, 2, q=5)
        assert str(exc.value) == "no prime power cover up to 512 has |H1| divisible by 5"

    def test_cover_is_the_first_with_a_character(self):
        # r = 3 has |H1| = 16, with no odd prime; r = 4 has 25.
        report = family_report(SIXTEEN_THEN_25, 1)
        assert (report.witness_r, report.witness_order) == (4, 25)
        assert report.schedule.parameters.q == 25
        report = family_report(SIXTEEN_THEN_25, 1, q=5)
        assert (report.witness_r, report.schedule.parameters.p) == (4, 5)

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
        assert abs(len(str(sum_range(last, params)[1])) - schedule_digits(params, 9)) < 2
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
