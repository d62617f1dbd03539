import pytest

from knotconc.errors import BadTorusParameter, HypothesisNotSatisfied, SeparationFailure
from knotconc.obstruction import (
    FamilyParameters,
    ScheduleEntry,
    WitnessSchedule,
    family_report,
    profile_extremes,
    sum_range,
    verify_separation,
    witness_schedule,
)
from knotconc.seifert import TREFOIL, UNKNOT, torus_2q_signatures


def trefoil_params(n0):
    return FamilyParameters(genus=1, p=3, k=1, q=3, n0=n0)


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
            assert report.pair_count == count * (count - 1) // 2
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
        schedule = WitnessSchedule(entries=entries, parameters=params, s_min=2, s_max=2)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_rejects_wrong_interval(self):
        params = trefoil_params(0)
        entries = (ScheduleEntry(n=1, lo=3, hi=12),)
        schedule = WitnessSchedule(entries=entries, parameters=params, s_min=2, s_max=2)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_rejects_non_increasing_multiplicity(self):
        params = trefoil_params(0)
        entries = (
            ScheduleEntry(n=7, lo=14, hi=84),
            ScheduleEntry(n=7, lo=14, hi=84),
        )
        schedule = WitnessSchedule(entries=entries, parameters=params, s_min=2, s_max=2)
        with pytest.raises(SeparationFailure):
            verify_separation(schedule)

    def test_rejects_pad_violation(self):
        # Valid at n0 = 0 but the claimed n0 = 40 pad swallows the gap.
        params = trefoil_params(40)
        entries = (
            ScheduleEntry(n=41, lo=82, hi=492),
            ScheduleEntry(n=250, lo=500, hi=3000),
        )
        schedule = WitnessSchedule(entries=entries, parameters=params, s_min=2, s_max=2)
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
        assert exc.value.classification.all_prime_power_covers_trivial
