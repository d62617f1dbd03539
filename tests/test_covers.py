import random

import pytest

from conftest import (
    cyclotomic_product_identity,
    dense_symmetric_delta,
    json_run,
    poly_mul,
    random_seifert,
    t_power_minus_one,
)
from knotconc import covers
from knotconc.covers import (
    ClassificationReport,
    classify_prime_power_covers,
    cover_order,
    cover_orders,
)
from knotconc.errors import (
    NotAPrimePower,
    NotAKnotPolynomial,
    WitnessSearchExhausted,
)
from knotconc.exactpoly import (
    IntPolynomial,
    cyclotomic,
    factorize,
    prime_power_decomposition,
    resultant,
    totient,
)
from knotconc.seifert import (
    FIGURE_EIGHT,
    TREFOIL,
    SeifertMatrix,
    alexander,
    connected_sum,
    torus_2q,
)

P = IntPolynomial

TREFOIL_DELTA = P([1, -1, 1])
# Lehmer's polynomial: cyclotomic-free, |H_1| = 1 for r = 2 and 3, 9 for r = 4.
LEHMER_DELTA = P([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
FIG8_DELTA = P([-1, 3, -1])


def assert_rational_homology_sphere(delta, r):
    """Prime power covers always have finite H_1."""
    prime_power_decomposition(r)  # raises NotAPrimePower
    return cover_order(delta, r) is not None


class TestCoverOrder:
    def test_trefoil_table(self):
        expected = {2: 3, 3: 4, 4: 3, 5: 1}
        for r, value in expected.items():
            assert cover_order(TREFOIL_DELTA, r) == value

    def test_trefoil_six_fold_infinite(self):
        assert cover_order(TREFOIL_DELTA, 6) is None

    def test_figure_eight_table(self):
        assert cover_order(FIG8_DELTA, 2) == 5
        assert cover_order(FIG8_DELTA, 3) == 16

    def test_unknot(self):
        for r in (2, 3, 10):
            assert cover_order(P([1]), r) == 1

    def test_rejects_non_knot_polynomial(self):
        with pytest.raises(NotAKnotPolynomial):
            cover_order(P([2]), 2)
        with pytest.raises(NotAKnotPolynomial):
            cover_order(P([1, 1]), 2)
        with pytest.raises(NotAKnotPolynomial, match="got 0 for 0"):
            cover_order(P(), 2)

    def test_rejects_r_below_one_when_consumed(self):
        orders = cover_orders(TREFOIL_DELTA, [0])  # lazy: nothing runs yet
        with pytest.raises(ValueError, match="r must be >= 1"):
            list(orders)

    def test_matches_direct_resultant(self, rng):
        for _ in range(30):
            V = random_seifert(rng, rng.randint(1, 2))
            delta = alexander(V)
            for r in (2, 3, 4, 5, 6, 9):
                order = cover_order(delta, r)
                direct = resultant(t_power_minus_one(r), delta)
                assert order == (abs(direct) or None)

    def test_infinite_iff_cyclotomic_root(self):
        # Delta divisible by phi_6: infinite exactly when 6 | r.
        delta = poly_mul(TREFOIL_DELTA, TREFOIL_DELTA)
        assert cover_order(delta, 6) is None
        assert cover_order(delta, 12) is None
        assert cover_order(delta, 4) is not None

    def test_cover_orders_match_cover_order(self):
        delta = poly_mul(TREFOIL_DELTA, FIG8_DELTA)
        rs = [6, 2, 12, 5, 2, 1]
        assert list(cover_orders(delta, rs)) == [cover_order(delta, r) for r in rs]

    def test_cover_orders_validates_before_first_value(self):
        with pytest.raises(NotAKnotPolynomial):
            cover_orders(P([2]), [2])

    def test_rational_homology_sphere_assertion(self):
        assert assert_rational_homology_sphere(TREFOIL_DELTA, 5)
        with pytest.raises(NotAPrimePower):
            assert_rational_homology_sphere(TREFOIL_DELTA, 6)


class TestClassifier:
    def test_all_trivial_verdicts(self):
        for n in (30, 42):
            report = classify_prime_power_covers(cyclotomic(n))
            assert isinstance(report, ClassificationReport)
            assert report.all_prime_power_covers_trivial
            assert report.witness_cover is None

    def test_all_trivial_checked_against_covers(self):
        for n in (30, 42):
            delta = cyclotomic(n)
            for r in range(2, 28):
                if len(factorize(r)) == 1:
                    assert cover_order(delta, r) == 1

    def test_nontrivial_verdicts(self):
        expected = {6: (2, 3), 12: (3, 4), 15: (3, 25), 45: (5, 81)}
        for n, (r, value) in expected.items():
            report = classify_prime_power_covers(cyclotomic(n))
            assert not report.all_prime_power_covers_trivial
            assert report.witness_cover == (r, value)
            # Independently confirm the witness cover order.
            assert cover_order(cyclotomic(n), r) == value

    def test_unit_remainder_required(self):
        # Remainder 2t^2 - 3t + 2 is not a unit, so some cover must be
        # nontrivial.
        delta = poly_mul(cyclotomic(30), P([2, -3, 2]))
        assert delta(1) == 1
        report = classify_prime_power_covers(delta)
        assert not report.all_prime_power_covers_trivial
        assert report.non_cyclotomic_remainder == P([2, -3, 2])
        r, worder = report.witness_cover
        assert cover_order(delta, r) == worder > 1

    def test_non_symmetric_remainder_refused(self):
        # phi_30 (3t - 2) has Delta(1) = 1 but is no Alexander polynomial:
        # it is not symmetric up to +-t^k.
        delta = poly_mul(cyclotomic(30), P([-2, 3]))
        assert delta(1) == 1
        with pytest.raises(NotAKnotPolynomial, match="symmetric"):
            classify_prime_power_covers(delta)
        with pytest.raises(NotAKnotPolynomial, match="symmetric"):
            cover_orders(delta, [2])

    def test_trefoil_nontrivial(self):
        report = classify_prime_power_covers(TREFOIL_DELTA)
        assert not report.all_prime_power_covers_trivial
        assert report.witness_cover == (2, 3)

    def test_rejects_non_knot_polynomial(self):
        with pytest.raises(NotAKnotPolynomial):
            classify_prime_power_covers(P([1, 1]))

    def test_t_power_is_a_unit(self):
        # Delta = t comes from the singular V = [[-2, 1], [0, 0]].
        assert alexander(SeifertMatrix([[-2, 1], [0, 0]])) == P([0, 1])
        report = classify_prime_power_covers(P([0, 1]))
        assert report.all_prime_power_covers_trivial
        assert report.all_covers_trivial
        assert report.witness_cover is None
        assert report.non_cyclotomic_remainder == P([0, 1])

    def test_t_power_times_three_prime_cyclotomic(self):
        delta = poly_mul(cyclotomic(30), P([0, 0, -1]))
        report = classify_prime_power_covers(delta)
        assert report.cyclotomic_factors == ((30, 1),)
        assert report.non_cyclotomic_remainder == P([0, 0, -1])
        assert report.all_prime_power_covers_trivial
        assert not report.all_covers_trivial
        assert report.witness_cover is None

    def test_t_power_times_non_unit_has_witness(self):
        report = classify_prime_power_covers(poly_mul(TREFOIL_DELTA, P([0, 1])))
        assert not report.all_prime_power_covers_trivial
        assert report.witness_cover == (2, 3)

    def test_seed_11_singular_draw(self):
        # The second genus-1 draw of seed 11 is singular, with Delta = t.
        rng = random.Random(11)
        random_seifert(rng, 1)
        delta = alexander(random_seifert(rng, 1))
        assert delta == P([0, 1])
        report = classify_prime_power_covers(delta)
        assert report.all_prime_power_covers_trivial and report.all_covers_trivial
        assert all(order == 1 for order in cover_orders(delta, range(2, 65)))

    def test_witness_is_the_least_nontrivial_prime_power(self):
        # Phi_15 first shows at r = 3 (|H_1| = 25), but the remainder
        # t^2 - 3t + 1 already gives |Delta(-1)| = 5 at r = 2.
        delta = poly_mul(cyclotomic(15), P([1, -3, 1]))
        assert delta == P([1, -4, 4, 0, -4, 5, -4, 0, 4, -4, 1])
        assert classify_prime_power_covers(delta).witness_cover == (2, 5)

    def test_lehmer_first_witness_is_four(self):
        assert classify_prime_power_covers(LEHMER_DELTA).witness_cover == (4, 9)

    def test_witness_search_exhausted_below_the_first_witness(self, monkeypatch):
        monkeypatch.setattr(covers, "DEFAULT_WITNESS_BOUND", 3)
        with pytest.raises(WitnessSearchExhausted, match="found up to 3$"):
            classify_prime_power_covers(LEHMER_DELTA)


class TestWitnessWalk:
    def test_q_walk_skips_covers_without_a_root_mod_p(self, monkeypatch):
        # Delta_0 = t^2 - t + 1 has degree 2: 5 can divide |H_1(Sigma_r)|
        # only where ord_r(5) <= 2, that is r | 24, so of the prime powers
        # up to 512 only the orders at 2, 3, 4 and 8 are computed.
        reached = []
        orders = covers._orders

        def counting(D, rs):
            for r, order in orders(D, rs):
                reached.append(r)
                yield r, order

        monkeypatch.setattr(covers, "_orders", counting)
        assert covers.find_witness_cover(TREFOIL_DELTA, 5) is None
        assert reached == [2, 3, 4, 8]
        reached.clear()
        assert covers.find_witness_cover(TREFOIL_DELTA, 3) == (2, 3)
        assert reached == [2]
        # Lehmer's |H_1| is 1 at r = 2 and 3 and 9 at r = 4; for p = 3 the
        # walk skips r = 3, a power of p, and the default walk does not.
        reached.clear()
        assert covers.find_witness_cover(LEHMER_DELTA, 3) == (4, 9)
        assert reached == [2, 4]
        reached.clear()
        assert covers.find_witness_cover(LEHMER_DELTA, None) == (4, 9)
        assert reached == [2, 3, 4]


class TestMonicDivisor:
    """Where `_orders` builds D^ = y^g D(2 + 1/y): only when some norm has
    phi(d) > 2g and |lc D| != 1, and then once per call (the module
    docstring, "Monic divisor").  The spy sees every argument of
    `_inverted`: D, and each Psi_d whose Psi^_d is not yet cached, which
    `_orders` builds only along with D^."""

    GENUS_8 = [list(row) for row in random_seifert(random.Random(32), 8).rows]

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        inverted = covers._inverted

        def counting(p):
            built.append(p)
            return inverted(p)

        monkeypatch.setattr(covers, "_inverted", counting)
        return built

    def test_walks_ending_at_r_2_build_none(self, builds):
        # det V = -20668965 and |D(-2)| = |Delta(-1)| != 1 on this draw.
        assert abs(covers._knot_chebyshev_form(alexander(SeifertMatrix(self.GENUS_8))).coeffs[-1]) > 1
        code, doc = json_run(["classify", "-"], self.GENUS_8)
        assert code == 0 and doc["witness_cover"]["r"] == 2
        code, doc = json_run(["witness", "-"], self.GENUS_8)
        assert code == 0 and doc["witness_cover"]["r"] == 2
        assert builds == []

    def test_monic_and_low_degree_tables_build_none(self, builds):
        # T(2,33): D is monic.  The dense degree-400 Delta: g = 200 and
        # phi(d) <= 256 for every d <= 256, so Psi_d is the divisor.
        code, doc = json_run(["covers", "--max-r", "256", "-"], [list(row) for row in torus_2q(33).rows])
        assert code == 0 and len(doc["covers"]) == 255 and builds == []
        delta = "--delta=" + ",".join(map(str, dense_symmetric_delta(400)))
        code, doc = json_run(["covers", "--max-r", "256", delta], [])
        assert code == 0 and len(doc["covers"]) == 255 and builds == []

    def test_non_monic_table_builds_one_per_call(self, builds):
        delta = alexander(SeifertMatrix(self.GENUS_8))
        D = covers._knot_chebyshev_form(delta)
        first = list(cover_orders(delta, range(2, 65)))
        assert builds.count(D) == 1
        assert list(cover_orders(delta, range(2, 65))) == first
        assert builds.count(D) == 2


class TestProductIdentity:
    def test_known_values(self):
        cases = {
            (15, 3, 2): (25, 5, 2),
            (30, 7, 1): (1, 30, 1),
            (9, 3, 1): (27, 3, 3),
        }
        for (n, p, k), (value, m, b) in cases.items():
            got_value, predicted, got_m, got_b = cyclotomic_product_identity(n, p, k)
            assert (got_value, got_m, got_b) == (value, m, b)
            assert predicted == value

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerates"):
            cyclotomic_product_identity(2, 2, 1)
        with pytest.raises(ValueError, match="degenerates"):
            cyclotomic_product_identity(9, 3, 3)

    def test_exponent_consistency(self):
        import math

        for n in (6, 10, 12, 15, 21, 30, 45):
            for p in (2, 3, 5):
                for k in (1, 2, 3):
                    m = n // math.gcd(n, p**k)
                    if m == 1:
                        continue
                    value, predicted, got_m, got_b = cyclotomic_product_identity(n, p, k)
                    assert got_m == m
                    assert got_b == totient(n) // totient(m)
                    assert value == predicted == abs(cyclotomic(m)(1)) ** got_b

    def test_three_primes_gives_one(self):
        # Indices with >= 3 distinct primes evaluate to 1 at every prime power.
        for n in (30, 42, 60):
            for p, k in ((2, 1), (3, 2), (7, 1), (11, 1)):
                if n % (p ** (k + 10)) == 0:
                    continue
                value, _, m, _ = cyclotomic_product_identity(n, p, k)
                if m > 1:
                    assert value == 1


class TestConnectedSumCovers:
    def test_orders_multiply(self):
        delta = alexander(connected_sum(TREFOIL, FIGURE_EIGHT))
        assert cover_order(delta, 2) == 3 * 5
        assert cover_order(delta, 3) == 4 * 16
