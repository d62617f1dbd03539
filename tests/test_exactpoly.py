import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fraction_determinant,
    jump_angles,
    poly_add,
    poly_mul,
    poly_pow,
    random_seifert,
    t_power_minus_one,
)
from knotconc import exactpoly
from knotconc.covers import ClassificationReport, classify_prime_power_covers
from knotconc.errors import (
    CertificationFailure,
    DivisorNotMonicUnit,
    FactorizationLimit,
    ZeroPolynomial,
)
from knotconc.exactpoly import (
    IntPolynomial,
    Record,
    brief_int,
    chebyshev_form,
    cyclotomic,
    cyclotomic_factor_extract,
    distinct_prime_factors,
    factorize,
    integer_determinant,
    phi_inverse_candidates,
    prime_power_decomposition,
    real_cyclotomic,
    resultant,
    totient,
)
from knotconc.obstruction import FamilyParameters, FamilyReport, WitnessSchedule, family_report
from knotconc.seifert import (
    FIGURE_EIGHT,
    TREFOIL,
    SeifertMatrix,
    alexander,
    connected_sum,
    multiple,
    torus_2q,
)
from knotconc.signatures import (
    JUMP,
    JumpInfo,
    JumpStepReport,
    TorusLemmaReport,
    UnitRootArg,
    jump_step_check,
    signature_profile,
    verify_torus_lemma,
)

P = IntPolynomial


def random_poly(rng, max_degree, bound=4, nonzero=False):
    deg = rng.randint(0, max_degree)
    coeffs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
    p = P(coeffs)
    if nonzero and p.is_zero():
        return P([rng.randint(1, bound)])
    return p


class TestArithmetic:
    """The value type: canonical form, evaluation and parsing.  The sums and
    products the tests build come from conftest's oracles."""

    def test_canonical_form(self):
        assert P([1, 2, 0, 0]).coeffs == (1, 2)
        assert P([0, 0]).coeffs == ()
        assert P().degree() == -1

    @pytest.mark.parametrize(
        "coeffs", [[1.9, -1.2, 1.7], ["3", True], [1, 1.0], [False], [Fraction(1)], [None]]
    )
    def test_coefficients_must_be_integers(self, coeffs):
        # int() would read [1.9, -1.2, 1.7] as the trefoil's t^2 - t + 1 and
        # ["3", True] as t + 3.  SeifertMatrix shares the rule.
        with pytest.raises(TypeError):
            P(coeffs)
        with pytest.raises(TypeError):
            SeifertMatrix([coeffs])

    def test_index_types_become_ints(self):
        class Three:
            def __index__(self):
                return 3

        assert P([Three(), 0]).coeffs == (3,) and type(P([Three()]).coeffs[0]) is int
        # A polynomial equals only polynomials, so equal values hash alike.
        assert P([5]) != 5 and P() != 0 and 5 not in {P([5])}

    def test_evaluation(self):
        f = P([1, -1, 1])
        assert f(1) == 1 and f(-1) == 3 and f(2) == 3


class TestDivision:
    def test_hand_division(self):
        q, r = P([1, 0, 0, 1]).divmod_exact(P([1, 1]))
        assert q == P([1, -1, 1]) and r.is_zero()

    def test_unit_divisor(self):
        f = P([5, -3, 2])
        q, r = f.divmod_exact(P([1]))
        assert q == f and r.is_zero()

    def test_remainder(self):
        q, r = P([1, 0, 1]).divmod_exact(P([-1, 1]))
        assert q == P([1, 1]) and r == P([2])
        # A dividend of lower degree is its own remainder.
        assert P([3, 1]).divmod_exact(P([1, 1, 1])) == (P(), P([3, 1]))

    def test_rejects_non_monic(self):
        with pytest.raises(DivisorNotMonicUnit):
            P([1, 0, 1]).divmod_exact(P([1, 2]))
        with pytest.raises(DivisorNotMonicUnit):
            P([1]).divmod_exact(P())

    def test_division_identity(self, rng):
        for _ in range(100):
            f = random_poly(rng, 8)
            g = random_poly(rng, 4, nonzero=True)
            g = poly_add(g, P([0] * (g.degree() + 1) + [1]))  # force monic
            q, r = f.divmod_exact(g)
            assert poly_add(poly_mul(q, g), r) == f
            assert r.degree() < g.degree()

    def test_exact_integer_quotient_checks_its_remainder(self):
        # A certified check raises, so `python -O` cannot strip it.
        assert exactpoly._exact_quotient(-12, 4) == -3
        with pytest.raises(CertificationFailure):
            exactpoly._exact_quotient(7, 2)


class TestCyclotomic:
    def test_base_cases(self):
        assert cyclotomic(1) == P([-1, 1])
        assert cyclotomic(2) == P([1, 1])
        assert cyclotomic(4) == P([1, 0, 1])
        assert cyclotomic(6) == P([1, -1, 1])

    def test_value_at_one_is_p_for_prime_powers(self):
        for r in (2, 3, 4, 8, 9, 25, 27, 49):
            p, _ = prime_power_decomposition(r)
            assert cyclotomic(r)(1) == p

    def test_value_at_one_for_composite_index(self):
        for n in (6, 10, 12, 15, 30, 45):
            assert cyclotomic(n)(1) == 1

    def test_reconstruction(self):
        # 729 = 3^6 and 1024 = 2^10 spread Phi_p; 1680 = 2^4 3 5 7 and
        # 2310 = 2 3 5 7 11 divide by Phi_m(t) once per prime.
        for n in list(range(1, 401)) + [729, 1024, 1680, 2310]:
            prod = poly_mul(*[cyclotomic(d) for d in range(1, n + 1) if n % d == 0])
            assert prod == t_power_minus_one(n)

    def test_degree_is_totient(self):
        for n in range(1, 201):
            assert cyclotomic(n).degree() == totient(n)


class TestChebyshevForm:
    def test_trefoil_and_figure_eight(self):
        # t^-1 (t^2 - t + 1) = (t + 1/t) - 1; t^-1 (-t^2 + 3t - 1) = 3 - (t + 1/t).
        assert chebyshev_form(P([1, -1, 1])) == P([-1, 1])
        assert chebyshev_form(P([-1, 3, -1])) == P([3, -1])

    def test_round_trip(self):
        # t^g D(t + 1/t) = sum_i D_i (t^2 + 1)^i t^(g - i) rebuilds p.
        rng = random.Random(5)
        for g in range(0, 9):
            half = [rng.randint(-9, 9) for _ in range(g)] + [rng.choice([-3, 1, 2])]
            p = P(half[::-1] + half[1:])  # palindromic of degree 2g
            D = chebyshev_form(p)
            assert D.degree() == g
            rebuilt = poly_add(
                *(poly_mul(poly_pow(P([1, 0, 1]), i), P([0] * (g - i) + [c]))
                  for i, c in enumerate(D.coeffs))
            )
            assert rebuilt == p

    def test_strips_a_power_of_t(self):
        # t Phi_6 = t - t^2 + t^3 has the form of Phi_6.
        assert chebyshev_form(P([0, 1, -1, 1])) == P([-1, 1])
        for p in (P([0, 1, 1]), P([-2, 3]), P([1, 2, 3, 2, 2])):
            with pytest.raises(ValueError):
                chebyshev_form(p)


class TestRealCyclotomic:
    def test_monic_of_half_degree(self):
        for d in range(3, 97):
            psi = real_cyclotomic(d)
            assert psi.coeffs[-1] == 1
            assert psi.degree() == totient(d) // 2

    def test_vanishes_at_the_real_parts(self):
        for d in range(3, 97):
            psi = real_cyclotomic(d)
            scale = sum(abs(c) * 2**i for i, c in enumerate(psi.coeffs))
            roots = [2 * math.cos(2 * math.pi * k / d) for k in range(1, d) if math.gcd(k, d) == 1]
            for x in roots:
                assert abs(psi(x)) <= 1e-12 * scale, (d, x)

    def test_small_cases(self):
        assert real_cyclotomic(3) == P([1, 1])  # 2 cos(2 pi/3) = -1
        assert real_cyclotomic(4) == P([0, 1])
        assert real_cyclotomic(6) == P([-1, 1])
        assert real_cyclotomic(5) == P([-1, 1, 1])  # x^2 + x - 1
        for d in (1, 2):
            with pytest.raises(ValueError):
                real_cyclotomic(d)


class TestPhiInverse:
    def test_small_tables(self):
        assert phi_inverse_candidates(1) == [1, 2]
        assert phi_inverse_candidates(2) == [1, 2, 3, 4, 6]

    def test_d4_membership(self):
        cands = phi_inverse_candidates(4)
        for n in (5, 8, 10, 12):
            assert n in cands
        for n in (7, 9):
            assert n not in cands

    def test_matches_brute_force(self):
        # phi(n) >= sqrt(n/2), so n <= 2 bound^2 holds every candidate.
        for bound in range(1, 61):
            brute = [n for n in range(1, 2 * bound * bound + 1) if totient(n) <= bound]
            assert phi_inverse_candidates(bound) == brute

    def test_degree_400(self):
        # The largest --delta degree: 790 candidates, the largest 1680 =
        # 2^4 3 5 7, with phi(1680) = 384.
        cands = phi_inverse_candidates(400)
        assert len(cands) == 790 and cands[-1] == 1680


class TestResultant:
    def test_linear_factor_is_evaluation(self, rng):
        for _ in range(50):
            g = random_poly(rng, 6, nonzero=True)
            assert resultant(P([-1, 1]), g) == g(1)

    def test_shared_roots(self):
        assert resultant(P([-1, 0, 1]), P([-1, 0, 1])) == 0

    def test_phi6_example(self):
        assert resultant(P([-1, 0, 1]), P([1, -1, 1])) == 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            resultant(P(), P([1, 1]))
        with pytest.raises(ZeroPolynomial):
            resultant(P([1, 1]), P())

    def test_multiplicativity(self, rng):
        for _ in range(60):
            f = random_poly(rng, 3, nonzero=True)
            g = random_poly(rng, 3, nonzero=True)
            h = random_poly(rng, 3, nonzero=True)
            assert resultant(poly_mul(f, g), h) == resultant(f, h) * resultant(g, h)

    def test_swap_sign(self, rng):
        for _ in range(40):
            f = random_poly(rng, 4, nonzero=True)
            g = random_poly(rng, 4, nonzero=True)
            sign = -1 if (f.degree() * g.degree()) % 2 else 1
            assert resultant(f, g) == sign * resultant(g, f)

    def test_against_complex_root_product(self, rng):
        # Res(t^r - 1, g) = prod over all r-th roots of unity of g(zeta).
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for r in range(1, 25):
            g = random_poly(rng, 12, nonzero=True)
            exact = resultant(t_power_minus_one(r), g)
            prod = mpmath.mpf(1)
            for i in range(r):
                zeta = mpmath.e ** (2j * mpmath.pi * i / r)
                prod *= g(zeta)
            if exact == 0:
                assert abs(prod) < 1e-6
            else:
                assert abs(prod - exact) <= 1e-6 * abs(exact)

    def test_pseudo_remainder_leaves_its_arguments(self, rng):
        # The Sturm sequence keeps both arguments; the window moves in place.
        # Oracle: long division of lc(b)^(deg a - deg b + 1) a by b over Fraction.
        for _ in range(60):
            a = list(random_poly(rng, 9).coeffs) + [rng.choice([-3, 1, 2, 5])]
            b = list(random_poly(rng, 4).coeffs) + [rng.choice([-7, -1, 1, 4])]
            if len(b) > len(a) or len(b) == 1:
                continue
            a0, b0 = list(a), list(b)
            r = exactpoly._pseudo_remainder(a, b)
            assert (a, b) == (a0, b0)
            rest = [Fraction(c * b[-1] ** (len(a) - len(b) + 1)) for c in a]
            for k in range(len(a) - len(b), -1, -1):
                q = rest[k + len(b) - 1] / b[-1]
                for j, c in enumerate(b):
                    rest[k + j] -= q * c
            assert r + [0] * (len(a) - len(r)) == rest

    def test_inexact_subresultant_division_raises(self, monkeypatch):
        # Res(Psi_61, D) with lc(D) = 7: from the second step on, each
        # subresultant is divided by a power of 7, so a remainder off by one
        # cannot divide.  A raise, not an assert, so `python -O` keeps it.
        psi, D = real_cyclotomic(61), P([1, -14, 7])
        remainder = exactpoly._pseudo_remainder
        steps = []

        def off_by_one(a, b):
            r = remainder(a, b)
            steps.append(r)
            if len(steps) > 1:
                r[0] += 1
            return r

        monkeypatch.setattr(exactpoly, "_pseudo_remainder", off_by_one)
        with pytest.raises(CertificationFailure, match="subresultant division"):
            resultant(psi, D)
        assert len(steps) == 2

    def test_t_power_minus_one_splits_over_divisors(self, rng):
        # Res(t^r - 1, g) = prod over d | r of Res(phi_d, g).
        for r in (20, 33, 64):
            g = random_poly(rng, 5, nonzero=True)
            big = t_power_minus_one(r)
            expected = 1
            for d in range(1, r + 1):
                if r % d == 0:
                    expected *= resultant(cyclotomic(d), g)
            assert resultant(big, g) == expected


class TestExtraction:
    def test_single_phi6(self):
        factors, rem = cyclotomic_factor_extract(P([1, -1, 1]))
        assert factors == [(6, 1)] and rem == P([1])

    def test_unit_input(self):
        factors, rem = cyclotomic_factor_extract(P([1]))
        assert factors == [] and rem == P([1])

    def test_figure_eight_poly_is_cyclotomic_free(self):
        f = P([1, -3, 1])
        factors, rem = cyclotomic_factor_extract(f)
        assert factors == [] and rem == f

    def test_recombination(self, rng):
        for _ in range(40):
            base = random_poly(rng, 3, nonzero=True)
            f = base
            for _ in range(rng.randint(0, 3)):
                f = poly_mul(f, cyclotomic(rng.randint(1, 12)))
            factors, rem = cyclotomic_factor_extract(f)
            rebuilt = rem
            for n, mult in factors:
                rebuilt = poly_mul(rebuilt, poly_pow(cyclotomic(n), mult))
            assert rebuilt == f
            leftover, _ = cyclotomic_factor_extract(rem)
            assert leftover == [] or rem.degree() < 1


def _stale_row_matrices(rng):
    """Matrices on which Bareiss leaves rows stale (a row that is 0 in both
    columns of a pass is not rescaled until it becomes a pivot row or is
    the last row): the banded pencils V - tV^t of T(2,q), pencils of block
    sums, and random matrices of density 0.1-0.5, singular draws kept."""

    def pencil(V, t):
        return [[V.rows[i][j] - t * V.rows[j][i] for j in range(V.dim)] for i in range(V.dim)]

    matrices = [pencil(torus_2q(q), t) for q in range(3, 26, 2) for t in (-3, -1, 2, 5)]
    blocks = [
        multiple(TREFOIL, 4),
        connected_sum(random_seifert(rng, 2), torus_2q(5)),
        connected_sum(torus_2q(7), multiple(FIGURE_EIGHT, 2)),
    ]
    matrices += [pencil(V, t) for V in blocks for t in (-2, 3)]
    for density in (0.1, 0.2, 0.3, 0.5):
        for n in range(1, 10):
            for _ in range(8):
                rows = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(n)]
                matrices.append(rows)
    return matrices


@st.composite
def determinant_draws(draw):
    """Square integer matrix of dimension 0-12 and density 0.1-1, with
    entries up to 10^e in size for e in 0-30; some draws are products A B
    through an inner dimension below n, which are singular."""
    n = draw(st.sampled_from(range(12, -1, -1)))  # shrinks toward the largest
    density = draw(st.floats(0.1, 1.0))
    bound = 10 ** draw(st.integers(0, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def sparse(rows, cols):
        return [[rng.randint(-bound, bound) if rng.random() < density else 0
                 for _ in range(cols)] for _ in range(rows)]

    if n and draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(0, n - 1))
        a, b = sparse(n, r), sparse(r, n)
        return [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
    return sparse(n, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=determinant_draws())
def test_determinant_matches_fractions(rows):
    assert integer_determinant(rows) == fraction_determinant(rows)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: factorize(0), ValueError, "n must be >= 1"),
        (lambda: cyclotomic(0), ValueError, "n must be >= 1"),
        (lambda: phi_inverse_candidates(0), ValueError, "bound must be >= 1"),
        (lambda: cyclotomic_factor_extract(IntPolynomial()), ZeroPolynomial, "zero polynomial"),
        (lambda: integer_determinant([[1, 2]]), ValueError, "matrix must be square"),
    ],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestIntegers:
    def test_distinct_primes(self):
        assert distinct_prime_factors(30) == [2, 3, 5]
        assert distinct_prime_factors(1) == []
        assert distinct_prime_factors(12) == [2, 3]

    def test_factorization_limit(self, monkeypatch):
        monkeypatch.setattr(exactpoly, "TRIAL_DIVISION_BOUND", 100)
        with pytest.raises(FactorizationLimit):
            distinct_prime_factors(1009 * 1013)

    def test_prime_powers(self):
        assert [n for n in range(2, 11) if len(factorize(n)) == 1] == [2, 3, 4, 5, 7, 8, 9]

    def test_brief_int(self):
        assert brief_int(-7) == "-7"
        assert brief_int(10**60 - 1) == "9" * 60
        assert brief_int(10**60) == "100000000000... (61 digits)"
        assert brief_int(-(10**61 - 1)) == "-999999999999... (61 digits)"
        for k in (61, 62, 300, 4000):  # str() below stays under 4300 digits
            for n in (10 ** (k - 1), 10**k - 1, 2 ** (k * 10 // 3)):
                text = str(n)
                assert brief_int(n) == "%s... (%d digits)" % (text[:12], len(text))

    def test_totient(self):
        assert [totient(n) for n in (1, 2, 6, 12, 30)] == [1, 1, 2, 4, 8]

    def test_determinant(self, rng):
        assert integer_determinant([]) == 1
        assert integer_determinant([[0, 1], [1, 0]]) == -1
        assert integer_determinant([[2, 0], [0, 3]]) == 6
        # Multiplicativity spot check against a permuted triangular product.
        assert integer_determinant([[0, 2, 0], [1, 1, 1], [0, 0, 3]]) == -6
        assert integer_determinant([[-7]]) == -7
        assert integer_determinant([[3, 5], [2, 4]]) == 2
        assert integer_determinant([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4

    def test_zero_first_pivot_swaps_in_a_row(self):
        # a = 0: row 1, the first with a nonzero in column 0, is swapped in
        # and the sign flips; then c0 = 3·2 - 1·0 = 6.
        assert integer_determinant([[0, 2, 1], [3, 1, 0], [1, 0, 2]]) == -13

    def test_dependent_pivot_columns_give_zero(self):
        # c0 = 1·4 - 2·2 = 0, and a·m[2][1] - b·m[2][0] = 6 - 6 = 0: every
        # row is proportional to (1, 2) in columns 0 and 1, so they are
        # dependent and no row can be swapped in.
        assert integer_determinant([[1, 2, 3], [2, 4, 5], [3, 6, 7]]) == 0

    def test_odd_dimension_reads_the_last_row_through_its_scale(self):
        # Pass 0 leaves row 2, which is 0 in columns 0 and 1, stale with
        # scale 1; the determinant is 7 times the new prev -2 over 1.
        assert integer_determinant([[1, 2, 3], [3, 4, 5], [0, 0, 7]]) == -14

    def test_stale_second_pivot_row_with_a_negative_scale(self):
        # Pass 0 (c0 = -3) updates row 5 to 0 in columns 2 and 3, so pass 2
        # (prev -3 → -15) leaves it stale with scale -3.  Pass 4 reads it as
        # its second pivot row: c0 = -180, the next prev is c0 / -3, and
        # row 6, stale with scale 1, is updated with the divisor 1·(-3).
        rows = [
            [1, 0, 1, 0, 2, 1, 1],
            [0, -3, 0, 1, 1, 0, 0],
            [0, 0, 2, 1, 0, 1, 2],
            [0, 0, 1, 3, 1, 0, 0],
            [0, 0, 0, 0, 1, 2, 1],
            [1, -3, 1, 1, 5, 1, 3],
            [0, 0, 0, 0, 2, 1, 1],
        ]
        assert integer_determinant(rows) == fraction_determinant(rows) == -60

    def test_determinant_where_rows_go_stale(self, rng):
        singular = 0
        for m in _stale_row_matrices(rng):
            d = integer_determinant(m)
            assert d == fraction_determinant(m)
            singular += d == 0
        assert singular > 20  # sparse draws are singular too
        # Row 1 is twice row 0, so c0 = 1·4 - 2·2 = 0 and pass 0 swaps in
        # row 2 (c0 = 1·3 - 2·0 = 3, sign -1); the old row 1 then gets
        # u = 0·4 - 3·2, v = 1·4 - 2·2 = 0 and m[2][2] = 0·3 + 0·u - 5·0.
        assert integer_determinant([[1, 2, 0], [2, 4, 0], [0, 3, 5]]) == 0

    def test_zero_pivot_swaps_in_a_stale_row(self):
        # Pass 0 has a = b = 2 and (c, d) = (1, 1), so c0 = 0; row 2, with
        # 2·3 - 2·0 = 6, replaces row 1 and the sign flips.  The old row 1
        # gets u = 0·1 - 3·1 = -3, v = 2·1 - 2·1 = 0 and m[2][2] = 5·6 +
        # 0·u - 7·0 = 30, read through its scale 6 at prev 6: -30.
        rows = [[2, 2, 0], [1, 1, 5], [0, 3, 7]]
        assert integer_determinant(rows) == fraction_determinant(rows) == -30


class _Pair(Record):
    __slots__ = ("x", "y")


class _Memo(Record):
    __slots__ = ("x", "_m")


# Every Record subclass of the library, each with a function that builds a
# new value; two calls give equal values.
VALUE_TYPES = {
    IntPolynomial: lambda: IntPolynomial([1, -1, 1]),
    UnitRootArg: lambda: UnitRootArg(2, 6),
    SeifertMatrix: lambda: SeifertMatrix(TREFOIL.rows),
    ClassificationReport: lambda: classify_prime_power_covers(cyclotomic(6)),
    FamilyParameters: lambda: FamilyParameters(genus=1, p=3, k=1, q=3, n0=0),
    WitnessSchedule: lambda: family_report(TREFOIL, 2).schedule,
    FamilyReport: lambda: family_report(SeifertMatrix(TREFOIL.rows), 2),
    JumpInfo: lambda: jump_step_check(TREFOIL, 6).jumps[0],
    JumpStepReport: lambda: jump_step_check(TREFOIL, 6),
    TorusLemmaReport: lambda: verify_torus_lemma(5),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _contract_view(value):
    """What a filled memo must not change: the value's repr and pickle, and
    its hash where its fields have one."""
    try:
        digest = hash(value)
    except TypeError:
        digest = None
    return repr(value), pickle.dumps(value), digest


class TestRecord:
    def test_fields_by_position_or_keyword(self):
        assert _Pair(1, y=2) == _Pair(x=1, y=2) == _Pair(1, 2)
        assert (_Pair(1, 2).x, _Pair(1, 2).y) == (1, 2)
        assert repr(_Pair(1, "a")) == "_Pair(x=1, y='a')"

    @pytest.mark.parametrize(
        "args, kwargs",
        [((1,), {}), ((1, 2, 3), {}), ((1, 2), {"x": 1}), ((1,), {"z": 2})],
    )
    def test_wrong_fields_rejected(self, args, kwargs):
        with pytest.raises(TypeError):
            _Pair(*args, **kwargs)

    def test_equality_and_hash_by_value(self):
        assert _Pair(1, 2) != _Pair(2, 1)
        assert hash(_Pair(1, (2, 3))) == hash(_Pair(1, (2, 3)))
        assert len({_Pair(1, 2), _Pair(1, 2), _Pair(1, 3)}) == 2

        class Other(Record):
            __slots__ = ("x", "y")

        assert _Pair(1, 2) != Other(1, 2)

    def test_immutable(self):
        pair = _Pair(1, 2)
        with pytest.raises(AttributeError):
            pair.x = 3
        with pytest.raises(AttributeError):
            del pair.y
        with pytest.raises(AttributeError):
            pair.z = 0
        assert pair == _Pair(1, 2)
        with pytest.raises(AttributeError):
            del SeifertMatrix(TREFOIL.rows).rows
        for make in VALUE_TYPES.values():
            value = make()
            for name in type(value).__slots__:
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)
            assert value == make()

    def test_every_library_record_is_a_value_type(self):
        library = {cls for cls in _subclasses(Record) if cls.__module__.startswith("knotconc.")}
        assert library == set(VALUE_TYPES)

    @pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=[t.__name__ for t in VALUE_TYPES])
    def test_value_contract(self, make):
        value, twin = make(), make()
        assert value is not twin and value == twin and not value != twin
        assert hash(value) == hash(twin)
        assert {value: 1}[twin] == 1 and twin in {value}
        for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(copied) is type(value) and copied == value
        view = _contract_view(value)
        if isinstance(value, SeifertMatrix):
            alexander(value)
        memos = [name for name in type(value).__slots__ if name.startswith("_")]
        assert all(getattr(value, name) is not None for name in memos)
        assert _contract_view(value) == view and value == twin

    def test_memos_take_no_part(self):
        memo = _Memo(1)
        assert memo._m is None and repr(memo) == "_Memo(x=1)"
        for args, kwargs in [((1, 2), {}), ((), {"x": 1, "_m": 2})]:
            with pytest.raises(TypeError):
                _Memo(*args, **kwargs)
        object.__setattr__(memo, "_m", 5)
        assert memo == _Memo(1) and hash(memo) == hash(_Memo(1))
        assert pickle.loads(pickle.dumps(memo))._m is None

    def test_seifert_matrix_memos(self):
        V = SeifertMatrix(TREFOIL.rows)
        assert V._valid is None and V._alexander is None
        delta = alexander(V)
        assert V._valid and V._alexander is delta
        assert repr(V) == "SeifertMatrix(rows=((1, -1), (0, 1)))"
        assert eval(repr(V)) == V

    def test_pickle_and_copy(self):
        V = SeifertMatrix(TREFOIL.rows)
        alexander(V)  # memoized on V, and rebuilt after a round trip
        profile = signature_profile(V, 6)
        assert jump_angles(profile) == [1, 5]
        for value in (V, profile, JUMP):
            twins = (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value))
            for twin in twins:
                assert twin == value
                if value is V:
                    assert twin._alexander is None
                    assert alexander(twin) == alexander(V)
                if value is profile:
                    assert jump_angles(twin) == [1, 5]
                if value is JUMP:
                    assert twin is JUMP
