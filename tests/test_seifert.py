import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import fraction_determinant, poly_mul, poly_pow, random_seifert
from knotconc.errors import BadTorusParameter, InvalidSeifertMatrix
from knotconc.exactpoly import IntPolynomial, integer_determinant
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
)

P = IntPolynomial


class TestValidate:
    def test_trefoil_valid(self):
        assert SeifertMatrix([[1, -1], [0, 1]]).validate() is None

    def test_unknot_valid(self):
        assert UNKNOT.validate() is None

    def test_symmetric_matrix_invalid(self):
        with pytest.raises(InvalidSeifertMatrix, match="determinant"):
            SeifertMatrix([[1, 0], [0, 1]]).validate()

    def test_non_square_invalid(self):
        with pytest.raises(InvalidSeifertMatrix, match="not square"):
            SeifertMatrix([[1, 2, 3], [4, 5, 6]]).validate()

    def test_odd_dimension_invalid(self):
        with pytest.raises(InvalidSeifertMatrix, match="odd"):
            SeifertMatrix([[1]]).validate()

    def test_operations_reject_invalid(self):
        bad = SeifertMatrix([[1, 0], [0, 1]])
        with pytest.raises(InvalidSeifertMatrix):
            alexander(bad)
        with pytest.raises(InvalidSeifertMatrix):
            mirror(bad)
        with pytest.raises(InvalidSeifertMatrix):
            connected_sum(bad, TREFOIL)
        with pytest.raises(InvalidSeifertMatrix):
            multiple(bad, 0)
        with pytest.raises(InvalidSeifertMatrix):
            multiple(bad, 2)


def _counting_determinants(monkeypatch):
    """Route seifert's integer_determinant through a recorder; return its log."""
    from knotconc import seifert

    calls = []

    def counting(rows):
        calls.append([list(row) for row in rows])
        return integer_determinant(rows)

    monkeypatch.setattr(seifert, "integer_determinant", counting)
    return calls


class TestMemo:
    def test_validate_and_alexander_run_once(self, monkeypatch):
        calls = _counting_determinants(monkeypatch)
        V = SeifertMatrix([[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, -1]])
        skew = [[V.rows[i][j] - V.rows[j][i] for j in range(4)] for i in range(4)]
        V.validate()
        V.validate()
        assert calls == [skew]
        delta = alexander(V)
        assert alexander(V) is delta
        V.validate()
        # One validation and g = 2 evaluations of V + x(V - V^t), at x = 0
        # and 1, neither of them the validated V - V^t.
        assert len(calls) == 3
        assert calls.count(skew) == 1

    def test_memo_is_per_instance(self):
        a = SeifertMatrix([[1, -1], [0, 1]])
        b = SeifertMatrix([[1, -1], [0, 1]])
        assert a == b and hash(a) == hash(b)
        assert alexander(a) is not alexander(b)


@st.composite
def wide_seifert(draw, genus):
    """(V, P^t V P): V has a symmetric part with entries in [-50, 50] plus
    the standard V - V^t, and on some draws k of its rows zeroed (apart
    from the -1 that keeps V - V^t standard), so that t^k divides Delta;
    P is a product of elementary integer matrices."""
    n = 2 * draw(genus)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-50, 50))
    for i in range(0, n, 2):
        rows[i + 1][i] = rows[i][i + 1] - 1
    for i in range(0, 2 * draw(st.one_of(st.just(0), st.integers(1, n // 2))), 2):
        for j in range(n):
            rows[i][j] = rows[j][i] = 0
        rows[i + 1][i] = -1
    congruent = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        if i == j:
            continue
        for row in congruent:  # columns: W E with E = I + c e_ij
            row[j] += c * row[i]
        congruent[j] = [a + c * b for a, b in zip(congruent[j], congruent[i])]
    return rows, congruent


def _oracle_alexander(rows):
    """Ascending coefficients of det(V - tV^t), trailing zeros dropped."""
    n = len(rows)
    xs = range(n + 1)
    ys = [
        fraction_determinant(
            [[rows[i][j] - x * rows[j][i] for j in range(n)] for i in range(n)]
        )
        for x in xs
    ]
    coeffs = [Fraction(0)] * (n + 1)
    for x, y in zip(xs, ys):
        basis, scale = [Fraction(1)], Fraction(1)  # prod (t - x') / (x - x')
        for other in xs:
            if other != x:
                basis = [a - other * b for a, b in zip([0] + basis, basis + [0])]
                scale *= x - other
        for k, b in enumerate(basis):
            coeffs[k] += y * b / scale
    assert all(c.denominator == 1 for c in coeffs)
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


class TestAlexander:
    def test_trefoil(self):
        assert alexander(TREFOIL) == P([1, -1, 1])

    def test_unknot(self):
        assert alexander(UNKNOT) == P([1])

    def test_figure_eight(self):
        assert alexander(FIGURE_EIGHT) == P([-1, 3, -1])

    def test_value_at_one(self, rng):
        for _ in range(100):
            V = random_seifert(rng, rng.randint(1, 3))
            assert alexander(V)(1) == 1

    # Delta is palindromic and Delta(1) = 1 by construction, so these
    # compare it with an oracle that shares no code with the library:
    # Fraction elimination at the 2g+1 points t = 0..2g, then Lagrange
    # interpolation.  A draw may be singular (t^k divides Delta), and a
    # unimodular congruence P^t V P, whose V - V^t is no longer the standard
    # form, must leave Delta unchanged.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(draw=wide_seifert(st.integers(1, 8)))
    def test_matches_oracle(self, draw):
        self.check_against_oracle(*draw)

    # No shrinking: each oracle call at these sizes takes about 0.3 s.
    @settings(max_examples=4, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(draw=wide_seifert(st.integers(9, 12)))
    def test_matches_oracle_high_genus(self, draw):
        self.check_against_oracle(*draw)

    @staticmethod
    def check_against_oracle(rows, congruent):
        expected = _oracle_alexander(rows)
        assert list(alexander(SeifertMatrix(rows)).coeffs) == expected
        assert list(alexander(SeifertMatrix(congruent)).coeffs) == expected


class TestConnectedSum:
    def test_unknot_identity(self):
        assert connected_sum(TREFOIL, UNKNOT) == TREFOIL
        assert connected_sum(UNKNOT, TREFOIL) == TREFOIL

    def test_trefoil_square(self):
        V = connected_sum(TREFOIL, TREFOIL)
        assert V.dim == 4
        assert alexander(V) == poly_mul(P([1, -1, 1]), P([1, -1, 1]))

    def test_trefoil_figure_eight(self):
        V = connected_sum(TREFOIL, FIGURE_EIGHT)
        assert alexander(V) == poly_mul(P([1, -1, 1]), P([-1, 3, -1]))

    def test_multiplicativity(self, rng):
        for _ in range(50):
            V1 = random_seifert(rng, rng.randint(1, 2))
            V2 = random_seifert(rng, rng.randint(1, 2))
            assert alexander(connected_sum(V1, V2)) == poly_mul(alexander(V1), alexander(V2))


class TestMirror:
    def test_involution(self, rng):
        for _ in range(20):
            V = random_seifert(rng, rng.randint(1, 3))
            assert mirror(mirror(V)) == V

    def test_unknot(self):
        assert mirror(UNKNOT) == UNKNOT

    def test_trefoil(self):
        assert mirror(TREFOIL) == SeifertMatrix([[-1, 0], [1, -1]])

    def test_alexander_reverses_up_to_sign(self, rng):
        for _ in range(50):
            V = random_seifert(rng, rng.randint(1, 2))
            a = alexander(V)
            b = alexander(mirror(V))
            # Reverse over the full degree-dim window (low-order zeros count).
            padded = list(a.coeffs) + [0] * (V.dim + 1 - len(a.coeffs))
            rev = P(list(reversed(padded)))
            assert b == rev or b == -rev


class TestTorus:
    def test_q3_is_trefoil(self):
        assert torus_2q(3) == SeifertMatrix([[1, -1], [0, 1]])
        assert alexander(torus_2q(3)) == P([1, -1, 1])

    def test_rejects_bad_q(self):
        for q in (1, 2, 4, -3):
            with pytest.raises(BadTorusParameter):
                torus_2q(q)

    def test_symmetrization_positive_definite(self):
        V = torus_2q(5)
        sym = [
            [V.rows[i][j] + V.rows[j][i] for j in range(4)] for i in range(4)
        ]
        for k in range(1, 5):
            minor = [row[:k] for row in sym[:k]]
            assert integer_determinant(minor) > 0

    def test_alexander_closed_form(self):
        for q in (3, 5, 7, 9, 11, 61, 101):
            numerator = P([1] + [0] * (q - 1) + [1])  # t^q + 1
            quotient, rem = numerator.divmod_exact(P([1, 1]))
            assert rem.is_zero()
            V = torus_2q(q)
            start = time.perf_counter()
            delta = alexander(V)
            elapsed = time.perf_counter() - start
            assert delta == quotient
            if q == 101:
                # Validation and 50 eliminations of dimension 100, each
                # quadratic on the banded pencil, and an O(g^2)
                # interpolation: about 0.025 s.
                assert elapsed < 0.5, elapsed


class TestMultiple:
    def test_zero(self):
        assert multiple(TREFOIL, 0) == UNKNOT

    def test_one(self):
        assert multiple(TREFOIL, 1) == TREFOIL

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="multiplicity must be nonnegative"):
            multiple(TREFOIL, -1)

    def test_three(self):
        V = multiple(TREFOIL, 3)
        assert V.dim == 6
        assert alexander(V) == poly_pow(P([1, -1, 1]), 3)

    @pytest.mark.parametrize(
        "V", [TREFOIL, FIGURE_EIGHT, random_seifert(random.Random(7), 2)]
    )
    def test_rows_equal_nested_connected_sums(self, V):
        nested = UNKNOT
        for n in range(5):
            assert multiple(V, n).rows == nested.rows
            nested = V if n == 0 else connected_sum(nested, V)

    def test_one_determinant_validates_sixteen_copies(self, monkeypatch):
        V = SeifertMatrix(TREFOIL.rows)
        V.validate()
        calls = _counting_determinants(monkeypatch)
        multiple(V, 16).validate()
        assert len(calls) == 1 and len(calls[0]) == 32
