import pytest

from conftest import random_seifert
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
        assert SeifertMatrix([[1, -1], [0, 1]]).validate().valid

    def test_unknot_valid(self):
        assert UNKNOT.validate().valid

    def test_symmetric_matrix_invalid(self):
        report = SeifertMatrix([[1, 0], [0, 1]]).validate()
        assert not report.valid
        assert any("determinant" in f for f in report.failures)

    def test_non_square_invalid(self):
        report = SeifertMatrix([[1, 2, 3], [4, 5, 6]]).validate()
        assert not report.valid

    def test_odd_dimension_invalid(self):
        report = SeifertMatrix([[1]]).validate()
        assert not report.valid
        assert any("odd" in f for f in report.failures)

    def test_operations_reject_invalid(self):
        bad = SeifertMatrix([[1, 0], [0, 1]])
        with pytest.raises(InvalidSeifertMatrix):
            alexander(bad)
        with pytest.raises(InvalidSeifertMatrix):
            mirror(bad)
        with pytest.raises(InvalidSeifertMatrix):
            connected_sum(bad, TREFOIL)


class TestMemo:
    def test_validate_and_alexander_run_once(self, monkeypatch):
        from knotconc import seifert

        calls = []

        def counting(rows):
            calls.append(len(rows))
            return integer_determinant(rows)

        monkeypatch.setattr(seifert, "integer_determinant", counting)
        V = SeifertMatrix([[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, -1]])
        assert V.validate() is V.validate()
        assert calls == [4]
        delta = alexander(V)
        assert alexander(V) is delta
        V.require_valid()
        assert calls == [4] * 6  # one validation, dim + 1 evaluations

    def test_memo_is_per_instance(self):
        a = SeifertMatrix([[1, -1], [0, 1]])
        b = SeifertMatrix([[1, -1], [0, 1]])
        assert a == b and hash(a) == hash(b)
        assert alexander(a) is not alexander(b)


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

    def test_palindromic(self, rng):
        for _ in range(100):
            V = random_seifert(rng, rng.randint(1, 3))
            delta = alexander(V)
            det_v = integer_determinant(V.rows)
            if det_v != 0:
                assert delta.coeffs == tuple(reversed(delta.coeffs))
            else:
                # Full-length reversal identity det(tV - V^t) = det(V - tV^t).
                n = V.dim
                padded = list(delta.coeffs) + [0] * (n + 1 - len(delta.coeffs))
                assert delta == P(list(reversed(padded)))


class TestConnectedSum:
    def test_unknot_identity(self):
        assert connected_sum(TREFOIL, UNKNOT) == TREFOIL
        assert connected_sum(UNKNOT, TREFOIL) == TREFOIL

    def test_trefoil_square(self):
        V = connected_sum(TREFOIL, TREFOIL)
        assert V.dim == 4
        assert alexander(V) == P([1, -1, 1]) * P([1, -1, 1])

    def test_trefoil_figure_eight(self):
        V = connected_sum(TREFOIL, FIGURE_EIGHT)
        assert alexander(V) == P([1, -1, 1]) * P([-1, 3, -1])

    def test_multiplicativity(self, rng):
        for _ in range(50):
            V1 = random_seifert(rng, rng.randint(1, 2))
            V2 = random_seifert(rng, rng.randint(1, 2))
            assert alexander(connected_sum(V1, V2)) == alexander(V1) * alexander(V2)


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
        for q in (3, 5, 7, 9, 11):
            numerator = P([1] + [0] * (q - 1) + [1])  # t^q + 1
            quotient, rem = numerator.divmod_exact(P([1, 1]))
            assert rem.is_zero()
            assert alexander(torus_2q(q)) == quotient


class TestMultiple:
    def test_zero(self):
        assert multiple(TREFOIL, 0) == UNKNOT

    def test_one(self):
        assert multiple(TREFOIL, 1) == TREFOIL

    def test_three(self):
        V = multiple(TREFOIL, 3)
        assert V.dim == 6
        assert alexander(V) == P([1, -1, 1]) ** 3
