"""Acceptance gate: one test per criterion, each with its own time budget.

Run with `pytest -v tests/test_acceptance.py` to get a one-line verdict per
criterion; with `-s` each test also prints "[criterion N] PASS (elapsed)".
"""

import random
import time
from contextlib import contextmanager


from conftest import cyclotomic_product_identity, poly_mul, random_seifert
from knotconc.covers import classify_prime_power_covers, cover_order
from knotconc.cli import main as cli_main
from knotconc.exactpoly import (
    IntPolynomial,
    cyclotomic,
    factorize,
    totient,
)
from knotconc.obstruction import FamilyParameters, verify_separation, witness_schedule
from knotconc.seifert import (
    SeifertMatrix,
    alexander,
    connected_sum,
    mirror,
    multiple,
    torus_2q,
)
from knotconc.signatures import (
    UnitRootArg,
    at_jump,
    jump_step_check,
    tl_signature,
    verify_torus_lemma,
)
from knotconc.exactpoly import integer_determinant

P = IntPolynomial


@contextmanager
def budget(criterion, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, (
        "criterion %s exceeded its %gs budget (%.2fs)" % (criterion, seconds, elapsed)
    )
    print("[criterion %s] PASS (%.2fs, budget %gs)" % (criterion, elapsed, seconds))


def test_criterion_1_cover_order_spot_values():
    with budget(1, 1.0):
        trefoil = alexander(SeifertMatrix([[1, -1], [0, 1]]))
        fig8 = alexander(SeifertMatrix([[1, 1], [0, -1]]))
        for r, value in ((2, 3), (3, 4), (4, 3), (5, 1)):
            assert cover_order(trefoil, r) == value
        assert cover_order(trefoil, 6) is None
        assert cover_order(fig8, 2) == 5
        assert cover_order(fig8, 3) == 16


def test_criterion_2_prime_power_covers_always_finite():
    with budget(2, 30.0):
        rng = random.Random(20240402)
        prime_powers = [r for r in range(2, 33) if len(factorize(r)) == 1]
        for _ in range(200):
            V = random_seifert(rng, rng.randint(1, 4), bound=3)
            delta = alexander(V)
            for r in prime_powers:
                assert cover_order(delta, r) is not None


def test_criterion_3_classifier_verdicts():
    with budget(3, 10.0):
        for n in (30, 42, 60, 66, 70):
            report = classify_prime_power_covers(cyclotomic(n))
            assert report.all_prime_power_covers_trivial
            for r in range(2, 28):
                if len(factorize(r)) == 1:
                    assert cover_order(cyclotomic(n), r) == 1
        for n in (6, 12, 15, 45):
            report = classify_prime_power_covers(cyclotomic(n))
            assert not report.all_prime_power_covers_trivial
            r, order = report.witness_cover
            # Verify the witness against the cover-order computation itself.
            check = cover_order(cyclotomic(n), r)
            assert check == order != 1


def test_criterion_4_product_identity_grid():
    import math

    with budget(4, 30.0):
        checked = 0
        for n in range(1, 61):
            for p in (2, 3, 5, 7):
                for k in (1, 2, 3):
                    m = n // math.gcd(n, p**k)
                    if m < 2:
                        continue
                    value, predicted, got_m, b = cyclotomic_product_identity(n, p, k)
                    assert got_m == m
                    assert value == predicted == abs(cyclotomic(m)(1)) ** b
                    assert b == totient(n) // totient(m)
                    checked += 1
        assert checked > 500


def test_criterion_5_torus_signature_lemma():
    with budget(5, 10.0):
        for q in (3, 5, 7, 9, 11):
            report = verify_torus_lemma(q)
            assert report.min_signature >= 2
            assert report.jump_steps.sigma_at_minus_one == q - 1


def test_criterion_6_jump_structure():
    with budget(6, 5.0):
        trefoil = SeifertMatrix([[1, -1], [0, 1]])
        report = jump_step_check(trefoil, 3)
        assert [(j.numerator, j.denominator) for j in report.jumps] == [(1, 6), (5, 6)]
        assert all(j.simple and j.away_step == 2 for j in report.jumps)
        t25 = jump_step_check(torus_2q(5), 5)
        assert t25.sigma_at_minus_one == 4
        upper = [j for j in t25.jumps if 2 * j.numerator < j.denominator]
        assert len(upper) == 2
        assert all(j.away_step == 2 for j in upper)
        assert sum(j.away_step for j in upper) == 4


def test_criterion_7_property_suite():
    with budget(7, 60.0):
        rng = random.Random(20240403)

        # Delta(1) = 1 and palindromicity.
        for _ in range(500):
            V = random_seifert(rng, rng.randint(1, 3), bound=3)
            delta = alexander(V)
            assert delta(1) == 1
            if integer_determinant(V.rows) != 0:
                assert delta.coeffs == tuple(reversed(delta.coeffs))
            else:
                padded = list(delta.coeffs) + [0] * (V.dim + 1 - len(delta.coeffs))
                assert delta == P(list(reversed(padded)))

        # Alexander multiplicativity under connected sum.
        for _ in range(500):
            V1 = random_seifert(rng, rng.randint(1, 2))
            V2 = random_seifert(rng, rng.randint(1, 2))
            assert alexander(connected_sum(V1, V2)) == poly_mul(alexander(V1), alexander(V2))

        # Signature additivity.
        done = 0
        while done < 500:
            V1 = random_seifert(rng, 1)
            V2 = random_seifert(rng, 1)
            w = UnitRootArg(rng.randint(1, 6), 7)
            if at_jump(V1, w) or at_jump(V2, w):
                continue
            assert tl_signature(connected_sum(V1, V2), w) == tl_signature(
                V1, w
            ) + tl_signature(V2, w)
            done += 1

        # Mirror negation.
        done = 0
        while done < 500:
            V = random_seifert(rng, rng.randint(1, 2))
            w = UnitRootArg(rng.randint(1, 4), 5)
            if at_jump(V, w):
                continue
            assert tl_signature(mirror(V), w) == -tl_signature(V, w)
            done += 1

        # Multiple scaling.
        done = 0
        while done < 500:
            V = random_seifert(rng, 1)
            n = rng.randint(2, 4)
            w = UnitRootArg(rng.randint(1, 4), 5)
            if at_jump(V, w):
                continue
            assert tl_signature(multiple(V, n), w) == n * tl_signature(V, w)
            done += 1

        # Conjugation symmetry.
        done = 0
        while done < 500:
            V = random_seifert(rng, rng.randint(1, 2))
            q = rng.choice([5, 7, 9, 11])
            a = rng.randint(1, q - 1)
            w = UnitRootArg(a, q)
            if at_jump(V, w):
                continue
            assert tl_signature(V, w) == tl_signature(V, UnitRootArg(q - a, q))
            done += 1


def test_criterion_8_witness_schedules():
    with budget(8, 60.0):
        base = dict(genus=1, p=3, k=1, q=3)
        schedule0 = witness_schedule(FamilyParameters(n0=0, **base), 3)
        assert schedule0.entries == (1, 7, 43)
        schedule10 = witness_schedule(FamilyParameters(n0=10, **base), 2)
        assert schedule10.entries == (11, 77)
        for schedule in (schedule0, schedule10):
            assert verify_separation(schedule)  # all 3^6 assignments enumerated per side


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    with budget(9, 5.0):
        trefoil = tmp_path / "trefoil.txt"
        trefoil.write_text("1 -1\n0 1\n")
        code = cli_main(
            ["--json", "witness", str(trefoil), "--n0", "10", "--count", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        import json

        doc = json.loads(out)
        assert doc["witness_cover"] == {"r": 2, "order": 3}
        assert doc["q"] == 3
        assert [e["n"] for e in doc["schedule"]] == [11, 77]

        unknot = tmp_path / "unknot.json"
        unknot.write_text('{"name": "unknot", "matrix": []}')
        code = cli_main(["witness", str(unknot)])
        err = capsys.readouterr().err
        assert code == 3
        assert "hypothesis not satisfied" in err
