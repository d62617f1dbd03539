import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotconc
from knotconc import cli, covers, exactpoly, obstruction, seifert, signatures
from knotconc.cli import build_parser, main, parse_matrix_document
from knotconc.errors import HypothesisNotSatisfied, InvalidInput, KnotConcError
from knotconc.seifert import SeifertMatrix

from conftest import dense_symmetric_delta, json_run, poly_mul, random_seifert, seifert_rows

TREFOIL_TEXT = "1 -1\n0 1\n"
UNKNOT_TEXT = "{\"name\": \"unknot\", \"matrix\": []}"
DELTA_T_TEXT = "-2 1\n0 0\n"


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.txt"
    path.write_text(TREFOIL_TEXT)
    return str(path)


def torsion_file(tmp_path, q):
    """A genus-1 matrix whose 2-fold cover has |H1| = q, for odd q > 1:
    [[a, 1], [0, 1]] has Delta = a(1 - t)^2 + t and |Delta(-1)| = |4a - 1|."""
    a = (q + 1) // 4 if q % 4 == 3 else (1 - q) // 4
    path = tmp_path / ("torsion-%d.txt" % q)
    path.write_text("%d 1\n0 1\n" % a)
    return str(path)


@pytest.fixture
def no_eliminations(monkeypatch):
    """Fail any call that would run a certified signature elimination."""

    def refuse(*args):
        raise AssertionError("a signature elimination ran")

    monkeypatch.setattr(signatures, "tl_signature", refuse)
    monkeypatch.setattr(signatures, "_form_inertia", refuse)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_bare_text(self):
        name, V = parse_matrix_document("# a comment\n1, -1\n0 1\n")
        assert name == "matrix"
        assert V == SeifertMatrix([[1, -1], [0, 1]])

    def test_json_document(self):
        name, V = parse_matrix_document('{"name": "tref", "matrix": [[1,-1],[0,1]]}')
        assert name == "tref"
        assert V.dim == 2

    def test_bad_row(self):
        with pytest.raises(InvalidInput):
            parse_matrix_document("1 x\n0 1\n")

    def test_integers(self):
        assert cli._integers("1,-1,1") == [1, -1, 1]
        assert cli._integers("1 -1 1") == [1, -1, 1]
        assert cli._integers(" 1, -1 ") == [1, -1]

    # Each is refused, as JSON refuses it: an empty field, and an integer
    # that only Python's int() reads.
    @pytest.mark.parametrize("row", ["1,,-1", "1 1_0", "\u0663 1", "1, -1,"])
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_bad_row_exit_2(self, capsys, monkeypatch, row, mode):
        code, out, err = run(
            capsys, mode + ["alexander", "-"], stdin=row + "\n0 1\n", monkeypatch=monkeypatch
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse matrix row: ") and err.count("\n") == 1

    @pytest.mark.parametrize("delta", ["1,,-1,,1", "1,-1,1,", "1,1_0,1", "", " "])
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_bad_delta_fields_exit_2(self, capsys, delta, mode):
        code, out, err = run(capsys, mode + ["classify", "--delta", delta])
        assert (code, out) == (2, "")
        assert err.startswith("error: bad --delta: ") and err.count("\n") == 1

    def test_delta_with_spaces(self, capsys):
        code, out, err = run(capsys, ["--json", "classify", "--delta", "1 -1 1"])
        assert code == 0, err
        assert json.loads(out)["alexander"]["coefficients"] == [1, -1, 1]


class TestAlexander:
    def test_human(self, capsys, trefoil_file):
        code, out, err = run(capsys, ["alexander", trefoil_file])
        assert code == 0
        assert "Delta(t) = t^2 - t + 1" in out
        assert "Delta(1) = 1" in out

    def test_json(self, capsys, trefoil_file):
        code, out, err = run(capsys, ["--json", "alexander", trefoil_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["alexander"]["coefficients"] == [1, -1, 1]
        assert doc["delta_at_minus_1"] == 3

    def test_json_flag_after_subcommand(self, capsys, trefoil_file):
        code, out, err = run(capsys, ["alexander", trefoil_file, "--json"])
        assert code == 0
        json.loads(out)

    def test_json_deterministic(self, capsys, trefoil_file):
        _, out1, _ = run(capsys, ["--json", "alexander", trefoil_file])
        _, out2, _ = run(capsys, ["--json", "alexander", trefoil_file])
        assert out1 == out2

    def test_invalid_matrix_exit_2(self, capsys, tmp_path):
        # The second matrix has det(V - V^t) = 10^4400, past Python's
        # int-to-str limit; the message gives its leading digits.
        path = tmp_path / "bad.txt"
        commands = [["alexander"], ["covers"], ["classify"], ["signature", "--q", "6"], ["witness"]]
        for text in ["1 0\n0 1\n", '{"matrix": [[0, 1%s], [0, 0]]}' % ("0" * 2200)]:
            path.write_text(text)
            for mode in [[], ["--json"]]:
                for argv in commands:
                    code, out, err = run(capsys, mode + [argv[0], str(path)] + argv[1:])
                    assert code == 2 and out == "", (argv, mode)
                    assert err.startswith("error: invalid Seifert matrix:"), err[:200]
                    assert err.count("\n") == 1 and len(err.encode()) < 200, err[:200]

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, ["alexander", "/nonexistent/path.txt"])
        assert code == 2


class TestCovers:
    def test_trefoil_table(self, capsys, trefoil_file):
        code, out, err = run(capsys, ["--json", "covers", trefoil_file, "--max-r", "6"])
        assert code == 0
        doc = json.loads(out)
        table = {row["r"]: row["order"] for row in doc["covers"]}
        assert table == {2: 3, 3: 4, 4: 3, 5: 1, 6: None}

    def test_delta_option(self, capsys):
        code, out, err = run(
            capsys, ["--json", "covers", "--delta=-1,3,-1", "--max-r", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        table = {row["r"]: row["order"] for row in doc["covers"]}
        assert table == {2: 5, 3: 16}

    def test_inexact_subresultant_division_exit_4(self, capsys, monkeypatch):
        # Delta = 7t^4 - 14t^3 + 15t^2 - 14t + 7 has D = 7x^2 - 14x + 1, so
        # Res(Psi_5, D) divides its second subresultant by 7; a remainder off
        # by one there fails the check.
        remainder = exactpoly._pseudo_remainder
        steps = []

        def off_by_one(a, b):
            r = remainder(a, b)
            steps.append(r)
            if len(steps) > 1:
                r[0] += 1
            return r

        monkeypatch.setattr(exactpoly, "_pseudo_remainder", off_by_one)
        code, out, err = run(capsys, ["covers", "--delta=7,-14,15,-14,7", "--max-r", "8"])
        assert (code, out) == (4, "")
        assert err.startswith("internal assertion failed: CertificationFailure: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_bad_delta_exit_2(self, capsys):
        code, out, err = run(capsys, ["covers", "--delta", "2"])
        assert code == 2

    @pytest.mark.parametrize("command", ["covers", "classify"])
    def test_non_symmetric_delta_exit_2(self, capsys, command):
        # 3t - 2 has Delta(1) = 1 but is not symmetric up to +-t^k.
        code, out, err = run(capsys, [command, "--delta=-2,3"])
        assert (code, out) == (2, "")
        assert err == "error: Delta must be symmetric up to +-t^k, got 3*t - 2\n"

    @pytest.mark.parametrize("max_r", [1, cli.MAX_COVERS_R + 1])
    def test_max_r_out_of_bounds_exit_2_before_any_work(self, capsys, monkeypatch, max_r):
        def refuse(*args):
            raise AssertionError("cover orders were computed")

        monkeypatch.setattr(covers, "cover_orders", refuse)
        code, out, err = run(capsys, ["covers", "--delta=1,-1,1", "--max-r", str(max_r)])
        assert (code, out) == (2, "")
        assert err == "error: --max-r must be in 2..%d\n" % cli.MAX_COVERS_R

    def test_human_table_widens_its_r_column_from_r_100(self, capsys):
        code, out, err = run(capsys, ["covers", "--delta=1,-1,1", "--max-r", "99"])
        assert code == 0, err
        lines = out.splitlines()
        assert (lines[2], lines[3], lines[-1]) == ("r  |H1|", "2  3  (prime power)", "99 4")
        code, out, err = run(capsys, ["covers", "--delta=1,-1,1", "--max-r", "100"])
        assert code == 0, err
        lines = out.splitlines()
        assert (lines[2], lines[3], lines[-1]) == ("r   |H1|", "2   3  (prime power)", "100 3")
        code, out, err = run(capsys, ["covers", "--delta=1,-1,1", "--max-r", "102"])
        assert out.splitlines()[-2:] == ["101 1  (prime power)", "102 infinite"]

    def test_long_palindromic_delta_within_budget(self, capsys):
        # t^400 - t^200 + 1: the 2-fold cover needs only Delta(-1), with no
        # cyclotomic split of the degree-400 polynomial.
        delta = ",".join(["1"] + ["0"] * 199 + ["-1"] + ["0"] * 199 + ["1"])
        start = time.perf_counter()
        code, out, err = run(capsys, ["--json", "covers", "--max-r", "2", "--delta=" + delta])
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        assert json.loads(out)["covers"] == [{"r": 2, "order": 1, "prime_power": True}]

    def test_dense_delta_at_degree_bound_within_budget(self, capsys, monkeypatch):
        # A dense symmetric Delta of the largest admitted degree with
        # Delta(1) = 1.  Of the 790 Phi_n with phi(n) <= 400 only Phi_3,
        # with Phi_3(3) = 13, has its value at 3 divide Delta(3), so the
        # split builds it alone and its one trial division fails.
        coeffs = dense_symmetric_delta(cli.MAX_DELTA_DEGREE)
        built = []
        cyclotomic = exactpoly.cyclotomic

        def counting(n):
            built.append(n)
            return cyclotomic(n)

        monkeypatch.setattr(exactpoly, "cyclotomic", counting)
        start = time.perf_counter()
        code, out, err = run(capsys, ["--json", "classify", "--delta=" + ",".join(map(str, coeffs))])
        assert time.perf_counter() - start < 0.5
        assert code == 0, err
        doc = json.loads(out)
        assert doc["cyclotomic_factors"] == [] and built == [3]
        assert doc["non_cyclotomic_remainder"]["coefficients"] == coeffs
        delta_at_minus_1 = sum(c * (-1) ** i for i, c in enumerate(coeffs))
        assert doc["witness_cover"] == {"r": 2, "order": abs(delta_at_minus_1)}

    def test_genus_12_table_within_budget(self, capsys, monkeypatch):
        # det V, the leading coefficient of D, has 103 bits on this draw, so
        # every norm with phi(d) > 24 divides by the monic D^ (the covers
        # module docstring, "Monic divisor"): about 0.45 s, against 1.5 s
        # with Res(Psi_d, D) throughout (in-process, Python 3.11, Intel Xeon).
        doc = json.dumps({"matrix": random_seifert(random.Random(32), 12, bound=9).rows})
        start = time.perf_counter()
        code, out, err = run(capsys, ["--json", "covers", "--max-r", "200", "-"], doc, monkeypatch)
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        # Orders past 4300 digits: count the rows rather than parse them.
        assert out.count('"r": ') == 199 and '"r": 200,' in out

    def test_cyclotomic_delta_at_degree_bound_within_budget(self, capsys):
        # t^400 - t^200 + 1 = Phi_48 Phi_240 Phi_1200: each factor is a
        # true division of the degree-400 polynomial.
        delta = ",".join(["1"] + ["0"] * 199 + ["-1"] + ["0"] * 199 + ["1"])
        start = time.perf_counter()
        code, out, err = run(capsys, ["--json", "classify", "--delta=" + delta])
        assert time.perf_counter() - start < 0.5
        assert code == 0, err
        doc = json.loads(out)
        assert [f["n"] for f in doc["cyclotomic_factors"]] == [48, 240, 1200]
        assert doc["non_cyclotomic_remainder"]["coefficients"] == [1]

    def test_max_r_bound_is_admitted(self, monkeypatch):
        def reached(delta, rs):
            raise AssertionError("cover_orders(max r = %d)" % max(rs))

        monkeypatch.setattr(covers, "cover_orders", reached)
        r = cli.MAX_COVERS_R
        with pytest.raises(AssertionError, match="max r = %d" % r):
            main(["covers", "--delta=1,-1,1", "--max-r", str(r)])

    def test_table_past_digit_bound_exit_2_before_any_work(self, capsys, monkeypatch):
        # |Delta|_1 of [[10^2200, 1], [0, 10^2200]] has 4401 digits, so the
        # table to r = 32 would reach about 496 * 4401 digits.
        def refuse(*args):
            raise AssertionError("cover orders were computed")

        monkeypatch.setattr(covers, "cover_orders", refuse)
        argv = ["covers", "--max-r", "32", "-"]
        code, out, err = run(capsys, argv, stdin=TestLongIntegers.DOC, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith("error: covers --max-r 32 would reach about 21")
        assert err.endswith(", past %d\n" % cli.MAX_COVERS_DIGITS)

    def test_digit_bound_admits_dimension_32_at_max_r(self, monkeypatch):
        # A dense dimension-32 draw with entries up to 9 estimates about
        # 1.7M digits at r = 256, inside the bound.
        def reached(delta, rs):
            raise AssertionError("cover_orders(max r = %d)" % max(rs))

        monkeypatch.setattr(covers, "cover_orders", reached)
        rows = random_seifert(random.Random(0), cli.MAX_MATRIX_DIM // 2, 9).rows
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"matrix": rows})))
        r = cli.MAX_COVERS_R
        with pytest.raises(AssertionError, match="max r = %d" % r):
            main(["covers", "--max-r", str(r), "-"])


class TestInputSizeBounds:
    @staticmethod
    def zero_matrix(n):
        return "\n".join(" ".join(["0"] * n) for _ in range(n))

    @pytest.mark.parametrize(
        "argv", [["alexander"], ["covers"], ["classify"], ["signature", "--q", "6"], ["witness"]]
    )
    def test_matrix_past_dimension_bound_exit_2_before_alexander(
        self, capsys, monkeypatch, argv
    ):
        def refuse(V):
            raise AssertionError("alexander ran")

        for module in (cli, obstruction, signatures):
            monkeypatch.setattr(module, "alexander", refuse)
        n = cli.MAX_MATRIX_DIM + 2
        code, out, err = run(
            capsys, argv + ["-"], stdin=self.zero_matrix(n), monkeypatch=monkeypatch
        )
        assert (code, out) == (2, "")
        expected = "error: the matrix has %d rows, past %d, the largest dimension accepted\n"
        assert err == expected % (n, cli.MAX_MATRIX_DIM)

    def test_dimension_bound_is_admitted(self, capsys, monkeypatch):
        def reached(V):
            raise AssertionError("alexander(dim=%d)" % V.dim)

        monkeypatch.setattr(cli, "alexander", reached)
        n = cli.MAX_MATRIX_DIM
        with pytest.raises(AssertionError, match="dim=%d" % n):
            run(capsys, ["alexander", "-"], stdin=self.zero_matrix(n), monkeypatch=monkeypatch)

    @pytest.mark.parametrize("command", ["covers", "classify"])
    def test_delta_past_degree_bound_exit_2_before_any_work(
        self, capsys, monkeypatch, command
    ):
        def refuse(*args):
            raise AssertionError("Delta was used")

        monkeypatch.setattr(covers, "cover_orders", refuse)
        monkeypatch.setattr(covers, "classify_prime_power_covers", refuse)
        degree = cli.MAX_DELTA_DEGREE + 1  # t^k counts: Delta = t^degree
        delta = ",".join(["0"] * degree + ["1"])
        code, out, err = run(capsys, [command, "--delta=" + delta])
        assert (code, out) == (2, "")
        expected = "error: --delta has degree %d, past %d, the largest accepted\n"
        assert err == expected % (degree, cli.MAX_DELTA_DEGREE)

    def test_delta_degree_bound_is_admitted(self, monkeypatch):
        def reached(delta):
            raise AssertionError("classify(degree=%d)" % delta.degree())

        monkeypatch.setattr(covers, "classify_prime_power_covers", reached)
        degree = cli.MAX_DELTA_DEGREE
        with pytest.raises(AssertionError, match="degree=%d" % degree):
            main(["classify", "--delta=" + ",".join(["0"] * degree + ["1"])])


class TestClassify:
    def test_witness_search_exhausted_exit_4(self, capsys, monkeypatch):
        # Lehmer's polynomial has its first witness cover at r = 4.
        monkeypatch.setattr(covers, "DEFAULT_WITNESS_BOUND", 3)
        code, out, err = run(capsys, ["classify", "--delta=1,1,0,-1,-1,-1,-1,-1,0,1,1"])
        assert (code, out) == (4, "")
        assert err == (
            "internal assertion failed: WitnessSearchExhausted: "
            "no prime power cover with nontrivial homology found up to 3\n"
        )

    def test_trefoil(self, capsys, trefoil_file):
        code, out, err = run(capsys, ["--json", "classify", trefoil_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_prime_power_covers_trivial"] is False
        assert doc["witness_cover"] == {"r": 2, "order": 3}
        assert doc["cyclotomic_factors"] == [
            {"n": 6, "multiplicity": 1, "distinct_primes": [2, 3]}
        ]

    def test_witness_is_the_least_nontrivial_prime_power(self, capsys):
        # Phi_15 (t^2 - 3t + 1): |H1| = 5 at r = 2, before Phi_15's r = 3.
        code, out, err = run(capsys, ["classify", "--delta", "1,-4,4,0,-4,5,-4,0,4,-4,1"])
        assert code == 0
        assert out.endswith("\nwitness cover: r = 2 with |H1| = 5\n")

    def test_three_prime_index_is_trivial(self, capsys):
        # phi_30 ascending coefficients.
        code, out, err = run(
            capsys, ["--json", "classify", "--delta", "1,1,0,-1,-1,-1,0,1,1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_prime_power_covers_trivial"] is True
        assert doc["witness_cover"] is None

    def test_delta_t_is_trivial(self, capsys, monkeypatch):
        # V = [[-2, 1], [0, 0]] is singular and has Delta = t.
        code, out, err = run(
            capsys,
            ["--json", "classify", "-"],
            stdin=DELTA_T_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alexander"]["coefficients"] == [0, 1]
        assert doc["all_prime_power_covers_trivial"] is True
        assert doc["all_covers_trivial"] is True
        assert doc["witness_cover"] is None

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
    def test_formats_each_polynomial_once(self, capsys, monkeypatch, trefoil_file, mode):
        # Delta and the non-cyclotomic remainder, in the one rendering printed.
        calls = []
        format_poly = exactpoly.format_poly

        def counting(p):
            calls.append(p)
            return format_poly(p)

        monkeypatch.setattr(exactpoly, "format_poly", counting)
        code, out, err = run(capsys, mode + ["classify", trefoil_file])
        assert code == 0
        assert len(calls) == 2

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        half=st.lists(st.integers(-4, 4), max_size=6),
        indices=st.lists(st.sampled_from([6, 10, 12, 14, 15, 18, 30]), max_size=3),
        shift=st.integers(0, 2),
        sign=st.sampled_from([1, -1]),
    )
    def test_delta_split_has_no_phi_one_or_two(self, half, indices, shift, sign):
        # A palindrome with Delta(1) = 1, times Phi_n with Phi_n(1) = 1, +-t^k.
        delta = poly_mul(
            exactpoly.IntPolynomial(half + [1 - 2 * sum(half)] + half[::-1]),
            *[exactpoly.cyclotomic(n) for n in indices],
        )
        coeffs = [0] * shift + [sign * c for c in delta.coeffs]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--json", "classify", "--delta=" + ",".join(map(str, coeffs))])
        assert code == 0
        found = [f["n"] for f in json.loads(out.getvalue())["cyclotomic_factors"]]
        assert 1 not in found and 2 not in found
        assert sorted(set(indices)) == [n for n in found if n in indices]


class TestSignature:
    def test_failed_certification_exit_4(self, capsys, trefoil_file, monkeypatch):
        # (pos + 1, neg - 1) moves sigma by 2, off 2 [D < 0] mod 4.
        eliminate = signatures._form_inertia

        def flipped(*form):
            pos, neg = eliminate(*form)
            return pos + 1, neg - 1

        monkeypatch.setattr(signatures, "_form_inertia", flipped)
        code, out, err = run(capsys, ["signature", trefoil_file, "--q", "6"])
        assert (code, out) == (4, "")
        assert err.startswith("internal assertion failed: CertificationFailure: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_trefoil_q6(self, capsys, trefoil_file):
        code, out, err = run(capsys, ["--json", "signature", trefoil_file, "--q", "6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["profile"] == {"1": "jump", "2": 2, "3": 2, "4": 2, "5": "jump"}

    def test_largest_q_at_genus_12_within_budget(self, capsys, tmp_path):
        # Bisection locates a few dozen of the 10000 angles: about 0.1 s,
        # where one locate per angle took 2 s.
        rows = random_seifert(random.Random(32), 12).rows
        path = tmp_path / "genus12.json"
        path.write_text(json.dumps({"matrix": [list(r) for r in rows]}))
        argv = ["--json", "signature", str(path), "--q", str(cli.MAX_SIGNATURE_Q)]
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 0.3
        captured = capsys.readouterr()
        assert code == 0, captured.err
        profile = json.loads(captured.out)["profile"]
        assert len(profile) == cli.MAX_SIGNATURE_Q - 1

    def test_q_too_small_exit_2(self, capsys, trefoil_file):
        code, out, err = run(capsys, ["signature", trefoil_file, "--q", "1"])
        assert code == 2

    def test_q_past_bound_exit_2_before_any_work(self, capsys, trefoil_file, monkeypatch):
        def refuse(*args):
            raise AssertionError("the matrix was read or the profile computed")

        monkeypatch.setattr(cli, "_load_matrix", refuse)
        monkeypatch.setattr(signatures, "signature_profile", refuse)
        q = cli.MAX_SIGNATURE_Q + 1
        code, out, err = run(capsys, ["signature", trefoil_file, "--q", str(q)])
        assert (code, out) == (2, "")
        assert err == "error: --q must be in 2..%d\n" % cli.MAX_SIGNATURE_Q

    def test_q_bound_is_admitted(self, trefoil_file, monkeypatch):
        def reached(V, q):
            raise AssertionError("signature_profile(q=%d)" % q)

        monkeypatch.setattr(signatures, "signature_profile", reached)
        q = cli.MAX_SIGNATURE_Q
        with pytest.raises(AssertionError, match="q=%d" % q):
            main(["signature", trefoil_file, "--q", str(q)])


class TestTorus:
    def test_emits_matrix(self, capsys):
        code, out, err = run(capsys, ["torus", "5"])
        assert code == 0
        name, V = parse_matrix_document(out)
        assert V.dim == 4 and V.validate() is None

    def test_round_trip_through_witness(self, capsys, monkeypatch):
        _, torus_out, _ = run(capsys, ["torus", "3"])
        code, out, err = run(
            capsys,
            ["--json", "witness", "-", "--count", "2"],
            stdin=torus_out,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["witness_cover"] == {"r": 2, "order": 3}

    def test_verify(self, capsys):
        code, out, err = run(capsys, ["--json", "torus", "5", "--verify"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verify"]["sigma_at_minus_one"] == 4
        assert doc["verify"]["min_signature"] >= 2
        assert len(doc["verify"]["jumps"]) == 4

    def test_even_q_exit_2(self, capsys):
        code, out, err = run(capsys, ["torus", "4"])
        assert code == 2

    def test_q_past_bound_exit_2_before_allocating(self, capsys):
        # Just past the bound, so that a missing guard costs a few MB, not
        # the 10^10 entries of T(2,100001).
        q = seifert.MAX_TORUS_Q + 2
        build_parser()  # its one-time allocations are not the command's
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["torus", str(q), "--verify"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "q = %d is past %d" % (q, seifert.MAX_TORUS_Q) in err
        assert peak < 200_000  # the matrix would take about 8 MB of row lists

    @pytest.mark.parametrize("q", [signatures.MAX_VERIFY_Q + 2, seifert.MAX_TORUS_Q])
    def test_verify_past_bound_exit_2_before_any_work(
        self, capsys, monkeypatch, no_eliminations, q
    ):
        def refuse(q):
            raise AssertionError("the T(2,q) matrix was built")

        monkeypatch.setattr(signatures, "torus_2q", refuse)
        monkeypatch.setattr(cli, "torus_2q", refuse)
        code, out, err = run(capsys, ["torus", str(q), "--verify"])
        assert (code, out) == (2, "")
        assert err.startswith("error: q = %d is past %d," % (q, signatures.MAX_VERIFY_Q))
        assert err.count("\n") == 1

    def test_verify_admits_q_up_to_the_bound(self, monkeypatch):
        assert signatures.MAX_VERIFY_Q >= 61

        def reached(q):
            raise AssertionError("building T(2,%d)" % q)

        monkeypatch.setattr(signatures, "torus_2q", reached)
        q = signatures.MAX_VERIFY_Q
        with pytest.raises(AssertionError, match="building T\\(2,%d\\)" % q):
            main(["torus", str(q), "--verify"])

    def test_even_q_verify_exit_2(self, capsys):
        code, out, err = run(capsys, ["torus", "4", "--verify"])
        assert code == 2
        assert "q must be odd" in err

    def test_even_q_past_verify_bound_gets_torus_2q_message(self, capsys):
        q = signatures.MAX_VERIFY_Q + 3
        code, out, err = run(capsys, ["torus", str(q), "--verify"])
        assert (code, out, err) == (2, "", "error: q must be odd and >= 3, got %d\n" % q)

    def test_verify_computes_delta_once(self, capsys, monkeypatch):
        from knotconc import exactpoly, seifert

        determinants = []

        def counting_determinant(rows):
            determinants.append([list(row) for row in rows])
            return exactpoly.integer_determinant(rows)

        monkeypatch.setattr(seifert, "integer_determinant", counting_determinant)
        code, out, err = run(capsys, ["torus", "7", "--verify"])
        assert code == 0, err
        # One T(2,7), genus 3: one validation and g = 3 evaluations of
        # V + x(V - V^t), at x = 0, 1, 2, none of them the validation's
        # matrix V - V^t.
        V = seifert.torus_2q(7).rows
        skew = [[V[i][j] - V[j][i] for j in range(6)] for i in range(6)]
        assert [len(rows) for rows in determinants] == [6] * 4
        assert determinants.count(skew) == 1


class TestWitness:
    def test_trefoil_schedule(self, capsys, trefoil_file):
        code, out, err = run(
            capsys,
            ["--json", "witness", trefoil_file, "--n0", "10", "--count", "2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["witness_cover"] == {"r": 2, "order": 3}
        assert doc["q"] == 3
        assert doc["parameters"]["term_count"] == 6
        assert [e["n"] for e in doc["schedule"]] == [11, 77]
        assert doc["separation"]["brute_forced"] is True

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewest_members(self, capsys, tmp_path, count):
        code, out, err = run(
            capsys,
            ["--json", "witness", torsion_file(tmp_path, 7), "--q", "7", "--count", str(count)],
        )
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["schedule"]) == count
        assert doc["separation"]["pairs_checked"] == 0
        assert doc["separation"]["brute_forced"] is False
        assert doc["profile_extremes"] == {"s_min": 2, "s_max": 6}

    def test_unknot_exit_3(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, ["witness", "-"], stdin=UNKNOT_TEXT, monkeypatch=monkeypatch
        )
        assert code == 3
        assert err == (
            "hypothesis not satisfied: all prime power branched covers are "
            "homology spheres, and so is every other cover; Delta(t) = 1 gives "
            "no obstruction\n"
        )

    def test_delta_t_exit_3(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, ["witness", "-"], stdin=DELTA_T_TEXT, monkeypatch=monkeypatch
        )
        assert code == 3
        assert "hypothesis not satisfied" in err

    def test_q_override(self, capsys, tmp_path):
        code, out, err = run(
            capsys, ["--json", "witness", torsion_file(tmp_path, 5), "--q", "5", "--count", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == 5 and doc["parameters"]["p"] == 5

    def test_q_with_no_character_exit_2(self, capsys, trefoil_file):
        # The trefoil's prime-power covers have |H1| 1, 3 or 4: no Z_5
        # character is nontrivial, and no other q could help.
        code, out, err = run(capsys, ["witness", trefoil_file, "--q", "5"])
        assert (code, out) == (2, "")
        assert err == "error: no prime power cover up to 512 has |H1| divisible by 5\n"

    @pytest.mark.parametrize(
        "q, message",
        [(4, "q must be odd and >= 3, got 4"), (15, "15 is not a prime power")],
    )
    def test_malformed_q_exit_2_whatever_the_matrix(self, capsys, monkeypatch, q, message):
        # The unknot has no obstruction, so a q judged after the covers
        # would exit 3 here and 2 on the trefoil.
        code, out, err = run(
            capsys, ["witness", "-", "--q", str(q)], stdin=UNKNOT_TEXT, monkeypatch=monkeypatch
        )
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    def test_cover_is_the_first_with_an_odd_prime(self, capsys, monkeypatch):
        # |H1| is 1 at r = 2 and 16 at r = 3, so r = 4, with 25, is taken.
        code, out, err = run(
            capsys,
            ["--json", "witness", "-"],
            stdin="0 1 0 -1\n0 0 1 -2\n0 1 0 -2\n-1 -2 -3 -1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["witness_cover"], doc["q"]) == ({"r": 4, "order": 25}, 25)

    @pytest.mark.parametrize("count", [-1, cli.MAX_WITNESS_COUNT + 1])
    def test_count_out_of_bounds_exit_2_before_any_work(
        self, capsys, trefoil_file, monkeypatch, count
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the witness pipeline ran")

        monkeypatch.setattr(obstruction, "family_report", refuse)
        code, out, err = run(capsys, ["witness", trefoil_file, "--count", str(count)])
        assert (code, out) == (2, "")
        assert err == "error: --count must be in 0..%d\n" % cli.MAX_WITNESS_COUNT

    def test_count_bound_is_admitted(self, capsys, trefoil_file, monkeypatch):
        def reached(V, count, **kwargs):
            raise AssertionError("family_report(count=%d)" % count)

        monkeypatch.setattr(obstruction, "family_report", reached)
        count = cli.MAX_WITNESS_COUNT
        with pytest.raises(AssertionError, match="count=%d" % count):
            main(["witness", trefoil_file, "--count", str(count)])

    def test_schedule_past_digit_bound_exit_2_before_building(
        self, capsys, tmp_path, monkeypatch
    ):
        # L = 2 * 1289 and q = 1289: 690 members reach about 4291 digits.
        def refuse(*args):
            raise AssertionError("the schedule was built")

        monkeypatch.setattr(obstruction, "sum_range", refuse)
        code, out, err = run(
            capsys, ["witness", torsion_file(tmp_path, 1289), "--q", "1289", "--count", "690"]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: 690 members with L = 2578 and q = 1289 ")
        assert err.endswith(", past %d\n" % obstruction.MAX_SCHEDULE_DIGITS)

    def test_q_past_trial_division_exit_2_before_any_work(
        self, capsys, trefoil_file, monkeypatch
    ):
        # Past TRIAL_DIVISION_BOUND^2 trial division could not tell whether
        # q is a prime power.
        assert cli.MAX_WITNESS_Q == exactpoly.TRIAL_DIVISION_BOUND**2

        def refuse(*args, **kwargs):
            raise AssertionError("the matrix was read or the pipeline ran")

        monkeypatch.setattr(cli, "_load_matrix", refuse)
        monkeypatch.setattr(obstruction, "family_report", refuse)
        q = cli.MAX_WITNESS_Q + 1
        code, out, err = run(capsys, ["witness", trefoil_file, "--q", str(q)])
        assert (code, out) == (2, "")
        assert err == "error: --q must be at most %d\n" % cli.MAX_WITNESS_Q

    def test_q_trial_division_bound_is_admitted(self, capsys, trefoil_file):
        # The bound reaches the pipeline, and trial division settles that
        # 10^12 = 2^12 5^12 is no prime power.
        code, out, err = run(capsys, ["witness", trefoil_file, "--q", str(cli.MAX_WITNESS_Q)])
        assert (code, out) == (2, "")
        assert err == "error: %d is not a prime power\n" % cli.MAX_WITNESS_Q

    def test_large_prime_q_within_bound(self, capsys, tmp_path):
        # The largest prime below 10^12: trial division proves it prime.
        q = "999999999989"
        code, out, err = run(
            capsys,
            ["--json", "witness", torsion_file(tmp_path, int(q)), "--q", q, "--count", "2"],
        )
        assert code == 0, err
        assert json.loads(out)["parameters"]["p"] == 999999999989

    def test_even_q_override_exit_2(self, capsys, trefoil_file):
        code, out, err = run(capsys, ["witness", trefoil_file, "--q", "4"])
        assert code == 2

    def test_q_not_a_prime_power_exit_2(self, capsys, trefoil_file):
        code, out, err = run(capsys, ["witness", trefoil_file, "--q", "15"])
        assert code == 2
        assert "15 is not a prime power" in err

    def test_unfactored_witness_order_exit_2(self, capsys, monkeypatch):
        # |H1| of the 2-fold cover is 1000003 * 1000033, past trial division.
        code, out, err = run(
            capsys,
            ["witness", "-"],
            stdin="250009000025 1\n0 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "pass --q" in err

    def test_unfactored_huge_order_message_is_short(self, capsys, monkeypatch):
        # |H1| of the 2-fold cover is 4 * 10^4400 - 1: its 4400-digit
        # cofactor is named by its leading digits and digit count.
        big = "1" + "0" * 2200
        code, out, err = run(
            capsys,
            ["witness", "-"],
            stdin="%s 1\n0 %s\n" % (big, big),
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "(4400 digits)" in err and "pass --q" in err
        assert len(err.encode()) < 300

    def test_witness_eliminates_nothing(self, capsys, trefoil_file, no_eliminations):
        code, out, err = run(
            capsys, ["--json", "witness", trefoil_file, "--n0", "10", "--count", "2"]
        )
        assert code == 0, err
        assert json.loads(out)["separation"]["brute_forced"] is True

    def test_large_q_costs_no_elimination(self, capsys, tmp_path, no_eliminations):
        code, out, err = run(
            capsys, ["--json", "witness", torsion_file(tmp_path, 101), "--q", "101", "--count", "2"]
        )
        assert code == 0, err
        assert json.loads(out)["profile_extremes"] == {"s_min": 2, "s_max": 100}

    def test_non_cyclic_homology_costs_no_elimination(
        self, capsys, monkeypatch, no_eliminations
    ):
        # H1 of the 2-fold cover is Z13 + Z13 (q = 169 today, 13 once q is
        # taken from the group); either way no T(2,q) form is eliminated.
        code, out, err = run(
            capsys,
            ["--json", "witness", "-", "--count", "2"],
            stdin="2 3 -2 -2\n2 0 0 2\n-2 0 0 -1\n-2 2 -2 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["profile_extremes"]["s_max"] == doc["q"] - 1

    def test_removed_prime_options(self, capsys, trefoil_file):
        with pytest.raises(SystemExit):
            main(["witness", trefoil_file, "--p", "5"])
        capsys.readouterr()


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


class TestExitStatuses:
    @pytest.mark.parametrize("error", _subclasses(KnotConcError), ids=lambda e: e.__name__)
    def test_every_library_error_maps_to_an_exit_status(
        self, capsys, trefoil_file, monkeypatch, error
    ):
        def planted(V):
            raise error("planted")

        # The parser, built once per process, holds the command functions
        # themselves, so the error is planted in the library call below one.
        monkeypatch.setattr(cli, "alexander", planted)
        code, out, err = run(capsys, ["alexander", trefoil_file])
        if issubclass(error, InvalidInput):
            expected = (2, "error: planted\n")
        elif issubclass(error, HypothesisNotSatisfied):
            expected = (3, "hypothesis not satisfied: planted\n")
        else:
            expected = (4, "internal assertion failed: %s: planted\n" % error.__name__)
        assert (code, err) == expected

    def test_over_long_json_entry_exit_2(self, capsys, monkeypatch):
        doc = '{"matrix": [[%s, 1], [0, 1]]}' % ("1" * 5001)
        code, out, err = run(capsys, ["alexander", "-"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2

    @pytest.mark.parametrize("entry", ["0.5", "1.0", "true", '"1"', "null"])
    def test_non_integer_entry_exit_2(self, capsys, monkeypatch, entry):
        # int() would read 0.5 as 0 (Delta = t) and 1.0, true and "1" as 1.
        doc = '{"matrix": [[%s, -1], [0, 1]]}' % entry
        code, out, err = run(
            capsys, ["--json", "alexander"], stdin=doc, monkeypatch=monkeypatch
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: bad matrix entries: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_non_string_name_exit_2(self, capsys, monkeypatch):
        doc = '{"name": [1], "matrix": [[1, -1], [0, 1]]}'
        code, out, err = run(
            capsys, ["--json", "alexander"], stdin=doc, monkeypatch=monkeypatch
        )
        assert (code, out) == (2, "")
        assert err == 'error: "name" must be a string\n'

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
    def test_lone_surrogate_name_exit_2(self, capsys, monkeypatch, mode):
        # json.loads keeps "\ud800" as a lone surrogate, which UTF-8 output
        # cannot encode.
        doc = '{"name": "x\\ud800", "matrix": [[1, -1], [0, 1]]}'
        code, out, err = run(capsys, mode + ["alexander"], stdin=doc, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == 'error: "name" must not hold a lone surrogate\n'

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
    @pytest.mark.parametrize(
        "escaped, name", [("M\\u00f6bius", "M\u00f6bius"), ("\\ud83d\\ude00", "\U0001f600")]
    )
    def test_non_ascii_name_exit_0(self, capsys, monkeypatch, mode, escaped, name):
        # A surrogate pair decodes to one character, which prints.
        doc = '{"name": "%s", "matrix": [[1, -1], [0, 1]]}' % escaped
        code, out, err = run(capsys, mode + ["alexander"], stdin=doc, monkeypatch=monkeypatch)
        assert (code, err) == (0, "")
        if mode:
            assert json.loads(out)["name"] == name
        else:
            assert out.startswith("name: %s\n" % name)
            out.encode("utf-8")  # as a UTF-8 stdout does; a lone surrogate raises

    @pytest.mark.parametrize(
        "matrix", ["{}", '{"a": 1}', '"12"', "[1, 2]", '[[1, -1], "01"]', "null"]
    )
    def test_matrix_not_an_array_of_arrays_exit_2(self, capsys, monkeypatch, matrix):
        # Iterating {} would read it as no rows, the unknot.
        doc = '{"matrix": %s}' % matrix
        code, out, err = run(capsys, ["--json", "alexander"], stdin=doc, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == 'error: "matrix" must be an array of arrays\n'

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["alexander", "-"], 'error: JSON document must have a "matrix" field\n'),
            (["witness", "-", "--n0", "-1"], "error: --n0 must be >= 0\n"),
        ],
    )
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_refused_argument_exit_2(self, capsys, monkeypatch, argv, message, mode):
        doc = '{"name": "trefoil", "rows": [[1, -1], [0, 1]]}'
        code, out, err = run(capsys, mode + argv, stdin=doc, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", message)

    def test_empty_matrix_is_the_unknot(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, ["--json", "alexander"], stdin='{"matrix": []}', monkeypatch=monkeypatch
        )
        assert (code, json.loads(out)["dimension"]) == (0, 0)

    def test_deeply_nested_json_exit_2(self, capsys, tmp_path):
        # json.loads raises RecursionError past the interpreter's depth.
        path = tmp_path / "deep.json"
        path.write_text('{"matrix": ' + "[" * 100000 + "]" * 100000 + "}")
        code, out, err = run(capsys, ["alexander", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON document: ")
        assert err.count("\n") == 1

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1 -1\n0 1\n")
        code, out, err = run(capsys, ["alexander", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read %s: 'utf-8' codec" % path)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "errors, message",
        [("strict", "error: cannot read stdin: "), ("surrogateescape", "error: cannot parse")],
    )
    def test_non_utf8_stdin_exit_2(self, capsys, monkeypatch, errors, message):
        # The interpreter decodes stdin with surrogateescape in the C and
        # C.UTF-8 locales, and strictly in others such as en_US.UTF-8.
        raw = io.BytesIO(b"\xff\xfe1 -1\n0 1\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, "utf-8", errors))
        code, out, err = run(capsys, ["alexander", "-"])
        assert (code, out) == (2, "")
        assert err.startswith(message) and err.count("\n") == 1

    def test_bad_delta_text_exit_2(self, capsys):
        code, out, err = run(capsys, ["covers", "--delta", "1,x,1"])
        assert code == 2

    def test_closed_reader_exits_quietly(self):
        # torus 301 --json prints about 0.8 MB, far past a pipe's buffer, so
        # a write fails once the reader has taken one line and closed the pipe.
        src = os.path.dirname(os.path.dirname(knotconc.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        with subprocess.Popen(
            [sys.executable, "-m", "knotconc.cli", "torus", "301", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["torus", "3"], ["--json", "torus", "301"]])
    def test_failed_write_exit_2(self, argv):
        # Every write to /dev/full fails with ENOSPC: at the final flush for
        # the short output, inside print for the 0.8 MB one.
        src = os.path.dirname(os.path.dirname(knotconc.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "knotconc.cli", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=path),
                timeout=60,
            )
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error: cannot write output: ")
        assert proc.stderr.count(b"\n") == 1  # no traceback, no exit-time flush error


def test_parser_is_built_once(capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert main(["torus", "3"]) == 0
    built = len(progs)
    assert main(["--json", "torus", "5"]) == 0
    assert len(progs) == built and progs.count("knotconc") == 1
    capsys.readouterr()


class TestLongIntegers:
    """Delta of [[a, 1], [0, a]] is a^2 - (2a^2 - 1) t + a^2 t^2; with
    a = 10^2200 its coefficients have 4401 digits, past Python's default
    int-to-str limit of 4300."""

    DOC = '{"name": "big", "matrix": [[1%s, 1], [0, 1%s]]}' % ("0" * 2200, "0" * 2200)
    A2 = "1" + "0" * 4400  # a^2
    DELTA_MINUS_1 = "3" + "9" * 4400  # 4a^2 - 1

    def run_limited(self, capsys, monkeypatch, argv):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, argv, stdin=self.DOC, monkeypatch=monkeypatch)
        assert sys.get_int_max_str_digits() == limit
        return code, out, err

    def run_json(self, capsys, monkeypatch, argv):
        code, out, err = self.run_limited(capsys, monkeypatch, argv)
        assert code == 0, err
        return json.loads(out, parse_int=str)

    def test_alexander(self, capsys, monkeypatch):
        doc = self.run_json(capsys, monkeypatch, ["--json", "alexander", "-"])
        assert doc["alexander"]["coefficients"] == [self.A2, "-1" + "9" * 4400, self.A2]
        assert doc["delta_at_minus_1"] == self.DELTA_MINUS_1

    def test_classify(self, capsys, monkeypatch):
        doc = self.run_json(capsys, monkeypatch, ["--json", "classify", "-"])
        assert doc["witness_cover"] == {"r": "2", "order": self.DELTA_MINUS_1}

    def test_covers_at_the_default_max_r(self, capsys, monkeypatch):
        # About 66 * 4401 digits at r <= 12: inside MAX_COVERS_DIGITS.
        doc = self.run_json(capsys, monkeypatch, ["--json", "covers", "-"])
        assert [row["r"] for row in doc["covers"]] == [str(r) for r in range(2, 13)]
        assert doc["covers"][0]["order"] == self.DELTA_MINUS_1

    @pytest.mark.parametrize(
        "command, line, size",
        [
            ("alexander", "Delta(-1) = %s  (determinant %s)" % (DELTA_MINUS_1, DELTA_MINUS_1),
             35324),
            ("classify", "witness cover: r = 2 with |H1| = %s" % DELTA_MINUS_1, 31026),
            ("covers", "2  %s  (prime power)" % DELTA_MINUS_1, 303831),
        ],
        ids=["alexander", "classify", "covers"],
    )
    def test_human(self, capsys, monkeypatch, command, line, size):
        code, out, err = self.run_limited(capsys, monkeypatch, [command, "-"])
        assert code == 0, err
        assert line in out.splitlines()
        assert len(out) == size

    @pytest.mark.parametrize("command", ["covers", "classify"])
    def test_delta_at_1_past_the_limit_exit_2(self, capsys, monkeypatch, command):
        # Delta(1) = 2 (10^4300 - 1) has 4301 digits; the message shortens it.
        nines = "9" * 4300
        code, out, err = self.run_limited(
            capsys, monkeypatch, [command, "--delta=%s,%s" % (nines, nines)]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: Delta(1) must be +-1, got 199999999999... (4301 digits) ")
        assert err.count("\n") == 1


def _is_odd_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return p % 2 == 1 and q == 1


class TestRandomMatrices:
    """classify and witness on random matrices: a documented exit status,
    never an exception out of main, and a witness q that names T(2,q)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=seifert_rows())
    def test_classify_and_witness_exit_cleanly(self, rows):
        code, _ = json_run(["classify"], rows)
        assert code in (0, 2, 3)
        code, doc = json_run(["witness", "--count", "2"], rows)
        assert code in (0, 2, 3)
        if code == 0:
            q = doc["q"]
            assert q >= 3 and _is_odd_prime_power(q)
            assert doc["profile_extremes"]["s_max"] == q - 1
