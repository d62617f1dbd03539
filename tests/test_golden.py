"""Golden CLI corpus, `--json` and human mode: the CLI's stdout must not
change byte for byte.

`golden_cli.json` lists CLI pipelines.  Each case holds the argument vector
of every stage (a stage after the first reads the previous stage's stdout),
the stdin of the first stage, the exit status of the last stage and the
sha256 of its stdout.  The "t_power_cases" are classify or witness draws
whose Alexander polynomial has a t^k factor, kept apart because the
classifier's verdict on them changed when Delta started being judged up to
units +-t^k; their stdout is fixed like every other case's.

Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py --write

only when an output is meant to change, and say which and why in CHANGES.md.
It prints the id of every case whose exit status or sha256 changed, or that
is new, and their count.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import block_sum, random_seifert, singular
from knotconc.cli import main

CORPUS = Path(__file__).with_name("golden_cli.json")


def run_pipeline(stages, stdin):
    """Run each stage in-process; return (exit status, stdout) of the last."""
    code, text = None, stdin
    for argv in stages:
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
        finally:
            sys.stdin = saved
        text = out.getvalue()
    return code, text


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["id"])
def test_stdout_unchanged(case):
    code, out = run_pipeline(case["stages"], case["stdin"])
    assert code == case["exit"]
    assert digest(out) == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN["t_power_cases"], ids=lambda c: c["id"])
def test_t_power_exit_status(case):
    code, out = run_pipeline(case["stages"], case["stdin"])
    assert code == case["exit"]
    assert digest(out) == case["sha256"]


# -- regeneration -------------------------------------------------------------


def _invocations():
    """(id, stages, stdin, rows or None) for every case of the corpus."""
    out = []
    rng = random.Random(8101)
    for g in range(1, 9):
        for i in range(3):
            rows = random_seifert(rng, g).rows
            key = "covers-g%d-%d" % (g, i)
            doc = json.dumps({"name": key, "matrix": rows})
            out.append((key, [["--json", "covers", "--max-r", "64"]], doc, rows))
    rng = random.Random(8102)
    for g in range(1, 9):
        for i in range(6):
            rows = random_seifert(rng, g).rows
            key = "classify-g%d-%d" % (g, i)
            doc = json.dumps({"name": key, "matrix": rows})
            out.append((key, [["--json", "classify"]], doc, rows))
    for q in range(3, 12, 2):
        stages = [["torus", str(q)], ["--json", "witness", "-"]]
        out.append(("torus-witness-%d" % q, stages, "", None))
    rng = random.Random(8101)  # the covers draws again
    for g in range(1, 9):
        for i in range(3):
            rows = random_seifert(rng, g).rows
            key = "alexander-g%d-%d" % (g, i)
            doc = json.dumps({"name": key, "matrix": rows})
            out.append((key, [["--json", "alexander"]], doc, rows))
    rng = random.Random(8103)
    for g in range(1, 7):
        # Torus summands put jumps at and next to the q-th roots.
        for tq, tg in ((None, 0), (3, 1), (5, 2)):
            if tg >= g:
                continue
            rows = random_seifert(rng, g - tg, bound=3).rows
            if tq is not None:
                rows = block_sum(rows, _torus_rows(tq))
            label = "plain" if tq is None else "t%d" % tq
            for q in (6, 8, 12):
                key = "signature-q%d-g%d-%s" % (q, g, label)
                doc = json.dumps({"name": key, "matrix": rows})
                out.append((key, [["--json", "signature", "--q", str(q)]], doc, rows))
    for q in range(3, 16, 2):
        out.append(("torus-verify-%d" % q, [["--json", "torus", str(q), "--verify"]], "", None))
    for q in range(3, 24, 2):
        stages = [["torus", str(q)], ["--json", "witness", "--n0", "10", "--count", "2"]]
        out.append(("torus-witness-n0-10-%d" % q, stages, "", None))
    trefoil = "1 -1\n0 1\n"
    for q in (5, 9, 25, 27, 49):  # 9 = 3^2, 25 = 5^2, 27 = 3^3, 49 = 7^2
        stages = [["--json", "witness", "--q", str(q)]]
        out.append(("trefoil-witness-q%d" % q, stages, trefoil, None))
    rng = random.Random(8105)
    for g in range(9, 13):
        for i in range(2):
            rows = random_seifert(rng, g, bound=9).rows
            for command in ("alexander", "classify"):
                key = "%s-wide-g%d-%d" % (command, g, i)
                doc = json.dumps({"name": key, "matrix": rows})
                out.append((key, [["--json", command]], doc, rows))
    rows = singular(random_seifert(random.Random(8106), 10, bound=9).rows)
    for command in ("alexander", "classify"):
        key = "%s-singular-g10" % command
        doc = json.dumps({"name": key, "matrix": rows})
        out.append((key, [["--json", command]], doc, rows))
    # Human mode, one case per command.
    rows = block_sum(random_seifert(random.Random(8104), 2).rows, _torus_rows(3))
    doc = json.dumps({"name": "human", "matrix": rows})
    for command in (["alexander"], ["covers", "--max-r", "24"], ["classify"],
                    ["signature", "--q", "12"]):
        out.append(("human-" + command[0], [command], doc, rows))
    out.append(("human-torus-verify", [["torus", "7", "--verify"]], "", None))
    stages = [["torus", "5"], ["witness", "--n0", "3"]]
    out.append(("human-witness", stages, "", None))
    # Human lines the cases above never print: an infinite cover, no
    # cyclotomic factors, no witness line (Delta = 1, and Phi_30, whose
    # prime power covers are all trivial), the brute-force witness line,
    # jumps with sigma at omega = -1, and a bare matrix.
    for key, stages, stdin in (
        ("human-covers-infinite", [["covers", "--delta=1,-1,1", "--max-r", "12"]], ""),
        ("human-classify-phi30", [["classify", "--delta=1,1,0,-1,-1,-1,0,1,1"]], ""),
        ("human-classify-unknot", [["classify", "--delta=1"]], ""),
        ("human-witness-brute-force", [["torus", "3"], ["witness", "--count", "3"]], ""),
        ("human-signature-trefoil", [["signature", "--q", "6"]], trefoil),
        ("human-torus", [["torus", "9"]], ""),
    ):
        out.append((key, stages, stdin, None))
    # Multi-member schedules: the trefoil ones at --count >= 2 are
    # brute-forced, the figure-eight (q = 5) and genus-2 ones are not.
    for key, flags in (("count-1", ["--count", "1"]), ("count-6", ["--count", "6"]),
                       ("n0-7-count-5", ["--n0", "7", "--count", "5"])):
        stages = [["--json", "witness"] + flags]
        out.append(("trefoil-witness-" + key, stages, trefoil, None))
    stages = [["--json", "witness", "--count", "4"]]
    out.append(("figure-eight-witness-count-4", stages, "1 1\n0 -1\n", None))
    rows = random_seifert(random.Random(8107), 2).rows
    doc = json.dumps({"name": "witness-g2", "matrix": rows})
    out.append(("witness-g2-count-4", stages, doc, rows))
    # Covers tables past the random-draw cases: the wide genus 9-12 draws,
    # a singular draw with Delta = t^2, torus summands whose factors phi_6
    # and phi_10 make every sixth and tenth cover infinite, and a Delta given
    # as -t^2 phi_6.
    stages = [["--json", "covers", "--max-r", "96"]]
    rng = random.Random(8105)  # the wide draws again
    for g in range(9, 13):
        for i in range(2):
            rows = random_seifert(rng, g, bound=9).rows
            key = "covers-wide-g%d-%d" % (g, i)
            doc = json.dumps({"name": key, "matrix": rows})
            out.append((key, stages, doc, rows))
    rows = random_seifert(random.Random(8146), 2).rows
    doc = json.dumps({"name": "covers-t-power-g2", "matrix": rows})
    out.append(("covers-t-power-g2", stages, doc, rows))
    rows = block_sum(block_sum(random_seifert(random.Random(8108), 2).rows, _torus_rows(3)),
                     _torus_rows(5))
    doc = json.dumps({"name": "covers-cyclotomic", "matrix": rows})
    out.append(("covers-cyclotomic", stages, doc, rows))
    stages = [["--json", "covers", "--max-r", "96", "--delta", "0,0,-1,1,-1"]]
    out.append(("covers-delta-t-power-phi6", stages, "", None))
    return out


def _torus_rows(q):
    """The T(2,q) Seifert matrix: +1 on the diagonal, -1 above it."""
    n = q - 1
    return [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]


def write_corpus():
    from knotconc.seifert import SeifertMatrix, alexander

    cases, t_power = [], []
    for key, stages, stdin, rows in _invocations():
        code, out = run_pipeline(stages, stdin)
        case = {"id": key, "stages": stages, "stdin": stdin, "exit": code, "sha256": digest(out)}
        classifies = any(c in stage for stage in stages for c in ("classify", "witness"))
        if classifies and rows is not None and alexander(SeifertMatrix(rows)).coeffs[0] == 0:
            t_power.append(case)
        else:
            cases.append(case)
    lines = ["{"]
    for name, group in (("cases", cases), ("t_power_cases", t_power)):
        lines.append(' "%s": [' % name)
        lines.append(",\n".join("  " + json.dumps(c) for c in group))
        lines.append(" ]" + ("," if name == "cases" else ""))
    lines.append("}")
    CORPUS.write_text("\n".join(lines) + "\n")
    old = {c["id"]: (c["exit"], c["sha256"]) for c in GOLDEN["cases"] + GOLDEN["t_power_cases"]}
    changed = [c["id"] for c in cases + t_power if old.get(c["id"]) != (c["exit"], c["sha256"])]
    for key in changed:
        print("changed: %s" % key)
    print("%d case(s) changed" % len(changed))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_corpus()
