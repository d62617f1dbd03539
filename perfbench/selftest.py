"""Self-test of the benchmark's oracles and failure accounting.

    python3 perfbench/selftest.py

Runs each workload's warm-up jobs through the program and checks that:

* the oracle accepts the program's real output;
* the oracle rejects the same output with one planted wrong answer, and the
  run then reports ``correct: false``;
* a planted traceback inside the program counts as a failed job and makes
  the run not correct, and so does an exit status that the workload's known
  defect does not explain.

It also checks the oracles on values known in closed form.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import oracles
import run
import workloads

sys.path.insert(0, str(run.SRC))

from knotconc import cli, covers  # noqa: E402


def _expect(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def _with_json(outcome, edit):
    """outcome with its last stage's JSON changed by edit(doc)."""
    doc = json.loads(outcome.stdout)
    edit(doc)
    return replace(outcome, stage_stdout=outcome.stage_stdout[:-1] + (json.dumps(doc),))


def _plant_torus(doc):
    if "schedule" in doc:
        doc["schedule"][-1]["hi"] += 1
    else:
        doc["verify"]["jumps"][0]["ccw_step"] *= -1


def _plant_covers(doc):
    row = doc["covers"][3]
    row["order"] = 2 if row["order"] is None else row["order"] + 1


def _plant_signature(doc):
    profile = doc["profile"]
    key = next(k for k, v in profile.items() if v != "jump")
    profile[key] += 2


def _plant_classify(doc):
    if doc["witness_cover"] is not None:
        doc["witness_cover"]["order"] = (doc["witness_cover"]["order"] or 1) + 1
    else:
        doc["all_prime_power_covers_trivial"] = False


PLANTS = {
    "torus-pipeline": _plant_torus,
    "covers-table": _plant_covers,
    "signature-random": _plant_signature,
    "classify-random": _plant_classify,
}


def check_oracles():
    trefoil = oracles.torus_alexander(3)
    _expect(oracles.alexander(oracles.torus_matrix(3)) == trefoil == [1, -1, 1],
            "trefoil Alexander polynomial")
    want = {2: 3, 3: 4, 4: 3, 5: 1, 6: None, 7: 1, 8: 3, 9: 4, 10: 3, 11: 1, 12: None}
    _expect(oracles.cover_orders(trefoil, range(2, 13)) == want,
            "trefoil cover orders, infinite exactly at multiples of 6")
    _expect(oracles.cover_orders([-1, 3, -1], [2])[2] == 5, "figure-eight 2-fold cover")
    _expect(oracles.alexander([[-2, 1], [0, 0]]) == [0, 1], "singular matrix gives Delta = t")
    _expect([oracles.torus_signature(5, oracles.Fraction(a, 5)) for a in range(1, 5)]
            == [2, 4, 4, 2], "T(2,5) signature profile")


def check_workload(name, workload):
    _, warm = workload.build(1)
    pairs = [(job, run.run_job(cli, job)) for job in warm]
    verdicts = run.verify_all(workload, pairs)
    known = sum(v.known for v in verdicts)
    _expect(known + sum(v.ok for v in verdicts) == len(pairs) and run.tally(verdicts)["correct"],
            "%s: oracle accepts the real output but for %d known failure(s)" % (name, known))
    job, outcome = next((j, o) for (j, o), v in zip(pairs, verdicts) if v.ok)
    _expect_rejected(workload, job, _with_json(outcome, PLANTS[name]),
                     "%s: planted wrong answer" % name)


def _expect_rejected(workload, job, outcome, what):
    verdicts = run.verify_all(workload, [(job, outcome)])
    _expect(not verdicts[0].ok, "oracle rejects %s (%s)" % (what, verdicts[0].reason))
    tally = run.tally(verdicts)
    _expect(not tally["correct"] and tally["failed"] == 1, "%s: run is not correct" % what)


def _move_factor_into_remainder(doc):
    factor = doc["cyclotomic_factors"].pop()
    doc["non_cyclotomic_remainder"]["coefficients"] = oracles.poly_mul(
        doc["non_cyclotomic_remainder"]["coefficients"], oracles.cyclotomic(factor["n"]))


def _wrong_primes(doc):
    doc["cyclotomic_factors"][0]["distinct_primes"].append(5)


def check_classify():
    """Planted errors that keep the factors multiplying back to Delta, and the
    attribution of exit 4 to the known t^k defect."""
    workload = workloads.WORKLOADS["classify-random"]
    trefoil = workloads._classify_job("trefoil", oracles.torus_matrix(3))
    outcome = run.run_job(cli, trefoil)
    _expect(run.verify(workload, trefoil, outcome).ok, "classify: trefoil accepted")
    _expect_rejected(workload, trefoil, _with_json(outcome, _move_factor_into_remainder),
                     "classify: Phi_6 left in the remainder")
    _expect_rejected(workload, trefoil, _with_json(outcome, _wrong_primes),
                     "classify: wrong distinct_primes")
    delta_t = workloads._classify_job("delta-t", [[-2, 1], [0, 0]])
    failed = run.run_job(cli, delta_t)
    verdict = run.verify(workload, delta_t, failed)
    _expect(failed.codes == (4,) and verdict.known and run.tally([verdict])["correct"],
            "classify: Delta = t exits 4 as the known defect, run stays correct")
    _expect_rejected(workload, trefoil, replace(failed, stage_stdout=("",)),
                     "classify: exit 4 on the trefoil, which the defect does not explain")


def check_traceback():
    workload = workloads.WORKLOADS["covers-table"]
    _, warm = workload.build(1)
    original = covers.cover_order

    def broken(delta, r):
        raise RuntimeError("planted")

    covers.cover_order = broken
    try:
        pairs = [(job, run.run_job(cli, job)) for job in warm]
    finally:
        covers.cover_order = original
    tally = run.tally(run.verify_all(workload, pairs))
    _expect(pairs[0][1].traceback is not None, "planted exception surfaces as a traceback")
    _expect(tally["failed"] == len(pairs) and tally["failed_share"] == 1.0
            and not tally["correct"], "planted traceback counts in failed_share, run not correct")


def main():
    check_oracles()
    for name, workload in workloads.WORKLOADS.items():
        check_workload(name, workload)
    check_classify()
    check_traceback()
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
