"""Benchmark of the knotconc CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root.  One process, one client, closed loop:
``knotconc.cli.main`` is called in-process with generated matrix documents
on stdin, and the next job starts when the previous one has returned.  A
pipeline job feeds the stdout of its first stage to the second.

The seed fixes one round of jobs (see ``workloads.py``).  A run does warm-up
jobs, then ``--seconds`` times the workload's rounds-per-second whole
rounds, so a run lasts about ``--seconds`` at the baseline commit and every
commit does the same work.  Outputs are checked afterwards, outside the
timed region, by oracles that import nothing from ``knotconc``.

Times are scaled to a reference machine speed (``speed.py``), because a
shared virtual machine's speed can drift by a quarter from minute to
minute.  With ``--trace 0`` the raw figures are printed above the result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each job
untraced and then with spans around the program's public functions
(``tracer.py``), and prints the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Jobs that raise, exit non-zero or are rejected
count as failed; ``correct`` is false when any failure is not one the
workload attributes to a known defect of the program (``workloads.py``).
``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15
TAIL_BEYOND = 10


@dataclass
class Outcome:
    codes: tuple  # exit status per stage run; None after a traceback
    stage_stdout: tuple
    stage_stderr: tuple
    traceback: str | None
    start: float  # clock reading when the job started
    seconds: float

    @property
    def stdout(self):
        return self.stage_stdout[-1]


def _run_stage(cli, argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        return None, out.getvalue(), err.getvalue(), traceback.format_exc()
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), None


def run_job(cli, job, clock=time.perf_counter):
    """Run every stage of job through cli.main; stop at the first failure."""
    codes, outs, errs = [], [], []
    stdin = job.stdin
    tb = None
    start = clock()
    for argv in job.stages:
        code, out, err, tb = _run_stage(cli, argv, stdin)
        codes.append(code)
        outs.append(out)
        errs.append(err)
        if tb is not None or code != 0:
            break
        stdin = out
    seconds = clock() - start
    return Outcome(tuple(codes), tuple(outs), tuple(errs), tb, start, seconds)


def verify(workload, job, outcome):
    """The oracle's verdict on one job's outcome."""
    if outcome.traceback is not None:
        return workloads.Verdict(False, "traceback: " + outcome.traceback.strip().splitlines()[-1])
    if any(code != 0 for code in outcome.codes):
        reason = "exit %s" % "/".join(map(str, outcome.codes))
        known = workload.explain_failure and workload.explain_failure(job, outcome)
        if known:
            return workloads.Verdict(False, "%s (known defect: %s)" % (reason, known), known=True)
        return workloads.Verdict(False, reason)
    try:
        return workload.check(job, outcome)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return workloads.Verdict(False, "malformed output: %r" % exc)


def verify_all(workload, pairs):
    """Verdicts for (job, outcome) pairs; each distinct output is checked once."""
    seen = {}
    verdicts = []
    for job, outcome in pairs:
        key = (job.key, outcome.codes, outcome.stage_stdout, outcome.stage_stderr,
               outcome.traceback is None)
        if key not in seen:
            seen[key] = verify(workload, job, outcome)
        verdicts.append(seen[key])
    return verdicts


def tally(verdicts):
    """Counts over verdicts; correct means every failure is a known defect."""
    attempted = len(verdicts)
    verified = sum(1 for v in verdicts if v.ok)
    unexplained = sum(1 for v in verdicts if not (v.ok or v.known))
    return {"attempted": attempted, "verified": verified, "failed": attempted - verified,
            "failed_share": (attempted - verified) / attempted, "correct": unexplained == 0}


def measure_setup():
    """Median seconds for a fresh interpreter to import knotconc.cli, raw and
    scaled to the reference speed by kernel timings taken just before and
    just after each sample (see speed.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, knotconc.cli; "
            "sys.exit(0 if knotconc.cli.__file__.startswith(sys.argv[1]) else 3)")
    cmd = [sys.executable, "-c", code, str(SRC)]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills bytecode caches
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = speed.kernel_seconds()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - start)
        after = speed.kernel_seconds()
        scaled.append(raw[-1] * 2 * speed.NOMINAL_S / (before + after))
    return statistics.median(raw), statistics.median(scaled)


def run_rounds(cli, jobs, rounds, probe):
    """Run whole rounds while the probe samples the machine speed."""
    with probe:
        return [(job, run_job(cli, job, probe.clock)) for _ in range(rounds) for job in jobs]


def run_traced(cli, jobs, rounds, spans, probe):
    """Run each job untraced, then traced; returns (untraced, traced) pairs.

    Running the two back to back lets slow spells of a shared machine hit
    both alike, so their time ratio is the tracing overhead.
    """
    plain, traced = [], []
    with probe:
        for r in range(rounds):
            for i, job in enumerate(jobs):
                plain.append((job, run_job(cli, job, probe.clock)))
                spans.install()
                try:
                    traced.append((job, spans.job_span(
                        r * len(jobs) + i, lambda: run_job(cli, job, probe.clock))))
                finally:
                    spans.uninstall()
    return plain, traced


def scaled_seconds(probe, pairs):
    """Job seconds scaled to the reference speed (see speed.py)."""
    return [out.seconds * probe.scale(out.start, out.start + out.seconds) for _, out in pairs]


def tail(latencies):
    """(value, percentile): highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_failures(verdicts):
    reasons = {}
    for v in verdicts:
        if not v.ok:
            reasons[v.reason] = reasons.get(v.reason, 0) + 1
    for reason, count in sorted(reasons.items()):
        print("failed x%d: %s" % (count, reason))


def _import_cli():
    sys.path.insert(0, str(SRC))
    from knotconc import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("knotconc was not imported from %s" % SRC)
    return cli


def end_to_end(pairs, job_s, counts, setup_raw_s, setup_s, peak_rss_mb):
    latencies = [x * 1e3 for x in job_s]
    tail_ms, tail_pct = tail(latencies)
    raw_ms = [out.seconds * 1e3 for _, out in pairs]
    print("raw, unscaled: jobs_per_s %.4f, job_p50_ms %.4f, job_tail_ms %.4f, setup_s %.4f" %
          (counts["verified"] * 1e3 / sum(raw_ms), statistics.median(raw_ms), tail(raw_ms)[0],
           setup_raw_s))
    print("job_tail_ms is p%.1f of %d jobs; failed_share = %.4f" %
          (tail_pct, counts["attempted"], counts["failed_share"]))
    return {
        "jobs_per_s": _metric(counts["verified"] / sum(job_s), "1/s"),
        "job_p50_ms": _metric(statistics.median(latencies), "ms"),
        "job_tail_ms": _metric(tail_ms, "ms"),
        "verified_share": _metric(counts["verified"] / counts["attempted"], "ratio"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def run_workload(name, seed, seconds, trace):
    workload = workloads.WORKLOADS[name]
    setup_raw_s, setup_s = measure_setup() if not trace else (None, None)
    cli = _import_cli()
    jobs, warm = workload.build(seed)
    rounds = max(1, round(seconds * workload.rounds_per_second))
    probe = speed.SpeedProbe()
    checked = run_rounds(cli, warm, 1, probe)
    if trace:
        spans = tracer.Tracer(probe.clock)
        base_pairs, pairs = run_traced(cli, jobs, rounds, spans, probe)
        checked += base_pairs
    else:
        pairs = run_rounds(cli, jobs, rounds, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked += pairs
    job_s = scaled_seconds(probe, pairs)

    verdicts = verify_all(workload, checked)
    timed = verdicts[len(checked) - len(pairs):]
    counts = tally(timed)
    print("workload %s, seed %d: %d round(s) of %d jobs, %.2f s of jobs (%.2f s scaled)" %
          (name, seed, rounds, len(jobs), sum(out.seconds for _, out in pairs), sum(job_s)))
    _report_failures(timed)
    unchecked = sum(v.unchecked for v in verdicts)
    if unchecked:
        print("unchecked answers (inside the oracle's margin): %d" % unchecked)
    if trace:
        metrics = tracer.layer_metrics(spans.spans, [s / out.seconds for s, (_, out) in zip(job_s, pairs)])
        metrics["trace.overhead_ratio"] = sum(job_s) / sum(scaled_seconds(probe, base_pairs))
        OUT.mkdir(exist_ok=True)
        spans.write(OUT / ("spans-%s-seed%d.jsonl" % (name, seed)))
        result = {k: _metric(v, tracer.unit(k)) for k, v in metrics.items()}
    else:
        result = end_to_end(pairs, job_s, counts, setup_raw_s, setup_s, peak_rss_mb)
    for key, m in result.items():
        print("%-48s %14.6g %s" % (key, m["value"], m["unit"]))
    print(json.dumps({"correct": tally(verdicts)["correct"],
                      "attempted": counts["attempted"], "failed": counts["failed"],
                      "metrics": result}))


def run_all(args):
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("failed with exit status %d" % proc.returncode)
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "knotconc" / "cli.py").is_file():
        print("error: %s/knotconc not found; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
