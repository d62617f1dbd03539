"""Outside-in tracer: spans around public functions of the program's modules.

The program itself is not changed.  ``Tracer.install`` replaces each target
function, in every ``knotconc`` module namespace that binds it, with a
wrapper that records a span; ``SeifertMatrix.validate`` is wrapped on the
class.  Spans are kept in memory as tuples
``(name, start, end, parent index, job id, info)`` and written out after
the run.  A layer's self time is its spans' time minus their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (layer, function) pairs; each layer is a module of the program.
TARGETS = (
    ("cli", "main"),
    ("seifert", "alexander"),
    ("seifert", "SeifertMatrix.validate"),
    ("exactpoly", "integer_determinant"),
    ("exactpoly", "resultant"),
    ("exactpoly", "cyclotomic_factor_extract"),
    ("covers", "cover_order"),
    ("covers", "classify_prime_power_covers"),
    ("signatures", "tl_signature"),
    ("signatures", "at_jump"),
    ("signatures", "signature_profile"),
    ("signatures", "jump_step_check"),
    ("obstruction", "profile_extremes"),
    ("obstruction", "verify_separation"),
)
LAYERS = ("cli", "seifert", "exactpoly", "covers", "signatures", "obstruction")
JOB = "job"

# What a span remembers besides its times.
_INFO = {
    "exactpoly.integer_determinant": lambda args, result: len(args[0]),
    "signatures.at_jump": lambda args, result: bool(result),
    "covers.classify_prime_power_covers": lambda args, result: result.witness_cover is not None,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.job = -1
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = info(args, result) if info and result is not None else None
                spans[index] = (name, start, end, parent, self.job, extra)

        return traced

    def install(self):
        """Wrap every target in every loaded knotconc namespace that binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "knotconc" or key.startswith("knotconc.")]
        for layer, func in TARGETS:
            name = "%s.%s" % (layer, func.split(".")[-1])
            owner = sys.modules["knotconc." + layer]
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, func)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def job_span(self, job_id, fn):
        """Run fn() as the root span of job job_id."""
        self.job = job_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            return fn()
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (JOB, start, end, -1, job_id, None)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, extra in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, job, extra]))
                fh.write("\n")


def unit(metric):
    for suffix, name in (("calls_per_job", "calls/job"), ("ms_per_job", "ms/job"),
                         ("ms_per_call", "ms/call"), ("dim_max", "rows"), ("dim_mean", "rows")):
        if metric.endswith(suffix):
            return name
    return "ratio"


def layer_metrics(spans, scales):
    """Per-job layer metrics from the spans of whole rounds.

    Span times of job i are multiplied by scales[i] (see speed.py).
    """
    jobs = sum(1 for s in spans if s[0] == JOB)
    child_time = defaultdict(float)
    for name, start, end, parent, job, _extra in spans:
        if parent >= 0:
            child_time[parent] += (end - start) * scales[job]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    for index, (name, start, end, _parent, job, _extra) in enumerate(spans):
        took = (end - start) * scales[job]
        calls[name] += 1
        total[name] += took
        self_time[name.split(".")[0]] += took - child_time[index]

    def per_job(x):
        return x / jobs

    def ratio(a, b):
        return a / b if b else 0.0

    def under(child, parent):
        return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)

    m = {}
    for layer, func in TARGETS:
        name = "%s.%s" % (layer, func.split(".")[-1])
        m[name + ".calls_per_job"] = per_job(calls[name])
        m[name + ".ms_per_job"] = per_job(total[name]) * 1e3
    for layer in LAYERS:
        m[layer + ".self_ms_per_job"] = per_job(self_time[layer]) * 1e3
    m["job.ms_per_job"] = per_job(total[JOB]) * 1e3
    m["job.unattributed_ms_per_job"] = per_job(self_time[JOB]) * 1e3
    m["signatures.tl_signature.ms_per_call"] = ratio(
        total["signatures.tl_signature"] * 1e3, calls["signatures.tl_signature"])
    jumps = sum(1 for s in spans if s[0] == "signatures.at_jump" and s[5])
    m["signatures.at_jump.jump_share"] = ratio(jumps, calls["signatures.at_jump"])
    dims = [s[5] for s in spans if s[0] == "exactpoly.integer_determinant"]
    m["exactpoly.integer_determinant.dim_max"] = max(dims, default=0)
    m["exactpoly.integer_determinant.dim_mean"] = ratio(sum(dims), len(dims))
    m["covers.resultants_per_cover_order"] = ratio(
        under("exactpoly.resultant", "covers.cover_order"), calls["covers.cover_order"])
    witnesses = sum(1 for s in spans if s[0] == "covers.classify_prime_power_covers" and s[5])
    m["covers.witness_attempts_per_classify"] = ratio(
        under("covers.cover_order", "covers.classify_prime_power_covers"), witnesses)
    return m
