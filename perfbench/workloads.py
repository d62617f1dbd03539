"""Seeded workloads: the jobs each one runs and the oracle check for each job.

A job is one CLI invocation, or a pipeline of them in which each stage
reads the previous stage's stdout.  The program sees only the argument
vectors and the matrix documents generated here.  A round is the ordered
job list a seed produces; runs repeat whole rounds, so the job mix of a
run does not depend on how fast the program is.

Checks import nothing from ``knotconc``: they parse the JSON output and
compare it with ``oracles``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles


@dataclass(frozen=True)
class Job:
    key: str  # unique within a round
    stages: tuple  # argv tuples; stage i > 0 reads the stdout of stage i - 1
    stdin: str  # stdin of the first stage
    data: tuple  # what the oracle needs, e.g. the matrix


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    unchecked: int = 0  # answers the oracle could not decide
    known: bool = False  # a failure the workload attributes to a known defect


def random_seifert(rng, genus, bound=2):
    """Random Seifert matrix whose V - V^t is the standard symplectic form.

    Entries are uniform in [-bound, bound]; singular draws are kept.
    """
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-bound, bound)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    for b in range(genus):
        i, j = 2 * b, 2 * b + 1
        rows[j][i] = rows[i][j] - 1
    return rows


def _doc(name, rows):
    return json.dumps({"name": name, "matrix": rows})


def _fail(reason):
    return Verdict(False, reason)


def _parse_rows(text):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([int(tok) for tok in line.split()])
    return rows


# -- torus-pipeline ---------------------------------------------------------

WITNESS_COUNT = 3
WITNESS_QS = range(3, 24, 2)
VERIFY_QS = range(3, 16, 2)
# Every job runs this many times per round.  Once each, the 18 jobs would put
# job_tail_ms (TAIL_BEYOND = 10 jobs beyond it) at p44; twice puts it at p72.
TORUS_COPIES = 2


def _witness_job(key, q, n0):
    stages = (
        ("torus", str(q)),
        ("--json", "witness", "-", "--count", str(WITNESS_COUNT), "--n0", str(n0)),
    )
    return Job(key, stages, "", ("witness", q, n0))


def _verify_job(key, q):
    return Job(key, (("--json", "torus", str(q), "--verify"),), "", ("verify", q))


def torus_round(seed):
    rng = random.Random(seed)
    jobs = [_witness_job("witness-%d-%d" % (q, i), q, rng.randrange(41))
            for q in WITNESS_QS for i in range(TORUS_COPIES)]
    jobs += [_verify_job("verify-%d-%d" % (q, i), q)
             for q in VERIFY_QS for i in range(TORUS_COPIES)]
    rng.shuffle(jobs)
    warm = [_witness_job("warm-witness-3", 3, rng.randrange(41)), _verify_job("warm-verify-3", 3)]
    return jobs, warm


def _expected_witness(q, n0):
    """Every numeric field of `witness --json` for T(2,q), from closed forms."""
    modulus = oracles.largest_odd_prime_power(q)
    ((p, k),) = oracles.factorize(modulus).items()
    genus = (q - 1) // 2
    terms = 2 * genus * p**k
    profile = [oracles.torus_signature(modulus, Fraction(a, modulus))
               for a in range(1, modulus)]
    s_min, s_max = min(profile), max(profile)
    schedule = []
    threshold = 2 * n0 + 1
    for _ in range(WITNESS_COUNT):
        n = -(-threshold // s_min)
        lo, hi = n * s_min, terms * n * s_max
        schedule.append({"n": n, "lo": lo, "hi": hi})
        threshold = 2 * n0 + hi + 1
    return {
        "command": "witness",
        "name": "matrix",
        "witness_cover": {"r": 2, "order": q},
        "q": modulus,
        "parameters": {"genus": genus, "p": p, "k": k, "q": modulus, "n0": n0,
                       "term_count": terms},
        "profile_extremes": {"s_min": s_min, "s_max": s_max},
        "schedule": schedule,
        "separation_counts": {
            "pairs_checked": WITNESS_COUNT * (WITNESS_COUNT - 1) // 2,
            "brute_forced": terms <= 8 and modulus <= 7 and WITNESS_COUNT >= 2,
        },
    }


def _expected_verify(q):
    """The `verify` block of `torus q --verify --json`, from the closed form."""
    def sig(numerator, denominator):
        return oracles.torus_signature(q, Fraction(numerator, denominator))

    jumps = []
    for j in range(1, 2 * q):
        # Roots of (t^q + 1)/(t + 1): omega^q = -1 and omega != -1.
        if j % 2 == 0 or j == q:
            continue
        ccw = sig(2 * j + 1, 4 * q) - sig(2 * j - 1, 4 * q)
        away = ccw if j < q else -ccw
        jumps.append({"angle": "%d/%d" % (j, 2 * q), "ccw_step": ccw,
                      "away_step": away, "simple": True})
    return {
        "min_signature": min(sig(a, q) for a in range(1, q)),
        "sigma_at_minus_one": sig(1, 2),
        "lemma_holds": True,
        "jumps": jumps,
    }


def _check_torus_matrix(rows, q):
    if len(rows) != q - 1 or oracles.seifert_form_determinant(rows) != 1:
        return "emitted matrix is not a Seifert matrix of dimension %d" % (q - 1)
    if oracles.alexander(rows) != oracles.torus_alexander(q):
        return "emitted matrix does not have the T(2,%d) Alexander polynomial" % q
    return None


def check_torus(job, out):
    kind, q = job.data[0], job.data[1]
    doc = json.loads(out.stdout)
    if kind == "verify":
        bad = _check_torus_matrix(doc["matrix"], q)
        if bad:
            return _fail(bad)
        if doc["name"] != "T(2,%d)" % q or doc["verify"] != _expected_verify(q):
            return _fail("verify block differs from the closed form")
        return Verdict(True)
    n0 = job.data[2]
    rows = _parse_rows(out.stage_stdout[0])
    bad = _check_torus_matrix(rows, q)
    if bad:
        return _fail(bad)
    want = _expected_witness(q, n0)
    got = {key: doc[key] for key in want if key in doc}
    got["separation_counts"] = {k: doc["separation"][k] for k in ("pairs_checked", "brute_forced")}
    if got != want:
        return _fail("witness report differs from the closed form")
    if doc["alexander"]["coefficients"] != oracles.torus_alexander(q):
        return _fail("wrong Alexander polynomial")
    if not (isinstance(doc["note"], str) and isinstance(doc["separation"]["note"], str)):
        return _fail("notes missing")
    return Verdict(True)


# -- covers-table -----------------------------------------------------------

COVERS_GENERA = tuple(range(1, 9))
COVERS_MAX_R = (32, 48, 64)
COVERS_DRAWS = 3


def _covers_job(key, rows, max_r):
    return Job(key, (("--json", "covers", "--max-r", str(max_r)),), _doc(key, rows),
               (tuple(map(tuple, rows)), max_r))


def covers_round(seed):
    rng = random.Random(seed)
    jobs = [
        _covers_job("g%d-r%d-%d" % (g, r, i), random_seifert(rng, g), r)
        for g in COVERS_GENERA for r in COVERS_MAX_R for i in range(COVERS_DRAWS)
    ]
    rng.shuffle(jobs)
    warm = [_covers_job("warm-g1-r64", random_seifert(rng, 1), 64)]
    return jobs, warm


def check_covers(job, out):
    rows, max_r = job.data
    doc = json.loads(out.stdout)
    delta = oracles.alexander(rows)
    if doc["command"] != "covers" or doc["name"] != job.key:
        return _fail("wrong header")
    if doc["alexander"]["coefficients"] != delta:
        return _fail("wrong Alexander polynomial")
    orders = oracles.cover_orders(delta, range(2, max_r + 1))
    want = [{"r": r, "order": orders[r], "prime_power": oracles.is_prime_power(r)}
            for r in range(2, max_r + 1)]
    for got, exp in zip(doc["covers"], want):
        if got != exp:
            return _fail("cover row %s, oracle %s" % (got, exp))
    if len(doc["covers"]) != len(want):
        return _fail("%d cover rows, expected %d" % (len(doc["covers"]), len(want)))
    return Verdict(True)


# -- signature-random -------------------------------------------------------

SIGNATURE_QS = (6, 8, 12)
SIGNATURE_GENERA = tuple(range(1, 7))
SIGNATURE_DRAWS = 3
# Summand torus knots: T(2,3) puts Alexander roots at 1/6 and 5/6, which are
# 6th and 12th roots of unity; T(2,5) puts them at odd tenths, next to
# several twelfths.
SUMMANDS = ((None, 0), (3, 1), (5, 2))


def _signature_job(key, rows, q):
    return Job(key, (("--json", "signature", "--q", str(q)),), _doc(key, rows),
               (tuple(map(tuple, rows)), q))


def _signature_matrix(rng, genus, torus_q, torus_genus):
    rows = random_seifert(rng, genus - torus_genus)
    if torus_q is not None:
        rows = oracles.block_sum(rows, oracles.torus_matrix(torus_q))
    return rows


def signature_round(seed):
    rng = random.Random(seed)
    jobs = []
    for q in SIGNATURE_QS:
        for g in SIGNATURE_GENERA:
            for tq, tg in SUMMANDS:
                for i in range(SIGNATURE_DRAWS if tg < g else 0):
                    name = "q%d-g%d-%s-%d" % (q, g, "plain" if tq is None else "t%d" % tq, i)
                    jobs.append(_signature_job(name, _signature_matrix(rng, g, tq, tg), q))
    rng.shuffle(jobs)
    warm = [_signature_job("warm-q%d" % q, _signature_matrix(rng, 2, 3, 1), q)
            for q in SIGNATURE_QS]
    return jobs, warm


def check_signature(job, out):
    rows, q = job.data
    doc = json.loads(out.stdout)
    if doc["command"] != "signature" or doc["q"] != q:
        return _fail("wrong header")
    delta = oracles.alexander(rows)
    if sorted(doc["profile"], key=int) != [str(a) for a in range(1, q)]:
        return _fail("profile angles differ")
    unchecked = 0
    for a in range(1, q):
        got = doc["profile"][str(a)]
        order = q // math.gcd(a, q)
        if oracles.vanishes_at_root_of_unity(delta, order):
            if got != "jump":
                return _fail("sigma(%d/%d) = %s at an Alexander root" % (a, q, got))
            continue
        if got == "jump":
            return _fail("jump reported at %d/%d, not an Alexander root" % (a, q))
        value, trusted = oracles.float_signature(rows, a, q)
        if not trusted:
            unchecked += 1
        elif got != value:
            return _fail("sigma(%d/%d) = %s, oracle %d" % (a, q, got, value))
    return Verdict(True, unchecked=unchecked)


# -- classify-random --------------------------------------------------------

# genus -> draws per round.  Genus 5 is drawn twice as often so the median
# job falls inside one genus, not on the step between two.
CLASSIFY_DRAWS = {g: 160 if g == 5 else 80 for g in range(1, 9)}
# A "trivial" verdict is checked on every prime power cover up to this bound.
TRIVIAL_CHECK_BOUND = 64


def _classify_job(key, rows):
    return Job(key, (("--json", "classify"),), _doc(key, rows), (tuple(map(tuple, rows)),))


def classify_round(seed):
    rng = random.Random(seed)
    jobs = [_classify_job("g%d-%d" % (g, i), random_seifert(rng, g))
            for g, draws in CLASSIFY_DRAWS.items() for i in range(draws)]
    rng.shuffle(jobs)
    warm = [_classify_job("warm-%d" % i, random_seifert(rng, 1)) for i in range(8)]
    # Delta = t: the witness search runs through every prime power up to its
    # bound, which fills the program's cyclotomic cache as later draws need.
    warm.append(_classify_job("warm-delta-t", [[-2, 1], [0, 0]]))
    return jobs, warm


def _prime_power_covers_trivial(delta):
    rs = [r for r in range(2, TRIVIAL_CHECK_BOUND + 1) if oracles.is_prime_power(r)]
    return all(v == 1 for v in oracles.cover_orders(delta, rs).values())


EXIT_INTERNAL = 4
EXHAUSTED = "no prime power cover with nontrivial homology found"


def classify_known_failure(job, out):
    """Why a failed classify job is the known t^k defect, or None.

    Delta with a t^k factor and only trivial prime power covers makes the
    witness search run out and the program exit 4; any other failure is
    unexplained.
    """
    if out.traceback is not None or out.codes != (EXIT_INTERNAL,):
        return None
    if EXHAUSTED not in out.stage_stderr[-1]:
        return None
    delta = oracles.alexander(job.data[0])
    if delta[0] == 0 and _prime_power_covers_trivial(delta):
        return "Delta has a t^k factor and every prime power cover is trivial"
    return None


def _cyclotomic_free(poly):
    """Whether poly vanishes at no root of unity (checked for every Phi_n
    that could divide it, that is every n with totient(n) <= degree)."""
    degree = len(oracles.trim(poly)) - 1
    return not any(oracles.totient(n) <= degree and oracles.vanishes_at_root_of_unity(poly, n)
                   for n in range(1, 2 * degree * degree + 1))


def check_classify(job, out):
    (rows,) = job.data
    doc = json.loads(out.stdout)
    delta = oracles.alexander(rows)
    if doc["command"] != "classify" or doc["alexander"]["coefficients"] != delta:
        return _fail("wrong header or Alexander polynomial")
    remainder = doc["non_cyclotomic_remainder"]["coefficients"]
    product = remainder
    ns = [f["n"] for f in doc["cyclotomic_factors"]]
    if ns != sorted(set(ns)):
        return _fail("cyclotomic factors are not listed once each, n ascending")
    for f in doc["cyclotomic_factors"]:
        if f["multiplicity"] < 1 or f["distinct_primes"] != sorted(oracles.factorize(f["n"])):
            return _fail("bad cyclotomic factor entry %s" % f)
        for _ in range(f["multiplicity"]):
            product = oracles.poly_mul(product, oracles.cyclotomic(f["n"]))
    if product != delta:
        return _fail("cyclotomic factors do not multiply back to Delta")
    if not _cyclotomic_free(remainder):
        return _fail("the remainder still has a cyclotomic factor")
    monomial = len([c for c in delta if c]) == 1 and abs(delta[-1]) == 1
    if doc["all_covers_trivial"] != monomial:
        return _fail("all_covers_trivial is wrong")
    witness = doc["witness_cover"]
    if witness is None:
        if not doc["all_prime_power_covers_trivial"]:
            return _fail("no witness for a nontrivial verdict")
        if not _prime_power_covers_trivial(delta):
            return _fail("a prime power cover up to %d is not a homology sphere"
                         % TRIVIAL_CHECK_BOUND)
        return Verdict(True)
    r = witness["r"]
    if doc["all_prime_power_covers_trivial"] or not oracles.is_prime_power(r):
        return _fail("inconsistent witness")
    order = oracles.cover_orders(delta, [r])[r]
    if witness["order"] != order or order == 1:
        return _fail("witness r=%d order %s, oracle %s" % (r, witness["order"], order))
    return Verdict(True)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # seed -> (round jobs, warm-up jobs)
    check: object  # (job, outcome) -> Verdict
    # Whole rounds per second of --seconds: one round lasts about
    # 1/rounds_per_second seconds at the baseline commit on the reference
    # machine, so a run lasts about --seconds there.
    rounds_per_second: float
    # (job, failed outcome) -> the known defect that explains it, or None
    explain_failure: object = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("torus-pipeline", torus_round, check_torus, 1 / 23.2),
        Workload("covers-table", covers_round, check_covers, 1 / 18.3),
        Workload("signature-random", signature_round, check_signature, 1 / 19.0),
        Workload("classify-random", classify_round, check_classify, 1 / 9.2,
                 classify_known_failure),
    )
}
