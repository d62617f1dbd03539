"""Command-line front end.

Commands: alexander, covers, classify, signature, torus, witness.
Input is a matrix document: either JSON with fields "name" and "matrix",
or a bare matrix (one row per line, its integers separated by commas or
whitespace; blank lines and lines starting with '#' are ignored).  Machine
mode (--json) emits a single JSON document with the same numeric content as
the human output and no timestamps, so identical invocations are
byte-identical.

Exit statuses, read off the class of the error: 0 success, also when the
reader closes stdout early (the rest of the output is dropped); 2
errors.InvalidInput (unreadable or malformed input, an invalid Seifert
matrix, a Delta that is not an Alexander polynomial, a bad q, no witness
cover with a nontrivial character, or work past a size bound: a
matrix past MAX_MATRIX_DIM rows, a --delta past degree MAX_DELTA_DEGREE,
signature --q past MAX_SIGNATURE_Q, witness --q past MAX_WITNESS_Q, covers
--max-r past MAX_COVERS_R, a covers table past MAX_COVERS_DIGITS, witness
--count past MAX_WITNESS_COUNT, a witness schedule past
obstruction.MAX_SCHEDULE_DIGITS) or output that cannot be written; 3
HypothesisNotSatisfied, the obstruction hypothesis not satisfied; 4 any
other KnotConcError, an internal assertion failure.

Each command reads and checks its input and computes, and returns its two
renderings, the JSON document and the human lines, as functions of no
arguments.  main calls the one --json selects and prints it.  Exact results
can pass Python's 4300-digit int-to-str limit, so main lifts the limit while
it renders; input is parsed under it.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from . import covers, exactpoly, obstruction, signatures
from .errors import HypothesisNotSatisfied, InvalidInput, KnotConcError, SizeLimit
from .exactpoly import IntPolynomial, distinct_prime_factors, factorize
from .seifert import SeifertMatrix, alexander, torus_2q
from .signatures import JUMP

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4

# Largest witness --count.  The n_i grow geometrically, each member adding
# about log10(L*(q-1)/2) digits, so the output grows faster than the count:
# 2000 members take 0.23 s and print 4.8 MB on the trefoil (`--json witness`,
# in-process, Python 3.11, Intel Xeon).  obstruction.MAX_SCHEDULE_DIGITS
# bounds the output once q and L are known.
MAX_WITNESS_COUNT = 2000

# Largest covers --max-r.  Cover orders grow linearly in r, to about 2.3k
# digits at r = 256 on a genus-8 draw with entries in [-2, 2], and a table
# costs about r^2.7: `--json covers --max-r 256` takes 0.23 s and prints
# 0.3 MB on random_seifert(Random(32), 8) (1.7 s at r = 512), and 3.2-3.4 s
# and 1.0 MB on random_seifert(Random(32), 12, bound=9) (tests/conftest.py;
# in-process, Python 3.11, Intel Xeon).
MAX_COVERS_R = 256

# Largest covers table, in estimated digits of |H1|.  |Delta(zeta)| <=
# |Delta|_1, the sum of |coefficients|, at each nontrivial r-th root of
# unity, so |H1(Sigma_r)| <= |Delta|_1^(r-1) and a table up to R has at
# most about (R-1)R/2 log10 |Delta|_1 digits.  MAX_COVERS_R leaves the size
# of Delta open: on [[10^2200, 1], [0, 10^2200]] `--json covers` takes 3.5 s
# at --max-r 24 (estimate 1.21M) and 6.9 s at 30 (1.91M), while 40
# dimension-32 draws with entries up to 9 estimate at most 1.72M at --max-r
# 256 (in-process, Python 3.11, Intel Xeon).
MAX_COVERS_DIGITS = 2 * 10**6

# Largest signature --q.  A profile locates its q/2 angles by bisection, a
# few per root of Delta on the circle (160 for T(2,31) at q = 20000), and
# eliminates once per arc, so printing its 0.3 MB now takes most of the
# time: `--json signature --q 20000` takes 0.05-0.06 s on the trefoil and
# on a genus-6 draw, 0.07-0.10 s on a genus-12 draw and 0.09-0.12 s on
# T(2,31) (in-process, Python 3.11, Intel Xeon).
MAX_SIGNATURE_Q = 20000

# Largest matrix dimension, checked as the document is parsed.  covers sets
# it: at dimension 32, random_seifert(Random(32), 16, bound=9) takes 10.3 s
# for `--json covers --max-r 256` (1.4 MB), and the genus-20 draw takes 21 s
# at 40 (with the digit bound lifted); `--json signature --q 20000` takes
# 0.10-0.13 s on it (0.20-0.22 s at 40).  alexander, g Bareiss determinants
# of dimension 2g, takes 0.04-0.05 s on it at dimension 32 (0.14 s at 40,
# 1.6 s at 64, 4.3 s at 80; in-process, Python 3.11, Intel Xeon).
MAX_MATRIX_DIM = 32

# Largest --delta degree, t^k included, checked as it is parsed.  classify
# divides by a Phi_n with phi(n) <= 400 only when Phi_n(3) divides Delta(3):
# `--json classify` takes 0.14-0.19 s on a dense symmetric Delta of degree
# 400 and 0.13-0.14 s on t^400 - t^200 + 1, and `--json covers --max-r 256`,
# which now sets the cost, 1.25-1.35 s (fresh interpreter, Python 3.11, Xeon).
MAX_DELTA_DEGREE = 400

# Largest witness --q: trial division settles whether q is a prime power
# when q is at most the square of its bound.
MAX_WITNESS_Q = exactpoly.TRIAL_DIVISION_BOUND**2


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput("cannot read %s: %s" % ("stdin" if path == "-" else path, exc))


def _integers(text):
    """The integers of a bare matrix row or a --delta, in fields separated
    by commas or whitespace.  Like JSON, it refuses an empty field and an
    integer that Python alone reads: with '_' or a non-ASCII digit."""
    if not text.isascii() or "_" in text:
        raise ValueError("non-ASCII character or '_' in %r" % text)
    fields = [field.split() for field in text.split(",")]
    if not all(fields):
        raise ValueError("empty field in %r" % text)
    return [int(token) for field in fields for token in field]


def parse_matrix_document(text):
    """Parse a JSON or bare-text matrix document into (name, SeifertMatrix)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, a long integer, deep nesting
            raise InvalidInput("invalid JSON document: %s" % exc)
        if not isinstance(doc, dict) or "matrix" not in doc:
            raise InvalidInput('JSON document must have a "matrix" field')
        name = doc.get("name", "matrix")
        if not isinstance(name, str):
            raise InvalidInput('"name" must be a string')
        try:
            name.encode("utf-8")  # "\ud800" decodes, but cannot be printed
        except UnicodeEncodeError:
            raise InvalidInput('"name" must not hold a lone surrogate') from None
        rows = doc["matrix"]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise InvalidInput('"matrix" must be an array of arrays')
    else:
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append(_integers(line))
            except ValueError:
                raise InvalidInput("cannot parse matrix row: %r" % line)
        name = "matrix"
    try:
        matrix = SeifertMatrix(rows)
    except (TypeError, ValueError) as exc:
        raise InvalidInput("bad matrix entries: %s" % exc)
    if matrix.dim > MAX_MATRIX_DIM:
        raise SizeLimit(
            "the matrix has %d rows, past %d, the largest dimension accepted"
            % (matrix.dim, MAX_MATRIX_DIM)
        )
    return name, matrix


def _load_matrix(args):
    return parse_matrix_document(_read_text(args.input))


@contextlib.contextmanager
def _exact_output():
    """Lift Python's int-to-str digit limit, restoring it on exit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _poly_doc(p):
    return {"coefficients": list(p.coeffs), "degree": p.degree(), "text": str(p)}


# -- commands -------------------------------------------------------------


def cmd_alexander(args):
    name, V = _load_matrix(args)
    delta = alexander(V)
    d1, dm1 = delta(1), delta(-1)

    def doc():
        return {
            "command": "alexander",
            "name": name,
            "dimension": V.dim,
            "alexander": _poly_doc(delta),
            "delta_at_1": d1,
            "delta_at_minus_1": dm1,
            "determinant": abs(dm1),
        }

    def lines():
        yield "name: %s" % name
        yield "Delta(t) = %s" % delta
        yield "coefficients (ascending): %s" % " ".join(str(c) for c in delta.coeffs)
        yield "degree: %d" % delta.degree()
        yield "Delta(1) = %d" % d1
        yield "Delta(-1) = %d  (determinant %d)" % (dm1, abs(dm1))

    return doc, lines


def _delta_from_args(args):
    """(name, Delta) from --delta or the matrix document; Delta(1) is
    checked by the covers functions that receive it."""
    if args.delta is not None:
        try:
            delta = IntPolynomial(_integers(args.delta))
        except ValueError as exc:
            raise InvalidInput("bad --delta: %s" % exc)
        if delta.degree() > MAX_DELTA_DEGREE:
            raise SizeLimit(
                "--delta has degree %d, past %d, the largest accepted"
                % (delta.degree(), MAX_DELTA_DEGREE)
            )
        return "delta", delta
    name, V = _load_matrix(args)
    return name, alexander(V)


def cmd_covers(args):
    if not 2 <= args.max_r <= MAX_COVERS_R:
        raise InvalidInput("--max-r must be in 2..%d" % MAX_COVERS_R)
    name, delta = _delta_from_args(args)
    # log10 |Delta|_1 from its bit length, cheap on 4400-digit coefficients
    norm_digits = sum(map(abs, delta.coeffs)).bit_length() * math.log10(2)
    digits = (args.max_r - 1) * args.max_r // 2 * norm_digits
    if digits > MAX_COVERS_DIGITS:
        raise SizeLimit(
            "covers --max-r %d would reach about %d digits of |H1| "
            "((R-1)R/2 * log10 |Delta|_1), past %d" % (args.max_r, digits, MAX_COVERS_DIGITS)
        )
    rs = range(2, args.max_r + 1)
    rows = [
        (r, order, len(factorize(r)) == 1)
        for r, order in zip(rs, covers.cover_orders(delta, rs))
    ]

    def doc():
        return {
            "command": "covers",
            "name": name,
            "alexander": _poly_doc(delta),
            "covers": [
                {"r": r, "order": order, "prime_power": is_pp}
                for r, order, is_pp in rows
            ],
        }

    def lines():
        # The r column holds the widest r and at least two spaces after "r".
        width = max(3, len(str(args.max_r)) + 1)
        yield from ["name: %s" % name, "Delta(t) = %s" % delta, "%-*s|H1|" % (width, "r")]
        for r, order, is_pp in rows:
            yield "%-*d%s%s" % (width, r, "infinite" if order is None else order,
                                "  (prime power)" if is_pp else "")

    return doc, lines


def cmd_classify(args):
    name, delta = _delta_from_args(args)
    report = covers.classify_prime_power_covers(delta)
    # Each n is at most 1750 at the largest --delta degree
    # (phi_inverse_candidates), so trial division completes.
    factor_docs = [
        {"n": n, "multiplicity": mult, "distinct_primes": distinct_prime_factors(n)}
        for n, mult in report.cyclotomic_factors
    ]
    witness = None
    if report.witness_cover is not None:
        r, order = report.witness_cover
        witness = {"r": r, "order": order}

    def doc():
        return {
            "command": "classify",
            "name": name,
            "alexander": _poly_doc(delta),
            "cyclotomic_factors": factor_docs,
            "non_cyclotomic_remainder": _poly_doc(report.non_cyclotomic_remainder),
            "all_prime_power_covers_trivial": report.all_prime_power_covers_trivial,
            "all_covers_trivial": report.all_covers_trivial,
            "witness_cover": witness,
        }

    def lines():
        yield "name: %s" % name
        yield "Delta(t) = %s" % delta
        for f in factor_docs:
            yield "factor phi_%d^%d  (n = %d has distinct primes %s)" % (
                f["n"], f["multiplicity"], f["n"], f["distinct_primes"])
        if not factor_docs:
            yield "no cyclotomic factors"
        yield "non-cyclotomic remainder: %s" % report.non_cyclotomic_remainder
        yield ("all prime power covers are homology spheres: %s"
               % report.all_prime_power_covers_trivial)
        yield "all covers are homology spheres: %s" % report.all_covers_trivial
        if witness is not None:
            yield "witness cover: r = %(r)d with |H1| = %(order)d" % witness

    return doc, lines


def cmd_signature(args):
    if not 2 <= args.q <= MAX_SIGNATURE_Q:
        raise InvalidInput("--q must be in 2..%d" % MAX_SIGNATURE_Q)
    name, V = _load_matrix(args)
    profile = signatures.signature_profile(V, args.q)
    entries = {a: ("jump" if v is JUMP else v) for a, v in sorted(profile.items())}

    def doc():
        return {
            "command": "signature",
            "name": name,
            "q": args.q,
            "profile": {str(a): v for a, v in entries.items()},
        }

    def lines():
        yield "name: %s" % name
        yield "q = %d" % args.q
        for a, v in entries.items():
            yield "sigma(%d/%d) = %s" % (a, args.q, v)
        if args.q % 2 == 0:
            yield "sigma at omega = -1: %s" % entries[args.q // 2]

    return doc, lines


def cmd_torus(args):
    V = torus_2q(args.q)
    if args.verify:
        lemma = signatures.verify_torus_lemma(args.q)
        steps = lemma.jump_steps
        min_value = min(v for v in lemma.profile.values() if v is not JUMP)
    name = "T(2,%d)" % args.q

    def doc():
        out = {"name": name, "matrix": [list(r) for r in V.rows]}
        if args.verify:
            out["verify"] = {
                "min_signature": min_value,
                "sigma_at_minus_one": steps.sigma_at_minus_one,
                "lemma_holds": True,
                "jumps": [
                    {"angle": "%d/%d" % (j.numerator, j.denominator), "ccw_step": j.ccw_step,
                     "away_step": j.away_step, "simple": j.simple}
                    for j in steps.jumps
                ],
            }
        return out

    def lines():
        yield "# %s" % name
        for row in V.rows:
            yield " ".join(str(c) for c in row)
        if args.verify:
            yield "# min signature over a != 0: %d" % min_value
            yield "# sigma at omega = -1: %d" % steps.sigma_at_minus_one
            yield "# lemma holds: true"
            for j in steps.jumps:
                yield "# jump at %d/%d: step %+d away from 1 (simple: %s)" % (
                    j.numerator, j.denominator, j.away_step, j.simple)

    return doc, lines


def cmd_witness(args):
    if args.n0 < 0:
        raise InvalidInput("--n0 must be >= 0")
    if not 0 <= args.count <= MAX_WITNESS_COUNT:
        raise InvalidInput("--count must be in 0..%d" % MAX_WITNESS_COUNT)
    if args.q is not None and args.q > MAX_WITNESS_Q:
        raise InvalidInput("--q must be at most %d" % MAX_WITNESS_Q)
    name, V = _load_matrix(args)
    report = obstruction.family_report(V, args.count, n0=args.n0, q=args.q)
    delta = alexander(V)
    params = report.schedule.parameters
    s_min, s_max = obstruction.profile_extremes(params.q)
    members = [(n,) + obstruction.sum_range(n, params) for n in report.schedule.entries]
    pairs = math.comb(len(members), 2)
    over_approximation = (
        "character sums over-approximated: each of the %d lift terms ranges "
        "over all of Z_%d" % (params.term_count, params.q)
    )

    def doc():
        return {
            "command": "witness",
            "name": name,
            "alexander": _poly_doc(delta),
            "witness_cover": {"r": report.witness_r, "order": report.witness_order},
            "q": params.q,
            "parameters": {
                "genus": params.genus,
                "p": params.p,
                "k": params.k,
                "q": params.q,
                "n0": params.n0,
                "term_count": params.term_count,
            },
            "profile_extremes": {"s_min": s_min, "s_max": s_max},
            "schedule": [{"n": n, "lo": lo, "hi": hi} for n, lo, hi in members],
            "separation": {
                "pairs_checked": pairs,
                "brute_forced": report.brute_forced,
                "note": over_approximation,
            },
            "note": "every family member shares this Seifert matrix by construction; "
            "member i is obtained by tying the n_i-fold multiple of T(2,%d) "
            "into the surface bands" % params.q,
        }

    def lines():
        yield "name: %s" % name
        yield "Delta(t) = %s" % delta
        yield "witness cover: r = %d with |H1| = %d" % (report.witness_r, report.witness_order)
        yield "character modulus q = %d  (companion torus knot T(2,%d))" % (params.q, params.q)
        yield "term count L = 2*g*p^k = %d" % params.term_count
        yield "profile extremes: S_min = %d, S_max = %d" % (s_min, s_max)
        for i, (n, lo, hi) in enumerate(members):
            yield "member %d: n = %d, achievable sums in [%d, %d]" % (i + 1, n, lo, hi)
        yield "separation verified for %d pair(s)%s" % (
            pairs, " (brute-force enumeration confirmed)" if report.brute_forced else "")
        yield "note: %s" % over_approximation

    return doc, lines


# -- entry point ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="knotconc",
        description="Concordance invariants of Seifert matrices: Alexander "
        "polynomials, branched cover homology, Tristram-Levine signatures, "
        "and non-concordant family witness schedules.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS so a subcommand-level flag does not clobber the global one.
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    def add_input(p):
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="matrix document path, or - for stdin (default)",
        )

    p = add_parser("alexander", help="Alexander polynomial of a Seifert matrix")
    add_input(p)
    p.set_defaults(func=cmd_alexander)

    p = add_parser("covers", help="branched cover homology orders")
    add_input(p)
    p.add_argument("--max-r", type=int, default=12, help="largest cover degree")
    p.add_argument("--delta", help="ascending Alexander coefficients, e.g. '1,-1,1'")
    p.set_defaults(func=cmd_covers)

    p = add_parser("classify", help="which covers are homology spheres")
    add_input(p)
    p.add_argument("--delta", help="ascending Alexander coefficients, e.g. '1,-1,1'")
    p.set_defaults(func=cmd_classify)

    p = add_parser("signature", help="Tristram-Levine signature profile")
    add_input(p)
    p.add_argument("--q", type=int, required=True, help="denominator of the angles")
    p.set_defaults(func=cmd_signature)

    p = add_parser("torus", help="Seifert matrix of the (2,q) torus knot")
    p.add_argument("q", type=int, help="odd q >= 3")
    p.add_argument("--verify", action="store_true", help="check the signature lemma")
    p.set_defaults(func=cmd_torus)

    p = add_parser("witness", help="non-concordant family witness schedule")
    add_input(p)
    p.add_argument("--n0", type=int, default=0, help="Casson-Gordon bound N0")
    p.add_argument("--count", type=int, default=3, help="number of family members")
    p.add_argument(
        "--q",
        type=int,
        help="character modulus, an odd prime power; the witness cover is then "
        "the least prime power cover whose |H1| its prime divides (default: "
        "the least one whose |H1| has an odd prime factor, and q the largest "
        "odd prime power dividing that |H1|)",
    )
    p.set_defaults(func=cmd_witness)

    return parser


def _drop_stdout():
    """Point stdout at the null device, so that the flush of what is still
    buffered at interpreter exit stays quiet."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        doc, lines = args.func(args)
        with _exact_output():
            print(json.dumps(doc(), indent=2) if args.json else "\n".join(lines()))
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return EXIT_OK
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_OK
    except OSError as exc:
        # Input reads raise InvalidInput, so an OSError here is a failed
        # write to stdout, such as a full disk.
        _drop_stdout()
        print("error: cannot write output: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InvalidInput as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    except HypothesisNotSatisfied as exc:
        print("hypothesis not satisfied: %s" % exc, file=sys.stderr)
        return EXIT_HYPOTHESIS
    except KnotConcError as exc:
        print("internal assertion failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
