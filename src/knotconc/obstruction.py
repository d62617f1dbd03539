"""Separation engine: achievable signature-sum ranges and witness schedules.

Each family member J_i is the n_i-fold multiple of the (2,q) torus knot.  A
character contributes a sum of L = 2*g*p^k torus-knot signatures, each term
either 0 or in [n_i*S_min, n_i*S_max], so the achievable nonzero sums fill
[n_i*S_min, L*n_i*S_max], sum_range(n_i).  A schedule is its tuple of n_i:
the greedy schedule spaces these ranges more than 2*N0 apart, which makes
the Casson-Gordon equality impossible between distinct members.
verify_separation checks this in one pass over the members: each range
must sit more than 2*N0 past its predecessor's, and the ranges grow with
n_i, so every pair is separated; at desk scale an enumeration of each
member's sums confirms its range.

The sums separate the members only through nontrivial characters
chi: H_1(Sigma_r) -> Z_q (Casson-Gordon 1978/86; Livingston, arXiv
math/0101035), and one exists only when q's prime divides |H_1(Sigma_r)|.
So family_report takes as its cover the least prime power r whose |H_1|
has an odd prime factor, or, with q = p^k given, is divisible by p.

The torus-knot signatures are Litherland's closed form sigma_{a/q}(T(2,q))
= 2 min(a, q-a) (Signatures of iterated torus knots, 1979), so S_min = 2 at
a = 1 and S_max = q-1 at a = (q-1)/2, and no signature is computed here: the
cost of a schedule does not grow with q.  The values come from that theorem,
not from a float tolerance; `torus q --verify` (signatures.verify_torus_lemma)
checks them against certified eliminations of the T(2,q) form.

The character model here is an over-approximation: each of the L lift terms
independently takes any value in Z_q, while genuine characters form a
subgroup-constrained subset.  Disjointness of the larger ranges is still a
sound obstruction.
"""

import math

from . import covers
from .errors import (
    FactorizationLimit,
    HypothesisNotSatisfied,
    NoCharacterModulus,
    SeparationFailure,
    SizeLimit,
)
from .exactpoly import Record, brief_int, factorize, prime_power_decomposition
from .seifert import alexander, require_torus_q, torus_2q_signatures


class FamilyParameters(Record):
    __slots__ = (
        "genus",
        "p",
        "k",
        "q",  # modulus for characters; odd prime power >= 3 in practice
        "n0",  # bound on |sigma_1(tau(K, chi))| over all characters
    )

    def __init__(self, genus, p, k, q, n0):
        super().__init__(genus, p, k, q, n0)
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.q < 2:
            raise ValueError("q must be >= 2")
        if self.n0 < 0:
            raise ValueError("n0 must be >= 0")

    @property
    def term_count(self):
        """Number of signature terms per character sum."""
        return 2 * self.genus * self.p**self.k


class WitnessSchedule(Record):
    # The profile extremes are profile_extremes(parameters.q).
    __slots__ = (
        "entries",  # the multiplicities n of the torus knot, strictly increasing
        "parameters",  # FamilyParameters
    )


def profile_extremes(q):
    """(S_min, S_max) of the nonzero-angle signature profile 2 min(a, q-a)
    of T(2,q) (seifert.torus_2q_signatures): 2 at a = 1, q-1 at a = (q-1)/2."""
    require_torus_q(q)
    return 2, q - 1


def sum_range(n, params):
    """Range of achievable signature sums with at least one nonzero term."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s_min, s_max = profile_extremes(params.q)
    return n * s_min, params.term_count * n * s_max


def _ceil_div(a, b):
    return -(-a // b)


# Largest schedule_digits(params, count).  The first member's n is about
# N0, and each later one multiplies n by about L*(q-1)/2, so the estimate
# log10(2*N0 + 1) + count * log10(L*(q-1)/2) is about the digit count of the
# last member's range, and the output grows as count times that.  Near the
# bound, 1405 trefoil members with q = 27 (3999 digits) take 0.53 s and print
# 8.5 MB, and 613 members of a genus-2 schedule with q = 1289 (3997 digits)
# take 0.22 s and 3.7 MB (`--json witness`, in-process, Python 3.11, Intel
# Xeon).
MAX_SCHEDULE_DIGITS = 4000


def schedule_digits(params, count):
    """log10(2*N0 + 1) + count * log10(L*(q-1)/2), about the digit count of
    the last member's range in a schedule of count members."""
    growth = math.log10(params.term_count * (params.q - 1)) - math.log10(2)
    return math.log10(2 * params.n0 + 1) + count * growth


def witness_schedule(params, count):
    """Greedy multiplicities n_i with pairwise separated sum ranges.

    A schedule past MAX_SCHEDULE_DIGITS is refused before it is built.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    digits = schedule_digits(params, count)
    if digits > MAX_SCHEDULE_DIGITS:
        raise SizeLimit(
            "%d members with L = %d and q = %s would reach about %d digits "
            "(log10(2*N0 + 1) + count * log10(L*(q-1)/2)), past %d"
            % (count, params.term_count, brief_int(params.q), digits, MAX_SCHEDULE_DIGITS)
        )
    s_min = profile_extremes(params.q)[0]
    entries = []
    threshold = 2 * params.n0 + 1
    for _ in range(count):
        n = _ceil_div(threshold, s_min)
        entries.append(n)
        threshold = 2 * params.n0 + sum_range(n, params)[1] + 1
    return WitnessSchedule(entries=tuple(entries), parameters=params)


# Brute-force enumeration is feasible only at desk scale.
_BRUTE_FORCE_MAX_TERMS = 8
_BRUTE_FORCE_MAX_Q = 7


def verify_separation(schedule):
    """Check that no Casson-Gordon equality can hold between members.

    One pass over the entries; any breach raises SeparationFailure.  Each
    n must be >= 1 and above the one before, and the lo of its
    sum_range(n) >= 2*N0 + 1 + the previous hi (2*N0 + 1 for the first).
    At desk scale each member's nonzero sums over every character-value
    assignment on the T(2,q) profile are enumerated once and must lie in
    its [lo, hi].  Returns whether they were enumerated.

    The chain separates every pair.  A member's achievable sums are 0 (the
    trivial character) or lie in [lo, hi], and hi = L*n*S_max grows with n,
    so i < j gives lo_j >= hi_{j-1} + 2*N0 + 1 >= hi_i + 2*N0 + 1 > 2*N0:
    every nonzero sum of J_j is more than 2*N0 from every sum of J_i.  So no
    two members' padded ranges meet and no two sums inside them collide,
    and no pair needs comparing.
    """
    params = schedule.parameters
    entries = schedule.entries
    brute = (
        params.term_count <= _BRUTE_FORCE_MAX_TERMS
        and params.q <= _BRUTE_FORCE_MAX_Q
        and len(entries) >= 2
    )
    values = torus_2q_signatures(params.q) if brute else None
    floor = 2 * params.n0 + 1
    prev_n = 0
    for idx, n in enumerate(entries):
        if n <= prev_n:
            raise SeparationFailure(
                "entry %d multiplicity %d is not positive and larger than the "
                "one before" % (idx, n)
            )
        lo, hi = sum_range(n, params)
        if lo < floor:
            raise SeparationFailure(
                "entry %d lower bound %d below required %d" % (idx, lo, floor)
            )
        if brute:
            sums = _achievable_sums(n, params, values)
            if min(sums) < lo or max(sums) > hi:
                raise SeparationFailure(
                    "enumeration found sums in [%d, %d] for entry %d, outside "
                    "its range" % (min(sums), max(sums), idx)
                )
        prev_n = n
        floor = 2 * params.n0 + hi + 1
    return brute


def _achievable_sums(n, params, values):
    """Sums with at least one nonzero term over all character assignments."""
    scaled = [n * v for v in values]
    # Iterated sumset over the term_count lift terms.
    sums = {0}
    for _ in range(params.term_count):
        sums = {s + v for s in sums for v in scaled}
    # Nonzero torus signatures are at least 2, so only the all-zero
    # assignment sums to 0.
    return sums - {0}


class FamilyReport(Record):
    __slots__ = (
        "witness_r",
        "witness_order",  # |H_1| of the witness_r-fold cover
        "schedule",  # WitnessSchedule
        "brute_forced",  # verify_separation enumerated the sums
    )


def family_report(V, count, n0=0, q=None):
    """The whole obstruction pipeline for a Seifert matrix.

    Classifies the prime power covers, raising HypothesisNotSatisfied when
    every one is a homology sphere (no obstruction available); takes the
    least prime power cover whose |H_1| admits a nontrivial character: one
    divisible by q's prime, or by default by an odd prime, and then q the
    largest odd prime power dividing that |H_1|; then builds a schedule of
    count members for the Casson-Gordon bound n0 and verifies it.  q names
    the companion torus knot T(2,q), so it must be an odd prime power.
    """
    delta = alexander(V)
    classification = covers.classify_prime_power_covers(delta)
    if classification.all_prime_power_covers_trivial:
        others = "and so is" if classification.all_covers_trivial else "though not"
        raise HypothesisNotSatisfied(
            "all prime power branched covers are homology spheres, %s every "
            "other cover; Delta(t) = %s gives no obstruction" % (others, delta)
        )
    p = None
    if q is not None:
        p, k = prime_power_decomposition(q)
        require_torus_q(q)

    # The orders before the classifier's witness cover are all 1, which
    # admit no character, so that cover is the answer whenever it has one.
    witness = classification.witness_cover
    if not covers.has_character(witness[1], p):
        witness = covers.find_witness_cover(delta, p)
    if witness is None:
        raise NoCharacterModulus(
            "no prime power cover up to %d has |H1| divisible by %s"
            % (covers.DEFAULT_WITNESS_BOUND, p or "an odd prime")
        )
    witness_r, witness_order = witness
    if q is None:
        p, k = _character_modulus(witness_order)
        q = p**k
    params = FamilyParameters(genus=V.genus, p=p, k=k, q=q, n0=n0)
    schedule = witness_schedule(params, count)
    return FamilyReport(
        witness_r=witness_r,
        witness_order=witness_order,
        schedule=schedule,
        brute_forced=verify_separation(schedule),
    )


def _character_modulus(order):
    """(p, k) for p^k, the largest odd prime power dividing a witness
    cover's |H_1|, which has an odd prime factor."""
    try:
        factors = factorize(order)
    except FactorizationLimit as exc:
        raise NoCharacterModulus("cannot factor |H1|: %s; pass --q explicitly" % exc)
    _, p, k = max((p**e, p, e) for p, e in factors.items() if p % 2 == 1)
    return p, k
