"""Branched cyclic cover homology via Fox's product formula.

The order of H_1 of the r-fold branched cover is |prod Delta(zeta_r^i)| =
|Res(t^r - 1, Delta)|, computed exactly as the product of Res(phi_d, Delta)
over the divisors d of r.  `cover_orders` splits Delta into cyclotomic
factors once per call and computes each Res(phi_d, Delta) at most once per
call, so a table of covers, or the witness search, shares that work.
Infinite homology is detected exactly, by cyclotomic divisibility, never by
floating-point zero tests.
"""

from __future__ import annotations

import math

from .errors import (
    DegenerateCase,
    IdentityViolation,
    NotAKnotPolynomial,
    WitnessSearchExhausted,
)
from .exactpoly import (
    Record,
    cyclotomic,
    cyclotomic_factor_extract,
    distinct_prime_factors,
    factorize,
    prime_power_decomposition,
    resultant,
    t_power_minus_one,
    totient,
)


class HomologyOrder(Record):
    """Order of H_1 of a branched cover: a positive integer or infinite."""

    __slots__ = ("value",)  # int, or None for infinite

    def __init__(self, value):
        if value is not None and value < 1:
            raise ValueError("finite homology order must be >= 1")
        super().__init__(value)

    @classmethod
    def finite(cls, n):
        return cls(int(n))

    @classmethod
    def infinite(cls):
        return cls(None)

    @property
    def is_finite(self):
        return self.value is not None

    def __str__(self):
        return "infinite" if self.value is None else str(self.value)


def _require_knot_polynomial(delta):
    if delta.is_zero() or delta(1) not in (1, -1):
        raise NotAKnotPolynomial(
            "Delta(1) must be +-1, got %s for %s" % (delta(1) if delta else 0, delta)
        )


def cover_orders(delta, rs):
    """|H_1| of the r-fold branched covers, for each r in rs, lazily.

    Delta is validated and split into cyclotomic factors once, here; each
    Res(phi_d, Delta) is computed at most once per call.
    """
    _require_knot_polynomial(delta)
    factors, _ = cyclotomic_factor_extract(delta)
    return (order for _r, order in _orders(delta, factors, rs))


def _orders(delta, factors, rs):
    """Yield (r, |H_1|) for each r in rs, given delta's cyclotomic factors."""
    resultants = {}  # d -> Res(phi_d, delta)
    for r in rs:
        if r < 1:
            raise ValueError("r must be >= 1")
        if any(r % n == 0 for n, _mult in factors):
            yield r, HomologyOrder.infinite()
            continue
        # t^r - 1 = prod over d | r of cyclotomic(d); resultants multiply.
        order = 1
        for d in range(1, r + 1):
            if r % d == 0:
                if d not in resultants:
                    resultants[d] = resultant(cyclotomic(d), delta)
                order *= resultants[d]
        yield r, HomologyOrder.finite(abs(order))


def cover_order(delta, r):
    """|H_1| of the r-fold branched cover of a knot with Alexander polynomial delta."""
    return next(cover_orders(delta, (r,)))


def assert_rational_homology_sphere(delta, r):
    """Cross-check oracle: prime power covers always have finite H_1."""
    prime_power_decomposition(r)  # raises NotAPrimePower
    return cover_order(delta, r).is_finite


class ClassificationReport(Record):
    __slots__ = (
        "cyclotomic_factors",  # ((n, multiplicity), ...)
        "non_cyclotomic_remainder",  # IntPolynomial
        "all_prime_power_covers_trivial",
        "all_covers_trivial",
        "witness_cover",  # (r, HomologyOrder) or None
    )


DEFAULT_WITNESS_BOUND = 512


def classify_prime_power_covers(delta):
    """Classify which branched covers of the knot are homology spheres.

    Every prime power cover is a homology sphere iff every irreducible factor
    of delta is a cyclotomic polynomial phi_n with n divisible by three
    distinct primes; all covers are homology spheres iff delta = +-t^k.
    Delta and the remainder are judged up to the units +-t^k of Z[t, 1/t],
    which leave every cover order unchanged.  When the prime-power verdict
    is false, a witness cover with |H_1| != 1 is located by ascending search
    over prime powers.
    """
    _require_knot_polynomial(delta)
    factors, remainder = cyclotomic_factor_extract(delta)
    all_pp_trivial = remainder.is_laurent_unit() and all(
        n == 1 or len(distinct_prime_factors(n)) >= 3 for n, _ in factors
    )
    all_trivial = delta.is_laurent_unit()
    witness = None
    if not all_pp_trivial:
        witness = _find_witness_cover(delta, factors)
    return ClassificationReport(
        cyclotomic_factors=tuple(factors),
        non_cyclotomic_remainder=remainder,
        all_prime_power_covers_trivial=all_pp_trivial,
        all_covers_trivial=all_trivial,
        witness_cover=witness,
    )


def _witness_candidates(factors):
    """Prime powers up to DEFAULT_WITNESS_BOUND, the promising ones first,
    generated lazily."""
    # Prime powers p^k with p dividing a surviving cyclotomic index with
    # at most two distinct primes are the theoretically promising covers;
    # try them first, then everything else ascending.
    priority = set()
    for n, _mult in factors:
        primes = distinct_prime_factors(n)
        if n > 1 and len(primes) <= 2:
            for p in primes:
                pk = p
                while pk <= DEFAULT_WITNESS_BOUND:
                    priority.add(pk)
                    pk *= p
    yield from sorted(priority)
    for r in range(2, DEFAULT_WITNESS_BOUND + 1):
        if r not in priority and len(factorize(r)) == 1:
            yield r


def _find_witness_cover(delta, factors):
    for r, order in _orders(delta, factors, _witness_candidates(factors)):
        if not order.is_finite or order.value != 1:
            return (r, order)
    raise WitnessSearchExhausted(
        "no prime power cover with nontrivial homology found up to %d"
        % DEFAULT_WITNESS_BOUND
    )


def cyclotomic_product_identity(n, p, k):
    """Exact check of the closed form for prod phi_n(zeta_{p^k}^i).

    Returns (value, predicted_magnitude, m, b) where value is the signed
    resultant Res(t^{p^k} - 1, phi_n) and m = n / gcd(n, p^k).  Raising to
    the p^k-th power maps each primitive n-th root of unity onto a primitive
    m-th root, hitting each one b = totient(n)/totient(m) times, so
    |value| = |phi_m(1)|^b; the operation asserts this.  Equivalently, with
    v the multiplicity of p in n: b = p^v - p^(v-1) for k >= v >= 1, b = 1
    when p does not divide n, and b = p^k for k < v.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    pp, kk = prime_power_decomposition(p**k)
    if pp != p or kk != k:
        raise ValueError("p must be prime")
    r = p**k
    m = n // math.gcd(n, r)
    if m == 1:
        raise DegenerateCase(
            "p^k = %d is a multiple of n = %d; the closed form degenerates" % (r, n)
        )
    b = totient(n) // totient(m)
    value = resultant(t_power_minus_one(r), cyclotomic(n))
    predicted = abs(cyclotomic(m)(1)) ** b
    if abs(value) != predicted:
        raise IdentityViolation(
            "product identity failed for n=%d, p=%d, k=%d: |%d| != %d"
            % (n, p, k, value, predicted)
        )
    return value, predicted, m, b
