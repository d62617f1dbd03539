"""Branched cyclic cover homology via Fox's product formula.

The order of H_1 of the r-fold branched cover is |prod Delta(zeta_r^i)| =
|Res(t^r - 1, Delta)|, the product over the divisors d of r of
|Res(phi_d, Delta)| = prod |Delta(zeta)|, zeta over the primitive d-th roots
of unity.

Half-degree norms.  Every Alexander polynomial is symmetric up to a unit
(Levine 1965): Delta = +-t^k Delta_0 with Delta_0(t) = t^(2g) Delta_0(1/t) of
degree 2g, so t^(-g) Delta_0(t) = D(t + 1/t) for an integer polynomial D of
degree g (exactpoly.chebyshev_form).  For d >= 3 the primitive d-th roots
pair off as zeta and 1/zeta, and zeta + 1/zeta = 2 cos(2 pi k/d) runs once
per pair over the roots alpha of Psi_d, the monic minimal polynomial of
2 cos(2 pi/d), of degree phi(d)/2 (exactpoly.real_cyclotomic).  As |zeta| = 1,

    |Res(phi_d, Delta)| = prod_zeta |Delta_0(zeta)| = prod_zeta |D(zeta + 1/zeta)|
                        = prod_alpha |D(alpha)|^2 = Res(Psi_d, D)^2,

the last step because Psi_d is monic.  Each resultant thus has half the
degrees of Res(phi_d, Delta) in both arguments.  For d = 1 and d = 2 the
factor is |Delta_0(1)| = |D(2)| and |Delta_0(-1)| = |D(-2)|, read off by
evaluation.  Both are odd, as Delta(1) = +-1 and Delta(-1) = Delta(1)
(mod 2), so no Phi_1 or Phi_2 divides Delta.  A Delta that is not
symmetric up to +-t^k is no Alexander polynomial and is refused.

Infinite homology is a zero norm, detected exactly: Res(Psi_d, D) = 0
exactly when Psi_d divides D, that is when Phi_d divides Delta_0, so an
order is infinite iff the product of its norms is 0.  A prime-power cover
never has infinite homology: Phi_(p^j)(1) = p, so Phi_(p^j) dividing Delta
would make p divide Delta(1) = +-1.  An order is an int, or None when it
is infinite.

One ascending walk over the prime powers r up to DEFAULT_WITNESS_BOUND
finds the first cover whose order passes a test: the classifier's witness
cover is the first with |H_1| != 1, and `witness` takes the first whose
|H_1| admits a nontrivial character to Z_q (obstruction.family_report);
with q given, the walk skips each r at which q's prime cannot divide |H_1|
(find_witness_cover).
`cover_orders` validates Delta once per call; D is formed once and each
Res(Psi_d, D) computed at most once per call, so a table of covers, or a
walk, shares that work.
"""

from math import isqrt

from .errors import NotAKnotPolynomial, WitnessSearchExhausted
from .exactpoly import (
    Record,
    brief_int,
    chebyshev_form,
    cyclotomic_factor_extract,
    distinct_prime_factors,
    factorize,
    real_cyclotomic,
    resultant,
)


def _knot_chebyshev_form(delta):
    """D = chebyshev_form(delta), refusing a delta with Delta(1) != +-1, or
    not symmetric up to +-t^k."""
    if delta.is_zero() or delta(1) not in (1, -1):
        raise NotAKnotPolynomial(
            "Delta(1) must be +-1, got %s for %s" % (brief_int(delta(1)) if delta else 0, delta)
        )
    try:
        return chebyshev_form(delta)
    except ValueError:
        raise NotAKnotPolynomial(
            "Delta must be symmetric up to +-t^k, got %s" % delta
        ) from None


def cover_orders(delta, rs):
    """|H_1| of the r-fold branched covers, for each r in rs, lazily: an
    int, or None when it is infinite.

    Delta is validated once, here; each Res(Psi_d, D) is computed at most
    once per call.
    """
    return (order for _r, order in _orders(_knot_chebyshev_form(delta), rs))


def _orders(D, rs):
    """Yield (r, |H_1|) for each r in rs, from the Chebyshev form D of Delta."""
    # d -> +-Res(phi_d, Delta); see the module docstring.
    norms = {1: D(2), 2: D(-2)}
    for r in rs:
        if r < 1:
            raise ValueError("r must be >= 1")
        # t^r - 1 = prod over d | r of cyclotomic(d); resultants multiply.
        # Divisors ascend, found up to sqrt(r); a zero norm ends the product.
        small = [d for d in range(1, isqrt(r) + 1) if r % d == 0]
        order = 1
        for d in small + [r // d for d in reversed(small) if d * d != r]:
            if d not in norms:
                norms[d] = resultant(real_cyclotomic(d), D) ** 2
            order *= norms[d]
            if not order:
                break
        yield r, abs(order) or None


def cover_order(delta, r):
    """|H_1| of the r-fold branched cover of a knot with Alexander polynomial delta."""
    return next(cover_orders(delta, (r,)))


class ClassificationReport(Record):
    __slots__ = (
        "cyclotomic_factors",  # ((n, multiplicity), ...)
        "non_cyclotomic_remainder",  # IntPolynomial
        "all_prime_power_covers_trivial",
        "all_covers_trivial",
        "witness_cover",  # (r, |H_1|) or None
    )


DEFAULT_WITNESS_BOUND = 512


def classify_prime_power_covers(delta):
    """Classify which branched covers of the knot are homology spheres.

    Every prime power cover is a homology sphere iff every irreducible factor
    of delta is a cyclotomic polynomial phi_n with n divisible by three
    distinct primes; all covers are homology spheres iff delta = +-t^k.
    Delta and the remainder are judged up to the units +-t^k of Z[t, 1/t],
    which leave every cover order unchanged.  When the prime-power verdict
    is false, the witness is the least prime power r with |H_1| != 1.
    """
    D = _knot_chebyshev_form(delta)
    factors, remainder = cyclotomic_factor_extract(delta)
    all_pp_trivial = remainder.is_laurent_unit() and all(
        len(distinct_prime_factors(n)) >= 3 for n, _ in factors
    )
    all_trivial = delta.is_laurent_unit()
    witness = None
    if not all_pp_trivial:
        witness = _find_witness_cover(D, lambda order: order != 1, _prime_powers())
        if witness is None:
            raise WitnessSearchExhausted(
                "no prime power cover with nontrivial homology found up to %d"
                % DEFAULT_WITNESS_BOUND
            )
    return ClassificationReport(
        cyclotomic_factors=tuple(factors),
        non_cyclotomic_remainder=remainder,
        all_prime_power_covers_trivial=all_pp_trivial,
        all_covers_trivial=all_trivial,
        witness_cover=witness,
    )


def has_character(order, p):
    """Whether |H_1| = order admits a nontrivial character to Z_(p^k): p
    divides it, or, with p None, some odd prime does."""
    return order % p == 0 if p else bool(order & (order - 1))


def find_witness_cover(delta, p):
    """(r, |H_1|) at the least prime power r <= DEFAULT_WITNESS_BOUND whose
    |H_1| admits a nontrivial character (has_character), or None.

    With p a prime, the walk skips r = l^j, its order never computed, when
    l = p or ord_r(p) > deg Delta_0, and the skip is exact.  p divides
    |H_1(Sigma_r)| = |Res(t^r - 1, Delta_0)| iff Delta_0 mod p, which is
    nonzero as Delta_0(1) = +-1, vanishes at an r-th root of unity of F_p-bar.
    For l = p the only one is 1, as t^r - 1 = (t - 1)^r mod p, and
    Delta_0(1) = +-1.  Otherwise the walk
    reaches l^j only after every l^i, i < j, has failed, so a new root is a
    primitive r-th root of unity, of degree ord_r(p) over F_p, and its
    minimal polynomial divides Delta_0 mod p.  A power of p is never 1 mod
    p^j, so one test, some p^e = 1 mod r with e <= deg Delta_0, covers both.
    """
    D = _knot_chebyshev_form(delta)
    rs = _prime_powers()
    if p is not None:
        degree = 2 * D.degree()
        rs = (r for r in rs if any(pow(p, e, r) == 1 for e in range(1, degree + 1)))
    return _find_witness_cover(D, lambda order: has_character(order, p), rs)


def _prime_powers():
    return (r for r in range(2, DEFAULT_WITNESS_BOUND + 1) if len(factorize(r)) == 1)


def _find_witness_cover(D, usable, rs):
    return next(((r, order) for r, order in _orders(D, rs) if usable(order)), None)
