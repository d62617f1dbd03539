"""Differential tests against oracles that share no code with the library.

Both determinant oracles eliminate over `Fraction`, with
tests/conftest.py's `fraction_determinant`:
- |H_1| of the r-fold branched cover is |det| of the (r-1)-block
  tridiagonal presentation matrix with V + V^t on the diagonal, -V above it
  and -V^t below it (Rolfsen, Knots and Links, ch. 8); det 0 means H_1 is
  infinite.
- Res(f, g) is the determinant of the Sylvester matrix of f and g.
The witness cover is checked as the least prime power r with
|Res(t^r - 1, Delta)| != 1, from Sylvester determinants and the Phi_n of
tests/conftest.py.  The cover `witness` takes must carry a nontrivial
character: q's prime divides its presentation order, and no smaller
prime-power cover's order has that prime.
The half-degree norms Res(Psi_d, D)^2 that `covers` uses are checked
against the full-degree Res(phi_d, Delta), itself checked against the
Sylvester determinant here.  Where D is not monic, `covers` takes the norm
after x = 2 + 1/y: both transformed polynomials are checked against
y^n f(2 + 1/y) over `Fraction`, the signed identity against the
untransformed resultant, and cover orders on each side of the rule against
the presentation.
For genus 1 cover orders past 4300 digits, a closed form in the roots of
Delta checks the whole `covers` table.
The Alexander polynomial, from the pencil V + x(V - V^t), is checked
against tests/conftest.py's `node_system_alexander`, the palindrome node
system solved over `Fraction`.
The cyclotomic split, which divides only where Phi_n(3) divides the value
at 3, is checked against tests/conftest.py's `unsieved_cyclotomic_split`,
one trial division by each candidate Phi_n of tests/conftest.py, and the
witness walk for a given q, which skips the r where q's prime cannot
divide |H_1|, against the walk that computes every order.
"""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_sum,
    cyclotomic_coeffs,
    fraction_determinant,
    json_run,
    node_system_alexander,
    poly_mul,
    poly_pow,
    random_seifert,
    seifert_rows,
    singular,
    unsieved_cyclotomic_split,
)
from knotconc import covers
from knotconc.cli import main
from knotconc.covers import classify_prime_power_covers, cover_orders
from knotconc.exactpoly import (
    IntPolynomial,
    _cyclotomic_at_3,
    chebyshev_form,
    cyclotomic,
    cyclotomic_factor_extract,
    phi_inverse_candidates,
    prime_power_decomposition,
    real_cyclotomic,
    resultant,
)
from knotconc.seifert import SeifertMatrix, alexander, torus_2q


def presentation_order(rows, r):
    """|det| of the (r-1)-block presentation of H_1 of the r-fold cover."""
    n = len(rows)
    size = n * (r - 1)
    big = [[0] * size for _ in range(size)]
    for b in range(r - 1):
        for i in range(n):
            for j in range(n):
                big[b * n + i][b * n + j] = rows[i][j] + rows[j][i]
                if b + 1 < r - 1:
                    big[b * n + i][(b + 1) * n + j] = -rows[i][j]
                    big[(b + 1) * n + i][b * n + j] = -rows[j][i]
    return abs(fraction_determinant(big))


def sylvester(f, g):
    """Sylvester matrix of ascending coefficient lists f and g."""
    df, dg = len(f) - 1, len(g) - 1
    size = df + dg
    rows = []
    for i in range(dg):
        rows.append([0] * i + f[::-1] + [0] * (size - i - df - 1))
    for i in range(df):
        rows.append([0] * i + g[::-1] + [0] * (size - i - dg - 1))
    return rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    genus=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    r=st.integers(2, 8),
    trefoil=st.booleans(),
)
def test_cover_orders_match_presentation(genus, seed, r, trefoil):
    rows = [list(row) for row in random_seifert(random.Random(seed), genus).rows]
    if trefoil:
        # Phi_6 divides Delta: the covers with 6 | r have infinite H_1.
        rows = block_sum([row[2:] for row in rows[2:]], [[1, -1], [0, 1]])
    orders = list(cover_orders(alexander(SeifertMatrix(rows)), range(2, 9)))
    expected = presentation_order(rows, r)
    got = orders[r - 2]
    assert got == (expected or None)


def test_presentation_covers_singular_draws():
    # Singular V (det V = 0) give Delta a t^k factor; keep them covered.
    rng = random.Random(11)
    random_seifert(rng, 1)
    V = random_seifert(rng, 1)
    assert alexander(V) == IntPolynomial([0, 1])
    orders = list(cover_orders(alexander(V), range(2, 9)))
    rows = [list(row) for row in V.rows]
    expected = [presentation_order(rows, r) for r in range(2, 9)]
    assert orders == expected


@st.composite
def alexander_draws(draw):
    """A genus 1-6 draw with entries in [-3, 3], or a draw of genus 1-5
    that is congruent (P V P^t, so V - V^t is dense), singular (det V = 0,
    so t^k divides Delta), or summed with T(2,3) or T(2,5)."""
    kind = draw(st.sampled_from(["plain", "congruent", "singular", "torus"]))
    rows = draw(seifert_rows(max_genus=6 if kind == "plain" else 5))
    n = len(rows)
    if kind == "congruent":
        for _ in range(draw(st.integers(1, 2 * n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            c = draw(st.integers(-2, 2))
            if i != j:  # columns, then rows: E^t V E with E = I + c e_ij
                for row in rows:
                    row[j] += c * row[i]
                rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    elif kind == "singular":
        rows = singular(rows)
    elif kind == "torus":
        rows = block_sum(rows, torus_2q(draw(st.sampled_from([3, 5]))).rows)
    return rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rows=alexander_draws())
def test_alexander_matches_node_system(rows):
    assert list(alexander(SeifertMatrix(rows)).coeffs) == node_system_alexander(rows)


leading = st.integers(-6, 6).filter(bool)
coefficients = st.lists(st.integers(-6, 6), max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    f=st.tuples(coefficients, leading),
    g=st.tuples(coefficients, leading),
    shared=st.none() | st.tuples(st.lists(st.integers(-3, 3), max_size=2), leading),
)
def test_resultant_matches_sylvester(f, g, shared):
    f = IntPolynomial(f[0] + [f[1]])
    g = IntPolynomial(g[0] + [g[1]])
    if shared is not None:
        common = IntPolynomial(shared[0] + [shared[1]])
        f, g = poly_mul(f, common), poly_mul(g, common)
    expected = fraction_determinant(sylvester(list(f.coeffs), list(g.coeffs)))
    assert resultant(f, g) == expected


@pytest.mark.parametrize("d", [5, 17, 31, 53, 59, 61, 64])
def test_resultant_matches_sylvester_at_cover_shapes(d):
    # covers takes Res(Psi_d, D) with deg Psi_d = phi(d)/2 up to 30 and D of
    # degree up to 8, whose leading coefficient reaches millions on random
    # genus-8 matrices.
    rng = random.Random(d)
    psi = real_cyclotomic(d)
    for degree in range(1, 9):
        size = 10 ** rng.randint(0, 7)
        lc = rng.choice([-1, 1]) * rng.randint(1, 10**7)
        D = IntPolynomial([rng.randint(-size, size) for _ in range(degree)] + [lc])
        expected = fraction_determinant(sylvester(list(psi.coeffs), list(D.coeffs)))
        assert resultant(psi, D) == expected, (d, D)
    # A common factor: Psi_d divides D exactly when the norm is 0.
    if psi.degree() <= 6:
        D = poly_mul(psi, IntPolynomial([-3, 7]))
        assert fraction_determinant(sylvester(list(psi.coeffs), list(D.coeffs))) == 0
        assert resultant(psi, D) == 0


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def _totient(n):
    out = n
    for p in _primes(n):
        out = out // p * (p - 1)
    return out


# Phi_n(1) = 1 exactly when n has at least two distinct primes, and then
# some prime-power cover is nontrivial only if n has at most two.
TWO_PRIME_INDICES = [n for n in range(2, 91) if len(_primes(n)) == 2 and _totient(n) <= 24]


def least_witness(coeffs):
    """(r, |Res(t^r - 1, Delta)|) for the least prime power r where it is
    not 1."""
    for r in range(2, 513):
        if len(_primes(r)) == 1:
            order = abs(fraction_determinant(sylvester([-1] + [0] * (r - 1) + [1], coeffs)))
            if order != 1:
                return r, order
    raise AssertionError("no witness up to 512")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    indices=st.lists(st.sampled_from(TWO_PRIME_INDICES), max_size=2),
    half=st.lists(st.integers(-3, 3), max_size=2),
    shift=st.integers(0, 2),
    sign=st.sampled_from([1, -1]),
)
def test_witness_is_the_least_nontrivial_prime_power(indices, half, shift, sign):
    # A palindrome with value 1 at t = 1 (the unit 1 when half is empty),
    # times Phi_n for n with two primes, times +-t^k.
    remainder = IntPolynomial(half + [1 - 2 * sum(half)] + half[::-1])
    delta = poly_mul(remainder, *map(IntPolynomial, map(cyclotomic_coeffs, indices)))
    delta = IntPolynomial([0] * shift + [sign * c for c in delta.coeffs])
    witness = classify_prime_power_covers(delta).witness_cover
    if not indices and remainder.is_laurent_unit():
        assert witness is None
    else:
        assert witness == least_witness(list(delta.coeffs))


CYCLOTOMIC_INDICES = [n for n in range(1, 91) if _totient(n) <= 24]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    powers=st.lists(st.tuples(st.sampled_from(CYCLOTOMIC_INDICES), st.integers(1, 2)), max_size=3),
    half=st.lists(st.integers(-4, 4), max_size=4),
    shift=st.integers(0, 2),
    sign=st.sampled_from([1, -1]),
    zero_at_3=st.booleans(),
)
def test_sieved_split_matches_unsieved(powers, half, shift, sign, zero_at_3):
    # Phi_n^e times a palindrome with value 1 at t = 1, times +-t^k; with
    # 3t^2 - 10t + 3, which vanishes at t = 3, every candidate passes the
    # sieve and is divided.
    remainder = IntPolynomial(half + [1 - 2 * sum(half)] + half[::-1])
    factors = [poly_pow(IntPolynomial(cyclotomic_coeffs(n)), e) for n, e in powers]
    if zero_at_3:
        factors.append(IntPolynomial([3, -10, 3]))
    f = poly_mul(remainder, *factors)
    f = IntPolynomial([0] * shift + [sign * c for c in f.coeffs])
    assert cyclotomic_factor_extract(f) == unsieved_cyclotomic_split(f)


def test_cyclotomic_values_at_3():
    for n in phi_inverse_candidates(400):
        value = 0
        for c in reversed(cyclotomic_coeffs(n)):
            value = 3 * value + c
        assert _cyclotomic_at_3(n) == value, n


def _odd_part(n):
    while n % 2 == 0:
        n //= 2
    return n


def _largest_odd_prime_power(n):
    n, best, p = _odd_part(n), 1, 3
    while p * p <= n:
        power = 1
        while n % p == 0:
            n, power = n // p, power * p
        best, p = max(best, power), p + 2
    return max(best, n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=seifert_rows(max_genus=2), q=st.sampled_from([None, 3, 5, 7, 9, 25]))
def test_witness_cover_carries_a_character(rows, q):
    # A nontrivial character to Z_q exists only where q's prime divides
    # |H_1|, by default some odd prime.  The walk is cut at r = 9 so that
    # the oracle's presentations stay small.
    bound, covers.DEFAULT_WITNESS_BOUND = covers.DEFAULT_WITNESS_BOUND, 9
    try:
        code, doc = json_run(["witness", "--count", "1"] + (["--q", str(q)] if q else []), rows)
    finally:
        covers.DEFAULT_WITNESS_BOUND = bound
    rs = (2, 3, 4, 5, 7, 8, 9)
    if code == 0:
        rs = rs[: rs.index(doc["witness_cover"]["r"]) + 1]
    orders = [presentation_order(rows, r) for r in rs]
    if code == 3:  # every prime-power cover is a homology sphere
        assert set(orders) == {1}
        return
    prime = {3: 3, 5: 5, 7: 7, 9: 3, 25: 5}.get(q)
    usable = [
        r for r, order in zip(rs, orders)
        if (order % prime == 0 if prime else _odd_part(order) > 1)
    ]
    assert (code, usable) in ((2, []), (0, [rs[-1]]))
    if code == 0:
        assert doc["witness_cover"]["order"] == orders[-1]
        if q is None:
            assert doc["q"] == _largest_odd_prime_power(orders[-1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=seifert_rows(), q=st.sampled_from([3, 5, 7, 9, 11, 13, 25, 27, 49]))
def test_sieved_witness_walk_matches_unsieved(rows, q):
    # The walk for q's prime p skips r = l^j when l = p or ord_r(p) >
    # deg Delta_0; the unsieved walk computes every order up to the bound.
    p, _ = prime_power_decomposition(q)
    delta = alexander(SeifertMatrix(rows))
    rs = [r for r in range(2, 65) if len(_primes(r)) == 1]
    unsieved = next(
        ((r, order) for r, order in zip(rs, cover_orders(delta, rs)) if order % p == 0), None
    )
    bound, covers.DEFAULT_WITNESS_BOUND = covers.DEFAULT_WITNESS_BOUND, 64
    try:
        assert covers.find_witness_cover(delta, p) == unsieved
    finally:
        covers.DEFAULT_WITNESS_BOUND = bound


def test_covers_cli_past_int_str_limit(capsys):
    # Delta = a t^2 + (1 - 2a) t + a, the Alexander polynomial of
    # V = [[a, 1], [0, 1]]; at r = 80 its cover order has over 4300 digits.
    a = 10**59 + 7
    code = main(["--json", "covers", "--delta", "%d,%d,%d" % (a, 1 - 2 * a, a), "--max-r", "80"])
    out = capsys.readouterr().out
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        orders = {row["r"]: row["order"] for row in json.loads(out)["covers"]}
    finally:
        sys.set_int_max_str_digits(limit)
    assert orders[5] == presentation_order([[a, 1], [0, 1]], 5)
    # |H_1| = a^r |(alpha^r - 1)(alpha^-r - 1)| = a^r |2 - L_r| for the roots
    # alpha, 1/alpha, where L_r = alpha^r + alpha^-r satisfies
    # L_(k+1) = s L_k - L_(k-1) with s = (2a - 1) / a.
    s = Fraction(2 * a - 1, a)
    previous, current = Fraction(2), s
    for r in range(2, 81):
        previous, current = current, s * current - previous
        assert orders[r] == abs(a**r * (2 - current))
    assert orders[80].bit_length() > 4300 * 3.33


def test_half_degree_norms_match_full_resultants():
    rng = random.Random(4099)
    draws = [[list(row) for row in random_seifert(rng, g).rows] for g in range(1, 9)]
    draws += [singular(draws[1]), singular(draws[4])]
    shifts = []
    for rows in draws:
        delta = alexander(SeifertMatrix(rows))
        k = next(i for i, c in enumerate(delta.coeffs) if c)
        shifts.append(k)
        core = IntPolynomial(delta.coeffs[k:])
        D = chebyshev_form(delta)
        full = {d: abs(resultant(cyclotomic(d), delta)) for d in range(1, 97)}
        assert full[1] == abs(core(1)) and full[2] == abs(core(-1))
        for d in range(3, 97):
            assert resultant(real_cyclotomic(d), D) ** 2 == full[d], (rows, d)
        for r, order in zip(range(1, 97), cover_orders(delta, range(1, 97))):
            product = 1
            for d in range(1, r + 1):
                if r % d == 0:
                    product *= full[d]
            assert order == (product or None)
    assert shifts[-2] > 0 and shifts[-1] > 0  # Delta = t^k Delta_0 is covered


def inverted_at(coeffs, y):
    """y^n f(2 + 1/y) over Fraction, f of degree n given ascending."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * (2 + 1 / Fraction(y)) + c
    return Fraction(y) ** (len(coeffs) - 1) * value


def test_inverted_real_cyclotomic_is_psi_at_two_plus_one_over_y():
    # (2y + 1)^i y^(m-i) has coefficients summing to 3^i, so the transform
    # of Psi_d has coefficients at most B = |Psi_d|_1 3^m.  Two integer
    # polynomials with coefficients at most B in size that agree at
    # y = 2^k > 2B are equal: their difference, read in base 2^k, is 0.
    for d in range(3, 257):
        psi = real_cyclotomic(d)
        m = psi.degree()
        inverted = covers._inverted_real_cyclotomic(d)
        bound = sum(map(abs, psi.coeffs)) * 3**m
        assert inverted.degree() == m and max(map(abs, inverted.coeffs)) <= bound
        y = 2 ** (bound.bit_length() + 1)
        assert inverted(y) == inverted_at(psi.coeffs, y), d


@st.composite
def forms_at_two(draw):
    """An integer D of degree 0 to 16 with D(2) = +-1 and |lc D| up to 2^40."""
    degree = draw(st.integers(0, 16))
    coeffs = [0] + draw(st.lists(st.integers(-99, 99), min_size=degree, max_size=degree))
    if degree:
        coeffs[-1] = draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 2**40))
    coeffs[0] = draw(st.sampled_from([-1, 1])) - sum(c << i for i, c in enumerate(coeffs))
    return IntPolynomial(coeffs)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(D=forms_at_two(), d=st.integers(3, 130))
def test_inverted_resultant_is_the_signed_norm(D, d):
    # Res(Psi^_d, D^) = (-1)^(mg) Res(Psi_d, D), m = phi(d)/2, g = deg D.
    g = D.degree()
    assert abs(D(2)) == 1
    D_hat = covers._inverted(D)
    assert D_hat.degree() == g and abs(D_hat.coeffs[-1]) == 1
    for y in range(1, g + 2):  # g + 1 points fix a polynomial of degree g
        assert D_hat(y) == inverted_at(D.coeffs, y)
    m = real_cyclotomic(d).degree()
    expected = (-1) ** (m * g) * resultant(real_cyclotomic(d), D)
    assert resultant(covers._inverted_real_cyclotomic(d), D_hat) == expected


@pytest.mark.parametrize(
    "rows, d_hat_builds",
    [
        # Figure-eight plus trefoil: D = -(x - 1)(x - 3) is monic up to sign.
        (block_sum([[-1, 1], [0, 1]], [[1, -1], [0, 1]]), 0),
        # A genus-1 draw with det V = -2 plus the trefoil, g = 2: the norms
        # at d = 3, 4, 5, 6, 8 take Res(Psi_d, D), and those at d = 7, 9,
        # where Psi_d has degree 3, take the monic D^.
        (block_sum([[1, 1], [0, -2]], [[1, -1], [0, 1]]), 1),
    ],
)
def test_cover_orders_on_both_sides_of_the_monic_rule(monkeypatch, rows, d_hat_builds):
    # _inverted also builds each Psi^_d, on a cold cache only; count D^.
    builds = []
    build = covers._inverted
    monkeypatch.setattr(covers, "_inverted", lambda p: builds.append(p) or build(p))
    delta = alexander(SeifertMatrix(rows))
    orders = list(cover_orders(delta, range(2, 10)))
    assert builds.count(chebyshev_form(delta)) == d_hat_builds
    assert orders == [presentation_order(rows, r) or None for r in range(2, 10)]
    assert orders[4] is None  # the trefoil's Psi_6 = x - 1 divides D
