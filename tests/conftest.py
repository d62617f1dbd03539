import contextlib
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from knotconc.cli import main
from knotconc.exactpoly import (
    IntPolynomial,
    cyclotomic,
    phi_inverse_candidates,
    prime_power_decomposition,
    resultant,
    totient,
)
from knotconc.seifert import SeifertMatrix
from knotconc.signatures import JUMP


def json_run(argv, rows):
    """(exit status, parsed stdout or None) of `knotconc --json argv` on a
    matrix document holding rows, run in-process."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps({"matrix": rows}))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--json"] + argv)
    finally:
        sys.stdin = saved
    return code, json.loads(out.getvalue()) if code == 0 else None


def dense_symmetric_delta(degree):
    """Coefficients of a dense symmetric Delta of even degree with Delta(1)
    = 1: nonzero entries in [-9, 9], drawn by random.Random(degree), and the
    middle one set to fix Delta(1)."""
    rng = random.Random(degree)
    digits = [c for c in range(-9, 10) if c]
    half = [rng.choice(digits) for _ in range(degree // 2)]
    return half + [1 - 2 * sum(half)] + half[::-1]


def random_seifert(rng, genus, bound=2):
    """Random valid Seifert matrix: V - V^t is the standard symplectic form."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-bound, bound)
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-bound, bound)
            rows[j][i] = rows[i][j]
    for b in range(genus):
        i, j = 2 * b, 2 * b + 1
        rows[j][i] = rows[i][j] - 1
    return SeifertMatrix(rows)


@st.composite
def seifert_rows(draw, max_genus=3):
    """Genus 1 to max_genus Seifert matrix with entries in [-3, 3]: a
    symmetric part plus the standard symplectic V - V^t.  Singular draws
    are kept."""
    n = 2 * draw(st.integers(1, max_genus))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            band = i % 2 == 0 and j == i + 1  # this entry minus 1 sits below it
            rows[i][j] = rows[j][i] = draw(st.integers(-2 if band else -3, 3))
    for i in range(0, n, 2):
        rows[i + 1][i] -= 1
    return rows


def fraction_determinant(m):
    """Oracle: det of an integer matrix m by Gaussian elimination over
    Fraction."""
    m = [[Fraction(c) for c in row] for row in m]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


def node_system_alexander(rows):
    """Oracle: ascending coefficients of det(V - tV^t), by the palindrome
    node system.  Delta(t) = sum_{k<g} c_k (t^k + t^(2g-k)) + c_g t^g; the
    g+1 unknowns come from Delta(1) = 1 and the values at t = 0, -1, 2, -2,
    ..., each a `fraction_determinant`, solved by Cramer's rule over the
    same determinants."""
    n = len(rows)
    g = n // 2
    nodes = ([1, 0] + [(k // 2 + 1) * (-1) ** k for k in range(1, g)])[: g + 1]
    values = [1] + [
        fraction_determinant([[rows[i][j] - t * rows[j][i] for j in range(n)] for i in range(n)])
        for t in nodes[1:]
    ]
    system = [[t**k + t ** (2 * g - k) for k in range(g)] + [t**g] for t in nodes]
    det = fraction_determinant(system)
    c = []
    for k in range(g + 1):
        replaced = [row[:k] + [v] + row[k + 1:] for row, v in zip(system, values)]
        c.append(Fraction(fraction_determinant(replaced), det))
    assert all(x.denominator == 1 for x in c)
    out = [int(x) for x in c[:-1] + c[::-1]]
    while out and out[-1] == 0:
        out.pop()
    return out


def block_sum(a, b):
    """The block-diagonal matrix with blocks a and b, as lists."""
    return [list(row) + [0] * len(b) for row in a] + [[0] * len(a) + list(row) for row in b]


def singular(rows):
    """rows with its first row and column zeroed, apart from the -1 that
    keeps V - V^t standard: det V = 0, so t divides Delta."""
    rows = [list(row) for row in rows]
    rows[0] = [0] * len(rows)
    for i in range(1, len(rows)):
        rows[i][0] = -1 if i == 1 else 0
    return rows


# -- polynomial oracles ----------------------------------------------------
# IntPolynomial has no ring operators; the tests build their sums, products
# and powers here, on coefficient tuples, with no library code beyond the
# constructor.  An int stands for a constant polynomial.


def _coeffs(p):
    return (p,) if isinstance(p, int) else p.coeffs


def poly_add(*polys):
    out = []
    for p in polys:
        c = _coeffs(p)
        out += [0] * (len(c) - len(out))
        for i, x in enumerate(c):
            out[i] += x
    return IntPolynomial(out)


def poly_mul(*polys):
    out = [1]
    for p in polys:
        c = _coeffs(p)
        prod = [0] * (len(out) + len(c) - 1) if c else []
        for i, x in enumerate(out):
            for j, y in enumerate(c):
                prod[i + j] += x * y
        out = prod
    return IntPolynomial(out)


def poly_pow(p, n):
    return poly_mul(*[p] * n)


def t_power_minus_one(r):
    """t^r - 1."""
    return IntPolynomial([-1] + [0] * (r - 1) + [1])


@functools.lru_cache(maxsize=None)
def cyclotomic_coeffs(n):
    """Ascending coefficients of Phi_n = prod over d | n of (t^(n/d) -
    1)^mu(d), Moebius inversion of t^n - 1 = prod over d | n of Phi_d: the
    product of the factors with mu(d) = 1, divided exactly by the others."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    up, down = [], []  # n / d for the squarefree d | n with mu(d) = 1 and -1
    for subset in range(1 << len(primes)):
        d = math.prod(p for i, p in enumerate(primes) if subset >> i & 1)
        (down if bin(subset).count("1") % 2 else up).append(n // d)
    c = [1]
    for k in up:  # times t^k - 1
        c = [(c[i - k] if i >= k else 0) - (c[i] if i < len(c) else 0) for i in range(len(c) + k)]
    for k in down:  # divided by t^k - 1: c[i] = q[i - k] - q[i]
        q = []
        for i in range(len(c) - k):
            q.append((q[i - k] if i >= k else 0) - c[i])
        assert all(c[i] == (q[i - k] if i >= k else 0) for i in range(len(q), len(c)))
        c = q
    return tuple(c)


def unsieved_cyclotomic_split(f):
    """exactpoly.cyclotomic_factor_extract without its test at t = 3: one
    trial division by each Phi_n with phi(n) <= deg f, as long as it
    divides."""
    factors = []
    rem = f
    if rem.degree() < 1:
        return factors, rem
    for n in phi_inverse_candidates(rem.degree()):
        phi = IntPolynomial(cyclotomic_coeffs(n))
        if phi.degree() > rem.degree():
            continue
        mult = 0
        while True:
            q, r = rem.divmod_exact(phi)
            if not r.is_zero():
                break
            rem = q
            mult += 1
        if mult:
            factors.append((n, mult))
        if rem.degree() < 1:
            break
    return factors, rem


def jump_angles(profile):
    """The a of a signature profile {a: value} that sit at Alexander roots."""
    return [a for a, v in profile.items() if v is JUMP]


@pytest.fixture
def rng():
    return random.Random(20240817)


def cyclotomic_product_identity(n, p, k):
    """Exact check of the closed form for prod phi_n(zeta_{p^k}^i).

    Returns (value, predicted_magnitude, m, b) where value is the signed
    resultant Res(t^{p^k} - 1, phi_n) and m = n / gcd(n, p^k).  Raising to
    the p^k-th power maps each primitive n-th root of unity onto a primitive
    m-th root, hitting each one b = totient(n)/totient(m) times, so
    |value| = |phi_m(1)|^b; the check asserts this.  Equivalently, with
    v the multiplicity of p in n: b = p^v - p^(v-1) for k >= v >= 1, b = 1
    when p does not divide n, and b = p^k for k < v.  Raises ValueError when
    m = 1, where the closed form degenerates.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if prime_power_decomposition(p**k) != (p, k):
        raise ValueError("p must be prime")
    r = p**k
    m = n // math.gcd(n, r)
    if m == 1:
        raise ValueError(
            "p^k = %d is a multiple of n = %d; the closed form degenerates" % (r, n)
        )
    b = totient(n) // totient(m)
    value = resultant(t_power_minus_one(r), cyclotomic(n))
    predicted = abs(cyclotomic(m)(1)) ** b
    assert abs(value) == predicted, (
        "product identity failed for n=%d, p=%d, k=%d: |%d| != %d"
        % (n, p, k, value, predicted)
    )
    return value, predicted, m, b
