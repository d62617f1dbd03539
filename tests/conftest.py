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
    """Ascending coefficients of Phi_n: t^n - 1 divided exactly by Phi_d for
    each proper divisor d of n."""
    c = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            divisor = cyclotomic_coeffs(d)  # monic
            quot = [0] * (len(c) - len(divisor) + 1)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = c[i + len(divisor) - 1]
                for j, x in enumerate(divisor):
                    c[i + j] -= quot[i] * x
            assert not any(c)
            c = quot
    return tuple(c)


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
