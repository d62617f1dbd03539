"""Reference computations that share no code with ``knotconc``.

Nothing here imports ``knotconc``.  Every routine uses a different method
from the program's own:

* ``alexander`` takes the characteristic polynomial of ``S^-1 V^t`` by
  Faddeev-LeVerrier (``S = V - V^t``), not determinant evaluation plus
  Lagrange interpolation.
* ``cover_orders`` evaluates ``|lc^r * det(C^r - I)|`` for the companion
  matrix ``C`` of Delta.  ``det(C^r - I)`` is the resultant of the monic
  ``Delta/lc`` and ``t^r - 1 mod Delta``; it is taken by the Euclidean
  algorithm modulo word-size primes and rebuilt exactly by the Chinese
  remainder theorem under a proven magnitude bound, not by Sylvester
  matrices and Bareiss elimination.
* ``torus_signature`` is the closed form for T(2,q).
* ``float_signature`` takes float eigenvalues of the realified form and
  reports an angle as unchecked when an eigenvalue lies inside a margin.

Polynomials are lists of ints in ascending degree with no trailing zero.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# -- integers ---------------------------------------------------------------


def factorize(n):
    """{prime: multiplicity} of n >= 1 by trial division (small n only)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.lru_cache(maxsize=None)
def totient(n):
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def is_prime_power(n):
    return n >= 2 and len(factorize(n)) == 1


def largest_odd_prime_power(n):
    powers = [p**e for p, e in factorize(n).items() if p % 2]
    return max(powers) if powers else None


def _is_probable_prime(n):
    # Deterministic Miller-Rabin for n < 3.3e24 with these bases.
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(top, count):
    out = []
    n = top - 1
    while len(out) < count:
        if _is_probable_prime(n):
            out.append(n)
        n -= 2 if n % 2 else 1
    return out


_PRIMES = _primes_below(1 << 61, 128)

# -- polynomials ------------------------------------------------------------


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_divexact_monic(a, b):
    """Quotient and remainder of a by a monic b over the integers."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for s in range(len(a) - 1 - db, -1, -1):
        c = a[s + db]
        q[s] = c
        if c:
            for i in range(db + 1):
                a[s + i] -= c * b[i]
    return trim(q), trim(a[:db])


def _mobius(n):
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


_CYCLOTOMIC = {}


def cyclotomic(m):
    """Phi_m as prod over d | m of (t^d - 1)^mu(m/d)."""
    if m not in _CYCLOTOMIC:
        num, den = [1], [1]
        for d in range(1, m + 1):
            if m % d:
                continue
            mu = _mobius(m // d)
            factor = [-1] + [0] * (d - 1) + [1]
            if mu == 1:
                num = poly_mul(num, factor)
            elif mu == -1:
                den = poly_mul(den, factor)
        q, r = poly_divexact_monic(num, den)
        if r:
            raise AssertionError("cyclotomic division left a remainder")
        _CYCLOTOMIC[m] = q
    return _CYCLOTOMIC[m]


def vanishes_at_root_of_unity(delta, m):
    """Exactly: does delta vanish at a primitive m-th root of unity?"""
    return not poly_divexact_monic(delta, cyclotomic(m))[1]


# -- Seifert matrices -------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _inverse(rows):
    """Exact inverse over Fraction by Gauss-Jordan; returns (det, inverse).

    rows is a tuple of tuples; generated matrices share few distinct V - V^t.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        pk = m[k][k]
        det *= pk
        m[k] = [x / pk for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det, [[int(x) if x.denominator == 1 else x for x in row[n:]] for row in m]


def _skew(V):
    n = len(V)
    return tuple(tuple(V[i][j] - V[j][i] for j in range(n)) for i in range(n))


def seifert_form_determinant(V):
    """det(V - V^t); a Seifert matrix has 1."""
    return _inverse(_skew(V))[0]


def alexander(V):
    """det(V - t V^t) as ascending integer coefficients.

    With S = V - V^t and u = t - 1, V - t V^t = S - u V^t, so
    Delta = det(S) * det(I - u W) for W = S^-1 V^t, and
    det(I - u W) = sum_k c_k u^(n-k) where sum_k c_k x^k = det(x I - W).
    det(S) = +-1 for a Seifert matrix, so W and every c_k are integers.
    """
    n = len(V)
    if n == 0:
        return [1]
    det_s, s_inv = _inverse(_skew(V))
    if det_s not in (1, -1):
        raise ValueError("det(V - V^t) is %s, not +-1" % det_s)
    w = [[sum(x * y for x, y in zip(s_inv[i], V[j])) for j in range(n)] for i in range(n)]
    # Faddeev-LeVerrier: M_k = W M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(W M_k)/k.
    c = [0] * (n + 1)
    c[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        m = [[sum(x * y for x, y in zip(w[i], cols[j])) + (c[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        cols = list(zip(*m))
        tr = sum(sum(x * y for x, y in zip(w[i], cols[i])) for i in range(n))
        if tr % k:
            raise AssertionError("characteristic polynomial is not integral")
        c[n - k] = -tr // k
    # sum_k c_k (t - 1)^(n - k), expanded binomially.
    out = [0] * (n + 1)
    for k in range(n + 1):
        e = n - k
        for i in range(e + 1):
            out[i] += c[k] * math.comb(e, i) * (-1) ** (e - i)
    return trim(int(det_s) * x for x in out)


def block_sum(a, b):
    na, nb = len(a), len(b)
    return [list(r) + [0] * nb for r in a] + [[0] * na + list(r) for r in b]


def torus_matrix(q):
    """The (q-1)x(q-1) upper-bidiagonal Seifert matrix of T(2,q)."""
    n = q - 1
    return [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n)]
            for i in range(n)]


def torus_alexander(q):
    """(t^q + 1)/(t + 1) = sum_(i<q) (-t)^i."""
    return [(-1) ** i for i in range(q)]


# -- branched cover orders --------------------------------------------------


def _res_mod(f, g, p):
    """Res(f, g) mod p by the Euclidean algorithm; f, g reduced mod p."""
    acc = 1
    while True:
        if not g:
            return 0
        df, dg = len(f) - 1, len(g) - 1
        if dg == 0:
            return acc * pow(g[0], df, p) % p
        # Res(f, g) = (-1)^(df*dg) Res(g, f) and
        # Res(g, f) = lc(g)^(df - deg r) Res(g, r) for r = f mod g.
        inv = pow(g[-1], -1, p)
        r = list(f)
        for s in range(df - dg, -1, -1):
            c = r[s + dg] % p * inv % p
            if c:
                for i in range(dg):
                    r[s + i] -= c * g[i]
        r = trim([x % p for x in r[:dg]])
        if not r:
            return 0
        if df * dg % 2:
            acc = -acc
        acc = acc * pow(g[-1], df - (len(r) - 1), p) % p
        f, g = g, r


def _crt_symmetric(residues, primes):
    x, m = 0, 1
    for r, p in zip(residues, primes):
        t = (r - x) * pow(m, -1, p) % p
        x += m * t
        m *= p
    return x - m if x > m // 2 else x


def cover_orders(delta, rs):
    """{r: |H_1| of the r-fold branched cover, None when infinite}.

    The order is |lc^r * det(C^r - I)| = |lc^r * Res(f, t^r - 1 mod f)| for
    the monic f = Delta/lc with companion matrix C; it is infinite exactly
    when that integer is 0.  Landau's inequality M(Delta) <= ||Delta||_2
    bounds it by 2^d * ||Delta||_2^r, so enough primes are used for the
    symmetric Chinese remainder to recover it exactly.
    """
    delta = trim(delta)
    d = len(delta) - 1
    lc = delta[-1]
    rs = sorted(set(rs))
    if d <= 0:
        return {r: abs(lc) ** r or None for r in rs}
    norm = math.isqrt(sum(c * c for c in delta)) + 1
    need = {}
    for r in rs:
        bound_bits = d + r * norm.bit_length() + 2
        need[r] = bound_bits // 60 + 1
    primes = [p for p in _PRIMES if lc % p][: max(need.values())]
    if len(primes) < max(need.values()):
        raise ValueError("cover order too large for the prime table")
    residues = {r: [] for r in rs}
    top = max(rs)
    for idx, p in enumerate(primes):
        inv_lc = pow(lc, -1, p)
        f = [c * inv_lc % p for c in delta]
        cur = [1] + [0] * (d - 1)  # t^m mod f, coefficients mod p
        for m in range(top + 1):
            if m in residues and idx < need[m]:
                rho = list(cur)
                rho[0] = (rho[0] - 1) % p
                residues[m].append(pow(lc, m, p) * _res_mod(f, trim(rho), p) % p)
            top_c = cur[-1]
            cur = [0] + cur[:-1]
            if top_c:
                cur = [(x - top_c * y) % p for x, y in zip(cur, f)]
    out = {}
    for r in rs:
        value = abs(_crt_symmetric(residues[r], primes[: need[r]]))
        out[r] = value or None
    return out


# -- signatures -------------------------------------------------------------


def torus_signature(q, x):
    """Closed form sigma_x(T(2,q)) for a rational angle 0 < x < 1.

    sigma_x = 2 * #{1 <= j <= (q-1)/2 : (2j-1)/(2q) < x < 1 - (2j-1)/(2q)}.
    """
    x = Fraction(x)
    return 2 * sum(
        1
        for j in range(1, (q - 1) // 2 + 1)
        if Fraction(2 * j - 1, 2 * q) < x < 1 - Fraction(2 * j - 1, 2 * q)
    )


# An eigenvalue within this share of the Frobenius norm is not trusted.
# Backward-stable symmetric eigensolvers err by about dim * 2^-52 * ||M||,
# several orders of magnitude below it at the sizes used here.
SIGNATURE_MARGIN = 1e-9


def float_signature(V, a, q):
    """(signature, trusted) at omega = exp(2 pi i a/q) from float eigenvalues.

    The Hermitian form (1 - w) V + (1 - conj w) V^t is realified to the real
    symmetric [[A, -B], [B, A]] with A = (1 - cos)(V + V^t) and
    B = sin (V^t - V), which doubles every inertia count.
    """
    import numpy

    v = numpy.array(V, dtype=float)
    theta = 2 * math.pi * a / q
    a_part = (1 - math.cos(theta)) * (v + v.T)
    b_part = math.sin(theta) * (v.T - v)
    m = numpy.block([[a_part, -b_part], [b_part, a_part]])
    eig = numpy.linalg.eigvalsh(m)
    margin = SIGNATURE_MARGIN * max(1.0, float(numpy.linalg.norm(m)))
    trusted = bool(numpy.all(numpy.abs(eig) > margin))
    return int((eig > 0).sum() - (eig < 0).sum()) // 2, trusted
