"""Exact integer-polynomial arithmetic.

Polynomials are dense, with arbitrary-precision integer coefficients stored
in ascending degree order.  The module provides the cyclotomic polynomials
and their real-subfield forms Psi_d, the Chebyshev form of a palindromic
polynomial, exact resultants by the subresultant polynomial remainder
sequence, cyclotomic factor extraction, the fraction-free Bareiss
determinant (for Seifert matrices and their pencils), and the small
number-theoretic helpers (totient, factorization, prime powers) the rest of
the library needs, as well as `Record`, the immutable base of the library's
value and result types.
"""

import functools
import math
import operator

from .errors import (
    CertificationFailure,
    DivisorNotMonicUnit,
    FactorizationLimit,
    NotAPrimePower,
    ZeroPolynomial,
)

TRIAL_DIVISION_BOUND = 10**6


def integer_tuple(values):
    """values as a tuple of ints.  Each goes through operator.index, so 0.5,
    1.0 and "1" raise TypeError rather than being truncated or parsed, and
    so do True and False."""
    values = tuple(values)
    if bool in map(type, values):
        raise TypeError("true and false are not integers")
    return tuple(map(operator.index, values))


class Record:
    """Immutable record whose fields are its class's __slots__.

    Fields are given by position or keyword; records of the same class are
    equal, and hash alike, when their fields are; pickle and copy rebuild a
    record through __init__.  A subclass that checks or normalises its
    fields does so in its own __init__, which takes them in __slots__ order.

    A slot whose name starts with "_" is a memo, not a field: it is None
    after construction, only the class's own code fills it (through
    object.__setattr__), and it takes no part in construction, equality,
    hashing, pickling or repr, so a pickled or copied record starts with
    empty memos.  __init_subclass__ splits each class's slots once.
    """

    __slots__ = ()
    _names = _memos = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._names = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._memos = tuple(n for n in cls.__slots__ if n.startswith("_"))

    def __init__(self, *args, **kwargs):
        names = self._names
        if kwargs or len(args) != len(names):
            args = self._match_fields(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in self._memos:
            object.__setattr__(self, name, None)

    @classmethod
    def _match_fields(cls, args, kwargs):
        """The field values in slot order; TypeError unless args and kwargs
        give each field once, and nothing else."""
        names = cls._names
        values = dict(zip(names, args), **kwargs)
        fields = [values.pop(name) for name in names if name in values]
        if values or not len(fields) == len(names) == len(args) + len(kwargs):
            raise TypeError("%s takes the fields %s" % (cls.__name__, ", ".join(names)))
        return fields

    def _fields(self):
        return tuple(getattr(self, name) for name in self._names)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % (n, v) for n, v in zip(self._names, self._fields())),
        )


class IntPolynomial(Record):
    """Integer polynomial in canonical dense form: coefficients, evaluation,
    exact division by a monic divisor, and formatting.  It has no ring
    operators; the library computes on coefficient lists.

    Coefficients pass integer_tuple, so a float, string or bool raises
    TypeError.  The coefficient tuple has no trailing zero; the zero
    polynomial is the empty tuple.  Instances are immutable and hashable,
    and pickle and copy as a Record.

    >>> IntPolynomial([1, -1, 1])
    IntPolynomial('t^2 - t + 1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = integer_tuple(coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        super().__init__(coeffs[:n])

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_monic_unit(self):
        """True if the leading coefficient is +1 or -1."""
        return bool(self.coeffs) and self.coeffs[-1] in (1, -1)

    def is_laurent_unit(self):
        """True if self = +-t^k, a unit of Z[t, 1/t]."""
        nonzero = [c for c in self.coeffs if c]
        return len(nonzero) == 1 and nonzero[0] in (1, -1)

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction and complex values."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def divmod_exact(self, g):
        """Long division by a monic-up-to-sign divisor; stays in Z[t].

        Returns (q, r) with self = q*g + r and deg r < deg g.
        """
        if not g.is_monic_unit():
            raise DivisorNotMonicUnit(
                "divisor must be nonzero with leading coefficient +-1, got %r" % (g,)
            )
        dg = g.degree()
        rem = list(self.coeffs)
        lc_inv = g.coeffs[-1]  # +-1 is its own inverse
        gc = g.coeffs
        quot = [0] * (len(rem) - dg)
        for i in range(len(rem) - dg - 1, -1, -1):
            c = rem[i + dg] * lc_inv
            if c:
                quot[i] = c
                for j in range(dg + 1):
                    rem[i + j] -= c * gc[j]
        return IntPolynomial(quot), IntPolynomial(rem[:dg])

    # -- formatting -------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "IntPolynomial(%r)" % format_poly(self)


def format_poly(p):
    if p.is_zero():
        return "0"
    terms = []
    for i in range(p.degree(), -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            tvar = "t" if i == 1 else "t^%d" % i
            body = tvar if mag == 1 else "%d*%s" % (mag, tvar)
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += " %s %s" % (sign, body)
    return out


# -- integer helpers ------------------------------------------------------


def brief_int(n):
    """str(n), or for an n of more than 60 digits its first twelve digits
    and its digit count, so that a message stays short (and within Python's
    int-to-str limit)."""
    a = abs(n)
    if a < 10**60:
        return str(n)
    # 0.30102 < log10(2), so 10^k <= a; the loop corrects the estimate.
    k = (a.bit_length() - 1) * 30102 // 100000
    while 10 ** (k + 1) <= a:
        k += 1
    return "%s%d... (%d digits)" % ("-" if n < 0 else "", a // 10 ** (k - 11), k + 1)


def factorize(n):
    """Prime factorization {p: multiplicity} by trial division up to
    TRIAL_DIVISION_BOUND; r >= 2 is a prime power iff len(factorize(r)) == 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bound = TRIAL_DIVISION_BOUND
    factors = {}
    m = n
    d = 2
    while d * d <= m:
        if d > bound:
            raise FactorizationLimit(
                "cofactor %s survived trial division up to %d" % (brief_int(m), bound)
            )
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def distinct_prime_factors(n):
    """Distinct prime divisors of n, ascending."""
    return sorted(factorize(n))


def totient(n):
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def prime_power_decomposition(r):
    """Return (p, k) with r = p^k, or raise NotAPrimePower."""
    if r >= 2:
        factors = factorize(r)
        if len(factors) == 1:
            ((p, k),) = factors.items()
            return p, k
    raise NotAPrimePower("%d is not a prime power" % r)


# -- cyclotomic polynomials -----------------------------------------------


def _at_power(f, k):
    """f(t^k)."""
    return IntPolynomial([c for x in f.coeffs for c in [x] + [0] * (k - 1)])


@functools.lru_cache(maxsize=None)
def cyclotomic(n):
    """The n-th cyclotomic polynomial: from Phi_1 = t - 1, Phi_(mp)(t) =
    Phi_m(t^p) / Phi_m(t) for each prime p of n in turn gives Phi_r, r the
    product of those primes, and Phi_n(t) = Phi_r(t^(n/r))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f, primes = IntPolynomial([-1, 1]), factorize(n)
    for p in primes:
        f, rem = _at_power(f, p).divmod_exact(f)
        if not rem.is_zero():
            raise CertificationFailure("Phi_m(t^p) / Phi_m(t) is not exact")
    return _at_power(f, n // math.prod(primes))


@functools.lru_cache(maxsize=None)
def phi_inverse_candidates(bound):
    """All n with totient(n) <= bound, ascending; cached, so the list must
    not be mutated.  The primes p of such an n have prod (p - 1) <=
    totient(n) <= bound, and n = totient(n) prod p / (p - 1), so n is at
    most bound times that product over the first primes that fit."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    num = den = 1
    for p in range(2, bound + 2):
        if totient(p) == p - 1 and den * (p - 1) <= bound:  # p is prime
            num, den = num * p, den * (p - 1)
    return [n for n in range(1, bound * num // den + 1) if totient(n) <= bound]


def chebyshev_form(p):
    """D with t^(-g) p_0(t) = D(t + 1/t), where p = t^k p_0, p_0(0) != 0 and
    p_0(t) = t^(2g) p_0(1/t); ValueError when p has no such form.

    t^j + t^-j = T_j(t + 1/t), with T_0 = 2, T_1 = x and T_(j+1) =
    x T_j - T_(j-1), so D has degree g and integer coefficients.
    """
    c = p.coeffs
    c = c[next((i for i, x in enumerate(c) if x), 0):]
    if len(c) % 2 == 0 or c != c[::-1]:
        raise ValueError("not t^k times a palindrome of even degree")
    g = len(c) // 2
    d = [c[g]] + [0] * g
    prev, cur = [2], [0, 1]
    for cj in c[g + 1:]:
        if cj:
            for i, x in enumerate(cur):
                d[i] += cj * x
        nxt = [0] + cur
        for i, x in enumerate(prev):
            nxt[i] -= x
        prev, cur = cur, nxt
    return IntPolynomial(d)


@functools.lru_cache(maxsize=None)
def real_cyclotomic(d):
    """Psi_d, the monic minimal polynomial of 2 cos(2 pi / d), d >= 3.

    The primitive d-th roots of unity pair off as zeta and 1/zeta, so
    t^(-phi(d)/2) Phi_d(t) = Psi_d(t + 1/t), of degree phi(d)/2, whose
    roots are the 2 cos(2 pi k / d) with gcd(k, d) = 1 (Watkins and
    Zeitlin, The minimal polynomial of cos(2 pi / n), 1993).
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    return chebyshev_form(cyclotomic(d))


@functools.lru_cache(maxsize=None)
def _cyclotomic_at_3(n):
    """Phi_n(3), on integers, by the recursion of `cyclotomic`: Phi_(mp)(y)
    = Phi_m(y^p) / Phi_m(y) for each prime p of n, from Phi_1(y) = y - 1,
    at y = 3^(n/r), r the product of the primes of n."""
    primes = tuple(factorize(n))

    def value(k, y):  # Phi of the product of the first k primes, at y
        if not k:
            return y - 1
        return _exact_quotient(value(k - 1, y ** primes[k - 1]), value(k - 1, y))

    return value(len(primes), 3 ** (n // math.prod(primes)))


def cyclotomic_factor_extract(f):
    """Split f into cyclotomic factors and a cyclotomic-free remainder.

    Returns (factors, remainder) with factors a list of (n, multiplicity),
    n ascending, such that f = remainder * prod(cyclotomic(n)^multiplicity).

    A candidate Phi_n is built and divided only when phi(n) <= deg rem and
    Phi_n(3) divides rem(3), and each factor found divides rem(3) by
    Phi_n(3).  The skip is exact: Phi_n is monic, so Phi_n | rem gives rem
    = Phi_n q with q in Z[t], and rem(3) = Phi_n(3) q(3).  The test point is
    a fixed 3, the least base b at which every Phi_n(b) >= 2 (Phi_1(2) = 1
    would pass every f); Phi_1(3) = 2 and Phi_2(3) = 4, so on a knot
    polynomial, whose value at 3 is odd, they never pass.  When rem(3) = 0
    every candidate passes and is divided, as without the test.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    factors = []
    rem = f
    if rem.degree() < 1:
        return factors, rem
    at_3 = rem(3)
    for n in phi_inverse_candidates(rem.degree()):
        value = _cyclotomic_at_3(n)
        if at_3 % value or totient(n) > rem.degree():
            continue
        phi = cyclotomic(n)
        mult = 0
        while at_3 % value == 0:
            q, r = rem.divmod_exact(phi)
            if not r.is_zero():
                break
            rem = q
            at_3 //= value
            mult += 1
        if mult:
            factors.append((n, mult))
        if rem.degree() < 1:
            break
    return factors, rem


# -- determinants and resultants ------------------------------------------


def integer_determinant(rows):
    """Exact determinant of a square integer matrix, by two-step
    fraction-free Bareiss elimination of a copy m of rows (Bareiss, Math.
    Comp. 22, 1968): each pass eliminates columns k and k + 1 together.

    With (a, b), (c, d) and (x0, x1) the entries of rows k, k + 1 and i > k
    + 1 in those columns, c0 = ad - bc, u = c x1 - d x0 and v = a x1 - b x0
    are 2x2 minors, which prev, the leading (k+1)-minor, divides by
    Sylvester's identity; m[i][j] becomes (m[i][j] c0 + m[k][j] u - m[k+1][j]
    v) / prev^2, computed from c0, u and v over prev, which keeps the
    products a third smaller, and c0 / prev is the next prev.  A zero a or
    c0 is cured by swapping in the first later row that makes it nonzero,
    which flips the sign; with no such row the determinant is 0.

    A row with x0 = x1 = 0 is left stale: its true entries are stored *
    prev / scale[i], scale[i] the prev of the pass that last updated it (1
    at first), so a banded matrix such as a T(2,q) pencil takes quadratic,
    not cubic, work.  Row k is brought up to date as the pivot row; row
    k + 1 is read stale, the next prev is c0 / scale[k+1], and where either
    row is stale the update divides the undivided products by scale[i]
    scale[k+1].  The determinant is the last prev, for odd n times the
    last diagonal entry read through its scale.
    """
    n = len(rows)
    m = [list(row) for row in rows]
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    scale = [1] * n
    for k in range(0, n - 1, 2):
        k1, k2 = k + 1, k + 2
        if m[k][k] == 0:
            i = next((i for i in range(k1, n) if m[i][k]), 0)
            if not i:
                return 0
            m[k], m[i], scale[k], scale[i] = m[i], m[k], scale[i], scale[k]
            sign = -sign
        mk = m[k]
        if scale[k] != prev:
            mk[k:] = [x * prev // scale[k] for x in mk[k:]]
        a, b = mk[k], mk[k1]
        c0 = a * m[k1][k1] - b * m[k1][k]
        if c0 == 0:
            i = next((i for i in range(k2, n) if a * m[i][k1] - b * m[i][k]), 0)
            if not i:
                return 0
            m[k1], m[i], scale[k1], scale[i] = m[i], m[k1], scale[i], scale[k1]
            sign = -sign
            c0 = a * m[k1][k1] - b * m[k1][k]
        mk1 = m[k1]
        c, d, s1 = mk1[k], mk1[k1], scale[k1]
        pivot = c0 // s1
        for i in range(k2, n):
            mi = m[i]
            x0, x1 = mi[k], mi[k1]
            if x0 or x1:
                u, v, s = c * x1 - d * x0, a * x1 - b * x0, scale[i]
                if s == s1 == prev:
                    e, u, v = pivot, u // s, v // s
                else:
                    e, s = c0, s * s1
                for j in range(k2, n):
                    mi[j] = (mi[j] * e + mk[j] * u - mk1[j] * v) // s
                scale[i] = pivot
        prev = pivot
    if n % 2 == 0:
        return sign * prev
    return sign * m[n - 1][n - 1] * prev // scale[n - 1]


def _exact_quotient(n, d):
    """n / d for integers that d divides; CertificationFailure otherwise."""
    quotient, remainder = divmod(n, d)
    if remainder:
        raise CertificationFailure("an exact integer division left a remainder")
    return quotient


def _pseudo_remainder(a, b):
    """Remainder of lc(b)^(deg a - deg b + 1) * a divided by b, 1 <= deg b <= deg a.

    Ascending coefficient lists.  Horner form: the coefficients of a are
    brought down one at a time into a window of deg b coefficients, each
    scaled by the power of lc(b) the window has collected so far, so every
    step touches deg b coefficients and the dividend is never rescaled.
    The window shifts up in place, from the top, in one indexed pass per
    step; neither a nor b is changed.
    """
    n = len(b) - 1
    lc = b[-1]
    window = a[-n:]
    scale = 1
    for c in reversed(a[:-n]):
        top = window[-1]
        for j in range(n - 1, 0, -1):
            window[j] = lc * window[j - 1] - top * b[j]
        scale *= lc
        window[0] = scale * c - top * b[0]
    while window and window[-1] == 0:
        window.pop()
    return window


def resultant(f, g):
    """Exact resultant Res(f, g) = lc(f)^deg(g) * prod g(alpha) over roots of f.

    Subresultant polynomial remainder sequence (Collins 1967, Brown and
    Traub 1971; Cohen, A Course in Computational Algebraic Number Theory,
    Algorithm 3.3.7, without the content split): fraction-free Euclid on
    pseudo-remainders.  Its divisions are exact in theory; each step divides
    its subresultant in place, one coefficient at a time by divmod, and
    raises CertificationFailure on the first nonzero remainder.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("resultant requires nonzero polynomials")
    a, b = list(f.coeffs), list(g.coeffs)
    sign = 1
    if len(a) < len(b):
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
        a, b = b, a
    if len(b) == 1:
        return sign * b[0] ** (len(a) - 1)
    lead = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        divisor = lead * h**delta
        a, b = b, r
        if divisor != 1:
            for i, c in enumerate(r):
                q, rem = divmod(c, divisor)
                if rem:
                    raise CertificationFailure("a subresultant division is not exact")
                r[i] = q
        lead = a[-1]
        if delta == 1:
            h = lead
        elif delta:
            h = _exact_quotient(lead**delta, h ** (delta - 1))
        if len(b) == 1:
            da = len(a) - 1
            return sign * _exact_quotient(b[0] ** da, h ** (da - 1))
