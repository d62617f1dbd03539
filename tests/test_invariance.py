"""Invariance oracles: what knotconc prints depends on V only through its
S-equivalence class (Trotter, On S-equivalence of Seifert matrices, 1973),
with Delta up to the units +-t^k, and obeys the laws of connected sums and
mirrors.

These checks share no code path with what they check beyond the command or
function under test: W is built from V here, by unimodular congruences
P^t V P and elementary enlargements, and the laws are compared across
separate calls.  The witness schedule depends on the genus through its term
count, so only witness's q and witness cover are compared.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_run, seifert_rows
from knotconc.covers import cover_order
from knotconc.exactpoly import factorize
from knotconc.seifert import SeifertMatrix, alexander, connected_sum, mirror
from knotconc.signatures import JUMP, signature_profile

COMMANDS = (
    ["alexander"],
    ["covers", "--max-r", "12"],
    ["classify"],
    ["signature", "--q", "12"],
    ["witness", "--count", "1"],
)
PRIME_POWERS = [r for r in range(2, 17) if len(factorize(r)) == 1]


def _unit_free(coefficients):
    """Ascending coefficients of +-t^k p, normalized to p(0) > 0."""
    c = [int(x) for x in coefficients]
    c = c[next(i for i, x in enumerate(c) if x):]
    return [x if c[0] > 0 else -x for x in c]


def _invariants(argv, rows):
    """What argv prints on rows that S-equivalence preserves."""
    code, doc = json_run(argv, rows)
    if doc is None:
        return code
    command = doc["command"]
    if command == "alexander":
        return _unit_free(doc["alexander"]["coefficients"]), doc["determinant"]
    if command == "covers":
        return doc["covers"]
    if command == "classify":
        remainder = doc["non_cyclotomic_remainder"]["coefficients"]
        for key in ("name", "alexander", "non_cyclotomic_remainder"):
            del doc[key]
        return doc, _unit_free(remainder)
    if command == "signature":
        return doc["profile"]
    return doc["q"], doc["witness_cover"]


@st.composite
def s_equivalent_pair(draw):
    """(V, W): W from V by up to two elementary enlargements and a
    congruence by a product of elementary unimodular matrices."""
    rows = draw(seifert_rows())
    V = [list(r) for r in rows]
    W = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        n = len(W)
        xi = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        # [[W, xi, 0], [0, 0, 0], [0, 1, 0]] or its transpose-type twin
        # [[W, 0, 0], [xi^t, 0, 0], [0, 1, 0]]; both keep det(W - W^t) = 1.
        if draw(st.booleans()):
            W = [r + [x, 0] for r, x in zip(W, xi)] + [[0] * (n + 2)]
        else:
            W = [r + [0, 0] for r in W] + [xi + [0, 0]]
        W.append([0] * n + [1, 0])
    n = len(W)
    for _ in range(draw(st.integers(0, 4))):
        # W -> E^t W E for E = I + c e_i e_j^t: add c times column i to
        # column j, then c times row i to row j.
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        if i == j:
            continue
        for r in W:
            r[j] += c * r[i]
        W[j] = [a + c * b for a, b in zip(W[j], W[i])]
    if draw(st.booleans()):  # a permutation is unimodular too
        order = draw(st.permutations(range(n)))
        W = [[W[a][b] for b in order] for a in order]
    return V, W


@settings(max_examples=120, deadline=None, derandomize=True)
@given(pair=s_equivalent_pair())
def test_s_equivalent_matrices_print_the_same_invariants(pair):
    V, W = pair
    assert SeifertMatrix(W).validate() is None
    for argv in COMMANDS:
        expected = _invariants(argv, V)
        assert argv[0] == "witness" or not isinstance(expected, int), expected
        assert _invariants(argv, W) == expected, (argv, V, W)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(first=seifert_rows(), second=seifert_rows(), q=st.integers(2, 12))
def test_connected_sum_multiplies_orders_and_adds_signatures(first, second, q):
    V1, V2 = SeifertMatrix(first), SeifertMatrix(second)
    K = connected_sum(V1, V2)
    for r in range(2, 13):
        o1, o2 = cover_order(alexander(V1), r), cover_order(alexander(V2), r)
        expected = o1 * o2 if None not in (o1, o2) else None
        assert cover_order(alexander(K), r) == expected
    s1, s2 = signature_profile(V1, q), signature_profile(V2, q)
    for a, value in signature_profile(K, q).items():
        if JUMP in (s1[a], s2[a]):
            assert value is JUMP
        else:
            assert value == s1[a] + s2[a]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rows=seifert_rows(), q=st.integers(2, 12))
def test_mirror_negates_signatures(rows, q):
    V = SeifertMatrix(rows)
    mirrored = signature_profile(mirror(V), q)
    for a, value in signature_profile(V, q).items():
        assert mirrored[a] is JUMP if value is JUMP else mirrored[a] == -value


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rows=seifert_rows(), q=st.integers(2, 12))
def test_k_sum_minus_k_has_square_orders_and_zero_signatures(rows, q):
    V = SeifertMatrix(rows)
    K = connected_sum(V, mirror(V))
    delta = alexander(K)
    for r in PRIME_POWERS:
        order = cover_order(delta, r)
        assert order is not None and math.isqrt(order) ** 2 == order
    assert all(v is JUMP or v == 0 for v in signature_profile(K, q).values())
