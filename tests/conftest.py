import random

import pytest
from hypothesis import strategies as st

from knotconc.seifert import SeifertMatrix


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
def seifert_rows(draw):
    """Genus 1-3 Seifert matrix with entries in [-3, 3]: a symmetric part
    plus the standard symplectic V - V^t.  Singular draws are kept."""
    n = 2 * draw(st.integers(1, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            band = i % 2 == 0 and j == i + 1  # this entry minus 1 sits below it
            rows[i][j] = rows[j][i] = draw(st.integers(-2 if band else -3, 3))
    for i in range(0, n, 2):
        rows[i + 1][i] -= 1
    return rows


@pytest.fixture
def rng():
    return random.Random(20240817)
