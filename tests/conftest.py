import math
import random
from fractions import Fraction

import pytest

from unitroots.padic import make_ring


@pytest.fixture(scope="session")
def ring3():
    return make_ring(3, 1, None, 4)


@pytest.fixture(scope="session")
def ring2():
    return make_ring(2, 1, None, 4)


@pytest.fixture(scope="session")
def ring5():
    return make_ring(5, 1, None, 4)


@pytest.fixture()
def rng():
    return random.Random(987123)


def pi_pow_reference(ring, k, fs):
    """pi^k / prod f! from its definition, with no factorial-unit table:
    pi^k = pi^(k mod (p-1)) (-p)^floor(k/(p-1)), so it is the rational
    (-p)^floor(k/(p-1)) / prod f! in pi-row k mod (p-1)."""
    fr = Fraction((-ring.p) ** (k // ring.npi), math.prod(map(math.factorial, fs)))
    return ring.from_fraction(fr) * ring.pi() ** (k % ring.npi)
