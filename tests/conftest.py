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


def mobius(n):
    """The Moebius function, by trial division."""
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def artin_hasse_reference(p, nmax):
    """a_0..a_nmax of the Artin-Hasse exponential from the Dieudonne-Dwork
    product prod_((n, p) = 1) (1 - t^n)^(-mu(n)/n), in Fractions, each
    factor a binomial series: no recurrence of the code under test."""
    series = [Fraction(1)] + [Fraction(0)] * nmax
    for n in range(1, nmax + 1):
        c = Fraction(-mobius(n), n)
        if n % p == 0 or not c:
            continue
        factor, binom = [Fraction(0)] * (nmax + 1), Fraction(1)
        for k in range(nmax // n + 1):
            factor[n * k] = binom * (-1) ** k
            binom = binom * (c - k) / (k + 1)
        series = [sum(series[i] * factor[e - i] for i in range(e + 1))
                  for e in range(nmax + 1)]
    return series
