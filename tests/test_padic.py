"""Truncated ring arithmetic: construction, lifts, roots of unity, valuation."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitroots.errors import (CompositeP, ConfigInvalid, NonUnitDivision,
                              PrecisionTooLow, ReduciblePolynomial)
from unitroots.padic import (FactorialUnits, RingElem, make_ring,
                             pi_pow_over_factorials, split_p, teichmueller,
                             valuation, zeta_p)


def rand_elem(ring, rng):
    return RingElem(ring, [[rng.randrange(ring.pN) for _ in range(ring.m)]
                           for _ in range(ring.npi)])


def test_make_ring_validation():
    with pytest.raises(CompositeP):
        make_ring(6, 1, None, 2)
    with pytest.raises(ReduciblePolynomial):
        make_ring(3, 2, (0, 0, 1), 2)  # t^2 factors
    with pytest.raises(PrecisionTooLow):
        make_ring(3, 1, None, 0)
    with pytest.raises(ConfigInvalid):
        make_ring(3, 0, None, 2)
    with pytest.raises(ConfigInvalid):
        make_ring(3, 2, (1, 0, 2), 2)  # not monic
    with pytest.raises(ConfigInvalid):
        make_ring(3, 2, (1, 1), 2)  # degree 1, not 2
    ring = make_ring(3, 2, (1, 0, 1), 2)  # t^2 + 1 is irreducible mod 3
    assert ring.g == (1, 0, 1)


def test_default_polynomial_is_deterministic():
    assert make_ring(3, 2, None, 2).g == (1, 0, 1)
    assert make_ring(2, 2, None, 2).g == (1, 1, 1)
    assert make_ring(2, 1, None, 3).g == (0, 1)


def test_p2_pi_is_minus_two(ring2):
    assert ring2.pi() == ring2.from_int(-2)
    assert (ring2.pi() ** 1 + ring2.from_int(2)).is_zero()


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (3, 2), (2, 2)])
def test_pi_relation(p, m):
    ring = make_ring(p, m, None, 4)
    assert (ring.pi() ** (p - 1) + ring.from_int(p)).is_zero()


def test_teichmueller_examples(ring3):
    assert teichmueller(ring3, (1,)) == ring3.one()
    # 2 in F_3 lifts to the order-2 root of unity, i.e. -1
    assert teichmueller(ring3, (2,)) == ring3.from_int(-1)
    r33 = make_ring(3, 1, None, 3)
    assert teichmueller(r33, (2,)).rows[0][0] == 26
    r5 = make_ring(5, 1, None, 2)
    assert teichmueller(r5, (2,)).rows[0][0] == 7
    assert teichmueller(ring3, (0,)).is_zero()


@pytest.mark.parametrize("p, m, N", [(2, 1, 1), (3, 1, 1), (5, 1, 1), (3, 2, 1),
                                     (2, 2, 25), (2, 3, 25), (3, 2, 19), (5, 1, 13)])
def test_teichmueller_fixed_point(p, m, N):
    # at N = 1 the lift is the digit itself; at boosted precisions it is
    # still the q-power map's fixed point over the residue it lifts (at
    # p = 2, m = 2 every digit lift is one already, as g = t^2 + t + 1)
    ring = make_ring(p, m, None, N)
    for xbar in itertools.product(range(p), repeat=m):
        t = teichmueller(ring, xbar)
        assert t ** (p ** m) == t, xbar
        assert tuple(c % p for c in t.rows[0]) == xbar
        assert not any(any(r) for r in t.rows[1:])


def test_teichmueller_multiplicative(rng):
    for p, m in ((3, 1), (5, 1), (3, 2)):
        ring = make_ring(p, m, None, 4)
        for _ in range(15):
            a = [rng.randrange(p) for _ in range(m)]
            b = [rng.randrange(p) for _ in range(m)]
            ab_bar = ring.from_tpoly(a) * ring.from_tpoly(b)
            ab = tuple(c % p for c in ab_bar.rows[0])
            assert teichmueller(ring, a) * teichmueller(ring, b) == \
                teichmueller(ring, ab)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_zeta_p(p):
    ring = make_ring(p, 1, None, 4)
    z = zeta_p(ring)
    assert (z ** p - ring.one()).is_zero()
    assert not (z - ring.one()).is_zero()
    # zeta == 1 + pi mod pi^2
    assert (z - ring.one() - ring.pi()).val_at_least(Fraction(2, p - 1))
    # cyclotomic polynomial vanishes
    phi = ring.zero()
    for k in range(p):
        phi = phi + z ** k
    assert phi.is_zero()
    # (zeta - 1)/pi is a unit: the orders coincide
    assert valuation(z - ring.one()) == Fraction(1, p - 1)


def test_zeta_p2_is_minus_one(ring2):
    assert zeta_p(ring2) == ring2.from_int(-1)


def test_zeta_precision_too_low():
    with pytest.raises(PrecisionTooLow):
        zeta_p(make_ring(2, 1, None, 1))


def test_valuation_examples(ring3):
    assert valuation(ring3.from_int(3)) == 1
    assert valuation(ring3.pi()) == Fraction(1, 2)
    assert valuation(ring3.zero()) is None
    assert valuation(ring3.from_int(9) * ring3.pi()) == Fraction(5, 2)


def test_valuation_multiplicative(rng, ring5):
    for _ in range(60):
        x, y = rand_elem(ring5, rng), rand_elem(ring5, rng)
        vx, vy = valuation(x), valuation(y)
        if vx is None or vy is None or vx + vy >= ring5.N:
            continue
        assert valuation(x * y) == vx + vy


def test_ring_laws(rng):
    for p, m in ((2, 1), (3, 1), (5, 1), (3, 2)):
        ring = make_ring(p, m, None, 3)
        xs = [rand_elem(ring, rng) for _ in range(8)]
        for _ in range(40):
            x, y, z = rng.choice(xs), rng.choice(xs), rng.choice(xs)
            assert x + y == y + x
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert (x + y) * z == x * z + y * z


def test_inverse_and_division_contract(ring3):
    x = ring3.from_int(5) + ring3.pi() * ring3.from_int(7)
    assert (x * x.inverse() - ring3.one()).is_zero()
    with pytest.raises(NonUnitDivision):
        ring3.from_int(3).inverse()
    with pytest.raises(NonUnitDivision):
        ring3.from_fraction(Fraction(1, 3))


# precisions with N(p-1) a power of two, and the next ones, where the
# ceil(log2 N(p-1)) Newton steps of a lift are exactly enough
LIFT_PRECISIONS = {2: (1, 2, 3, 4, 5, 8, 9, 16, 17), 3: (1, 2, 3, 4, 5, 8, 9),
                   5: (1, 2, 3, 4, 5)}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_inverse_of_every_residue_m2(p, rng):
    # each nonzero residue of F_(p^2), with random higher pi-digits, at
    # every precision of LIFT_PRECISIONS
    for N in LIFT_PRECISIONS[p]:
        ring = make_ring(p, 2, None, N)
        for a0, a1 in itertools.product(range(p), repeat=2):
            rows = [[rng.randrange(ring.pN) for _ in range(2)]
                    for _ in range(ring.npi)]
            rows[0] = [a0 + p * rng.randrange(p ** 2), a1 + p * rng.randrange(p ** 2)]
            x = RingElem(ring, rows)
            if (a0, a1) == (0, 0):
                with pytest.raises(NonUnitDivision):
                    x.inverse()
            else:
                assert x * x.inverse() == ring.one(), (p, N, a0, a1)


def test_divide_exact_p(ring3):
    x = ring3.from_int(18)
    assert x.divide_exact_p(1).rows[0][0] == 6
    with pytest.raises(NonUnitDivision):
        ring3.from_int(2).divide_exact_p(1)


def test_pi_pow_over_factorials(ring3):
    # ord(pi^k / k!) = digit_sum_3(k) / 2
    for k, s in ((1, 1), (3, 1), (4, 2), (9, 1), (13, 3)):
        e = pi_pow_over_factorials(ring3, k, (k,))
        assert valuation(e) == Fraction(s, 2)
    # multi-factorial combination from the splitting series
    e = pi_pow_over_factorials(ring3, 5, (1, 4))
    assert valuation(e) == Fraction(1 + 2, 2)


def test_reduce_to(ring3):
    low = make_ring(3, 1, None, 2)
    x = ring3.from_int(77)
    assert x.reduce_to(low).rows[0][0] == 77 % 9


def test_digit_serialization(ring3):
    x = ring3.from_int(5) + ring3.pi() * ring3.from_int(11)
    digs = x.digits()
    assert digs == [[5], [11]]
    assert RingElem(ring3, digs) == x


# --- integer pi-orders, property-based -------------------------------------

RINGS = {(p, m): make_ring(p, m, None, 3) for p in (2, 3, 5) for m in (1, 2)}
RING_KEYS = st.sampled_from(sorted(RINGS))


@st.composite
def ring_elems(draw, ring):
    """Random digits times a random power of pi, so every order occurs."""
    rows = [[draw(st.integers(0, ring.pN - 1)) for _ in range(ring.m)]
            for _ in range(ring.npi)]
    shift = draw(st.integers(0, ring.N * ring.npi))
    return RingElem(ring, rows) * ring.pi() ** shift


@settings(max_examples=150, deadline=None)
@given(RING_KEYS, st.data())
def test_order_laws(key, data):
    ring = RINGS[key]
    x, y = data.draw(ring_elems(ring)), data.draw(ring_elems(ring))
    for e in (x, y):
        v = e.order()
        assert e.valuation() == (None if v is None else Fraction(v, ring.npi))
        assert (v is None) == e.is_zero()
    vx, vy = x.order(), y.order()
    if vx is not None and vy is not None and vx + vy < ring.N * ring.npi:
        assert (x * y).order() == vx + vy
    bound = Fraction(data.draw(st.integers(0, 3 * ring.N * ring.npi)),
                     data.draw(st.integers(1, 6)))
    val = x.valuation()
    assert x.val_at_least(bound) == (val is None or val >= bound)


@settings(max_examples=150, deadline=None)
@given(RING_KEYS, st.lists(st.integers(0, 40), min_size=1, max_size=3))
def test_pi_pow_over_factorials_reference(key, fs):
    # pi^k at precision N + v, divided by p^v and by the unit u, where
    # prod f! = p^v u, is pi^k / prod f! mod p^N
    ring = RINGS[key]
    k = sum(fs)
    v, u = split_p(math.prod(math.factorial(f) for f in fs), ring.p)
    high = make_ring(ring.p, ring.m, ring.g, ring.N + v)
    ref = (high.pi() ** k).divide_exact_p(v) * high.from_int(u).inverse()
    assert pi_pow_over_factorials(ring, k, fs) == ref.reduce_to(ring)


# --- factorial unit parts by the generalized Wilson theorem -----------------

@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_factorial_units_match_direct_products(p, N):
    ring = make_ring(p, 1, None, N)
    units = FactorialUnits(ring)
    # the product of the units of one block of p^N is +1 for p = 2, N >= 3
    block = math.prod(j for j in range(1, ring.pN) if j % p) % ring.pN
    assert block == (1 if p == 2 and N >= 3 else ring.pN - 1)
    v, u = 0, 1
    for n in range(1, 3 * ring.pN + p + 2):
        dv, du = split_p(n, p)
        v, u = v + dv, u * du % ring.pN
        assert units(n) == (v, u), (p, N, n)
    assert units(0) == units(1) == (0, 1)
    for n in (p ** (N + 2) + 7, 5 * p ** (N + 1) - 1, 1000):
        v, u = split_p(math.factorial(n), p)
        assert units(n) == (v, u % ring.pN), (p, N, n)


def test_factorial_units_grow_only_as_needed():
    # the splitting series asks for small factorials at high precision
    ring = make_ring(5, 1, None, 11)
    units = FactorialUnits(ring)
    units(40)
    assert len(units.prefix) == 41
