"""Truncated ring arithmetic: construction, lifts, roots of unity, valuation."""

import gc
import inspect
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitroots import padic
from unitroots.dwork import regular_representation, ring_array_mul
from unitroots.errors import (CompositeP, ConfigInvalid, NonUnitDivision,
                              PrecisionTooLow, ReduciblePolynomial)
from unitroots.padic import (FactorialUnits, RingElem, RingSpec, make_ring,
                             pi_pow_digits, split_p, teichmueller, valuation,
                             zeta_p)

from conftest import artin_hasse_reference, pi_pow_reference


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
    assert teichmueller(r33, (2,)).slots[0] == 26
    r5 = make_ring(5, 1, None, 2)
    assert teichmueller(r5, (2,)).slots[0] == 7
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
        assert tuple(c % p for c in t.digits()[0]) == xbar
        assert not any(t.slots[m:])


def test_teichmueller_multiplicative(rng):
    for p, m in ((3, 1), (5, 1), (3, 2)):
        ring = make_ring(p, m, None, 4)
        for _ in range(15):
            a = [rng.randrange(p) for _ in range(m)]
            b = [rng.randrange(p) for _ in range(m)]
            ab_bar = ring.from_tpoly(a) * ring.from_tpoly(b)
            ab = tuple(c % p for c in ab_bar.digits()[0])
            assert teichmueller(ring, a) * teichmueller(ring, b) == \
                teichmueller(ring, ab)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zeta_p(p):
    for m, N in itertools.product([1, 2], [2, 4, 8, 13]):
        ring = make_ring(p, m, None, N)
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


def test_zeta_p_keeps_no_ring():
    # equal-key rings get equal roots, each on its own ring, and with the
    # cyclic collector off no ring outlives its last reference
    def rings():
        return sum(isinstance(o, RingSpec) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = rings()
        first, second = make_ring(5, 2, None, 7), make_ring(5, 2, None, 7)
        assert first is not second and first.key == second.key
        z1, z2 = zeta_p(first), zeta_p(second)
        assert z1 == z2 and z2.spec is second
        del first, second, z1, z2
        assert rings() == before
    finally:
        gc.enable()


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
    assert x.divide_exact_p(1).slots[0] == 6
    with pytest.raises(NonUnitDivision):
        ring3.from_int(2).divide_exact_p(1)


def pi_pow_elems(ring, ks, fss):
    """pi_pow_digits' (row, digit) pairs for the k and factorial tuples, as
    ring elements."""
    rows, digits = pi_pow_digits(ring, np.array(ks), np.array(fss))
    return [ring.from_slots([0] * (r * ring.m) + [d])
            for r, d in zip(rows.tolist(), digits.tolist())]


def test_pi_pow_over_factorials(ring3):
    # ord(pi^k / k!) = digit_sum_3(k) / 2
    cases = ((1, 1), (3, 1), (4, 2), (9, 1), (13, 3))
    got = pi_pow_elems(ring3, [k for k, _ in cases], [(k,) for k, _ in cases])
    for (k, s), e in zip(cases, got):
        assert valuation(e) == Fraction(s, 2)
        assert e == pi_pow_reference(ring3, k, (k,))
    # a multi-factorial combination, as route A's sums read them
    e, = pi_pow_elems(ring3, [5], [(1, 4)])
    assert valuation(e) == Fraction(1 + 2, 2)
    assert e == pi_pow_reference(ring3, 5, (1, 4))


def test_reduce_to(ring3):
    low = make_ring(3, 1, None, 2)
    x = ring3.from_int(77)
    assert x.reduce_to(low).slots[0] == 77 % 9


def test_digit_serialization(ring3):
    x = ring3.from_int(5) + ring3.pi() * ring3.from_int(11)
    digs = x.digits()
    assert digs == [[5], [11]]
    assert RingElem(ring3, digs) == x


def test_digit_matrix_constructor_validates(ring3):
    # entries are read through operator.index: numpy integers pass and are
    # stored as Python ints; floats, strings and other shapes raise
    x = RingElem(ring3, np.array([[7], [-1]], dtype=np.int64))
    assert x.slots == (7, 80) and all(type(c) is int for c in x.slots)
    for bad in ([[1.5], [0]], [["7"], [0]], [[1], [0], [0]], [[1, 0], [0, 0]],
                [1, 0]):
        with pytest.raises(ValueError):
            RingElem(ring3, bad)


def test_ring_elem_has_one_storage(ring3):
    # the flat slots are the only storage, and the digit-matrix constructor
    # takes no flag that skips its validation
    assert RingElem.__slots__ == ("spec", "slots")
    assert not hasattr(ring3.one(), "rows")
    assert list(inspect.signature(RingElem).parameters) == ["spec", "digits"]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2])
def test_ring_array_round_trip(p, m):
    # ring arrays and elements share the slot order j*m + s of RingSpec.law
    spec = make_ring(p, m, None, 4)
    X = np.random.default_rng(p * 10 + m).integers(0, spec.pN, (9, spec.npi, m))
    elems = padic.ring_elems(spec, X)
    assert np.array_equal(padic.ring_array(elems), X)
    for x, block in zip(elems, X):
        assert x.slots == tuple(block.ravel().tolist())
        assert x == RingElem(spec, block)


def test_ring_array_past_the_int64_rule():
    # ring_array is the one bridge into int64 ring arrays: it converts at
    # 5^13, the last int64 modulus, and raises PrecisionTooLow naming p^N one
    # digit past it and past 2^63, where a residue no longer fits int64.  So
    # do matmul_mod and regular_representation, the GEMM's right operand,
    # where unreduced_terms(p^N) is 0, on operands that int64 holds
    last = make_ring(5, 1, None, 13)
    assert padic.ring_array([last.from_int(-1)]).tolist() == \
        [[[5 ** 13 - 1], [0], [0], [0]]]
    one = np.ones((1, 1), dtype=np.int64)
    assert padic.matmul_mod(one, one, last.pN).tolist() == [[1]]
    rep = regular_representation(last, np.ones((1, 1, 4, 1), dtype=np.int64), np.arange(4))
    assert rep.matrix[0].tolist() == [1, 1, 1, 1]
    for p, N in ((5, 14), (2, 70)):
        ring = make_ring(p, 1, None, N)
        B = np.ones((1, 1, ring.npi, 1), dtype=np.int64)
        for call in (lambda: padic.ring_array([ring.from_int(-1)]),
                     lambda: padic.matmul_mod(one, one, ring.pN),
                     lambda: regular_representation(ring, B, np.arange(ring.npi))):
            with pytest.raises(PrecisionTooLow, match=re.escape(
                    f"p^N = {p ** N} has (p^N - 1)^2 + p^N >= 2^63")):
                call()


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


@settings(max_examples=100, deadline=None)
@given(RING_KEYS, st.data())
def test_subtraction_adds_the_negative(key, data):
    ring = RINGS[key]
    x, y = data.draw(ring_elems(ring)), data.draw(ring_elems(ring))
    assert x - y == x + (-y)
    assert (x - y) + y == x and -(-x) == x


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
    assert pi_pow_reference(ring, k, fs) == ref.reduce_to(ring)
    assert pi_pow_elems(ring, [k], [fs]) == [ref.reduce_to(ring)]


# --- factorial unit parts by the generalized Wilson theorem -----------------

@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_factorial_units_match_direct_products(p, N):
    # n runs over three blocks of p^N and past them, so the block sign
    # enters at each Wilson step of the array lookup
    ring = make_ring(p, 1, None, N)
    units = FactorialUnits(ring)
    # the product of the units of one block of p^N is +1 for p = 2, N >= 3
    block = math.prod(j for j in range(1, ring.pN) if j % p) % ring.pN
    assert block == (1 if p == 2 and N >= 3 else ring.pN - 1)
    want, v, u = [(0, 1)], 0, 1
    for n in range(1, 3 * ring.pN + p + 2):
        dv, du = split_p(n, p)
        v, u = v + dv, u * du % ring.pN
        want.append((v, u))
    big = [p ** (N + 2) + 7, 5 * p ** (N + 1) - 1, 1000]
    for n in big:
        v, u = split_p(math.factorial(n), p)
        want.append((v, u % ring.pN))
    ns = list(range(3 * ring.pN + p + 2)) + big
    v, inv = units.inverses(np.array(ns))
    for n, (dv, du), got_v, got_inv in zip(ns, want, v.tolist(), inv.tolist()):
        assert (got_v, got_inv * du % ring.pN) == (dv, 1), (p, N, n)
    # the one table inverts the prefix products of the units, entry by entry
    prefix = list(itertools.accumulate((j if j % p else 1 for j in range(ring.pN)),
                                       lambda a, j: a * j % ring.pN))
    assert len(units.inverse_prefix) == ring.pN
    assert [t * i % ring.pN for t, i in zip(prefix, units.inverse_prefix.tolist())] \
        == [1] * ring.pN
    assert units.last == prefix[-1]


def test_factorial_units_past_the_int64_rule():
    # past the rule the table holds Python integers, and the lookup stays
    # exact: 3^40 squared is past 2^63
    ring = make_ring(3, 1, None, 40)
    units = FactorialUnits(ring)
    n = [0, 1, 2, 40, 200, 3 ** 5 + 5]
    v, inv = units.inverses(np.array(n))
    for x, got_v, got_inv in zip(n, v.tolist(), inv.tolist()):
        dv, du = split_p(math.factorial(x), 3)
        assert (got_v, got_inv * du % ring.pN) == (dv, 1), x
    assert units.inverse_prefix.dtype == object


def test_factorial_units_grow_only_as_needed():
    # a short sum asks for small factorials at high precision
    ring = make_ring(5, 1, None, 11)
    units = FactorialUnits(ring)
    units.inverses(np.array([40]))
    assert len(units.inverse_prefix) == 41


def test_rings_of_one_p_and_n_share_their_factorial_table():
    # the table depends on p and N alone, so a ring of another m or g reads
    # the same one, and a new ring of a known (p, N) builds none
    a, b = make_ring(3, 1, None, 6), make_ring(3, 2, None, 6)
    assert a.factorials is b.factorials is padic._FACTORIALS[3, 6]
    assert make_ring(3, 1, None, 7).factorials is not a.factorials
    assert vars(a.factorials).keys() == {"p", "pN", "block", "inverse_prefix", "last"}


# --- the int64 product step -------------------------------------------------

def _product_reference(ring, X, Y):
    """X times Y elementwise by RingElem products, as an int64 ring array of
    the broadcast shape."""
    shape = np.broadcast_shapes(X.shape[:-2], Y.shape[:-2])
    X = np.broadcast_to(X, shape + X.shape[-2:]).reshape(-1, ring.npi, ring.m)
    Y = np.broadcast_to(Y, shape + Y.shape[-2:]).reshape(-1, ring.npi, ring.m)
    Z = [(RingElem(ring, x.tolist()) * RingElem(ring, y.tolist())).slots
         for x, y in zip(X, Y)]
    return np.array(Z, dtype=np.int64).reshape(shape + (ring.npi, ring.m))


def _operands(ring, rng, full=False):
    """(X, Ys): X of shape (3, 4), and Y at every broadcast shape against
    it; random residues with about a third of the slots 0 in every entry,
    or every slot p^N - 1 when full, and an all-zero Y."""
    def draw(batch):
        if full:
            return np.full(batch + (ring.npi, ring.m), ring.pN - 1, dtype=np.int64)
        X = rng.integers(0, ring.pN, batch + (ring.npi, ring.m))
        X[..., rng.random((ring.npi, ring.m)) < 1 / 3] = 0
        return X
    X = draw((3, 4))
    return X, [draw((3, 4)), draw((4,)), draw((3, 1)), draw(()),
               np.zeros((3, 4, ring.npi, ring.m), dtype=np.int64)]


def _check_products(ring, X, Ys):
    # ring_array_mul on every pair, both ways round, and law_product on pi-row 0
    # alone, against RingElem products
    for Y in Ys:
        for A, B in ((X, Y), (Y, X)):
            Z = ring_array_mul(ring, A, B)
            assert Z.dtype == np.int64
            assert np.array_equal(Z, _product_reference(ring, A, B)), Y.shape
            A0, B0 = np.zeros_like(A), np.zeros_like(B)
            A0[..., 0, :], B0[..., 0, :] = A[..., 0, :], B[..., 0, :]
            Z = padic.law_product(ring, A[..., 0, :], B[..., 0, :])
            assert np.array_equal(Z, _product_reference(ring, A0, B0)[..., 0, :])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [4, 8])
def test_product_step_matches_ring_elements(p, m, N):
    ring = make_ring(p, m, None, N)
    rng = np.random.default_rng(100 * p + 10 * m + N)
    _check_products(ring, *_operands(ring, rng))


@pytest.mark.parametrize("p, last", [(2, 31), (3, 19), (5, 13)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_step_at_the_last_moduli(p, last, m):
    # every slot p^N - 1, the largest sum each step can meet; here
    # unreduced_terms is 2 (2^31) or 6, so 2^31 at m = 3 and 5^13 at m >= 2
    # reduce between matmul blocks
    ring = make_ring(p, m, None, last)
    room = padic.unreduced_terms(ring.pN)
    assert room * (ring.pN - 1) ** 2 + ring.pN < 2 ** 63
    assert (room + 1) * (ring.pN - 1) ** 2 + ring.pN >= 2 ** 63
    assert room == (2 if p == 2 else 6)
    _check_products(ring, *_operands(ring, None, full=True))
    past = make_ring(p, m, None, last + 1)
    X = np.ones((2, past.npi, m), dtype=np.int64)
    with pytest.raises(PrecisionTooLow):
        ring_array_mul(past, X, X)
    with pytest.raises(PrecisionTooLow):
        padic.law_product(past, X[:, 0], X[:, 0])


@pytest.mark.parametrize("p, m, N", [(3, 2, 5), (2, 2, 5), (5, 1, 4)])
def test_each_slot_pattern_gets_its_own_plan(monkeypatch, p, m, N):
    # two operands on one ring whose nonzero slots differ: each regular
    # representation reads its own plan, made once, and each is right, its
    # entries centred as RingElem products are.  At p = 2 the modulus is
    # even: the operands hold h = 2^(N-1) and h + 1, where the centring
    # tie lies, both as planes that are copied and, through
    # t * t^-1 (h + (h+1) t), as sums of wrapped terms; at p = 5 pi^j wraps
    # by -p
    monkeypatch.setattr(padic, "_PLANS", {})
    ring = make_ring(p, m, None, N)
    S, h = ring.npi * m, ring.pN // 2
    rng = np.random.default_rng(7)
    full = rng.integers(1, ring.pN, (3, 2, ring.npi, m))
    if p == 2:
        flat = full.reshape(3, 2, S)
        flat[0, 0] = [h, h + 1]
        flat[0, 1] = (ring.from_slots([0, 1]).inverse() * ring.from_slots([h, h + 1])).slots
    sparse = full.copy()
    sparse.reshape(3, 2, S)[..., 1:] = 0  # slot 0 alone
    slots = np.arange(S)
    for B in (full, sparse, full, sparse):
        rep = regular_representation(ring, B, slots)
        for b in range(B.shape[0]):
            for col in range(B.shape[1]):
                y = RingElem(ring, B[b, col].tolist())
                for n in slots.tolist():
                    want = np.array((ring.from_slots([0] * n + [1]) * y).slots)
                    want = np.where(want > ring.pN // 2, want - ring.pN, want)
                    width = len(rep.kept)
                    got = rep.matrix[b * len(slots) + n, col * width:(col + 1) * width]
                    assert np.array_equal(got, want[rep.kept])
                    assert not want[np.setdiff1d(slots, rep.kept)].any()
    if p == 2:
        rep = regular_representation(ring, full, slots).matrix
        # row t of column 1 is h + (h+1) t, both of its slots wrapped sums;
        # row 1 of column 0 copies h and h + 1
        assert np.array_equal(rep[1, 2:], [h, h + 1 - ring.pN])
        assert (rep[0, :2] == [h, h + 1 - ring.pN]).all()
    key = ring.key, tuple(slots.tolist())
    assert set(padic._PLANS) == {key + (tuple(range(S)),), key + ((0,),)}
    assert padic.law_plan(ring, *key[1:], (0,)) is padic._PLANS[key + ((0,),)]


def _limb_product(X, Y, p, N):
    # X @ Y mod p^N on the float64 back end: X cut by split_limbs, Y
    # centred, one GEMM a limb, each folded in by accumulate_limb
    pN = p ** N
    right = padic.centred_mod(Y, pN).astype(np.float64)
    out = np.zeros((X.shape[0], Y.shape[1]), dtype=np.int64)
    rows = np.arange(X.shape[0])
    for i, (factor, limb) in enumerate(padic.split_limbs(X.astype(np.float64), p, N)):
        padic.accumulate_limb(out, rows, limb @ right, factor, pN, i > 0)
    return out


@pytest.mark.parametrize("p, N", [(2, 31), (3, 19), (5, 13)])
def test_matmul_mod_at_the_last_moduli(p, N):
    # X @ Y mod p^N against Python integers over contractions of 0, 1,
    # room, room + 1 and 3 room + 1 terms, room = unreduced_terms(p^N):
    # each chunk, the last ones on a reduced residue, holds the largest sum
    # the rule allows.  Every entry is p^N - 1, or -(p^N - 1) as centred
    # operands may hold, or a seeded draw; X's batch axes broadcast against
    # Y's, and Y has a 0-d batch, as law_product gives it for a scalar
    # operand.  The result lies in [0, p^N); an empty contraction is zeros.
    # The float64 back end is taken at the largest contraction K each limb
    # width e covers, K floor(p^e/2) floor(p^N/2) < 2^53, and at K + 1,
    # where the width drops, on entries +-floor(p^N/2) and p^N - 1: the
    # widths with K up to 2^15, since at e = 1 K is in the millions
    pN = p ** N
    room = padic.unreduced_terms(pN)
    assert room == (2 ** 63 - 1 - pN) // (pN - 1) ** 2
    h = pN // 2
    entries = [h, pN - h, pN - 1]
    widths = 0
    for e in range(1, N + 1):
        K = padic.exact_terms(p ** e // 2, h, 2 ** 53)
        if not 0 < K <= 2 ** 15:
            continue
        widths += 1
        assert K * (p ** e // 2) * h < 2 ** 53 <= (K + 1) * (p ** e // 2) * h
        assert padic.limb_digits(K, p, N) == e > padic.limb_digits(K + 1, p, N)
        for k in (K, K + 1):
            X = np.repeat(np.array(entries, dtype=np.int64)[:, None], k, axis=1)
            got = _limb_product(X, X.T.copy(), p, N)
            assert got.tolist() == [[k * a * b % pN for b in entries] for a in entries], (e, k)
    assert widths == {2: 15, 3: 9, 5: 6}[p]
    rng = np.random.default_rng(N)
    for k in (0, 1, room, room + 1, 3 * room + 1):
        operands = [(np.full((2, 1, 3, k), sx * (pN - 1), dtype=np.int64),
                     np.full((4, k, 2), sy * (pN - 1), dtype=np.int64))
                    for sx, sy in ((1, 1), (1, -1), (-1, -1))]
        operands += [(rng.integers(1 - pN, pN, (2, 1, 3, k)), rng.integers(1 - pN, pN, (4, k, 2))),
                     (rng.integers(1 - pN, pN, (3, 1, k)), rng.integers(1 - pN, pN, (k, 2))),
                     (rng.integers(1 - pN, pN, (1, k)), rng.integers(1 - pN, pN, (k, 2)))]
        for X, Y in operands:
            got = padic.matmul_mod(X, Y, pN)
            want = np.matmul(X.astype(object), Y.astype(object)) % pN
            assert got.dtype == np.int64 and got.shape == want.shape
            assert ((0 <= got) & (got < pN)).all()
            assert got.tolist() == want.tolist(), (k, X.shape, Y.shape)
            if not k:
                assert not got.any()


@pytest.mark.parametrize("p, N", [(2, 31), (3, 19), (5, 13)])
def test_wrapped_sum_is_centred_at_the_last_moduli(p, N):
    # a wrapped column as law_rows forms it, matmul_mod and then
    # centred_mod: plane 0 and every coefficient p^N - 1, over 3
    # unreduced_terms(p^N) terms, so each chunk of terms, the last one on a
    # reduced residue, holds the largest sum the rule allows.  Plane 1 is 1,
    # so its sum is -terms mod p^N, above floor(p^N/2) as a residue.  Each
    # result is the centred residue of the exact sum; a sum or centring step
    # that wrapped int64 would be off by 2^64, which p^N divides only at
    # p = 2, where the wrap cancels exactly
    pN = p ** N
    terms = 3 * padic.unreduced_terms(pN)
    planes = np.tile(np.array([[pN - 1, 1]], dtype=np.int64), (terms, 1))
    coef = np.full((1, terms), pN - 1, dtype=np.int64)
    got = padic.centred_mod(padic.matmul_mod(coef, planes, pN), pN)[0]
    assert got.dtype == np.int64
    for value, exact in zip(got.tolist(), (terms * (pN - 1) ** 2, terms * (pN - 1))):
        assert -((pN - 1) // 2) <= value <= pN // 2 and (exact - value) % pN == 0
    assert got.tolist() == [terms, -terms]


def test_splitting_memo_matches_a_fresh_series(monkeypatch):
    # below, at and above the length an earlier call left in the memo, the
    # series is the one a fresh computation gives, and a ring of the same p
    # and N but another m reads the same digits
    monkeypatch.setattr(padic, "_SPLITTING", {})
    ring = make_ring(5, 2, None, 6)
    first = padic.splitting_coefficients(ring, 20)
    assert [len(part) for part in padic._SPLITTING[5, 6]] == [21, 21]
    for k in (12, 20, 31):
        got = padic.splitting_coefficients(ring, k)
        with monkeypatch.context() as fresh:
            fresh.setattr(padic, "_SPLITTING", {})
            want = padic.splitting_coefficients(ring, k)
        assert len(got) == k + 1 and (got.a, got.gpow) == (want.a, want.gpow)
        assert got.b == want.b
        assert (got.a[:21], got.gpow[:21]) == (first.a[:k + 1], first.gpow[:k + 1])
    assert [len(part) for part in padic._SPLITTING[5, 6]] == [32, 32]
    other = make_ring(5, 1, None, 6)
    assert (padic.splitting_coefficients(other, 31).a,
            padic.splitting_coefficients(other, 31).gpow) == (got.a, got.gpow)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_artin_hasse_matches_the_dieudonne_dwork_product(p):
    # the recurrence e a_e = sum_j a_(e - p^j) against the product
    # prod_((n,p)=1) (1 - t^n)^(-mu(n)/n), exactly; every a_e is p-integral,
    # and the ring's digits are the reference's residues
    ref = artin_hasse_reference(p, 48)
    assert padic.artin_hasse(p, 48) == ref
    assert all(f.denominator % p for f in ref)
    for N in (4, 8):
        ring = make_ring(p, 1, None, N)
        sc = padic.splitting_coefficients(ring, 48)
        assert sc.a == tuple(f.numerator * pow(f.denominator, -1, ring.pN) % ring.pN
                             for f in ref)


@pytest.mark.parametrize("p, N", [(2, 4), (2, 12), (3, 8), (5, 8), (7, 4), (31, 4)])
def test_gamma_is_the_root_of_the_artin_hasse_logarithm(p, N):
    # gamma == pi (mod pi^2) and sum_j gamma^(p^j)/p^j = 0 mod p^N, summed in
    # a ring N digits wider over j < N, far past the last term the code
    # keeps: term j has ord p^j/(p-1) - j
    ring = make_ring(p, 1, None, N)
    gamma = padic.splitting_coefficients(ring, 1)[1]
    assert (gamma - ring.pi()).order() is None or (gamma - ring.pi()).order() >= 2
    assert gamma.order() == 1
    wide = make_ring(p, 1, ring.g, 2 * N)
    g = wide.from_slots(gamma.slots)
    total = wide.zero()
    for j in range(N):
        total = total + (g ** p ** j).divide_exact_p(j)
    assert total.reduce_to(ring).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_splitting_series_sums_to_zeta_p(p):
    # theta(1) = sum_e b_e is zeta_p, each b_e = a_e gamma^e of order at
    # least e/(p-1), and exactly that where p does not divide a_e
    for m, N in itertools.product([1, 2], [4, 8, 12]):
        ring = make_ring(p, m, None, N)
        cut = padic.kernel_cut(ring)
        sc = padic.splitting_coefficients(ring, cut + 3)
        gamma = sc[1]
        assert sum(sc.b[:cut + 1], ring.zero()) == zeta_p(ring)
        assert all(b.is_zero() for b in sc.b[cut + 1:])
        for e, (a, b) in enumerate(zip(sc.a, sc.b)):
            assert b == gamma ** e * a
            assert b.order() is None or b.order() >= e
            if e <= cut and a % p:
                assert b.order() == e


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                  (5, 1), (5, 2)])
def test_splitting_identity_at_teichmueller_points(p, m):
    # prod_(i < m) theta(x^(p^i)) = zeta_p^(Tr x-bar) at the Teichmueller
    # lift x of every x-bar in F_q: Dwork's additive character, so the
    # trace formula reads the same sums as with any other splitting
    # function.  Tr x-bar is sum_i x^(p^i) mod p, an integer there
    ring = make_ring(p, m, None, 4)
    sc = padic.splitting_coefficients(ring, padic.kernel_cut(ring))
    zeta = zeta_p(ring)
    for xbar in itertools.product(range(p), repeat=m):
        x = teichmueller(ring, xbar)
        conj = [x ** p ** i for i in range(m)]
        tr = sum(conj, ring.zero())
        assert all(c % p == 0 for c in tr.slots[1:]), xbar
        value = ring.one()
        for y in conj:
            value = value * padic.horner(list(sc.b), y)
        assert value == zeta ** (tr.slots[0] % p), xbar


@pytest.mark.parametrize("p, m, N", [(p, m, N) for p, last in ((2, 31), (3, 19), (5, 13))
                                     for m in (1, 2) for N in (4, last)])
def test_newton_root_inverts_once(monkeypatch, p, m, N):
    # f = (T - r) h(T) with r and h(r) units, so r is f's one root congruent
    # to r mod pi, and simple; from x = r + pi w the lift returns r with one
    # inverse, of f'(x), at N = 4 and at the int64 rule's last N
    import random
    ring = make_ring(p, m, None, N)
    rng = random.Random(p * 100 + m * 10 + N)
    while True:
        r, w = rand_elem(ring, rng), rand_elem(ring, rng)
        h = [rand_elem(ring, rng) for _ in range(3)] + [ring.one()]
        if r.is_unit() and padic.horner(h, r).is_unit() and not (ring.pi() * w).is_zero():
            break
    f = [-r * h[0]] + [c - r * d for c, d in zip(h, h[1:])] + [h[-1]]
    assert padic.horner(f, r).is_zero()
    inverses = []
    inverse = RingElem.inverse
    monkeypatch.setattr(RingElem, "inverse",
                        lambda self: inverses.append(self) or inverse(self))
    assert padic.newton_root(f, r + ring.pi() * w) == r
    assert len(inverses) == 1
