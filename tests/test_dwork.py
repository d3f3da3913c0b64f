"""Dwork operator machinery: splitting series, kernel, both routes, duals."""

import itertools
import json
import math
import re
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypothesis.extra.numpy import arrays

from unitroots import dwork
from unitroots.battery import BATTERY, DEGENERATE_BATTERY, EXPONENT_SETS, job_dict
from unitroots.dwork import (FredholmPoly, OperatorData, RingMatrix, XSeries,
                             _pair_products, adjoint_check,
                             bigF_coefficient, default_s_cut,
                             fredholm_cap, fredholm_coefficients,
                             fredholm_unit_root, kernel_sweep,
                             lfunction_from_fredholm, newton_polygon,
                             one_step_dual, pair_products_reference,
                             power_iteration_budget, power_iteration_unit_root,
                             product_limbs, ring_array_mul, ring_dtype,
                             splitting_coefficients, unit_root_of_poly)
from unitroots.errors import (MultipleUnitRoots, NoUnitRoot, OutsideM,
                              PrecisionTooLow)
from unitroots.hyperg import LaurentSpec
from unitroots.padic import (RingElem, make_ring, pi_pow_over_factorials,
                             teichmueller)
from unitroots.runner import JobConfig, default_wmax
from unitroots.selftest import (charpoly_boost, extreme_operands, law_mismatch,
                                limb_boundaries, newton_coefficients,
                                sweep_mismatch)
from unitroots.weights import (ExponentSet, build_weight_data,
                               enumerate_weighted_monomials, weight)

KLOOSTERMAN = ExponentSet(1, ((1,), (-1,)))
SINGLE = ExponentSet(1, ((1,),))
TRIANGLE = ExponentSet(2, ((1, 0), (0, 1), (-1, -1)))
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def report_operator(spec, wmax, N=4):
    # the runner's operator: routes B and C both work at the report precision,
    # and every route-B test builds its operator here
    ring = make_ring(spec.p, spec.m, spec.field_poly, N)
    return OperatorData(spec, build_weight_data(spec.A), ring, wmax), ring


def test_splitting_coefficients(ring3):
    sc = splitting_coefficients(ring3, 12)
    assert sc[0] == ring3.one()
    assert sc[1] == ring3.pi()
    # bound at i = p: ord b_p >= (p-1)/p
    assert sc[3].val_at_least(F(2, 3))
    for i, b in enumerate(sc.b):
        assert b.val_at_least(F(i * 2, 9))
    # each b_i against its terms summed one ring element at a time
    for p, m, N in itertools.product((2, 3, 5), (1, 2), (4, 8)):
        ring = make_ring(p, m, None, N)
        s_cut = default_s_cut(ring)
        sc = splitting_coefficients(ring, s_cut)
        for i in range(s_cut + 1):
            terms = [(-1) ** j * pi_pow_over_factorials(ring, i - (p - 1) * j,
                                                         (j, i - p * j))
                     for j in range(i // p + 1)]
            assert sc[i] == sum(terms, ring.zero()), (p, m, N, i)


def test_splitting_p2(ring2):
    sc = splitting_coefficients(ring2, 8)
    assert sc[0] == ring2.one()
    assert sc[1] == ring2.pi()
    for i, b in enumerate(sc.b):
        assert b.val_at_least(F(i, 4))


def test_bigF_single_is_b(ring3):
    W = build_weight_data(SINGLE)
    sc = splitting_coefficients(ring3, default_s_cut(ring3))
    lam = (ring3.one(),)
    for mu in range(5):
        assert bigF_coefficient(lam, (mu,), W, ring3, sc) == sc[mu]


def test_bigF_kloosterman_diagonal(ring3):
    W = build_weight_data(KLOOSTERMAN)
    cut = default_s_cut(ring3)
    sc = splitting_coefficients(ring3, cut)
    lam = (ring3.one(), ring3.one())
    expect = ring3.zero()
    for k in range(cut // 2 + 1):
        expect = expect + sc[k] * sc[k]
    assert bigF_coefficient(lam, (0,), W, ring3, sc) == expect
    # B_0 is a unit congruent to 1
    b0 = bigF_coefficient(lam, (0,), W, ring3, sc)
    assert b0.is_unit() and (b0 - ring3.one()).val_at_least(F(1, 2))


def test_bigF_outside_monoid(ring3):
    W = build_weight_data(SINGLE)
    sc = splitting_coefficients(ring3, default_s_cut(ring3))
    with pytest.raises(OutsideM):
        bigF_coefficient((ring3.one(),), (-1,), W, ring3, sc)


def test_bigF_bound_lemma(ring3):
    W = build_weight_data(KLOOSTERMAN)
    sc = splitting_coefficients(ring3, default_s_cut(ring3))
    lam = (teichmueller(ring3, (1,)), teichmueller(ring3, (2,)))
    for mu in enumerate_weighted_monomials(W, 6):
        val = bigF_coefficient(lam, mu, W, ring3, sc)
        assert val.val_at_least(weight(W, mu) * F(2, 9))


def test_one_step_dual_single(ring3):
    W = build_weight_data(SINGLE)
    sc = splitting_coefficients(ring3, default_s_cut(ring3))
    xi = XSeries({(0,): ring3.one()}, F(4))
    eta = one_step_dual((ring3.one(),), xi, W, ring3, sc)
    assert eta.support == {(0,): ring3.one()}


def test_one_step_dual_kloosterman_delta(ring3):
    W = build_weight_data(KLOOSTERMAN)
    sc = splitting_coefficients(ring3, default_s_cut(ring3))
    lam = (ring3.one(), ring3.one())
    xi = XSeries({(0,): ring3.one()}, F(3))
    eta = one_step_dual(lam, xi, W, ring3, sc)
    # output at X^(-rho) is B_(-rho)
    for rho in enumerate_weighted_monomials(W, F(3)):
        want = bigF_coefficient(lam, tuple(-r for r in rho), W, ring3, sc)
        got = eta.support.get(rho, ring3.zero())
        assert got == want


def test_one_step_dual_norm_nonincrease(ring3, rng):
    from unitroots.padic import RingElem
    W = build_weight_data(KLOOSTERMAN)
    sc = splitting_coefficients(ring3, default_s_cut(ring3))
    lam = (teichmueller(ring3, (2,)), ring3.one())
    basis = enumerate_weighted_monomials(W, 5)
    for _ in range(8):
        support = {mu: RingElem(ring3, [[rng.randrange(ring3.pN)]
                                        for _ in range(ring3.npi)])
                   for mu in basis if rng.random() < 0.6}
        if not support:
            continue
        xi = XSeries(support, F(5))
        eta = one_step_dual(lam, xi, W, ring3, sc)
        nin, nout = xi.norm_order(W, ring3), eta.norm_order(W, ring3)
        assert nout is None or (nin is not None and nout >= nin)


def test_power_iteration_single(ring3):
    spec = LaurentSpec(SINGLE, 3, 1, 1, ((1,),))
    res = power_iteration_unit_root(report_operator(spec, 6)[0])
    assert res.u == ring3.one()
    assert res.eigenvector.support == {(0,): ring3.one()}


def test_power_iteration_kloosterman_p3(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    res = power_iteration_unit_root(report_operator(spec, 9)[0])
    assert res.u.rows == ((16,), (0,))
    assert res.cycles <= res.budget
    # strictly increasing normalizer difference orders
    prev = None
    for v in res.normalizer_diff_orders:
        if v is None:
            break
        if prev is not None:
            assert v > prev
        prev = v


def test_power_iteration_budget_formula(ring3, ring2):
    assert power_iteration_budget(ring3, 1) == 9 + 3
    assert power_iteration_budget(ring2, 1) == 16 + 3
    assert power_iteration_budget(ring2, 2) == 32 + 3


def test_eigenvector_supported_on_lineality(ring3):
    # pointed-cone case: fixed vector collapses to the constant
    A = ExponentSet(2, ((0, 1), (1, 0), (2, -1)))
    spec = LaurentSpec(A, 3, 1, 1, ((1,), (2,), (1,)))
    res = power_iteration_unit_root(report_operator(spec, 6)[0])
    assert res.u == ring3.one()
    assert set(res.eigenvector.support) == {(0, 0)}


def test_eigenvector_wmax_stability(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    r1 = power_iteration_unit_root(report_operator(spec, 6)[0])
    r2 = power_iteration_unit_root(report_operator(spec, 12)[0])
    assert r1.u == r2.u
    for mu, c in r1.eigenvector.support.items():
        c2 = r2.eigenvector.support.get(mu, ring3.zero())
        assert (c - c2).valuation() is None or (c - c2).valuation() >= ring3.N - 1


def test_frobenius_matrix_single(ring2):
    spec = LaurentSpec(SINGLE, 2, 1, 1, ((1,),))
    Mx = OperatorData(spec, build_weight_data(SINGLE), ring2, 3).full_matrix()
    sc = splitting_coefficients(ring2, default_s_cut(ring2))
    assert Mx.dim == 4
    for iw in range(4):
        for iv in range(4):
            mu = 2 * iw - iv
            want = sc[mu] if mu >= 0 else ring2.zero()
            assert Mx.entry(iw, iv) == want


def test_matrix_entries_nonunit_off_corner(ring3):
    # the non-unit claim lives in the weighted basis: add back the diagonal
    # normalization w(nu) - w(omega) carried as valuation metadata
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (2,)))
    W = build_weight_data(KLOOSTERMAN)
    od = OperatorData(spec, W, ring3, 5)
    T = od.one_step_matrix(0)
    wfac = F(ring3.p - 1, ring3.p ** 2)
    from unitroots.padic import RingElem
    for iw, om in enumerate(od.basis):
        for iv, nu in enumerate(od.basis):
            e = RingElem(ring3, [list(r) for r in T[iw, iv]])
            if e.is_zero():
                continue
            mu = tuple(3 * a - b for a, b in zip(om, nu))
            # raw entry bound and the weight triangle inequality
            assert e.val_at_least(weight(W, mu) * wfac)
            assert 3 * weight(W, om) <= weight(W, mu) + weight(W, nu)
            if (iw, iv) != (0, 0):
                norm_ord = e.valuation() + wfac * (weight(W, nu) - weight(W, om))
                assert norm_ord > 0


def test_fredholm_single_matches_product(ring2):
    # A = {1}, lam = 1: det(I - T alpha) = prod_k (1 - 2^k T) at precision
    spec = LaurentSpec(SINGLE, 2, 1, 1, ((1,),))
    od, ring = report_operator(spec, 16)
    P, u = fredholm_unit_root(od.full_matrix())
    assert u == ring.one()
    expect = [ring.one()]
    for k in range(4):
        scale = ring.from_int(2 ** k)
        new = [ring.zero()] * (len(expect) + 1)
        for i, c in enumerate(expect):
            new[i] = new[i] + c
            new[i + 1] = new[i + 1] - c * scale
        expect = new
    for got, want in zip(P.coeffs, expect):
        assert got == want
    poly = newton_polygon(P)
    assert poly.slope_zero_length() == 1
    assert poly.segments[0] == (F(0), 1)
    assert poly.segments[1][0] == F(1)


def test_fredholm_kloosterman_routes_agree(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    od, ring = report_operator(spec, 9)
    P, u = fredholm_unit_root(od.full_matrix())
    assert u.rows == ((16,), (0,))
    assert newton_polygon(P).slope_zero_length() == 1


def test_fredholm_composition_order_pinned():
    # d = 2 over F_4: the cyclic product order is fixed by the frozen value,
    # which the character-sum oracle confirms independently
    spec = LaurentSpec(KLOOSTERMAN, 2, 2, 1, ((0, 1), (1,)))
    od, _ = report_operator(spec, 16)
    P, u = fredholm_unit_root(od.full_matrix())
    assert u.rows[0] == (13, 0)
    res = power_iteration_unit_root(od)
    assert res.u.rows[0] == (13, 0)


def test_newton_polygon_shapes(ring3):
    one = ring3.one()
    p3 = ring3.from_int(3)
    P = FredholmPoly(ring3, [one, -one], 1)
    assert newton_polygon(P).segments == [(F(0), 1)]
    P = FredholmPoly(ring3, [one, -one, -p3], 2)
    assert newton_polygon(P).segments == [(F(0), 1), (F(1), 1)]
    P = FredholmPoly(ring3, [one], 0)
    assert newton_polygon(P).segments == []


def test_unit_root_errors(ring3):
    one = ring3.one()
    p3 = ring3.from_int(3)
    with pytest.raises(NoUnitRoot):
        unit_root_of_poly([one, p3], ring3)
    with pytest.raises(MultipleUnitRoots):
        unit_root_of_poly([one, one, one], ring3)
    # Newton polygon [(0, 2)]: c_1 is not a unit but c_2 is
    with pytest.raises(MultipleUnitRoots):
        unit_root_of_poly([one, ring3.zero(), ring3.from_int(-4)], ring3)


RING9 = make_ring(3, 2, None, 4)
ELEM9 = st.lists(st.integers(0, RING9.pN - 1), min_size=RING9.npi * RING9.m,
                 max_size=RING9.npi * RING9.m)


def _elem9(digits):
    m = RING9.m
    return RingElem(RING9, [digits[j * m:(j + 1) * m] for j in range(RING9.npi)])


@settings(max_examples=60, deadline=None)
@given(ELEM9, st.lists(ELEM9, max_size=4), st.integers(0, 2))
def test_unit_root_of_linear_factor(u_digits, q_digits, zeros):
    # (1 - uT) Q with Q(0) = 1 and every higher coefficient of Q a non-unit,
    # padded with trailing zero coefficients as the L-function numerator is
    u = _elem9(u_digits)
    assume(u.is_unit())
    Q = [RING9.one()] + [RING9.pi() * _elem9(d) for d in q_digits]
    poly = [Q[0]] + [Q[k] - u * Q[k - 1] for k in range(1, len(Q))] + [-u * Q[-1]]
    assert unit_root_of_poly(poly + [RING9.zero()] * zeros, RING9) == u


def test_lfunction_delta_of_linear(ring3):
    # delta of (1 - uT): numerator 1 - uT, denominator 1 - u p^s T
    u = ring3.from_int(2)
    P = FredholmPoly(ring3, [ring3.one(), -u], 1)
    lf = lfunction_from_fredholm(P, 1, 1, u)
    assert lf.numerator == [ring3.one(), -u]
    assert lf.denominator == [ring3.one(), -u * ring3.from_int(3)]
    assert lf.unit_root == u and lf.unit_root_matches


LF_RINGS = {(p, m): make_ring(p, m, None, 3) for p in (2, 3, 5) for m in (1, 2)}


def _poly_mul_reference(ring, a, b):
    out = [ring.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


# digits of P's higher coefficients, cut to the ring's p-1 x m slots
LF_DIGITS = st.lists(st.lists(st.integers(0, 5 ** 3), min_size=8, max_size=8), max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(LF_RINGS)), st.integers(1, 3), st.integers(1, 2),
       LF_DIGITS, st.booleans())
@example((3, 1), 2, 1, [], False)  # P = [1]
@example((5, 2), 3, 2, [[1] * 8, [7] * 8], True)  # top coefficient 0 mod p^N
def test_lfunction_matches_ringelem_reference(pm, n, s, digits, zero_top):
    # the ring-array L-function against products and a series division in
    # RingElem arithmetic, term by term
    ring = LF_RINGS[pm]
    coeffs = ([ring.one()] + [ring.from_slots(c[:ring.npi * ring.m]) for c in digits]
              + [ring.from_int(ring.pN)] * zero_top)
    P = FredholmPoly(ring, coeffs, len(coeffs) - 1)
    d = len(coeffs) - 1
    sides = [[ring.one()], [ring.one()]]
    for k in range(n + 1):
        scaled = [c * ring.from_int(ring.p ** (k * s * i)) for i, c in enumerate(coeffs)]
        for _ in range(math.comb(n, k)):
            sides[k % 2] = _poly_mul_reference(ring, sides[k % 2], scaled)
    num, den = sides
    inv = [ring.one()]
    for k in range(1, d + 1):
        inv.append(-sum((den[j] * inv[k - j] for j in range(1, k + 1)), ring.zero()))
    series = _poly_mul_reference(ring, num, inv)[:d + 1]
    # the unit root is checked elsewhere: a random P need not have one
    with mock.patch.object(dwork, "unit_root_of_poly", return_value=ring.one()) as root:
        lf = lfunction_from_fredholm(P, n, s, ring.one())
    root.assert_called_once_with(lf.numerator, ring)
    count = 2 ** (n - 1)  # copies on each side
    assert len(lf.numerator) == len(lf.denominator) == d * count + 1
    assert lf.numerator == num and lf.denominator == den
    assert lf.series == series
    assert _poly_mul_reference(ring, lf.series, lf.denominator)[:d + 1] == num[:d + 1]


def test_lfunction_single_is_one_minus_t(ring2):
    spec = LaurentSpec(SINGLE, 2, 1, 1, ((1,),))
    od, ring = report_operator(spec, 16)
    P, u = fredholm_unit_root(od.full_matrix())
    lf = lfunction_from_fredholm(P, 1, 1, u)
    assert lf.series[0] == ring.one()
    assert lf.series[1] == -ring.one()
    assert all(c.is_zero() for c in lf.series[2:])
    assert lf.unit_root_matches


def test_adjoint_check_cases(ring3, ring2):
    spec = LaurentSpec(SINGLE, 3, 1, 1, ((1,),))
    assert adjoint_check(spec, 6, ring3) is None
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    assert adjoint_check(spec, 6, ring3) is None
    spec = LaurentSpec(KLOOSTERMAN, 2, 2, 1, ((0, 1), (1,)))
    ring22 = make_ring(2, 2, None, 3)
    assert adjoint_check(spec, 6, ring22) is None


def test_matmul_precision_limit():
    # a product runs, at any dimension, while (p^N - 1)^2 + p^N < 2^63, the
    # int64 rule of ring_dtype, and raises PrecisionTooLow one digit past it
    for p, top in ((2, 31), (3, 19), (5, 13)):
        assert ring_dtype(p ** top) is np.int64 and ring_dtype(p ** (top + 1)) is object
        ring = make_ring(p, 1, None, top)
        full = np.full((5, 5, ring.npi, 1), ring.pN - 1, dtype=np.int64)
        M = RingMatrix(ring, None, None, full)
        assert np.array_equal(M.matmul(M).tensor,
                              pair_products_reference(ring, full, full))
        over = make_ring(p, 1, None, top + 1)
        M = RingMatrix(over, None, None,
                       np.ones((2, 2, over.npi, 1), dtype=np.int64))
        with pytest.raises(PrecisionTooLow, match=re.escape(
                f"p^N = {over.pN} has (p^N - 1)^2 + p^N >= 2^63")):
            M.matmul(M)


@pytest.mark.parametrize("p, m, N, dim", limb_boundaries(),
                         ids=["p{}-m{}-N{}-dim{}".format(*c) for c in limb_boundaries()])
def test_pair_products_extreme_operands(p, m, N, dim):
    ring = make_ring(p, m, None, N)
    for cols in (dim, 1):
        for A, B in extreme_operands(ring, dim, cols):
            assert np.array_equal(_pair_products(ring, A, B),
                                  pair_products_reference(ring, A, B))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(1, 10),
       st.booleans(), st.data())
def test_pair_products_match_integer_products(p, m, dim, square, data):
    # precisions from eight digits below the int64 rule's last one up to it
    top = max(n for n in range(1, 64) if ring_dtype(p ** n) is np.int64)
    ring = make_ring(p, m, None, data.draw(st.integers(max(1, top - 8), top)))
    cols = dim if square else 1
    entries = st.one_of(st.integers(0, ring.pN - 1), st.just(ring.pN - 1))
    A = data.draw(arrays(np.int64, (dim, dim, ring.npi, m), elements=entries))
    B = data.draw(arrays(np.int64, (dim, cols, ring.npi, m), elements=entries))
    assert np.array_equal(_pair_products(ring, A, B),
                          pair_products_reference(ring, A, B))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_digit_limbs_are_centred(p, data):
    # limbs of e digits, the lowest N - (L-1)e, each the centred residue of
    # what the lower limbs leave: |limb| <= floor(p^w/2), zero below the
    # p-order of its entry, and summing to the entry mod p^N
    top = max(n for n in range(1, 64) if ring_dtype(p ** n) is np.int64)
    N = data.draw(st.integers(1, top))
    e = data.draw(st.integers(1, N))
    pN, h = p ** N, p ** N // 2
    entries = st.one_of(st.integers(0, pN - 1),
                        st.sampled_from([0, 1, h, (h + 1) % pN, pN - 1]),
                        st.integers(0, N - 1).map(lambda j: p ** j))
    X = data.draw(arrays(np.int64, (3, 4), elements=entries))
    limbs = [(s, d.astype(np.int64).astype(object))
             for s, d in dwork._digit_limbs(X.astype(np.float64), p, N, e)]
    shifts = [s for s, _ in limbs] + [N]
    assert len(limbs) == -(-N // e)
    assert shifts[:2] == [0, N - (len(limbs) - 1) * e]
    assert all(b - a == e for a, b in zip(shifts[1:], shifts[2:]))
    total = sum(d * p ** s for s, d in limbs)
    assert ((total - X.astype(object)) % pN == 0).all()
    order = np.array([[N if x == 0 else next(j for j in range(N) if x % p ** (j + 1))
                       for x in row] for row in X.tolist()])
    for (s, d), w in zip(limbs, np.diff(shifts)):
        assert (abs(d) <= p ** w // 2).all()
        assert (d[order >= s + w] == 0).all()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(1, 8),
       st.booleans(), st.data())
def test_pair_products_structured_rows(p, m, dim, square, data):
    # left rows the digit kernel treats apart: zero rows, which enter no
    # GEMM; rows divisible by p^j for j on each side of every digit boundary
    # of the limb layout, which skip the limbs below j; rows of p^N - 1 and
    # of the centred extremes h and h + 1 (-h at odd p)
    top = max(n for n in range(1, 64) if ring_dtype(p ** n) is np.int64)
    N = data.draw(st.one_of(st.integers(1, top), st.integers(top - 6, top)))
    ring = make_ring(p, m, None, N)
    pN, h = ring.pN, ring.pN // 2
    K = dwork.slot_group(dim, ring.npi * m, p, N) * dim
    e, limbs = dwork.limb_digits(K, p, N), product_limbs(K, p, N)
    starts = [N - (limbs - 1 - i) * e for i in range(limbs - 1)]
    near = {s + d for s in starts for d in (-1, 0, 1)} | {1, N - 1}
    orders = sorted(j for j in near if 0 < j < N)
    shape = (dim, ring.npi, m)

    def row():
        kind = data.draw(st.sampled_from(["zero", "full", "h", "h1", "order"]))
        if kind == "order" and orders:
            j = data.draw(st.sampled_from(orders))
            units = data.draw(arrays(np.int64, shape,
                                     elements=st.integers(0, p ** (N - j) - 1)))
            return units * p ** j
        fill = {"zero": 0, "full": pN - 1, "h": h, "h1": (h + 1) % pN}
        return np.full(shape, fill.get(kind, 0), dtype=np.int64)

    A = np.stack([row() for _ in range(dim)])
    entries = st.one_of(st.integers(0, pN - 1), st.sampled_from([h, pN - 1]))
    B = data.draw(arrays(np.int64, (dim, dim if square else 1, ring.npi, m),
                         elements=entries))
    assert np.array_equal(_pair_products(ring, A, B),
                          pair_products_reference(ring, A, B))


def _windowed_case(p, m, dim, data):
    # a ring whose precision reaches the top of the int64 rule, where blocks
    # of the (b, slot) contraction split mid-row and entries take several
    # limbs, and operands whose zero entries leave rows that vanish over
    # their window; PACK_ROWS = 0 puts each row in a GEMM of its own, and
    # 24 may merge them
    top = max(n for n in range(1, 64) if ring_dtype(p ** n) is np.int64)
    ring = make_ring(p, m, None, data.draw(st.integers(1, top)))
    entries = st.one_of(st.integers(0, ring.pN - 1), st.just(0))
    A = data.draw(arrays(np.int64, (dim, dim, ring.npi, m), elements=entries))
    B = data.draw(arrays(np.int64, (dim, dim, ring.npi, m), elements=entries))
    return ring, A, B, data.draw(st.sampled_from([0, 24]))


def _check_window(ring, A, B, band, pack):
    # row a contracts over a < b < band[a] only: on the columns from a up
    # to max(band[a], a + 1), diagonal included, the product is the one with
    # row a of A cut to that window, and past them that or 0.  Returns the
    # cut A, the product and the kept entries
    rows = np.arange(len(band))
    inside = (rows > rows[:, None]) & (rows < band[:, None])
    cut = A * inside[:, :, None, None]
    want = pair_products_reference(ring, cut, B)
    with mock.patch.object(dwork, "PACK_ROWS", pack):
        left = dwork.left_limbs(ring, A, dwork.WindowPlan(A, band))
        got = _pair_products(ring, left, B)
    kept = (rows >= rows[:, None]) & (rows < np.maximum(band, rows + 1)[:, None])
    assert np.array_equal(got[kept], want[kept])
    assert ((got == want) | (got == 0)).all()
    return cut, got, kept


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(1, 9), st.data())
def test_banded_products_are_cut_products(p, m, dim, data):
    # the band's upper edge: a drawn non-increasing band[a] = K(a), rows
    # whose band ends at or before their diagonal included
    ring, A, B, pack = _windowed_case(p, m, dim, data)
    band = np.array(sorted(data.draw(st.lists(st.integers(0, dim), min_size=dim,
                                              max_size=dim)), reverse=True))
    _check_window(ring, A, B, band, pack)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(1, 9), st.data())
def test_windowed_products_are_cut_products(p, m, dim, data):
    # the window's lower edge alone: with the full band, band = dim, row a
    # contracts over b > a, and its kept entries are also the unwindowed
    # product of the cut A
    ring, A, B, pack = _windowed_case(p, m, dim, data)
    cut, got, kept = _check_window(ring, A, B, np.full(dim, dim), pack)
    assert np.array_equal(got[kept], _pair_products(ring, cut, B)[kept])


def _first_return_reference(ring, M, band, cap, lo=1, hi=0):
    # det(I - T M) mod T^(cap+1) from its definition, in Python integers:
    # the product over r < band[0] of f_r = 1 - M_rr T -
    # sum_k s_(r,k) T^(k+2), s_(r,k) = M[r,W] (M[W,W])^k M[W,r] over the
    # window W = {c : r + lo <= c < band[r] + hi}, so (lo, hi) = (1, 0) is
    # route C's window r < c < band[r]
    Mo = M.astype(object)
    poly = [ring.one()] + [ring.zero()] * cap
    for r in range(band[0]):
        f = [ring.one()] + [ring.zero()] * cap
        if cap:
            f[1] = -RingElem(ring, M[r, r].tolist())
        W = list(range(r + lo, min(band[r] + hi, len(M))))
        v = Mo[[r]][:, W]
        for k in range(cap - 1):
            if not W:
                break
            s = pair_products_reference(ring, v, Mo[W][:, [r]])[0, 0]
            f[k + 2] = -RingElem(ring, s.tolist())
            v = pair_products_reference(ring, v, Mo[W][:, W])
        poly = [sum((poly[i] * f[j - i] for i in range(j + 1)), ring.zero())
                for j in range(cap + 1)]
    return poly


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(1, 8), st.data())
def test_first_return_product_is_the_first_return_definition(p, m, dim, data):
    # a drawn non-increasing band, and a sparse operand: zero rows, and
    # zero entries elsewhere, so that rows live over their window in M
    # vanish there after one or two products while the plan made from M
    # still holds them
    ring = make_ring(p, m, None, data.draw(st.integers(1, 4)))
    band = sorted(data.draw(st.lists(st.integers(0, dim), min_size=dim,
                                     max_size=dim)), reverse=True)
    band[0] = max(band[0], 1)  # trace_band's K(0) >= 1: w(0) = 0
    M = data.draw(arrays(np.int64, (dim, dim, ring.npi, m),
                         elements=st.integers(0, ring.pN - 1)))
    support = data.draw(arrays(np.bool_, (dim, dim),
                               elements=st.sampled_from([True, True, False])))
    support &= ~data.draw(arrays(np.bool_, (dim, 1)))
    M *= support[:, :, None, None]
    cap = dim - data.draw(st.integers(0, dim))  # shrinks to the full cap
    c, _ = dwork.first_return_product(ring, M, np.array(band), cap)
    assert [RingElem(ring, x) for x in c.tolist()] == \
        _first_return_reference(ring, M, band, cap)


@pytest.mark.parametrize("lo, hi, agrees", [(1, 0, True), (0, 0, False),
                                            (1, 1, False)])
def test_first_return_product_window_edges(lo, hi, agrees):
    # windows r < c < band[r], band (6, 6, 5, 5, 5, 2).  Row 3 (window {4})
    # is live in M but 0 over its window after one product (M[4, 4] = 0),
    # row 2 (window {3, 4}) after two (M[3, 3] = M[4, 3] = M[4, 4] = 0),
    # while s_(2,0) and s_(2,1) run through M[3, 2] and M[4, 2]; M[2, 5]
    # and M[5, 2] close a cycle just past row 2's upper edge, and M[0, 0]
    # one on row 0's lower edge, so the reference with either edge moved
    # by one differs
    ring = make_ring(3, 2, None, 3)
    rng = np.random.default_rng(20)
    M = rng.integers(1, ring.pN, size=(6, 6, ring.npi, ring.m))
    M[2, [0, 1, 4]] = M[3, 3] = M[4, [3, 4]] = 0
    band = np.array([6, 6, 5, 5, 5, 2])
    c, _ = dwork.first_return_product(ring, M, band, 5)
    want = _first_return_reference(ring, M, band, 5, lo, hi)
    assert ([RingElem(ring, x) for x in c.tolist()] == want) == agrees


@settings(max_examples=20, deadline=None)
@given(st.integers(6, 9), st.data())
def test_first_return_product_is_the_newton_determinant(dim, data):
    # the identity alone, with no Dwork structure and no window (K(r) = dim
    # for every r): the product of the first-return series f_r of a random
    # matrix equals det(I - T M) from Newton's identities over the traces
    # of its pair_products_reference powers, at the v_3(dim!) digits more
    # those need
    ring = make_ring(3, 2, None, 4)
    wide = make_ring(3, 2, None, 4 + charpoly_boost(3, dim))
    M = data.draw(arrays(np.int64, (dim, dim, wide.npi, wide.m),
                         elements=st.integers(0, wide.pN - 1)))
    traces, Mk = [], M
    for k in range(dim):
        if k:
            Mk = pair_products_reference(wide, Mk, M).astype(np.int64)
        traces.append(RingElem(wide, Mk.diagonal(axis1=0, axis2=1).sum(axis=2)))
    want = newton_coefficients(traces, ring)
    c, _ = dwork.first_return_product(ring, M % ring.pN, np.full(dim, dim), dim)
    got = [RingElem(ring, x) for x in c.tolist()]
    assert got[:len(want)] == want
    assert all(x.is_zero() for x in got[len(want):])


@pytest.mark.parametrize("p, N, dim", [(3, 4, 3), (3, 17, 2), (3, 17, 3),
                                      (5, 11, 2), (5, 13, 3)])
def test_pair_products_all_slots_m2(p, N, dim):
    # m = 2 with every (pi, t)-slot of both operands nonzero: t-products
    # reduce mod g inside the regular representation; (3, 17, 2) contracts
    # one slot per GEMM, (5, 11, 2) splits the eight slots into GEMMs of
    # seven and one, and (3, 17, 3) and (5, 13, 3) take two limbs.  A
    # REP_TEMP of 1 expands B one row at a time
    ring = make_ring(p, 2, None, N)
    rng = np.random.default_rng(p * N + dim)
    for cols, temp in ((dim, dwork.REP_TEMP), (1, dwork.REP_TEMP), (dim, 1)):
        A = rng.integers(1, ring.pN, size=(dim, dim, ring.npi, 2))
        B = rng.integers(1, ring.pN, size=(dim, cols, ring.npi, 2))
        with mock.patch.object(dwork, "REP_TEMP", temp):
            got = _pair_products(ring, A, B)
        assert np.array_equal(got, pair_products_reference(ring, A, B))


def _limbs_before(dim, pN):
    # limbs per left slot under the uncentred rule the GEMM kernel replaced:
    # one while dim (p^N - 1)^2 < 2^52, else k-bit limbs with
    # dim (2^k - 1)(p^N - 1) < 2^53
    top = (pN - 1).bit_length()
    if dim * (pN - 1) ** 2 < 2 ** 52:
        return 1
    k = 1
    while k + 1 < top and dim * (2 ** (k + 1) - 1) * (pN - 1) < 2 ** 53:
        k += 1
    return -(-top // k)


def test_products_use_no_more_limbs_than_before(monkeypatch):
    # every GEMM of a product cuts its left operand into product_limbs(dim)
    # limbs, never more than the uncentred rule needed, and all GEMMs
    # together contract no more than A's slots times dim per limb
    used = []
    real = dwork._digit_limbs

    def spy(X, p, N, e):
        limbs = list(real(X, p, N, e))
        used.append((X.shape[1], len(limbs)))
        return iter(limbs)
    monkeypatch.setattr(dwork, "_digit_limbs", spy)
    rng = np.random.default_rng(7)
    for p, m, N, dim in limb_boundaries() + [(3, 1, 14, 40), (5, 2, 11, 20)]:
        ring = make_ring(p, m, None, N)
        A = rng.integers(1, ring.pN, size=(dim, dim, ring.npi, m))
        B = rng.integers(1, ring.pN, size=(dim, dim, ring.npi, m))
        used.clear()
        _pair_products(ring, A, B)
        limbs = product_limbs(dim, ring.p, ring.N)
        assert limbs <= _limbs_before(dim, ring.pN)
        assert {n for _, n in used} == {limbs}
        assert sum(K for K, _ in used) == ring.npi * m * dim


def test_fredholm_expands_the_matrix_once(monkeypatch):
    # route C's first-return products all multiply by the leading K(0) x K(0)
    # block of Mx: its regular representation is built once and kept, and
    # the limbs its products used are reported
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    od, ring = report_operator(spec, 9)
    Mx = od.full_matrix()
    expanded = []
    real = dwork.regular_representation

    def spy(spec, B, slots):
        expanded.append(B.shape[:2])
        return real(spec, B, slots)
    monkeypatch.setattr(dwork, "regular_representation", spy)
    P = fredholm_coefficients(Mx)
    K0 = dwork.trace_band(Mx.W, Mx.basis, ring.p, ring.N)[0]
    assert P.products == P.degree_cap - 1 > 1
    assert P.factors == K0 < Mx.dim
    assert expanded == [(K0, K0)]
    assert P.limbs == product_limbs(K0, ring.p, ring.N) == 1
    assert P.madds > 0


def _battery_operator(case_id, ring, s_cut=None, wmax=None):
    case = {c["id"]: c for c in BATTERY + DEGENERATE_BATTERY}[case_id]
    spec = JobConfig.from_dict(job_dict(case)).laurent_spec()
    W = build_weight_data(spec.A)
    wmax = default_wmax(ring, W.D) if wmax is None else wmax
    return OperatorData(spec, W, ring, wmax, s_cut)


def _check_gather(od):
    # entry (omega, nu) of every one-step matrix is B(p*omega - nu); returns
    # the pairs whose difference lies outside the table's bounding box, and
    # those of them below it
    outside = below = 0
    for oi in range(od.orbit_len):
        T = od.one_step_matrix(oi)
        keys = np.array(list(od.kernel_table(oi)))
        lo, hi = keys.min(axis=0), keys.max(axis=0)
        for iw, om in enumerate(od.basis):
            for iv, nu in enumerate(od.basis):
                mu = tuple(od.ring.p * a - b for a, b in zip(om, nu))
                want = od.kernel_table(oi).get(mu, od.ring.zero())
                assert RingElem(od.ring, T[iw, iv]) == want
                outside += not all(a <= c <= b for a, c, b in zip(lo, mu, hi))
                below += any(c < a for a, c in zip(lo, mu))
    return outside, below


@pytest.mark.parametrize("case_id", ["p3-kloosterman", "p3-skew", "p3-triangle",
                                     "p3-edge-degenerate", "p3-kloosterman-f9"])
def test_one_step_matrix_is_kernel_gather(case_id):
    ring = make_ring(3, 2 if case_id.endswith("f9") else 1, None, 3)
    od = _battery_operator(case_id, ring)
    _check_gather(od)
    if case_id.endswith("f9"):
        assert od.orbit_len == 2


def test_one_step_gather_outside_the_table():
    # a short cutoff leaves a small table, so many differences p*omega - nu
    # fall outside its bounding box, on both sides
    od = _battery_operator("p3-triangle", make_ring(3, 1, None, 3), s_cut=2)
    outside, below = _check_gather(od)
    assert below > 0 and outside > below


def test_one_step_gather_past_the_int64_rule():
    # at 3^20 the kernel table and the one-step matrix hold Python ints
    # (object arrays), gathered on the same code path; the basis is the one
    # of N = 3, wmax 7, and the short cutoff leaves points outside the table
    od = _battery_operator("p3-triangle", make_ring(3, 1, None, 20), s_cut=4,
                           wmax=7)
    assert od.kernel_table(0).coeffs.dtype == object
    assert od.one_step_matrix(0).dtype == object
    outside, below = _check_gather(od)
    assert below > 0 and outside > below


@pytest.mark.parametrize("case_id, N, s_cut", [
    ("p3-triangle", 3, None), ("p3-kloosterman-f9", 3, None),
    ("p5-kloosterman", 15, 6)])
def test_kernel_table_mapping_is_the_sweep(case_id, N, s_cut):
    # the mapping reads the sweep's arrays entry for entry: one key per
    # point, in the points' (sorted) order, each value that point's
    # coefficient row, nonzero and reduced (RingElem reduces what it is
    # given); a point missing from the table is a KeyError, so .get gives
    # its default, and the mapping cannot be written.  5^15 is an object
    # modulus
    ring = make_ring(int(case_id[1]), 2 if case_id.endswith("f9") else 1, None, N)
    od = _battery_operator(case_id, ring, s_cut)
    for oi in range(od.orbit_len):
        table = od.kernel_table(oi)
        assert table is od.kernel_table(oi)
        assert table.coeffs.dtype == ring_dtype(ring.pN)
        points = [tuple(mu) for mu in table.points.tolist()]
        assert list(table) == points == sorted(set(points))
        for mu, coeff in zip(points, table.coeffs.tolist()):
            assert table[mu] == RingElem(ring, coeff) and not table[mu].is_zero()
        assert dict(table.items()) == {mu: table[mu] for mu in points}
        missing = tuple(int(c) + 1 for c in table.points.max(axis=0))
        zero = ring.zero()
        assert missing not in table and table.get(missing) is None
        assert table.get(missing, zero) is zero
        with pytest.raises(KeyError):
            table[missing]
        with pytest.raises(TypeError):
            table[missing] = zero


def test_ring_dtype_threshold():
    # int64 while (p^N - 1)^2 + p^N < 2^63: p = 2 up to N = 31, p = 5 up to 13
    for p, last in ((2, 31), (3, 19), (5, 13)):
        assert ring_dtype(p ** last) is np.int64
        assert ring_dtype(p ** (last + 1)) is object
        assert (p ** last - 1) ** 2 + p ** last < 2 ** 63
        assert (p ** (last + 1) - 1) ** 2 + p ** (last + 1) >= 2 ** 63


def _random_ring_array(data, ring, shape):
    shape = shape + (ring.npi, ring.m)
    size = int(np.prod(shape))
    digits = st.one_of(st.integers(0, ring.pN - 1), st.just(ring.pN - 1))
    flat = data.draw(st.lists(digits, min_size=size, max_size=size))
    return np.array(flat, dtype=ring_dtype(ring.pN)).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 31), (2, 32), (3, 3), (3, 20), (5, 2), (5, 14)]),
       st.integers(1, 2), st.booleans(), st.data())
def test_ring_array_mul_is_elementwise_ring_product(pN, m, broadcast, data):
    # both sides of the int64/object threshold; Y either matches X's batch
    # shape or is one element broadcast over it
    ring = make_ring(pN[0], m, None, pN[1])
    X = _random_ring_array(data, ring, (3,))
    Y = _random_ring_array(data, ring, () if broadcast else (3,))
    Z = ring_array_mul(ring, X, Y)
    assert Z.shape == X.shape and Z.dtype == ring_dtype(ring.pN)
    for i in range(3):
        y = Y if broadcast else Y[i]
        assert RingElem(ring, Z[i].tolist()) == \
            RingElem(ring, X[i].tolist()) * RingElem(ring, y.tolist())
        # both products above read RingSpec.law; the reference folds by _fold
        assert np.array_equal(Z[i], pair_products_reference(
            ring, X[i][None, None], y[None, None])[0, 0])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 4])
def test_ring_law_is_the_fold_of_the_unit_product(p, m, N):
    # every slot pair: the law's pairs equal _fold of pi^(j1+j2) t^(s1+s2),
    # through pair_products_reference; at N = 1 the wrap coefficient vanishes
    assert law_mismatch(make_ring(p, m, None, N)) is None


@pytest.mark.parametrize("case_id, N, s_cut", [
    ("p2-triangle", 3, None), ("p3-skew", 3, None), ("p5-kloosterman", 3, None),
    ("p3-kloosterman-f9", 3, None), ("p3-triangle", 3, 2),
    ("p3-kloosterman", 19, None), ("p3-kloosterman", 20, None),
    ("p5-kloosterman", 15, None)])
def test_kernel_table_matches_bigF(case_id, N, s_cut):
    # every entry equals the reference sum, and every cone point that the
    # cutoff reaches but the table leaves out has a zero coefficient; 3^19
    # and 3^20 straddle the int64/object threshold, 5^15 is object
    ring = make_ring(int(case_id[1]), 2 if case_id.endswith("f9") else 1, None, N)
    od = _battery_operator(case_id, ring, s_cut)
    assert od.orbit_len == (2 if case_id.endswith("f9") else 1)
    for oi in range(od.orbit_len):
        table = od.kernel_table(oi)
        assert sweep_mismatch(table, od.lam_orbit[oi], od.W, ring, od.sc,
                              od.s_cut) is None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2),
       st.sampled_from(["kloosterman", "skew", "triangle", "edge"]),
       st.integers(1, 3), st.integers(0, 6), st.data())
def test_kernel_sweep_matches_bigF_at_random_lambda(p, m, aname, N, s_cut, data):
    # lambda need not be a Teichmueller point: every digit is random
    ring = make_ring(p, m, None, N)
    vecs = EXPONENT_SETS[aname]
    W = build_weight_data(ExponentSet(len(vecs[0]), vecs))
    sc = splitting_coefficients(ring, s_cut)
    lam = tuple(RingElem(ring, _random_ring_array(data, ring, ()).tolist())
                for _ in vecs)
    table = kernel_sweep(lam, W, ring, sc, s_cut)
    assert sweep_mismatch(table, lam, W, ring, sc, s_cut) is None


@pytest.mark.parametrize("case_id", ["p2-triangle", "p3-skew", "p5-kloosterman",
                                     "p3-kloosterman-f9", "p5-triangle-f25"])
def test_reduced_kernel_tables_equal_direct(case_id):
    # a kernel table swept at a higher precision, with its longer cutoff,
    # reduces to the one swept at the lower precision directly: the terms
    # past the shorter cutoff vanish there.  So do the one-step matrices,
    # on the lower precision's basis, a prefix of the higher one's
    p, m = int(case_id[1]), 2 if case_id.endswith(("f9", "f25")) else 1
    ring = make_ring(p, m, None, 4)
    high = _battery_operator(case_id, make_ring(p, m, None, 9))
    direct = _battery_operator(case_id, ring)
    assert direct.s_cut < high.s_cut
    dim = len(direct.basis)
    assert high.basis[:dim] == direct.basis
    for oi in range(high.orbit_len):
        reduced = {mu: v.reduce_to(ring) for mu, v in high.kernel_table(oi).items()}
        assert {mu: v for mu, v in reduced.items() if not v.is_zero()} == \
            direct.kernel_table(oi)
        assert np.array_equal(high.one_step_matrix(oi)[:dim, :dim] % ring.pN,
                              direct.one_step_matrix(oi))


def test_fredholm_cap_matches_fraction_weights():
    # fredholm_cap from D-scaled integer weights equals the cap from Fraction
    # weights on every battery case and every benchmark pool member at N = 4
    # and N = 8: the first k with (p-1)^2/p^2 * (sum of the k + 1 smallest
    # weights) >= N, or dim when no k reaches it; a pool member's
    # coefficients do not enter the cap, so each (A, p, N) is computed once
    cases = {c["id"]: c for c in BATTERY + DEGENERATE_BATTERY}
    configs = [job_dict(c) for c in cases.values()]
    pools = json.loads(GOLDEN.read_text())["pools"]
    for pool in pools.values():
        for case_id, members in pool.items():
            configs += [job_dict(dict(cases[case_id], coeffs=coeffs))
                        for coeffs in members]
    checked = {}
    for cfg in configs:
        spec = JobConfig.from_dict(cfg).laurent_spec()
        for N in (4, 8):
            key = (spec.A.vectors, spec.p, N)
            if key not in checked:
                W = build_weight_data(spec.A)
                ring = make_ring(spec.p, 1, None, N)
                basis = enumerate_weighted_monomials(W, default_wmax(ring, W.D))
                ws = sorted(weight(W, mu) for mu in basis)
                want = len(basis)
                for k in range(len(ws)):
                    if F((spec.p - 1) ** 2, spec.p ** 2) * sum(ws[:k + 1]) >= N:
                        want = k
                        break
                checked[key] = fredholm_cap(W, basis, spec.p, N) == want
            assert checked[key], key
    assert len(configs) > len(cases)


def test_charpoly_caps():
    # A = {1} at p = 2 has weights 0, 1, 2, ... (D = 1), so (1/4) * (0+1+...+k)
    # first reaches N = 4 at k = 6 (21/4) and N = 1 at k = 3 (6/4), on the
    # last basis element when dim = 7; five elements sum to 10/4 < 4, so
    # the bound is never reached and every c_k up to dim = 5 is computed
    W = build_weight_data(SINGLE)
    basis = [(i,) for i in range(8)]
    assert fredholm_cap(W, basis, 2, 4) == fredholm_cap(W, basis[:7], 2, 4) == 6
    assert fredholm_cap(W, basis, 2, 1) == 3
    assert fredholm_cap(W, basis[:5], 2, 4) == 5
    # v_2 of 2,4,6,8 sums to 7 = v_2(8!), the digits Newton's identities lose
    assert charpoly_boost(2, 8) == 7
