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

from unitroots import dwork, padic
from unitroots.battery import (BATTERY, DEGENERATE_BATTERY, EXPONENT_SETS,
                               WIDE_P_BATTERY, job_dict)
from unitroots.dwork import (FredholmPoly, OperatorData, RingMatrix, XSeries,
                             _pair_products, adjoint_check,
                             bigF_coefficient, default_s_cut,
                             fredholm_cap, fredholm_coefficients,
                             fredholm_unit_root, kernel_sweep,
                             lfunction_from_fredholm, newton_polygon,
                             one_step_dual, pair_products_reference,
                             power_iteration_budget, power_iteration_unit_root,
                             check_product_precision,
                             ring_array_mul, splitting_coefficients,
                             unit_root_of_poly)
from unitroots.errors import (MultipleUnitRoots, NonUnitDivision, NoUnitRoot, OutsideCone,
                              PrecisionTooLow)
from unitroots.hyperg import LaurentSpec, generating_identity_check
from unitroots.padic import (RingElem, kernel_cut, make_ring, product_limbs, ring_array,
                             split_p, teichmueller)
from unitroots.runner import JobConfig, default_wmax, run
from unitroots.selftest import (charpoly_boost, extreme_operands, int64_top,
                                law_mismatch, limb_boundaries,
                                newton_coefficients, route_c_jobs,
                                sweep_mismatch)
from unitroots.weights import (ExponentSet, build_weight_data,
                               enumerate_weighted_monomials, weight)

from conftest import artin_hasse_reference

KLOOSTERMAN = ExponentSet(1, ((1,), (-1,)))
SINGLE = ExponentSet(1, ((1,),))
TRIANGLE = ExponentSet(2, ((1, 0), (0, 1), (-1, -1)))
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def report_operator(spec, wmax, N=4):
    # the runner's operator: routes B and C both work at the report precision,
    # and every route-B test builds its operator here
    ring = make_ring(spec.p, spec.m, spec.field_poly, N)
    return OperatorData(spec, build_weight_data(spec.A), ring, wmax), ring


def support(odata, vec):
    # route B's eigenvector, a ring array on odata.basis, as {mu: coefficient}
    # over its nonzero rows
    return {odata.basis[i]: RingElem(odata.ring, vec[i])
            for i in np.flatnonzero(vec.any(axis=(-2, -1)))}


def test_splitting_coefficients(ring3):
    # b_0 = 1, b_1 = gamma == pi (mod pi^2), ord b_i >= i/(p-1) = i/2, and
    # b_i = 0 from i = N(p-1) = 8 on
    sc = splitting_coefficients(ring3, 12)
    assert sc[0] == ring3.one()
    assert (sc[1] - ring3.pi()).val_at_least(1) and sc[1].valuation() == F(1, 2)
    for i, b in enumerate(sc.b):
        assert b.val_at_least(F(i, 2))
    assert all(b.is_zero() for b in sc.b[kernel_cut(ring3) + 1:])
    # each b_i = a_i gamma^i, a_i the residue of the Dieudonne-Dwork
    # product's coefficient, gamma^i a ring power, on the rings of the
    # battery's p, m and N
    for p, m, N in itertools.product((2, 3, 5), (1, 2), (4, 8)):
        ring = make_ring(p, m, None, N)
        s_cut = kernel_cut(ring)
        sc = splitting_coefficients(ring, s_cut)
        a = artin_hasse_reference(p, s_cut)
        for i in range(s_cut + 1):
            assert sc[i] == sc[1] ** i * ring.from_fraction(a[i]), (p, m, N, i)


def test_splitting_p2(ring2):
    # at p = 2, pi = -2 and gamma lies in Z_2: gamma == -2 (mod 4), and
    # ord b_i = i + v_2(a_i) exactly, so b_i = 0 from i = N = 4 on, and b_3
    # = (2/3) gamma^3 is 0 already
    sc = splitting_coefficients(ring2, 8)
    assert sc[0] == ring2.one()
    assert (sc[1] + 2).val_at_least(2) and sc[1].valuation() == 1
    a = artin_hasse_reference(2, 8)
    want = [i + split_p(f.numerator, 2)[0] for i, f in enumerate(a)]
    assert [b.order() for b in sc.b] == [v if v < 4 else None for v in want]
    assert [b.is_zero() for b in sc.b] == [False] * 3 + [True] * 6


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
    assert b0.is_unit() and (b0 - ring3.one()).val_at_least(1)


def test_bigF_outside_monoid(ring3):
    W = build_weight_data(SINGLE)
    sc = splitting_coefficients(ring3, default_s_cut(ring3))
    with pytest.raises(OutsideCone):
        bigF_coefficient((ring3.one(),), (-1,), W, ring3, sc)


def test_bigF_bound_lemma(ring3):
    W = build_weight_data(KLOOSTERMAN)
    sc = splitting_coefficients(ring3, default_s_cut(ring3))
    lam = (teichmueller(ring3, (1,)), teichmueller(ring3, (2,)))
    for mu in enumerate_weighted_monomials(W, 6):
        val = bigF_coefficient(lam, mu, W, ring3, sc)
        assert val.val_at_least(weight(W, mu) / 2)


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
    odata = report_operator(spec, 6)[0]
    res = power_iteration_unit_root(odata)
    assert res.u == ring3.one()
    assert support(odata, res.eigenvector) == {(0,): ring3.one()}


def test_power_iteration_kloosterman_p3(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    res = power_iteration_unit_root(report_operator(spec, 9)[0])
    assert res.u.digits() == [[16], [0]]
    assert res.cycles <= res.budget
    # strictly increasing normalizer difference orders
    prev = None
    for v in res.normalizer_diff_orders:
        if v is None:
            break
        if prev is not None:
            assert v > prev
        prev = v


def test_power_iteration_stops_on_a_certificate():
    # p = 2, f = 1/x^3 + x + x^2 at N = 4: the normalizers repeat at 9 after
    # two cycles, before they converge; a stop on that repeat alone would
    # report [[9]] with no error.  Route C and the oracle's last ratio give 1
    cfg = {"p": 2, "A": [[-3], [1], [2]], "coeffs": [[1], [1], [1]],
           "precision": 4, "routes": ["B"]}
    a = []
    cycle = OperatorData.dual_cycle

    def spy(self, vec):
        out = cycle(self, vec)
        a.append(RingElem(self.ring, out[0]))
        return out
    with mock.patch.object(OperatorData, "dual_cycle", spy):
        rep = run(cfg)
    route = rep.data["routes"]["B"]
    assert not rep.data["errors"] and rep.exit_code == 0
    assert route["unit_root"] == [[1]]
    assert [x.digits() for x in (a[0], a[1] * a[0].inverse())] == [[[9]], [[9]]]
    assert route["normalizer_diff_orders"] == [None, [3, 1]] + [None] * 6
    assert route["cycles"] == 9
    other = run({**cfg, "routes": ["C", "oracle"], "lmax": 6}).data
    assert other["routes"]["C"]["unit_root"] == [[1]]
    assert other["oracle"]["ratios"][-1] == [[1]]


def test_power_iteration_budget_formula(ring3, ring2):
    assert power_iteration_budget(ring3, 1) == 9 + 3
    assert power_iteration_budget(ring2, 1) == 16 + 3
    assert power_iteration_budget(ring2, 2) == 32 + 3


def test_truncation_bounds_are_exact_ceilings():
    # the kernel cutoff and route B's budget round up in integers: the exact
    # ceilings of N p^2/(p-1) and N D p^2/(p-1)^2
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for N in range(1, 200):
            ring = make_ring(p, 1, None, N)
            assert default_s_cut(ring) == math.ceil(F(N * p * p, p - 1))
            for D in range(1, 13):
                assert power_iteration_budget(ring, D) == \
                    math.ceil(F(N * D * p * p, (p - 1) ** 2)) + 3


def test_cycle_bound_and_kernel_cut_formulas():
    # Dwork's cycle bound under the Artin-Hasse estimate is N D, free of p,
    # and routes B and C cut the kernel sum at N(p-1) - 1, the last e with
    # ord b_e >= e/(p-1) below N; route A's cutoff keeps its value
    for p in (2, 3, 5, 7, 31):
        for N in (1, 4, 8, 12):
            ring = make_ring(p, 1, None, N)
            assert kernel_cut(ring) == N * (p - 1) - 1
            assert default_s_cut(ring) == math.ceil(F(N * p * p, p - 1))
            for D in (1, 2, 6):
                assert dwork.cycle_bound(p, N, D) == N * D


def test_eigenvector_supported_on_lineality(ring3):
    # pointed-cone case: fixed vector collapses to the constant
    A = ExponentSet(2, ((0, 1), (1, 0), (2, -1)))
    spec = LaurentSpec(A, 3, 1, 1, ((1,), (2,), (1,)))
    odata = report_operator(spec, 6)[0]
    res = power_iteration_unit_root(odata)
    assert res.u == ring3.one()
    assert set(support(odata, res.eigenvector)) == {(0, 0)}


def test_eigenvector_wmax_stability(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    o1, o2 = report_operator(spec, 6)[0], report_operator(spec, 12)[0]
    r1, r2 = power_iteration_unit_root(o1), power_iteration_unit_root(o2)
    assert r1.u == r2.u
    s2 = support(o2, r2.eigenvector)
    for mu, c in support(o1, r1.eigenvector).items():
        c2 = s2.get(mu, ring3.zero())
        assert (c - c2).valuation() is None or (c - c2).valuation() >= ring3.N - 1


def test_frobenius_matrix_single(ring2, ring3):
    # A = {1}, lam = 1: entry (omega, nu) is b_(p omega - nu) = a_mu gamma^mu
    # with a_mu from the Dieudonne-Dwork product, 0 for mu < 0 and mod p^N
    # for mu >= N(p-1), where ord a_mu gamma^mu >= mu reaches N
    for ring, dim in ((ring2, 4), (ring3, 6)):
        p = ring.p
        spec = LaurentSpec(SINGLE, p, 1, 1, ((1,),))
        Mx = OperatorData(spec, build_weight_data(SINGLE), ring, dim - 1).full_matrix()
        gamma = splitting_coefficients(ring, 1)[1]
        a = artin_hasse_reference(p, p * dim)
        assert Mx.dim == dim
        for iw in range(dim):
            for iv in range(dim):
                mu = p * iw - iv
                want = gamma ** mu * ring.from_fraction(a[mu]) if mu >= 0 else ring.zero()
                assert Mx.entry(iw, iv) == want, (p, iw, iv)


def test_matrix_entries_nonunit_off_corner(ring3):
    # the non-unit claim lives in the weighted basis: add back the diagonal
    # normalization w(nu) - w(omega) carried as valuation metadata
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (2,)))
    W = build_weight_data(KLOOSTERMAN)
    od = OperatorData(spec, W, ring3, 5)
    T = od.one_step_matrix(0)
    wfac = F(1, ring3.p - 1)
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
    assert u.digits() == [[16], [0]]
    assert newton_polygon(P).slope_zero_length() == 1


def test_fredholm_composition_order_pinned():
    # d = 2 over F_4: the cyclic product order is fixed by the frozen value,
    # which the character-sum oracle confirms independently
    spec = LaurentSpec(KLOOSTERMAN, 2, 2, 1, ((0, 1), (1,)))
    od, _ = report_operator(spec, 16)
    P, u = fredholm_unit_root(od.full_matrix())
    assert u.digits()[0] == [13, 0]
    res = power_iteration_unit_root(od)
    assert res.u.digits()[0] == [13, 0]


CERTIFICATE_JOB = {"p": 2, "A": [[-3], [1], [2]], "coeffs": [[1], [1], [1]],
                   "precision": 4}
ROUTE_B_JOBS = {"certificate": CERTIFICATE_JOB} | {
    cid: job_dict({c["id"]: c for c in BATTERY + DEGENERATE_BATTERY}[cid])
    for cid in ("p3-kloosterman", "p3-triangle", "p5-edge-degenerate",
                "p2-kloosterman-f4")}


def job_operator(cfg):
    # the runner's operator for a job config
    spec = JobConfig.from_dict(cfg).laurent_spec()
    W = build_weight_data(spec.A)
    ring = make_ring(spec.p, spec.m, spec.field_poly, cfg["precision"])
    return OperatorData(spec, W, ring, default_wmax(ring, W.D))


def divide_every_cycle(odata):
    # route B as it was: normalize by the X^0 coefficient's inverse each
    # cycle, stop when the normalizer and the normalized vector repeat
    ring = odata.ring
    vec = np.zeros((len(odata.basis), ring.npi, ring.m), dtype=np.int64)
    vec[0, 0, 0] = 1
    normalizers = []
    for cycle in range(1, power_iteration_budget(ring, odata.W.D) + 1):
        prev, vec = vec, odata.dual_cycle(vec)
        c = RingElem(ring, vec[0])
        vec = ring_array_mul(ring, vec, ring_array([c.inverse()])[0])
        normalizers.append(c)
        if len(normalizers) >= 2 and c == normalizers[-2] and np.array_equal(vec, prev):
            rows = np.flatnonzero(vec.any(axis=(-2, -1)))
            support = {odata.basis[i]: RingElem(ring, vec[i]) for i in rows}
            diffs = [(b - a).valuation() for a, b in zip(normalizers, normalizers[1:])]
            return c, support, diffs, cycle
    raise AssertionError("no stop within the budget")


@pytest.mark.parametrize("name", ROUTE_B_JOBS)
def test_power_iteration_divides_once(name):
    # cross-multiplying gives the unit root, eigenvector, normalizer
    # differences and cycle count of a loop that divides every cycle, with
    # one inverse in all, and one tensor product per orbit point
    # per cycle; p2-kloosterman-f4's orbit has two points
    odata = job_operator(ROUTE_B_JOBS[name])
    want = divide_every_cycle(odata)
    with mock.patch.object(RingElem, "inverse", autospec=True,
                           side_effect=RingElem.inverse) as inverse, \
            mock.patch.object(dwork, "_pair_products",
                              side_effect=dwork._pair_products) as products:
        res = power_iteration_unit_root(odata)
    assert (res.u, support(odata, res.eigenvector), res.normalizer_diff_orders,
            res.cycles) == want
    assert inverse.call_count == 1
    assert products.call_count == odata.orbit_len * res.cycles
    if name == "certificate":
        assert res.u.digits() == [[1]] and res.cycles == 9
        # the normalizers repeat early, at cycle 2, and route B goes on
        assert res.normalizer_diff_orders == [None, F(3)] + [None] * 6
    assert odata.orbit_len == (2 if name.endswith("f4") else 1)


def test_power_iteration_non_unit_raises():
    # an X^0 coefficient that is not a unit at cycle 2 is NonUnitDivision
    # there, as the normalizer's inverse was
    odata = job_operator(ROUTE_B_JOBS["p3-kloosterman"])
    cycle, p = odata.dual_cycle, odata.ring.p
    calls = []

    def dual_cycle(vec):
        calls.append(vec)
        out = cycle(vec)
        if len(calls) == 2:
            out[0] = out[0] * p % odata.ring.pN
        return out
    odata.dual_cycle = dual_cycle
    with pytest.raises(NonUnitDivision):
        power_iteration_unit_root(odata)
    assert len(calls) == 2


@pytest.mark.parametrize("cid", ["p3-triangle", "p2-kloosterman-f4"])
def test_routes_share_an_operator_in_either_order(cid):
    # route B before route C on one operator gives the digits of the usual
    # order, and the operator keeps no one-step matrix
    usual, swapped = job_operator(ROUTE_B_JOBS[cid]), job_operator(ROUTE_B_JOBS[cid])
    P1, u1 = fredholm_unit_root(usual.full_matrix())
    b1 = power_iteration_unit_root(usual)
    b2 = power_iteration_unit_root(swapped)
    P2, u2 = fredholm_unit_root(swapped.full_matrix())
    assert (u1, P1.coeffs, b1.u, support(usual, b1.eigenvector), b1.cycles) == \
        (u2, P2.coeffs, b2.u, support(swapped, b2.eigenvector), b2.cycles)
    assert u1 == b1.u
    assert not hasattr(usual, "_onestep") and not hasattr(swapped, "_onestep")


def test_dual_cycle_gathers_the_transpose():
    # route B's operand at each orbit point is one_step_matrix(oi) transposed,
    # entry for entry, and C-contiguous, so left_limbs lays it out in place
    odata = job_operator(ROUTE_B_JOBS["p2-kloosterman-f4"])
    assert odata.orbit_len == 2
    seen, real = [], dwork.left_limbs

    def capture(spec, A, plan=None):
        seen.append(A)
        return real(spec, A, plan)
    with mock.patch.object(dwork, "left_limbs", capture):
        odata.dual_cycle(np.zeros((len(odata.basis), odata.ring.npi, odata.ring.m),
                                  dtype=np.int64))
    # dual_cycle runs the orbit from its last point down to 0
    assert len(seen) == 2
    for oi, A in zip((1, 0), seen):
        assert A.flags.c_contiguous
        assert np.array_equal(A, odata.one_step_matrix(oi).swapaxes(0, 1))


def test_newton_polygon_shapes(ring3):
    one = ring3.one()
    p3 = ring3.from_int(3)
    P = FredholmPoly(ring3, [one, -one], 1)
    assert newton_polygon(P).segments == [(F(0), 1)]
    P = FredholmPoly(ring3, [one, -one, -p3], 2)
    assert newton_polygon(P).segments == [(F(0), 1), (F(1), 1)]
    # three collinear points: the middle one is popped, one segment of length 2
    P = FredholmPoly(ring3, [one, p3, ring3.from_int(9)], 2)
    assert newton_polygon(P).segments == [(F(1), 2)]
    assert newton_polygon(P).slope_zero_length() == 0
    P = FredholmPoly(ring3, [one], 0)
    assert newton_polygon(P).segments == []


def test_unit_root_errors(ring3):
    one = ring3.one()
    p3 = ring3.from_int(3)
    with pytest.raises(NoUnitRoot):
        unit_root_of_poly([one, p3])
    with pytest.raises(MultipleUnitRoots):
        unit_root_of_poly([one, one, one])
    # Newton polygon [(0, 2)]: c_1 is not a unit but c_2 is
    with pytest.raises(MultipleUnitRoots):
        unit_root_of_poly([one, ring3.zero(), ring3.from_int(-4)])


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
    assert unit_root_of_poly(poly + [RING9.zero()] * zeros) == u


def test_lfunction_delta_of_linear(ring3):
    # delta of (1 - uT): numerator 1 - uT, denominator 1 - u p^s T
    u = ring3.from_int(2)
    P = FredholmPoly(ring3, [ring3.one(), -u], 1)
    lf = lfunction_from_fredholm(P, 1, 1, u)
    assert lf.numerator == [ring3.one(), -u]
    assert lf.denominator == [ring3.one(), -u * ring3.from_int(3)]
    assert lf.unit_root_matches
    # a root that differs at order 1 < N is not the numerator's
    assert not lfunction_from_fredholm(P, 1, 1, u + ring3.from_int(3)).unit_root_matches


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
    # a random P need not have a unit root; at u0 = 1 the check evaluates
    # the reversed numerator at 1, which is the sum of its coefficients
    lf = lfunction_from_fredholm(P, n, s, ring.one())
    assert lf.unit_root_matches == sum(num, ring.zero()).is_zero()
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
    # int64 rule of check_product_precision, and raises PrecisionTooLow one
    # digit past it
    for p, top in ((2, 31), (3, 19), (5, 13)):
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
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 10),
       st.booleans(), st.data())
def test_pair_products_match_integer_products(p, m, dim, square, data):
    # precisions from eight digits below the int64 rule's last one up to it
    top = int64_top(p)
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
    top = int64_top(p)
    N = data.draw(st.integers(1, top))
    e = data.draw(st.integers(1, N))
    pN, h = p ** N, p ** N // 2
    entries = st.one_of(st.integers(0, pN - 1),
                        st.sampled_from([0, 1, h, (h + 1) % pN, pN - 1]),
                        st.integers(0, N - 1).map(lambda j: p ** j))
    X = data.draw(arrays(np.int64, (3, 4), elements=entries))
    limbs = [(s, d.astype(np.int64).astype(object))
             for s, d in padic._digit_limbs(X.astype(np.float64), p, N, e)]
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
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 8),
       st.booleans(), st.data())
def test_pair_products_structured_rows(p, m, dim, square, data):
    # left rows the digit kernel treats apart: zero rows, which enter no
    # GEMM; rows divisible by p^j for j on each side of every digit boundary
    # of the limb layout, which skip the limbs below j; rows of p^N - 1 and
    # of the centred extremes h and h + 1 (-h at odd p)
    top = int64_top(p)
    N = data.draw(st.one_of(st.integers(1, top), st.integers(top - 6, top)))
    ring = make_ring(p, m, None, N)
    pN, h = ring.pN, ring.pN // 2
    K = padic.slot_group(dim, ring.npi * m, p, N) * dim
    e, limbs = padic.limb_digits(K, p, N), product_limbs(K, p, N)
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
    # their window; ROW_BLOCK = 1 puts each row in a GEMM of its own, 2
    # puts them in pairs, and 32 all in one
    top = int64_top(p)
    ring = make_ring(p, m, None, data.draw(st.integers(1, top)))
    entries = st.one_of(st.integers(0, ring.pN - 1), st.just(0))
    A = data.draw(arrays(np.int64, (dim, dim, ring.npi, m), elements=entries))
    B = data.draw(arrays(np.int64, (dim, dim, ring.npi, m), elements=entries))
    return ring, A, B, data.draw(st.sampled_from([1, 2, 32]))


def _check_window(ring, A, B, band, block):
    # row a contracts over a < b < band[a] only: on the columns from a up
    # to max(band[a], a + 1), diagonal included, the product is the one with
    # row a of A cut to that window, and past them that or 0.  Returns the
    # cut A, the product and the kept entries
    rows = np.arange(len(band))
    inside = (rows > rows[:, None]) & (rows < band[:, None])
    cut = A * inside[:, :, None, None]
    want = pair_products_reference(ring, cut, B)
    with mock.patch.object(dwork, "ROW_BLOCK", block):
        left = dwork.left_limbs(ring, A, dwork.WindowPlan(band, band, True))
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
    ring, A, B, block = _windowed_case(p, m, dim, data)
    band = np.array(sorted(data.draw(st.lists(st.integers(0, dim), min_size=dim,
                                              max_size=dim)), reverse=True))
    _check_window(ring, A, B, band, block)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(1, 9), st.data())
def test_windowed_products_are_cut_products(p, m, dim, data):
    # the window's lower edge alone: with the full band, band = dim, row a
    # contracts over b > a, and its kept entries are also the unwindowed
    # product of the cut A
    ring, A, B, block = _windowed_case(p, m, dim, data)
    cut, got, kept = _check_window(ring, A, B, np.full(dim, dim), block)
    assert np.array_equal(got[kept], _pair_products(ring, cut, B)[kept])


def _first_return_reference(ring, M, band, cap, lo=1, hi=0):
    # det(I - T M) mod T^(cap+1) from its definition, in Python integers:
    # the product over r < band[0][0] of f_r = 1 - M_rr T -
    # sum_k s_(r,k) T^(k+2), s_(r,k) summing the paths
    # r -> b_1 -> ... -> b_(k+1) -> r whose vertex b_(j+1) lies in product
    # j's window W_j = {c : r + lo <= c < band[j][r] + hi}, so (lo, hi) =
    # (1, 0) is route C's window r < c < K_j(r).  A 1-D band is every
    # product's
    bands = np.broadcast_to(band, (max(cap - 1, 1), len(M)))
    Mo = M.astype(object)
    poly = [ring.one()] + [ring.zero()] * cap
    for r in range(bands[0][0]):
        f = [ring.one()] + [ring.zero()] * cap
        if cap:
            f[1] = -RingElem(ring, M[r, r].tolist())
        Ws = [list(range(r + lo, min(b[r] + hi, len(M)))) for b in bands]
        v = Mo[[r]][:, Ws[0]]  # the paths r -> ... -> b_(k+1), over W_k
        for k in range(cap - 1):
            W = Ws[k]
            if not W:
                break
            s = pair_products_reference(ring, v, Mo[W][:, [r]])[0, 0]
            f[k + 2] = -RingElem(ring, s.tolist())
            if k + 2 < cap:
                v = pair_products_reference(ring, v, Mo[W][:, Ws[k + 1]])
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(1, 8), st.data())
def test_first_return_product_takes_a_window_per_product(p, m, dim, data):
    # a drawn band per product, never increasing down the rows or in k, so
    # that windows shrink from one product to the next and rows die at
    # different products, over a sparse operand as above
    ring = make_ring(p, m, None, data.draw(st.integers(1, 4)))
    cap = data.draw(st.integers(0, dim))
    band = data.draw(arrays(np.int64, (max(cap - 1, 1), dim),
                            elements=st.integers(0, dim)))
    band = np.minimum.accumulate(-np.sort(-band, axis=1), axis=0)
    band[0, 0] = max(band[0, 0], 1)  # trace_band's K_0(0) >= 1: w(0) = 0
    M = data.draw(arrays(np.int64, (dim, dim, ring.npi, m),
                         elements=st.integers(0, ring.pN - 1)))
    M *= data.draw(arrays(np.bool_, (dim, dim, 1, 1),
                          elements=st.sampled_from([True, True, False])))
    c, _ = dwork.first_return_product(ring, M, band, cap)
    assert [RingElem(ring, x) for x in c.tolist()] == \
        _first_return_reference(ring, M, band, cap)


def _tight_operator(p, N, dim):
    # entries exactly at Dwork's estimate: on the basis X^a, a < dim, of x
    # alone (w(a) = a, D = 1), M[a, b] is p^a times a unit, so a cycle's
    # term has ord the sum of its vertices' weights, and vanishes mod p^N
    # exactly when Dwork's cycle bound, sum w >= N, says it does.  Returns
    # the ring, W, the basis and M
    ring = make_ring(p, 1, None, N)
    U = np.random.default_rng(p).integers(0, ring.pN, size=(dim, dim, ring.npi, 1))
    U[..., 0, 0] = U[..., 0, 0] // p * p + 1
    scale = [pow(p, a, ring.pN) for a in range(dim)]
    M = U * np.array(scale)[:, None, None, None] % ring.pN
    return ring, build_weight_data(SINGLE), [(a,) for a in range(dim)], M


@pytest.mark.parametrize("p, N, dim", [(2, 12, 8), (3, 17, 6)])
def test_first_return_windows_are_tight_at_dwork_bound(p, N, dim):
    # on the tight operator, trace_band's K_k(r) counts the c with
    # r + k(r+1) + c < N, and its windows keep every term of det(I - T M)
    # that the full dimension keeps.  A band one column tighter at (r, k)
    # drops the path r -> (r+1)^k -> c -> r, c = K_k(r) - 1: of order
    # r + k(r+1) + c < N, the least among the paths the cut drops and the
    # only one of that order, so
    # det changes, first at T^(k+2); K_0(0) also counts the factors, and
    # one fewer drops the loop M_cc, at T
    ring, W, basis, M = _tight_operator(p, N, dim)
    cap = dim
    bands = dwork.trace_band(W, basis, p, N, cap - 1)
    for k, r in itertools.product(range(cap - 1), range(dim)):
        above = min(r + 1, dim - 1)
        assert bands[k, r] == sum(r + k * above + c < N for c in range(dim))
    exact, _ = dwork.first_return_product(ring, M, bands, cap)
    full, _ = dwork.first_return_product(ring, M, np.full(dim, dim), cap)
    assert np.array_equal(exact, full)
    tightened = set()
    for k, r in itertools.product(range(cap - 1), range(dim)):
        tight = bands.copy()
        tight[k, r] -= 1
        if tight[k, r] <= r or (np.diff(tight, axis=0) > 0).any() \
                or (np.diff(tight, axis=1) > 0).any():
            continue  # an empty window, or the band would increase
        c, _ = dwork.first_return_product(ring, M, tight, cap)
        changed = np.flatnonzero((c != exact).any(axis=(1, 2)))
        assert changed.size and changed[0] == (1 if k == r == 0 else k + 2)
        tightened.add(k)
    assert len(tightened) > 2


def test_first_return_products_form_only_the_next_window(monkeypatch):
    # one row per GEMM (ROW_BLOCK = 1): product k forms row r of Y_(k+1)
    # on the columns [r, max(K_(k+1)(r), r + 1)) alone, the last product on
    # its diagonal alone, and only the rows whose window in product k is
    # not empty; on the tight operator the others would be nonzero
    ring, W, basis, M = _tight_operator(2, 12, 8)
    cap = 8
    bands = dwork.trace_band(W, basis, 2, 12, cap - 1)
    formed = []
    real = dwork._pair_products

    def spy(*args):
        formed.append(real(*args))
        return formed[-1]
    monkeypatch.setattr(dwork, "_pair_products", spy)
    monkeypatch.setattr(dwork, "ROW_BLOCK", 1)
    dwork.first_return_product(ring, M, bands, cap)
    assert len(formed) == cap - 1
    rows = np.arange(8)
    for k, Z in enumerate(formed):
        out = bands[k + 1] if k + 2 < cap else np.zeros(8, dtype=np.int64)
        assert len(Z) == np.count_nonzero(bands[k] > rows + 1)
        live = rows[:len(Z)]
        top = np.maximum(out, rows + 1)[live]
        kept = (rows >= live[:, None]) & (rows < top[:, None])
        assert not Z[~kept].any()
        assert Z[live, live].any()


def test_per_product_bands_keep_det_on_battery_operators():
    # every battery operator at N = 4 and the operators-n8 cases at N = 8
    # (selftest.route_c_jobs): the per-product bands of trace_band give the
    # det(I - T M) that K_0 for every product gives, in no more
    # multiply-adds
    for case, N in route_c_jobs():
        cfg = JobConfig.from_dict(job_dict(case, precision=N, routes=("C",)))
        spec = cfg.laurent_spec()
        ring = make_ring(cfg.p, cfg.field_degree, cfg.field_poly, N)
        W = build_weight_data(spec.A)
        Mx = OperatorData(spec, W, ring, default_wmax(ring, W.D)).full_matrix()
        cap = fredholm_cap(W, Mx.basis, ring.p, N)
        bands = dwork.trace_band(W, Mx.basis, ring.p, N, cap - 1)
        c, madds = dwork.first_return_product(ring, Mx.tensor, bands, cap)
        c0, madds0 = dwork.first_return_product(ring, Mx.tensor, bands[0], cap)
        assert np.array_equal(c, c0), (case["id"], N)
        assert madds <= madds0


@settings(max_examples=20, deadline=None)
@given(st.integers(6, 9), st.data())
def test_first_return_product_is_the_newton_determinant(dim, data):
    # the identity alone, with no Dwork structure and no window (K(r) = dim
    # for every r): the product of the first-return series f_r of a random
    # matrix equals det(I - T M) from Newton's identities over the traces
    # of its pair_products_reference powers, at the v_3(dim!) digits more
    # those need; ROW_BLOCK 1 and 2 run it over several row blocks of the
    # dim - 1 live rows, 2 with a partial last one at even dims
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
    with mock.patch.object(dwork, "ROW_BLOCK", data.draw(st.sampled_from([1, 2, 32]))):
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
    real = padic._digit_limbs

    def spy(X, p, N, e):
        limbs = list(real(X, p, N, e))
        used.append((X.shape[1], len(limbs)))
        return iter(limbs)
    monkeypatch.setattr(padic, "_digit_limbs", spy)
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
    # the limbs its products used are reported.  wmax = 9 keeps monomials
    # past the cycle bound in the basis, so K(0) < dim
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
    K0 = dwork.trace_band(Mx.W, Mx.basis, ring.p, ring.N, 1)[0, 0]
    assert P.products == P.degree_cap - 1 > 1
    assert K0 < Mx.dim
    assert expanded == [(K0, K0)]
    assert P.limbs == product_limbs(K0, ring.p, ring.N) == 1
    assert P.madds > 0


def _battery_operator(case_id, ring, s_cut=None, wmax=None):
    case = {c["id"]: c for c in BATTERY + DEGENERATE_BATTERY + WIDE_P_BATTERY}[case_id]
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
    # at 3^19, the last int64 modulus, the kernel table and the one-step
    # matrix are int64 and gathered exactly; the basis is the one of N = 3,
    # wmax 7, and the short cutoff leaves points outside the table.  One
    # digit past it the sweep's first ring_array raises PrecisionTooLow,
    # where int64 products would overflow silently
    od = _battery_operator("p3-triangle", make_ring(3, 1, None, 19), s_cut=4,
                           wmax=7)
    assert od.kernel_table(0).coeffs.dtype == od.one_step_matrix(0).dtype == np.int64
    outside, below = _check_gather(od)
    assert below > 0 and outside > below
    od = _battery_operator("p3-triangle", make_ring(3, 1, None, 20), s_cut=4,
                           wmax=7)
    with pytest.raises(PrecisionTooLow, match=re.escape(f"p^N = {3 ** 20}")):
        od.one_step_matrix(0)


def test_operator_past_2_63_is_precision_too_low():
    # at 2^70 a residue no longer fits int64: the kernel table, both
    # matrices and the adjoint check raise PrecisionTooLow naming p^N, from
    # the first ring_array, not a bare OverflowError from int64 conversion
    ring = make_ring(2, 1, None, 70)
    od = _battery_operator("p2-kloosterman", ring)
    spec = JobConfig.from_dict(job_dict(
        {c["id"]: c for c in BATTERY}["p2-kloosterman"])).laurent_spec()
    calls = {"kernel_table": lambda: od.kernel_table(0),
             "one_step_matrix": lambda: od.one_step_matrix(0),
             "full_matrix": od.full_matrix,
             "adjoint_check": lambda: adjoint_check(spec, 4, ring)}
    for name, call in calls.items():
        with pytest.raises(PrecisionTooLow, match=re.escape(
                f"p^N = {2 ** 70} has (p^N - 1)^2 + p^N >= 2^63")):
            call()


@pytest.mark.parametrize("case_id, N, s_cut", [
    ("p3-triangle", 3, None), ("p3-kloosterman-f9", 3, None),
    ("p5-kloosterman", 13, 6)])
def test_kernel_table_mapping_is_the_sweep(case_id, N, s_cut):
    # the mapping reads the sweep's arrays entry for entry: one key per
    # point, in the points' (sorted) order, each value that point's
    # coefficient row, nonzero and reduced (RingElem reduces what it is
    # given); a point missing from the table is a KeyError, so .get gives
    # its default, and the mapping cannot be written.  5^13 is the last
    # int64 modulus
    ring = make_ring(int(case_id[1]), 2 if case_id.endswith("f9") else 1, None, N)
    od = _battery_operator(case_id, ring, s_cut)
    for oi in range(od.orbit_len):
        table = od.kernel_table(oi)
        assert table is od.kernel_table(oi)
        assert table.coeffs.dtype == np.int64
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


def test_product_precision_threshold():
    # accepted while (p^N - 1)^2 + p^N < 2^63: p = 2 up to N = 31, p = 5 up
    # to 13; PrecisionTooLow one digit past, naming p^N and the rule.  There
    # a slot product plus a residue overflows int64, so ring_array_mul
    # raises before any product, and so does the product tree of route C's
    # polynomials, which multiplies through it
    for p, last in ((2, 31), (3, 19), (5, 13)):
        check_product_precision(p ** last)
        with pytest.raises(PrecisionTooLow, match=re.escape(
                f"p^N = {p ** (last + 1)} has (p^N - 1)^2 + p^N >= 2^63")):
            check_product_precision(p ** (last + 1))
        assert int64_top(p) == last
        assert (p ** last - 1) ** 2 + p ** last < 2 ** 63
        assert (p ** (last + 1) - 1) ** 2 + p ** (last + 1) >= 2 ** 63
        ring = make_ring(p, 1, None, last + 1)
        X = np.ones((2, ring.npi, 1), dtype=np.int64)
        with pytest.raises(PrecisionTooLow, match=re.escape(f"p^N = {ring.pN}")):
            ring_array_mul(ring, X, X)
        with pytest.raises(PrecisionTooLow):
            dwork._series_product(ring, np.ones((2, 3, ring.npi, 1), dtype=np.int64))


def _random_ring_array(data, ring, shape):
    shape = shape + (ring.npi, ring.m)
    size = int(np.prod(shape))
    digits = st.one_of(st.integers(0, ring.pN - 1), st.just(ring.pN - 1))
    flat = data.draw(st.lists(digits, min_size=size, max_size=size))
    return np.array(flat, dtype=np.int64).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 31), (3, 3), (3, 19), (5, 2), (5, 13)]),
       st.integers(1, 2), st.booleans(), st.data())
def test_ring_array_mul_is_elementwise_ring_product(pN, m, broadcast, data):
    # small moduli and the last one of the int64 rule at each p; Y either
    # matches X's batch shape or is one element broadcast over it
    ring = make_ring(pN[0], m, None, pN[1])
    X = _random_ring_array(data, ring, (3,))
    Y = _random_ring_array(data, ring, () if broadcast else (3,))
    Z = ring_array_mul(ring, X, Y)
    assert Z.shape == X.shape and Z.dtype == np.int64
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
    ("p2-kloosterman", 31, None), ("p3-kloosterman", 19, None),
    ("p5-kloosterman", 13, None)])
def test_kernel_table_matches_bigF(case_id, N, s_cut):
    # every entry equals the reference sum, and every cone point that the
    # cutoff reaches but the table leaves out has a zero coefficient; 2^31,
    # 3^19 and 5^13 are the last moduli of the int64 rule
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
    # lambda need not be a Teichmueller point: every t-digit is random, in
    # Z_q, the sweep's domain (its pi-rows >= 1 are zero)
    ring = make_ring(p, m, None, N)
    vecs = EXPONENT_SETS[aname]
    W = build_weight_data(ExponentSet(len(vecs[0]), vecs))
    sc = splitting_coefficients(ring, s_cut)
    lam = []
    for _ in vecs:
        digits = _random_ring_array(data, ring, ())
        digits[1:] = 0
        lam.append(RingElem(ring, digits.tolist()))
    table = kernel_sweep(tuple(lam), W, ring, sc, s_cut)
    assert sweep_mismatch(table, tuple(lam), W, ring, sc, s_cut) is None


@pytest.mark.parametrize("vecs", [((1,), (0,)), ((1, 0), (0, 1), (0, 0))])
def test_reference_checks_count_a_zero_vector_that_comes_last(vecs):
    # an exponent on a zero vector adds to |nu| and not to mu; both reference
    # checks must count the nu that carry one, so on correct code they pass
    A = ExponentSet(len(vecs[0]), vecs)
    assert generating_identity_check(A, 2, 5)
    ring = make_ring(3, 1, None, 4)
    W, s_cut = build_weight_data(A), kernel_cut(ring)
    sc = splitting_coefficients(ring, s_cut)
    lam = tuple(teichmueller(ring, (c,)) for c in (2, 1, 2)[:len(vecs)])
    table = kernel_sweep(lam, W, ring, sc, s_cut)
    assert sweep_mismatch(table, lam, W, ring, sc, s_cut) is None


@pytest.mark.parametrize("p, N", [(2, 31), (3, 19), (5, 13)])
def test_gamma_contraction_at_the_last_moduli(p, N):
    # _gamma_contract against Python integers at the int64 rule's last
    # moduli, every z and every digit of gamma^s p^N - 1, so each run sums
    # the largest products there are: mu 0 has s = 0, 2, ..., 2(K-1) over
    # K = 3 unreduced_terms + 1 columns (reduced between chunks), mu 1 a
    # single s, mu 2 the odd s from 5, a run of its own; m = 2
    ring = make_ring(p, 2, None, N)
    pN, room = ring.pN, padic.unreduced_terms(ring.pN)
    K = 3 * room + 1
    runs = [[2 * i for i in range(K)], [7], [5 + 2 * i for i in range(K - 3)]]
    s = np.array([v for run in runs for v in run], dtype=np.int64)
    first = np.cumsum([0] + [len(run) for run in runs[:-1]])
    rng = np.random.default_rng(N)
    gpow = np.full((2 * K + 4, ring.npi), pN - 1, dtype=np.int64)
    gpow[1::3] = rng.integers(0, pN, size=gpow[1::3].shape)
    sums = np.full((len(s), 2), pN - 1, dtype=np.int64)
    sums[::4, 1] = rng.integers(0, pN, size=sums[::4, 1].shape)
    got = dwork._gamma_contract(ring, gpow, dwork._gamma_layout(s, first), sums)
    assert got.shape == (3, ring.npi, 2)
    for mu, (lo, run) in enumerate(zip(first.tolist(), runs)):
        for j in range(ring.npi):
            for k in range(2):
                want = sum(int(sums[lo + i, k]) * int(gpow[v, j])
                           for i, v in enumerate(run)) % pN
                assert got[mu, j, k] == want, (mu, j, k)


def _table_arrays(table):
    return table.points.tolist(), table.coeffs.tolist()


def _fresh_sweep(monkeypatch, lam, W, ring, sc, s_cut):
    # a sweep that builds its own plan and keeps none
    with monkeypatch.context() as fresh:
        fresh.setattr(dwork, "_SWEEPS", padic.Memo())
        return _table_arrays(kernel_sweep(lam, W, ring, sc, s_cut))


def test_one_sweep_plan_serves_every_lambda_and_m(monkeypatch):
    # lambda_1, then lambda_2 at p = 5, N = 4, then the F_25 coefficients of
    # p5-triangle-f25: one plan, kept at the first sweep, and every table
    # equal to a sweep made with the memo emptied
    monkeypatch.setattr(dwork, "_SWEEPS", padic.Memo())
    W = build_weight_data(TRIANGLE)
    for m, coeffs in [(1, ((1,), (2,), (1,))), (1, ((3,), (4,), (2,))),
                      (2, ((0, 1), (1,), (1, 1))), (2, ((1, 0), (1, 1), (0, 2)))]:
        ring = make_ring(5, m, None, 4)
        s_cut = kernel_cut(ring)
        sc = splitting_coefficients(ring, s_cut)
        lam = tuple(teichmueller(ring, c) for c in coeffs)
        got = _table_arrays(kernel_sweep(lam, W, ring, sc, s_cut))
        assert list(dwork._SWEEPS.entries) == [(TRIANGLE.vectors, 5, 4, s_cut)]
        assert got == _fresh_sweep(monkeypatch, lam, W, ring, sc, s_cut), (m, coeffs)
    # the battery's p5-triangle, then p5-triangle-f25, through their operators
    ring1, ring2 = make_ring(5, 1, None, 4), make_ring(5, 2, None, 4)
    for case_id, ring in (("p5-triangle", ring1), ("p5-triangle-f25", ring2)):
        od = _battery_operator(case_id, ring)
        for oi in range(od.orbit_len):
            assert _table_arrays(od.kernel_table(oi)) == _fresh_sweep(
                monkeypatch, od.lam_orbit[oi], od.W, ring, od.sc, od.s_cut)
    assert len(dwork._SWEEPS) == 1


def test_sweep_plan_drops_states_by_the_orders_of_a(monkeypatch):
    # at p = 2, N = 8 past the default cut, a_11 = 0 mod 2^8 and the orders
    # of a_3, a_4, a_6, a_8, a_10, a_14 and a_15 add up to 8 on some nu:
    # those states are dropped before any product, whatever lambda is, and
    # the tables still equal bigF, a zero coefficient and a non-unit too
    monkeypatch.setattr(dwork, "_SWEEPS", padic.Memo())
    ring, s_cut = make_ring(2, 2, None, 8), 15
    W = build_weight_data(TRIANGLE)
    sc = splitting_coefficients(ring, s_cut)
    plan = dwork._sweep_plan(ring, TRIANGLE, sc, s_cut)
    assert [len(src) for src, _ in plan.levels] == [15, 125, 759]  # of 16, 136, 816
    ords = [split_p(a, 2)[0] if a % ring.pN else 8 for a in sc.a]
    assert sum(1 for nu in itertools.product(range(s_cut + 1), repeat=3)
               if sum(nu) <= s_cut and sum(ords[e] for e in nu) < 8) == 759
    two = RingElem(ring, [[2, 0]])
    for lam in [tuple(teichmueller(ring, c) for c in ((0, 1), (1,), (1, 1))),
                (teichmueller(ring, (1, 1)), ring.zero(), teichmueller(ring, (1,))),
                (two, teichmueller(ring, (0, 1)), two + two)]:
        table = kernel_sweep(lam, W, ring, sc, s_cut)
        assert sweep_mismatch(table, lam, W, ring, sc, s_cut) is None
    assert len(dwork._SWEEPS) == 1


def test_a_plan_past_the_budget_is_used_and_not_kept(monkeypatch):
    monkeypatch.setattr(dwork, "_SWEEPS", padic.Memo())
    ring = make_ring(3, 1, None, 4)
    W, s_cut = build_weight_data(TRIANGLE), kernel_cut(ring)
    sc = splitting_coefficients(ring, s_cut)
    lam = tuple(teichmueller(ring, (c,)) for c in (1, 2, 2))
    want = _fresh_sweep(monkeypatch, lam, W, ring, sc, s_cut)
    size = dwork._sweep_plan(ring, TRIANGLE, sc, s_cut).nbytes()
    monkeypatch.setattr(padic, "MEMO_BYTES", size - 1)
    assert _table_arrays(kernel_sweep(lam, W, ring, sc, s_cut)) == want
    assert not dwork._SWEEPS.entries and dwork._SWEEPS.held == 0
    monkeypatch.setattr(padic, "MEMO_BYTES", size)
    assert _table_arrays(kernel_sweep(lam, W, ring, sc, s_cut)) == want
    assert len(dwork._SWEEPS) == 1 and dwork._SWEEPS.held == size


@pytest.mark.parametrize("p, m", [(3, 1), (5, 2)])
def test_kernel_sweep_refuses_lambda_off_z_q(p, m):
    # a lambda with a nonzero pi-row >= 1 is outside the sweep's contract
    ring = make_ring(p, m, None, 3)
    W = build_weight_data(ExponentSet(1, EXPONENT_SETS["kloosterman"]))
    sc = splitting_coefficients(ring, 4)
    for row in range(1, ring.npi):
        digits = [[0] * m for _ in range(ring.npi)]
        digits[0][0], digits[row][m - 1] = 1, 1
        lam = (ring.one(), RingElem(ring, digits))
        with pytest.raises(ValueError, match="not in Z_q"):
            kernel_sweep(lam, W, ring, sc, 4)
    kernel_sweep((ring.one(), ring.one()), W, ring, sc, 4)


@pytest.mark.parametrize("case_id", [c["id"] for c in BATTERY + DEGENERATE_BATTERY
                                     + WIDE_P_BATTERY])
def test_kernel_tables_meet_the_artin_hasse_estimate(case_id):
    # ord b_e >= e/(p-1) for the operator's splitting series, and ord B_mu
    # >= w(mu)/(p-1) on every entry of every orbit point's kernel table: in
    # units of ord pi = 1/(p-1), order() >= e and order() >= w(mu)
    p = int(case_id.split("-")[0][1:])
    m = 2 if case_id.endswith(("f4", "f9", "f25")) else 1
    ring = make_ring(p, m, None, 4)
    od = _battery_operator(case_id, ring)
    assert all(b.order() is None or b.order() >= e for e, b in enumerate(od.sc.b))
    for oi in range(od.orbit_len):
        table = od.kernel_table(oi)
        for mu, c in zip(table, table.coeffs):
            v = RingElem(ring, c).order()
            assert v is not None and v >= weight(od.W, mu), (case_id, mu, v)


@pytest.mark.parametrize("case_id", [c["id"] for c in WIDE_P_BATTERY if c["p"] < 13])
def test_wide_p_kernel_table_matches_bigF(case_id):
    # at p = 7 and 11, at the operator's own cutoff N(p-1) - 1, every
    # coefficient gamma^s of the sweep's contraction is a full element of
    # Z_p[pi], with a digit in every pi-row; the reference reads each
    # lambda's powers once per comparison, not once per mu
    p = int(case_id.split("-")[0][1:])
    ring = make_ring(p, 1, None, 4)
    od = _battery_operator(case_id, ring)
    assert od.s_cut == 4 * (p - 1) - 1
    assert sweep_mismatch(od.kernel_table(0), od.lam_orbit[0], od.W, ring, od.sc,
                          od.s_cut) is None


@pytest.mark.parametrize("case", WIDE_P_BATTERY, ids=lambda c: c["id"])
def test_wide_p_routes_b_and_c_agree(case):
    # routes B and C at N = 4 agree on all 4 digits past the battery's primes
    report = run(job_dict(case, routes=("B", "C"), lmax=1)).data
    assert report["exit_code"] == 0 and not report["errors"]
    assert report["agreement"]["pairs"] == {"B-C": 4}
    assert report["routes"]["B"]["unit_root"] == report["routes"]["C"]["unit_root"]


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
    # and N = 8: the first k with (sum of the k + 1 smallest weights) >= N,
    # or dim when no k reaches it; a pool member's
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
                    if sum(ws[:k + 1]) >= N:
                        want = k
                        break
                checked[key] = fredholm_cap(W, basis, spec.p, N) == want
            assert checked[key], key
    assert len(configs) > len(cases)


def test_charpoly_caps():
    # A = {1} has weights 0, 1, 2, ... (D = 1), so 0 + 1 + ... + k first
    # reaches N = 4 at k = 3 (6), N = 6 at k = 3 too, N = 7 at k = 4 (10)
    # and N = 1 at k = 1, at every p, on the last basis element when dim = 4
    # at N = 4; three elements sum to 3 < 4, so the bound is never reached
    # and every c_k up to dim = 3 is computed
    W = build_weight_data(SINGLE)
    basis = [(i,) for i in range(8)]
    for p in (2, 3, 5, 31):
        assert fredholm_cap(W, basis, p, 4) == fredholm_cap(W, basis[:4], p, 4) == 3
        assert [fredholm_cap(W, basis, p, N) for N in (1, 6, 7)] == [1, 3, 4]
        assert fredholm_cap(W, basis[:3], p, 4) == 3
    # v_2 of 2,4,6,8 sums to 7 = v_2(8!), the digits Newton's identities lose
    assert charpoly_boost(2, 8) == 7


@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("case_id", ["p2-skew", "p2-triangle", "p3-triangle",
                                     "p3-kloosterman-f9", "p5-edge-degenerate"])
def test_dropped_shell_changes_no_digit(case_id, N):
    # a basis cut at Dwork's bound N p^2/(p-1)^2, at least 4, rounded up to
    # a multiple of 1/D, adds to the runner's only monomials at or past the
    # cycle bound; each cycle through them vanishes mod p^N, so det(I - T M)
    # and route B's unit root are the same on both
    case = {c["id"]: c for c in BATTERY + DEGENERATE_BATTERY}[case_id]
    p, ring = case["p"], make_ring(case["p"], case["field_degree"], None, N)
    cut = _battery_operator(case_id, ring)
    D = cut.W.D
    wide = _battery_operator(
        case_id, ring, wmax=F(math.ceil(D * max(4, F(N * p * p, (p - 1) ** 2))), D))
    assert wide.basis[:len(cut.basis)] == cut.basis and len(wide.basis) > len(cut.basis)
    assert cut.orbit_len == (2 if case_id.endswith("f9") else 1)
    assert (fredholm_coefficients(wide.full_matrix()).coeffs
            == fredholm_coefficients(cut.full_matrix()).coeffs)
    assert power_iteration_unit_root(wide).u == power_iteration_unit_root(cut).u
