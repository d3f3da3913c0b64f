"""Hypergeometric coefficient series, the ratio series, and route A."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitroots.battery import BATTERY, job_dict
from unitroots.dwork import default_s_cut
from unitroots.errors import NotARelation, PrecisionUnstable
from unitroots.hyperg import (LaurentSpec, MultiSeries, calF_series,
                              check_annihilators, digit_solutions,
                              generating_identity_check,
                              hyperg_coefficient_series, route_a_last_step,
                              route_a_once, unit_root_route_A_detailed)
from unitroots.padic import make_ring
from unitroots.runner import run
from unitroots.selftest import surviving_solutions
from unitroots.weights import ExponentSet

KLOOSTERMAN = ExponentSet(1, ((1,), (-1,)))
SKEW = ExponentSet(1, ((2,), (-1,)))
TRIANGLE = ExponentSet(2, ((1, 0), (0, 1), (-1, -1)))
SINGLE = ExponentSet(1, ((1,),))
EDGE = ExponentSet(2, ((0, 1), (1, 0), (2, -1)))
SQUARE = ExponentSet(2, ((1, 0), (0, 1), (-1, 0), (0, -1)))  # rank-2 relations


def test_f0_kloosterman_terms(ring3):
    F0 = hyperg_coefficient_series(KLOOSTERMAN, (0,), 4, ring3)
    pi = ring3.pi()
    assert F0.terms[(0, 0)] == ring3.one()
    assert F0.terms[(1, 1)] == pi * pi
    assert F0.terms[(2, 2)] == pi ** 4 * ring3.from_fraction(F(1, 4))
    assert set(F0.terms) == {(0, 0), (1, 1), (2, 2)}


def test_f0_single_is_one(ring3):
    F0 = hyperg_coefficient_series(SINGLE, (0,), 9, ring3)
    assert F0.terms == {(0,): ring3.one()}
    cf = calF_series(SINGLE, 9, ring3)
    assert cf.terms == {(0,): ring3.one()}


def test_fi_rational_flavor():
    Fi = hyperg_coefficient_series(KLOOSTERMAN, (2,), 6)
    # solutions u1 - u2 = 2: (2,0), (3,1), (4,2) up to degree 6
    assert Fi.terms[(2, 0)] == F(1, 2)
    assert Fi.terms[(3, 1)] == F(1, 6)
    assert Fi.terms[(4, 2)] == F(1, 48)


def test_calf_constant_and_first_terms(ring3):
    cf = calF_series(KLOOSTERMAN, 4, ring3)
    assert cf.terms[(0, 0)] == ring3.one()
    assert cf.terms[(1, 1)] == ring3.pi() ** 2


def test_coefficients_p_integral(ring5):
    F0 = hyperg_coefficient_series(KLOOSTERMAN, (0,), 12, ring5)
    for u, c in F0.terms.items():
        nonzero = sum(1 for e in u if e)
        assert c.val_at_least(F(nonzero, ring5.p - 1))


def test_generating_identity():
    assert generating_identity_check(SINGLE, 3, 6)
    assert generating_identity_check(KLOOSTERMAN, 3, 6)
    assert generating_identity_check(TRIANGLE, 2, 5)
    # negative control: a perturbed coefficient must be detected
    assert not generating_identity_check(
        KLOOSTERMAN, 3, 6,
        perturb=lambda i, u: F(1, 7) if i == (0,) and u == (1, 1) else 0)


@pytest.mark.parametrize("A,i,ell", [
    (KLOOSTERMAN, (0,), (1, 1)),
    (KLOOSTERMAN, (2,), (1, 1)),
    (KLOOSTERMAN, (0,), (2, 2)),
    (SKEW, (0,), (1, 2)),
    (SKEW, (1,), (1, 2)),
    (TRIANGLE, (0, 0), (1, 1, 1)),
    (TRIANGLE, (1, 0), (2, 2, 2)),
])
def test_annihilators_vanish(A, i, ell):
    assert check_annihilators(A, i, ell, 8, 3) is None


def test_annihilator_zero_relation():
    assert check_annihilators(KLOOSTERMAN, (0,), (0, 0), 6, 3) is None


def test_not_a_relation():
    with pytest.raises(NotARelation):
        check_annihilators(KLOOSTERMAN, (0,), (1, 2), 6, 3)


def test_route_a_kloosterman_p3(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    u = route_a_once(spec, 18, ring3, 1)
    assert u.rows == ((16,), (0,))  # frozen: quadratic z^2 - z + 3, unit branch


def test_route_a_kloosterman_p2(ring2):
    spec = LaurentSpec(KLOOSTERMAN, 2, 1, 1, ((1,), (1,)))
    u = route_a_once(spec, 16, ring2, 1)
    assert u.rows == ((5,),)  # frozen: quadratic z^2 + z + 2, unit branch


def test_route_a_orbit_product_f4():
    ring = make_ring(2, 2, None, 4)
    spec = LaurentSpec(KLOOSTERMAN, 2, 2, 1, ((0, 1), (1,)))
    u, agreed, _ = unit_root_route_A_detailed(spec, 16, ring, 2)
    assert u.rows[0] == (13, 0)  # frozen: quadratic z^2 - z + 4, unit branch
    assert agreed >= 4


def test_route_a_stabilization_policy(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    u, agreed, used = unit_root_route_A_detailed(
        spec, default_s_cut(ring3), ring3, 1)
    assert agreed >= ring3.N
    u2 = route_a_once(spec, 2 * used, ring3, 1)
    assert u == u2  # doubling beyond the accepted cap changes nothing


def test_route_a_rejects_tiny_budget(ring5):
    spec = LaurentSpec(SKEW, 5, 1, 1, ((2,), (1,)))
    with pytest.raises(PrecisionUnstable):
        unit_root_route_A_detailed(spec, 4, ring5, 1, max_rounds=2)


def test_route_a_degenerate_is_one(ring3):
    A = ExponentSet(2, ((0, 1), (1, 0), (2, -1)))
    spec = LaurentSpec(A, 3, 1, 1, ((1,), (2,), (1,)))
    assert route_a_once(spec, 12, ring3, 1) == ring3.one()


def test_shell_valuations_reach_one(ring3):
    # analytic continuation witness at small scale: shells eventually >= 1
    cf = calF_series(KLOOSTERMAN, 20, ring3)
    shells = cf.shell_min_valuations()
    assert shells[0] == 0
    tail = [v for d, v in shells.items() if d >= 8]
    assert all(v is None or v >= 1 for v in tail)


def test_series_inverse_roundtrip(ring3):
    s = hyperg_coefficient_series(KLOOSTERMAN, (0,), 10, ring3)
    inv = s.inverse()
    prod = s.mul(inv, 10)
    assert prod.terms == {(0, 0): ring3.one()}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ratio_times_denominator_is_numerator(p):
    # calF = F0(pi L) / F0(pi L^p) is exact mod p^N only if mul and inverse
    # skip just the pairs of order >= N(p-1); multiplying back by the
    # denominator must give the numerator through the cap
    ring = make_ring(p, 1, None, 4)
    cap = 8 * p
    for A in (KLOOSTERMAN, SKEW, TRIANGLE):
        zero = (0,) * A.n
        num = hyperg_coefficient_series(A, zero, cap, ring)
        den = hyperg_coefficient_series(A, zero, cap // p, ring).subst_power(p)
        assert len(den.terms) > 1
        assert calF_series(A, cap, ring).mul(den, cap).terms == num.terms, (p, A)


def test_multiseries_truncated():
    s = MultiSeries(1, 6, {(0,): F(1), (3,): F(2), (5,): F(1)})
    t = s.truncated(3)
    assert set(t.terms) == {(0,), (3,)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([SINGLE, KLOOSTERMAN, SKEW, TRIANGLE, EDGE, SQUARE]),
       st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(0, 14), st.data())
def test_digit_solutions_are_the_surviving_solutions(A, p, N, degmax, data):
    # every u with sum u_a a = i and |u| <= degmax whose pi^|u|/prod u_a!
    # survives mod p^N, each once
    if len(A.vectors) == 4:
        degmax = min(degmax, 10)
    i = tuple(data.draw(st.integers(-4, 4)) for _ in range(A.n))
    got = digit_solutions(A, i, degmax, p, N * (p - 1))
    want = surviving_solutions(A, i, degmax, p, N * (p - 1))
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(want)


def test_digit_solutions_nonzero_targets():
    # the carry starts at the target: i = 3 on Kloosterman is u1 - u2 = 3
    got = digit_solutions(KLOOSTERMAN, (3,), 9, 3, 8)
    assert sorted(got) == [(3, 0), (4, 1), (5, 2), (6, 3)]
    # at p = 3, N = 2 the digit sums 2 + 2 of (2, 2) reach N(p-1) = 4
    assert sorted(digit_solutions(KLOOSTERMAN, (0,), 6, 3, 4)) == [
        (0, 0), (1, 1), (3, 3)]
    assert sorted(digit_solutions(SQUARE, (1, -1), 4, 5, 8)) == [
        (1, 0, 0, 1), (1, 1, 0, 2), (2, 0, 1, 1)]


def test_route_a_last_step():
    # max_rounds steps past the first whose degree p^(s+1) - 1 reaches 4 degmax
    assert route_a_last_step(5, 4, 2) == 1 + 2
    assert route_a_last_step(3, 36, 12) == 4 + 12
    assert route_a_last_step(2, 1, 0) == 2


@pytest.mark.parametrize("cid", ["p2-skew", "p3-skew-f9", "p5-triangle"])
def test_route_a_matches_route_c_at_n6(cid):
    case = next(c for c in BATTERY if c["id"] == cid)
    rep = run(job_dict(case, precision=6, routes=("A", "C")))
    assert rep.exit_code == 0, rep.data["errors"]
    assert rep.data["agreement"]["pairs"]["A-C"] == 6
    route = rep.data["routes"]["A"]
    assert route["stop_step"] == route["weight_denominator"] * 6
