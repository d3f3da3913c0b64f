"""Hypergeometric coefficient series, the ratio series, and route A."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitroots import hyperg, padic
from unitroots.battery import (BATTERY, DEGENERATE_BATTERY, EXPONENT_SETS,
                               WIDE_P_BATTERY, job_dict)
from unitroots.errors import NotARelation, PrecisionUnstable
from unitroots.padic import RingElem
from unitroots.hyperg import (LaurentSpec, _f0_shells, _shell_value,
                              calF_series, check_annihilators,
                              digit_solutions, generating_identity_check,
                              hyperg_coefficient_series, route_a_last_step,
                              route_a_once, teichmueller_orbit,
                              unit_root_route_A_detailed)
from unitroots.padic import make_ring, powers, zq_powers, zq_values
from unitroots.runner import JobConfig, run
from unitroots.selftest import surviving_solutions
from unitroots.weights import ExponentSet, build_weight_data, lattice_solutions

from conftest import pi_pow_reference

KLOOSTERMAN = ExponentSet(1, ((1,), (-1,)))
SKEW = ExponentSet(1, ((2,), (-1,)))
TRIANGLE = ExponentSet(2, ((1, 0), (0, 1), (-1, -1)))
SINGLE = ExponentSet(1, ((1,),))
EDGE = ExponentSet(2, ((0, 1), (1, 0), (2, -1)))
SQUARE = ExponentSet(2, ((1, 0), (0, 1), (-1, 0), (0, -1)))  # rank-2 relations
ZERO_LAST = ExponentSet(2, ((1, 0), (0, 1), (0, 0)))


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


def _with_defect(monkeypatch, target, u, defect):
    """Make hyperg_coefficient_series add `defect` to F_target's L^u term."""
    exact = hyperg.hyperg_coefficient_series

    def defective(A, i, degmax, ring=None):
        series = exact(A, i, degmax, ring)
        if tuple(i) == target:
            series.terms[u] = series.terms.get(u, 0) + defect
        return series

    monkeypatch.setattr(hyperg, "hyperg_coefficient_series", defective)


def test_generating_identity(monkeypatch):
    assert generating_identity_check(SINGLE, 3, 6)
    assert generating_identity_check(KLOOSTERMAN, 3, 6)
    assert generating_identity_check(TRIANGLE, 2, 5)
    # negative control: a perturbed coefficient must be detected
    _with_defect(monkeypatch, (0,), (1, 1), F(1, 7))
    assert not generating_identity_check(KLOOSTERMAN, 3, 6)


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


@pytest.mark.parametrize("A,u,ells", [
    # box residuals: an on-support defect keeps the Euler operators happy
    (KLOOSTERMAN, (2, 2), [(1, 1), (2, 2), (-1, -1)]),
    # reach 9 at degree 8: the residuals come from F_0 past degree 8
    (TRIANGLE, (1, 1, 1), [(3, 3, 3)]),
    (SKEW, (1, 2), [(-3, -6)]),
    # Euler residual: an off-support term; the zero relation has no box residual
    (KLOOSTERMAN, (1, 0), [(0, 0), (1, 1)]),
], ids=["kloosterman-box", "triangle-reach-9", "skew-reach-9", "kloosterman-euler"])
def test_annihilators_see_a_defect(monkeypatch, A, u, ells):
    zero = (0,) * A.n
    _with_defect(monkeypatch, zero, u, 1)
    for ell in ells:
        assert check_annihilators(A, zero, ell, 8, 3) == 0, ell


def test_annihilator_zero_relation():
    assert check_annihilators(KLOOSTERMAN, (0,), (0, 0), 6, 3) is None


def test_not_a_relation():
    with pytest.raises(NotARelation):
        check_annihilators(KLOOSTERMAN, (0,), (1, 2), 6, 3)


def test_route_a_kloosterman_p3(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    u = route_a_once(spec, 18, ring3, 1)
    assert u.digits() == [[16], [0]]  # frozen: quadratic z^2 - z + 3, unit branch


def test_route_a_kloosterman_p2(ring2):
    spec = LaurentSpec(KLOOSTERMAN, 2, 1, 1, ((1,), (1,)))
    u = route_a_once(spec, 16, ring2, 1)
    assert u.digits() == [[5]]  # frozen: quadratic z^2 + z + 2, unit branch


def test_route_a_orbit_product_f4():
    ring = make_ring(2, 2, None, 4)
    spec = LaurentSpec(KLOOSTERMAN, 2, 2, 1, ((0, 1), (1,)))
    res = unit_root_route_A_detailed(spec, build_weight_data(spec.A), ring, 2)
    assert res.u.digits()[0] == [13, 0]  # frozen: quadratic z^2 - z + 4, unit branch
    assert res.stability_digits >= 4


def test_route_a_stabilization_policy(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    res = unit_root_route_A_detailed(spec, build_weight_data(spec.A), ring3, 1)
    assert res.stability_digits >= ring3.N
    u2 = route_a_once(spec, 2 * res.degmax_used, ring3, 1)
    assert res.u == u2  # doubling beyond the accepted cap changes nothing


def test_route_a_rejects_tiny_budget(monkeypatch):
    # skew has D = 2, so at N = 8 route A stops no earlier than step 16, and
    # at p = 5 it takes steps only up to 15: it refuses before it enumerates
    # a single term
    def never(*args):
        raise AssertionError("route A enumerated past its last step")

    monkeypatch.setattr(hyperg, "_digit_levels", never)
    case = next(c for c in BATTERY if c["id"] == "p5-skew")
    rep = run(job_dict(case, precision=8, routes=("A",)))
    assert rep.data["errors"]["A"] == (
        "PrecisionUnstable: route A stops no earlier than step 16 (degree "
        f"{5 ** 17 - 1}) but takes steps up to 15 at p = 5, N = 8")
    assert "A" not in rep.data["routes"]


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


def _qpi_mul(x, y, p):
    """Product in Q(pi), pi^(p-1) = -p, of coefficient tuples by pi^j."""
    out = [F(0)] * (p - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            k, c = i + j, a * b
            if k >= p - 1:
                k, c = k - (p - 1), -p * c
            out[k] += c
    return out


def _exact_ratio(A, cap, p):
    """F_0(pi L) / F_0(pi L^p) through degree cap, exactly in Q(pi):
    F_0's terms from the lattice solver, divided degree by degree."""
    def f0(u):
        k = sum(u)
        c = [F(0)] * (p - 1)
        c[k % (p - 1)] = F((-p) ** (k // (p - 1)), math.prod(map(math.factorial, u)))
        return c

    support = sorted(lattice_solutions(A, (0,) * A.n, cap), key=sum)
    num = {u: f0(u) for u in support}
    den = {tuple(p * x for x in u): f0(u) for u in support if p * sum(u) <= cap}
    ratio = {}
    for u in support:  # den's constant term is 1
        acc = num[u]
        for v, d in den.items():
            w = tuple(x - y for x, y in zip(u, v))
            if any(v) and w in ratio:
                acc = [a - b for a, b in zip(acc, _qpi_mul(d, ratio[w], p))]
        ratio[u] = acc
    return ratio


@pytest.mark.parametrize("name", ["single", "kloosterman", "skew", "triangle", "edge"])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", [2, 4])
def test_calf_matches_the_exact_ratio_in_q_pi(name, p, N):
    # the witness against the ratio computed in Q(pi) with no MultiSeries,
    # so an error mul and the inverse share cannot cancel out
    vecs = EXPONENT_SETS[name]
    A = ExponentSet(len(vecs[0]), vecs)
    ring = make_ring(p, 1, None, N)
    pi_powers = powers(ring.pi(), p - 2)
    for cap in (24, 37, 60):
        want = {}
        for u, c in _exact_ratio(A, cap, p).items():
            x = sum((ring.from_fraction(a) * t for a, t in zip(c, pi_powers)),
                    ring.zero())
            if x:
                want[u] = x
        assert calF_series(A, cap, ring).terms == want, cap


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([SINGLE, KLOOSTERMAN, SKEW, TRIANGLE, EDGE, SQUARE, ZERO_LAST]),
       st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.integers(0, 14), st.data())
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
    # 12 steps past the first whose degree p^(s+1) - 1 reaches
    # 4 ceil(N p^2 / (p-1)): 4 * 36 at p = 3, N = 8 and 4 * 50 at p = 5,
    # N = 8, reached at s = 4 (242) and s = 3 (624); 4 * 16 at p = 2, N = 4
    # at s = 6 (127)
    assert route_a_last_step(make_ring(3, 1, None, 8)) == 4 + 12
    assert route_a_last_step(make_ring(5, 1, None, 8)) == 3 + 12
    assert route_a_last_step(make_ring(2, 2, None, 4)) == 6 + 12


@pytest.mark.parametrize("cid", ["p2-skew", "p3-skew-f9", "p5-triangle"])
def test_route_a_matches_route_c_at_n6(cid):
    case = next(c for c in BATTERY if c["id"] == cid)
    rep = run(job_dict(case, precision=6, routes=("A", "C")))
    assert rep.exit_code == 0, rep.data["errors"]
    assert rep.data["agreement"]["pairs"]["A-C"] == 6
    route = rep.data["routes"]["A"]
    assert route["stop_step"] == route["weight_denominator"] * 6


@pytest.mark.parametrize("cid", ["p11-skew", "p13-skew"])
@pytest.mark.parametrize("N", [2, 3])
def test_route_a_past_d_n_matches_route_c(cid, N):
    # at p = 11 and 13 the skew cases first agree one step past D N, so
    # route A enumerates the shells past D N one step at a time
    case = next(c for c in WIDE_P_BATTERY if c["id"] == cid)
    rep = run(job_dict(case, precision=N, routes=("A", "C"), lmax=1))
    assert rep.exit_code == 0, rep.data["errors"]
    route = rep.data["routes"]["A"]
    assert route["stop_step"] == route["weight_denominator"] * N + 1
    assert route["unit_root"] == rep.data["routes"]["C"]["unit_root"]


def test_route_a_that_never_agrees_names_its_best(monkeypatch):
    # p11-skew at N = 3 agrees only at step D N + 1 = 7; cut at step 6 it
    # refuses, naming the 2 digits of step 6
    monkeypatch.setattr(hyperg, "route_a_last_step", lambda ring: 6)
    case = next(c for c in WIDE_P_BATTERY if c["id"] == "p11-skew")
    rep = run(job_dict(case, precision=3, routes=("A",), lmax=1))
    assert rep.data["errors"]["A"] == (
        "PrecisionUnstable: route A steps 6..6 never agreed with the step 2 "
        "before (best agreement 2 digits)")
    assert "A" not in rep.data["routes"]


def _shells_reference(A, ring, s_lo, s_hi):
    """_f0_shells term by term: the lattice solver's solutions, rational
    digits."""
    p, npi = ring.p, ring.npi
    qm1 = p ** ring.m - 1
    shells = [{} for _ in range(s_lo, s_hi + 1)]
    terms = 0
    for u in surviving_solutions(A, (0,) * A.n, p ** (s_hi + 1) - 1, p, ring.N * npi):
        k = sum(u)
        if k < p ** s_lo:
            continue
        shell = max(s for s in range(s_hi + 1) if p ** s <= k)
        row = k % npi
        digit = pi_pow_reference(ring, k, u).digits()[row][0]
        key = tuple(x and (x - 1) % qm1 + 1 for x in u)
        acc = shells[shell - s_lo].setdefault(key, [0] * npi)
        acc[row] = (acc[row] + digit) % ring.pN
        terms += 1
    return shells, terms


@pytest.mark.parametrize("name", sorted(EXPONENT_SETS))
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [2, 4])
def test_f0_shells_match_term_by_term_reference(name, p, m, N):
    vecs = EXPONENT_SETS[name]
    A = ExponentSet(len(vecs[0]), vecs)
    ring = make_ring(p, m, None, N)
    s_hi = {2: 4, 3: 3, 5: 2}[p]  # degrees through 31, 80 and 124
    for s_lo in (0, 1):
        shells, terms = _f0_shells(A, ring, s_lo, s_hi)
        got = [{tuple(c): d for c, d in zip(classes.tolist(), digits.tolist())}
               for classes, digits in shells]
        assert (got, terms) == _shells_reference(A, ring, s_lo, s_hi), s_lo


@pytest.mark.parametrize("case", BATTERY + DEGENERATE_BATTERY, ids=lambda c: c["id"])
def test_shell_value_matches_ring_element_products(case):
    # every shell route A reads before its first stop (s <= D N) at N = 4,
    # at lambda and at lambda^p, against one RingElem product per class and
    # coefficient: digits in pi-row `row` at t^0, times lambda_a^(c_a shift)
    spec = JobConfig.from_dict(job_dict(case)).laurent_spec()
    p, m = case["p"], case["field_degree"]
    ring = make_ring(p, m, None, 4)
    q = p ** m
    lam = teichmueller_orbit(spec, ring, 1)[0]
    tables = np.stack([zq_powers(ring, x, q - 1) for x in zq_values(lam)])
    pows = [powers(x, q - 1) for x in lam]
    assert tables.tolist() == [[list(y.slots[:m]) for y in pw] for pw in pows]
    D = build_weight_data(spec.A).D
    shells, _ = _f0_shells(spec.A, ring, 0, D * ring.N)
    for classes, digits in shells:
        for shift in (1, p):
            want = ring.zero()
            for key, row in zip(classes.tolist(), digits.tolist()):
                term = ring.from_slots([c for d in row for c in [d] + [0] * (m - 1)])
                for pw, c in zip(pows, key):
                    if c:
                        term = term * pw[(c * shift - 1) % (q - 1) + 1]
                want = want + term
            assert _shell_value((classes, digits), tables, shift, ring) == want


def _series_reference(A, i, degmax, ring):
    """F_i(pi*L)'s terms one by one: the lattice solver's solutions,
    rational digits."""
    return {u: pi_pow_reference(ring, sum(u), u)
            for u in surviving_solutions(A, i, degmax, ring.p, ring.N * ring.npi)}


@pytest.mark.parametrize("name", sorted(EXPONENT_SETS))
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [2, 4])
def test_series_match_term_by_term_reference(name, p, m, N):
    # the series witness reads its digits from the same array rule as
    # route A; each term equals pi^|u| / prod u_a! from its definition
    vecs = EXPONENT_SETS[name]
    A = ExponentSet(len(vecs[0]), vecs)
    ring = make_ring(p, m, None, N)
    for i in ((0,) * A.n, (1,) + (0,) * (A.n - 1)):
        got = hyperg_coefficient_series(A, i, 30, ring).terms
        assert got == _series_reference(A, i, 30, ring), i


def test_route_a_past_the_int64_rule_refuses_at_once(monkeypatch):
    # 5^14 is past the int64 rule: route A records PrecisionTooLow, naming
    # the bound, before it enumerates a single term
    def never(*args):
        raise AssertionError("route A enumerated past the int64 rule")

    monkeypatch.setattr(hyperg, "_digit_levels", never)
    case = next(c for c in BATTERY if c["id"] == "p5-kloosterman")
    rep = run(job_dict(case, precision=14, routes=("A",)))
    assert rep.data["errors"]["A"].startswith("PrecisionTooLow: p^N = 6103515625 ")
    assert "A" not in rep.data["routes"]


# unit_root, steps, stop_step and terms as recorded before route A lost its
# inverse per step; p2-skew at N = 8 is the D = 2 plateau case
ROUTE_A_RECORDS = {
    ("p2-skew", 8): ([[165]], [None, None, 2, 3, 3, 8, 5, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8],
                     16, 681),
    ("p5-skew", 4): ([[551], [360], [435], [311]], [None, None, 1, 1, 2, 2, 3, 3, 4],
                     8, 4115),
}


@pytest.mark.parametrize("cid,N", sorted(ROUTE_A_RECORDS))
def test_route_a_record_is_pinned(monkeypatch, cid, N):
    inverses = []
    inverse = RingElem.inverse
    monkeypatch.setattr(RingElem, "inverse",
                        lambda self: inverses.append(self) or inverse(self))
    case = next(c for c in BATTERY if c["id"] == cid)
    route = run(job_dict(case, precision=N, routes=("A",))).data["routes"]["A"]
    assert (route["unit_root"], route["steps"], route["stop_step"],
            route["terms"]) == ROUTE_A_RECORDS[cid, N]
    assert len(inverses) == 1  # one inverse, at the stop


def test_blocks_and_batches_do_not_change_the_terms(monkeypatch):
    # tiny blocks and batches split every level and join every batch, as
    # the large runs do: the same solutions, the same shells, the same series
    monkeypatch.setattr(hyperg, "BLOCK_STATES", 2)
    monkeypatch.setattr(hyperg, "BATCH_TERMS", 3)
    for A, p, N, m in [(KLOOSTERMAN, 3, 4, 2), (SKEW, 5, 2, 1), (TRIANGLE, 2, 4, 1),
                       (SQUARE, 3, 2, 1)]:
        i = (0,) * A.n
        got = digit_solutions(A, i, 30, p, N * (p - 1))
        assert sorted(got) == sorted(surviving_solutions(A, i, 30, p, N * (p - 1)))
        ring = make_ring(p, m, None, N)
        assert hyperg_coefficient_series(A, i, 30, ring).terms == \
            _series_reference(A, i, 30, ring)
        s_hi = {2: 4, 3: 3, 5: 2}[p]
        shells, terms = _f0_shells(A, ring, 1, s_hi)
        got = [{tuple(c): d for c, d in zip(classes.tolist(), digits.tolist())}
               for classes, digits in shells]
        assert (got, terms) == _shells_reference(A, ring, 1, s_hi), (A, p)


def test_route_a_family_sums_its_shells_once(monkeypatch):
    # the 16 coefficient pairs of p5-kloosterman at N = 4, one after another
    # in one process: the shells are summed for the first pair alone, and
    # every record equals a run with the shells memo emptied
    monkeypatch.setattr(hyperg, "_SHELLS", padic.Memo())
    sums = []
    monkeypatch.setattr(hyperg, "_f0_shells",
                        lambda *args, f=hyperg._f0_shells: sums.append(args) or f(*args))
    case = next(c for c in BATTERY if c["id"] == "p5-kloosterman")

    def record(coeffs):
        data = run(job_dict(dict(case, coeffs=coeffs), precision=4, routes=("A",))).data
        return data["routes"]["A"], data["errors"]
    pairs = [((c1,), (c2,)) for c1 in range(1, 5) for c2 in range(1, 5)]
    got = []
    for coeffs in pairs:
        got.append(record(coeffs))
        if coeffs == pairs[0]:
            first = len(sums)
    assert first and len(sums) == first
    assert len({str(r) for r in got}) > 1  # the pairs do not all share a root
    for coeffs, want in zip(pairs, got):
        with monkeypatch.context() as fresh:
            fresh.setattr(hyperg, "_SHELLS", padic.Memo())
            assert record(coeffs) == want, coeffs


def test_shells_past_the_budget_are_used_and_not_kept(monkeypatch):
    monkeypatch.setattr(hyperg, "_SHELLS", padic.Memo())
    case = next(c for c in BATTERY if c["id"] == "p3-kloosterman")
    job = job_dict(case, precision=4, routes=("A",))
    want = run(job).data["routes"]["A"]
    held = hyperg._SHELLS.held
    assert held and len(hyperg._SHELLS)
    monkeypatch.setattr(hyperg, "_SHELLS", padic.Memo())
    monkeypatch.setattr(padic, "MEMO_BYTES", 0)
    assert run(job).data["routes"]["A"] == want
    assert not hyperg._SHELLS.entries and hyperg._SHELLS.held == 0
