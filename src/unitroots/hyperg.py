"""Truncated hypergeometric coefficient series and route A.

The generating identity  prod_a exp(L_a X^a) = sum_i F_i(L) X^i  defines the
coefficient series F_i, supported on {u >= 0 : sum u_a a = i} with terms
L^u / prod(u_a!).  In F_i(pi*L) the term pi^|u| / prod(u_a!) has pi-order
sum_a s_p(u_a), the base-p digit sums, so it vanishes mod p^N unless that
sum is below N(p-1); digit_solutions enumerates exactly the surviving u,
digit by digit in base p.

Route A (unit_root_route_A_detailed) follows Dwork's "p-adic cycles":
the unit root is the special value of the continuation of
F_0(pi*L) / F_0(pi*L^p) over the Frobenius orbit of the Teichmueller point,
and step s evaluates it as a ratio of truncated sums,
prod_i F_0^(<p^(s+1))(pi*lambda_i) / F_0^(<p^s)(pi*lambda_(i+1)), summed
directly over F_0's surviving terms and grouped by the class of u mod
(q-1).  It stops by an empirical rule (see that function) and needs no
series inverse.

calF_series, route_a_once and MultiSeries keep the series form of the same
ratio as the analytic-continuation witness: the ratio as a truncated
power series, evaluated on the orbit.  Series are dictionaries from exponent
tuples to nonzero coefficients, with a total-degree cap.  Series arithmetic
is for ring series (RingElem coefficients, pi-scaled) only: the product and
the inverse skip every pair of terms whose pi-orders sum to N(p-1) or more,
since such a product is zero mod p^N and skipping it changes no digit.
Fraction series are coefficient holders for the GKZ and generating-identity
checks, which read their terms directly.
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotARelation, PrecisionUnstable
from .padic import (RingElem, pi_pow_digit, pi_pow_over_factorials, powers,
                    split_p, teichmueller)
from .weights import ExponentSet, build_weight_data


@dataclass(frozen=True)
class LaurentSpec:
    """A Laurent polynomial datum: exponents A, field presentation, coefficients.

    Coefficients are residue-field elements of F_{p^m}, each an ascending
    t-coefficient list mod p; epsilon fixes the base field F_q, q = p^epsilon.
    """
    A: ExponentSet
    p: int
    m: int
    epsilon: int
    coeffs: tuple  # one t-coefficient tuple per a in A
    field_poly: tuple = None  # presentation modulus; deterministic default if None

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(tuple(int(c) % self.p for c in cf) for cf in self.coeffs))
        if self.field_poly is not None:
            object.__setattr__(self, "field_poly",
                               tuple(int(c) for c in self.field_poly))
        if self.m % self.epsilon != 0:
            raise ValueError("epsilon must divide the field degree m")
        if len(self.coeffs) != len(self.A.vectors):
            raise ValueError("need one coefficient per exponent vector")
        if any(len(cf) > self.m for cf in self.coeffs):
            raise ValueError("coefficient degree exceeds field degree")


class MultiSeries:
    """Power series in one variable per exponent of A, truncated by total degree."""

    __slots__ = ("nvars", "degmax", "terms")

    def __init__(self, nvars, degmax, terms=None):
        self.nvars = nvars
        self.degmax = degmax
        self.terms = {}
        if terms:
            for u, c in terms.items():
                if sum(u) <= degmax and c:
                    self.terms[tuple(u)] = c

    def mul(self, other, cap):
        """Truncated product of ring series, skipping pairs of order >= N(p-1)."""
        if not self.terms or not other.terms:
            return MultiSeries(self.nvars, cap)
        spec = next(iter(self.terms.values())).spec
        floor = spec.N * spec.npi
        a = [(u, c, sum(u), c.order()) for u, c in self.terms.items()]
        b = [(u, c, sum(u), c.order()) for u, c in other.terms.items()]
        out = {}
        for u1, c1, d1, v1 in a:
            for u2, c2, d2, v2 in b:
                if d1 + d2 > cap or v1 + v2 >= floor:
                    continue
                u = tuple(x + y for x, y in zip(u1, u2))
                prod = c1 * c2
                out[u] = out[u] + prod if u in out else prod
        return MultiSeries(self.nvars, cap, out)

    def subst_power(self, k):
        """Substitute each variable by its k-th power (degree cap scales too)."""
        return MultiSeries(self.nvars, self.degmax * k,
                           {tuple(k * e for e in u): c for u, c in self.terms.items()})

    def inverse(self):
        """Inverse of a ring series with constant term 1, by degree-shell
        recurrence, skipping pairs of order >= N(p-1) like mul.

        Work is proportional to the nonzero shell structure: the degrees
        1..degmax are taken in order, and each finished inverse shell
        scatters its products forward into the pending sums of higher
        degrees, so a degree with no pending sum costs nothing (no heap).
        """
        zero = (0,) * self.nvars
        one = self.terms.get(zero)
        assert one is not None and one == one.spec.one(), "constant term must be 1"
        floor = one.spec.N * one.spec.npi
        shells = {}
        for u, c in self.terms.items():
            d = sum(u)
            if d:
                shells.setdefault(d, []).append((u, c, c.order()))
        degrees = sorted(shells)
        out = {zero: one}
        pending = {}

        def scatter(d_src, shell):
            for e in degrees:
                d = d_src + e
                if d > self.degmax:
                    break
                acc = pending.get(d)
                if acc is None:
                    acc = pending[d] = {}
                for u1, c1, v1 in shells[e]:
                    for u2, (c2, v2) in shell.items():
                        if v1 + v2 >= floor:
                            continue
                        u = tuple(a + b for a, b in zip(u1, u2))
                        prod = c1 * c2
                        acc[u] = acc[u] + prod if u in acc else prod

        scatter(0, {zero: (one, 0)})
        for d in range(1, self.degmax + 1):
            acc = pending.pop(d, None)
            if not acc:
                continue
            shell = {u: (-c, c.order()) for u, c in acc.items() if c}
            if not shell:
                continue
            for u, (c, _) in shell.items():
                out[u] = c
            scatter(d, shell)
        return MultiSeries(self.nvars, self.degmax, out)

    def evaluate(self, point):
        """Sum of coeff * prod(point_a^u_a); point entries are ring elements."""
        pows = {}  # (a, e): point[a]^e
        acc = None
        for u in sorted(self.terms):
            term = self.terms[u]
            for a, e in enumerate(u):
                if e == 0:
                    continue
                if (a, e) not in pows:
                    pows[a, e] = point[a] ** e
                term = term * pows[a, e]
            acc = term if acc is None else acc + term
        return acc

    def shell_min_valuations(self):
        """Per-total-degree minimum valuation of a ring series; a degree
        with no nonzero coefficient (all of order >= N) is absent."""
        shells = {}
        for u, c in self.terms.items():
            d = sum(u)
            v = c.valuation()
            if d not in shells or v < shells[d]:
                shells[d] = v
        return shells


def _solutions(A, target, degmax):
    """All u >= 0 with sum u_a a = target and |u| <= degmax, lexicographic."""
    vecs = A.vectors
    n = A.n
    out = []

    def rec(idx, budget, residual, prefix):
        if idx == len(vecs) - 1:
            a = vecs[idx]
            # residual must be a nonnegative multiple of a
            k = None
            for i in range(n):
                if a[i] != 0:
                    if residual[i] % a[i]:
                        return
                    kk = residual[i] // a[i]
                    if k is None:
                        k = kk
                    elif k != kk:
                        return
            if k is None:  # a == 0 is excluded by distinctness unless A = {0}
                k = 0
            if k < 0 or k > budget:
                return
            if any(residual[i] != k * a[i] for i in range(n)):
                return
            out.append(tuple(prefix + [k]))
            return
        a = vecs[idx]
        for c in range(budget + 1):
            rec(idx + 1, budget - c,
                tuple(residual[i] - c * a[i] for i in range(n)), prefix + [c])

    rec(0, degmax, tuple(target), [])
    del rec  # rec's cell holds rec: a cycle that would keep out alive
    return out


def digit_solutions(A, target, degmax, p, order_bound):
    """Every u >= 0 with sum_a u_a a = target, |u| <= degmax and
    sum_a s_p(u_a) < order_bound, where s_p is the base-p digit sum.

    pi^|u| / prod u_a! has pi-order sum_a s_p(u_a), so with
    order_bound = N(p-1) these are exactly the terms of F_target(pi*L)
    that survive mod p^N.  The u are built digit by digit from the lowest
    base-p position j, carrying c = (target - sum_a (u_a mod p^j) a) / p^j:
    the digits d at position j must have sum_a d_a a = c mod p, and the next
    carry is (c - sum_a d_a a) / p.  A carry of 0 ends a solution (all higher
    digits zero) or jumps to the next nonzero digit.  A branch is cut once
    its digit sums reach order_bound, its degree passes degmax, or its carry
    is too large for the degree left to cancel, |c| p^j > max|a| (degmax - |u|).
    """
    vecs = A.vectors
    k, n = len(vecs), A.n
    amax = max(abs(c) for a in vecs for c in a)
    # digit vectors by the residue of their contribution, cheapest first
    by_res = {}
    for d in itertools.product(range(p), repeat=k):
        s = sum(d)
        if s < order_bound:
            contrib = tuple(sum(x * a[i] for x, a in zip(d, vecs)) for i in range(n))
            by_res.setdefault(tuple(c % p for c in contrib), []).append((s, d, contrib))
    for digits in by_res.values():
        digits.sort()
    nonzero = [e for e in by_res[(0,) * n] if e[0]]
    out = []

    def extend(j, pj, carry, budget, u, deg, digits):
        for s, d, contrib in digits:
            if s > budget or s * pj > degmax - deg:
                break
            rec(j + 1, pj * p, tuple((c - x) // p for c, x in zip(carry, contrib)),
                budget - s, tuple(x + y * pj for x, y in zip(u, d)), deg + s * pj)

    def rec(j, pj, carry, budget, u, deg):
        if not any(carry):
            out.append(u)
            while budget and pj <= degmax - deg:
                extend(j, pj, carry, budget, u, deg, nonzero)
                j, pj = j + 1, pj * p
            return
        if max(map(abs, carry)) * pj > amax * (degmax - deg):
            return
        digits = by_res.get(tuple(c % p for c in carry))
        if digits:
            extend(j, pj, carry, budget, u, deg, digits)

    if degmax >= 0 and order_bound > 0:
        rec(0, 1, tuple(target), order_bound - 1, (0,) * k, 0)
    del rec, extend  # their cells hold each other: a cycle that would keep out alive
    return out


def hyperg_coefficient_series(A, i, degmax, ring=None):
    """F_i, truncated at total degree degmax.

    With a ring given, returns F_i(pi*L): coefficient pi^|u| / prod(u_a!),
    always p-integral, over digit_solutions, so only the terms that survive
    mod p^N are visited.  Without a ring, returns the exact rational series
    F_i(L) used by the differential-system checks.
    """
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    i = tuple(int(c) for c in i) if hasattr(i, "__len__") else (int(i),)
    if ring is None:
        terms = {u: Fraction(1, math.prod(math.factorial(e) for e in u))
                 for u in _solutions(A, i, degmax)}
    else:
        terms = {u: pi_pow_over_factorials(ring, sum(u), u)
                 for u in digit_solutions(A, i, degmax, ring.p, ring.N * ring.npi)}
    return MultiSeries(len(A.vectors), degmax, terms)


def calF_series(A, degmax, ring):
    """Truncation of F_0(pi*L) / F_0(pi*L^p)."""
    num = hyperg_coefficient_series(A, (0,) * A.n, degmax, ring)
    den = hyperg_coefficient_series(A, (0,) * A.n, degmax // ring.p, ring)
    den = den.subst_power(ring.p)
    return num.mul(den.inverse(), degmax)


def _teichmueller_orbit(spec, ring, length):
    """[lambda^(p^i)]_a for i = 0..length-1, as tuples of ring elements."""
    lam = tuple(teichmueller(ring, cf) for cf in spec.coeffs)
    orbit = [lam]
    for _ in range(length - 1):
        lam = tuple(x ** ring.p for x in lam)
        orbit.append(lam)
    return orbit


def route_a_once(spec, degmax, ring, orbit_length):
    """Orbit product of the truncated ratio series at one truncation degree."""
    series = calF_series(spec.A, degmax, ring)
    u = ring.one()
    for point in _teichmueller_orbit(spec, ring, orbit_length):
        u = u * series.evaluate(point)
    return u


@dataclass(frozen=True)
class RouteA:
    """Route A's unit root and what its stopping rule saw.

    steps[s] is the number of digits on which u_s and u_(s-D) agree (None
    for s < D); the run stopped at step stop_step, having summed `terms`
    nonzero terms of F_0 up to degree degmax_used = p^(stop_step+1) - 1.
    """
    u: object
    stability_digits: int
    degmax_used: int
    steps: tuple
    stop_step: int
    weight_denominator: int
    terms: int


def _f0_shells(A, ring, s_lo, s_hi):
    """The terms of F_0(pi*L) with p^s_lo <= |u| < p^(s_hi+1), by shell.

    Shell s holds p^s <= |u| < p^(s+1).  A term pi^|u| / prod u_a! is one
    digit in pi-row |u| mod (p-1) (pi_pow_digit), and at a Teichmueller point
    lambda^u depends only on each u_a mod (q-1) (q = p^m) once u_a > 0, so a
    shell is a dict from that class, with 0 kept for u_a = 0, to its digit
    sums per pi-row.  Returns (shells, number of terms).
    """
    p, npi = ring.p, ring.npi
    qm1 = p ** ring.m - 1
    bounds = [p ** s for s in range(s_lo, s_hi + 2)]
    shells = [{} for _ in range(s_lo, s_hi + 1)]
    count = 0
    for u in digit_solutions(A, (0,) * A.n, bounds[-1] - 1, p, ring.N * npi):
        k = sum(u)
        if k < bounds[0]:
            continue
        row, digit = pi_pow_digit(ring, k, u)
        key = tuple(x and (x - 1) % qm1 + 1 for x in u)
        shell = shells[bisect.bisect_right(bounds, k) - 1]
        acc = shell.get(key)
        if acc is None:
            acc = shell[key] = [0] * npi
        acc[row] += digit
        count += 1
    return shells, count


def _shell_value(shell, lam_powers, shift, ring):
    """A shell of _f0_shells evaluated at lambda^shift, from lambda's powers."""
    pN, qm1, pad = ring.pN, len(lam_powers[0]) - 1, (0,) * (ring.m - 1)
    total = ring.zero()
    for key, digits in shell.items():
        term = RingElem(ring, tuple((d % pN,) + pad for d in digits), check=False)
        for pw, c in zip(lam_powers, key):
            if c:
                term = term * pw[(c * shift - 1) % qm1 + 1]
        total = total + term
    return total


def _agreement(x, y, ring):
    diff = (x - y).order()
    return ring.N if diff is None else diff // ring.npi


def route_a_last_step(p, degmax, max_rounds):
    """The last step route A may take: max_rounds past the first step s whose
    truncation degree p^(s+1) - 1 reaches 4 * degmax."""
    s = 0
    while p ** (s + 1) - 1 < 4 * degmax:
        s += 1
    return s + max_rounds


def unit_root_route_A_detailed(spec, degmax, ring, orbit_length, max_rounds=12):
    """The unit root by Dwork's truncated ratios, with its stopping record.

    With lambda_i = lambda^(p^i) and lambda_L = lambda for the orbit length
    L, step s evaluates

        u_s = prod_(i<L) F_0^(<p^(s+1))(pi*lambda_i) / F_0^(<p^s)(pi*lambda_(i+1)),

    F_0^(<T) summing the terms with |u| < T.  The denominators are units,
    so no precision is lost; since the orbit closes, u_s = P_s / P_(s-1)
    with P_s = prod_i F_0^(<p^(s+1))(pi*lambda_i), and each step only adds
    the shell p^s <= |u| < p^(s+1) of F_0's surviving terms (_f0_shells).

    Stopping rule, empirical: stop at the first s >= D*N, D the weight
    denominator, with u_s = u_(s-D) mod p^N.  It rests on the observation
    that u_s is correct to at least floor(s/D) + 1 digits, which held on
    all 64 golden pool members of the benchmark's battery-n4 at N = 4 and on 12
    case/precision pairs up to N = 8; it is not proven.  Comparing with
    u_(s-1) instead is wrong: for D = 2 consecutive steps plateau (p2-skew
    at N = 8 is correct to 2, 3, 3, 7, 5, 7, 7, 8 digits at s = 0..7), and
    that comparison stops early with wrong digits on p2-skew, p2-skew-f4
    and p3-skew-f9 at N = 4.  The cross-route agreement checks are the
    backstop.

    degmax and max_rounds bound the steps: the last step allowed is
    route_a_last_step(p, degmax, max_rounds), max_rounds past the first
    whose truncation degree reaches 4 * degmax.  PrecisionUnstable is raised
    at once if that is below D*N, or when no step up to it agrees.  D is
    computed from spec.A.
    """
    p, N = ring.p, ring.N
    D = build_weight_data(spec.A).D
    first = D * N
    last = route_a_last_step(p, degmax, max_rounds)
    if last < first:
        raise PrecisionUnstable(
            f"route A stops no earlier than step {first} (degree "
            f"{p ** (first + 1) - 1}) but degmax {degmax} and max_rounds "
            f"{max_rounds} allow steps up to {last}")
    lam = _teichmueller_orbit(spec, ring, 1)[0]
    lam_powers = [powers(x, p ** ring.m - 1) for x in lam]
    shifts = [p ** i for i in range(orbit_length)]
    values = [ring.one()] * orbit_length  # F_0^(<p^s)(pi*lambda_i); F_0^(<1) = 1
    prev = ring.one()                       # P_(s-1)
    shells, terms = _f0_shells(spec.A, ring, 0, first)
    terms += 1  # the constant term
    us, steps = [], []
    for s in range(last + 1):
        if s > first:
            (shell,), count = _f0_shells(spec.A, ring, s, s)
            terms += count
        else:
            shell = shells[s]
        values = [v + _shell_value(shell, lam_powers, t, ring)
                  for v, t in zip(values, shifts)]
        P = math.prod(values[1:], start=values[0])
        us.append(P * prev.inverse())
        prev = P
        steps.append(_agreement(us[s], us[s - D], ring) if s >= D else None)
        if s >= first and steps[s] >= N:
            return RouteA(us[s], steps[s], p ** (s + 1) - 1, tuple(steps), s, D, terms)
    raise PrecisionUnstable(
        f"route A steps {first}..{last} never agreed with the step {D} before "
        f"(best agreement {max(steps[first:])} digits)")


def _derivative(terms, k):
    """prod_a (d/dL_a)^k_a of a series' terms: c L^u goes to
    c prod_a u_a!/(u_a-k_a)! L^(u-k), and to nothing if some u_a < k_a."""
    return {tuple(x - y for x, y in zip(u, k)): c * math.prod(map(math.perm, u, k))
            for u, c in terms.items() if all(x >= y for x, y in zip(u, k))}


def check_annihilators(A, i, ell, degmax, p):
    """Apply the box operator of the relation ell and the Euler operators
    to the exact F_i.

    F_i is expanded to degree degmax + reach, reach the larger of the sums
    of ell's positive and negative parts (the most degrees a side of the
    box operator lowers by), so every residual through degree degmax is
    exact, and each one is examined.  Returns the minimal p-valuation over
    those residual coefficients, or None when every one vanishes (the
    expected outcome).
    """
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    ell = tuple(int(c) for c in ell)
    if len(ell) != len(A.vectors):
        raise NotARelation("relation length mismatch")
    if any(sum(l * a[j] for l, a in zip(ell, A.vectors)) != 0 for j in range(A.n)):
        raise NotARelation(f"{ell} is not a relation of A")
    i = tuple(int(c) for c in i) if hasattr(i, "__len__") else (int(i),)
    plus = tuple(max(l, 0) for l in ell)
    minus = tuple(max(-l, 0) for l in ell)
    F = hyperg_coefficient_series(A, i, degmax + max(sum(plus), sum(minus))).terms

    dplus, dminus = _derivative(F, plus), _derivative(F, minus)
    residuals = [dplus.get(u, 0) - dminus.get(u, 0)
                 for u in dplus.keys() | dminus.keys() if sum(u) <= degmax]
    # the j-th Euler operator sum_a a_j L_a d/dL_a - i_j scales c L^u
    # by sum_a u_a a_j - i_j
    for j in range(A.n):
        residuals += [c * (sum(x * a[j] for x, a in zip(u, A.vectors)) - i[j])
                      for u, c in F.items() if sum(u) <= degmax]

    worst = None
    for c in residuals:
        if c == 0:
            continue
        v = split_p(c.numerator, p)[0] - split_p(c.denominator, p)[0]
        if worst is None or v < worst:
            worst = v
    return worst


def generating_identity_check(A, irange, degmax):
    """Expand prod_a exp(L_a X^a) directly and compare coefficient series.

    Checks every X-exponent i with |i|_inf <= irange against the per-i
    series.
    """
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    by_i = {}
    for u in _solutions_all(A, degmax):
        i = tuple(sum(ua * a[j] for ua, a in zip(u, A.vectors)) for j in range(A.n))
        c = Fraction(1, math.prod(math.factorial(e) for e in u))
        by_i.setdefault(i, {})[u] = c
    checked = set()
    for i in itertools.product(range(-irange, irange + 1), repeat=A.n):
        formula = hyperg_coefficient_series(A, i, degmax)
        if by_i.get(i, {}) != formula.terms:
            return False
        checked.add(i)
    return bool(checked)


def _solutions_all(A, degmax):
    """Every u >= 0 with |u| <= degmax."""
    k = len(A.vectors)
    for u in itertools.product(range(degmax + 1), repeat=k):
        if sum(u) <= degmax:
            yield u
