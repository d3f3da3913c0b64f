"""Truncated hypergeometric coefficient series and the unit-root product.

The generating identity  prod_a exp(L_a X^a) = sum_i F_i(L) X^i  defines the
coefficient series F_i, supported on {u >= 0 : sum u_a a = i} with terms
L^u / prod(u_a!).  Route A evaluates the ratio

    calF(L) = F_0(pi*L) / F_0(pi*L^p)

as a truncated series, then takes its product over the Frobenius orbit of
the Teichmueller point.  Truncation degree is validated by recomputing at
twice the degree and comparing; only agreeing digits are reported.

Series here are dictionaries from exponent tuples to nonzero coefficients,
with a total-degree cap; coefficients are either RingElem (pi-scaled series)
or Fraction (exact series for the differential-system checks).  The product
and the inverse are for ring series only.  They skip every pair of terms
whose pi-orders sum to N(p-1) or more: such a product is zero mod p^N, so
skipping it changes no digit.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotARelation, PrecisionUnstable
from .padic import pi_pow_over_factorials, split_p, teichmueller
from .weights import ExponentSet


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

    def constant_term(self):
        return self.terms.get((0,) * self.nvars)

    def add(self, other):
        out = dict(self.terms)
        for u, c in other.terms.items():
            out[u] = out[u] + c if u in out else c
        return MultiSeries(self.nvars, min(self.degmax, other.degmax), out)

    def neg(self):
        return MultiSeries(self.nvars, self.degmax, {u: -c for u, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other, degmax=None):
        """Truncated product of ring series, skipping pairs of order >= N(p-1)."""
        cap = min(self.degmax, other.degmax) if degmax is None else degmax
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

    def scale(self, c):
        return MultiSeries(self.nvars, self.degmax,
                           {u: c * v for u, v in self.terms.items()})

    def subst_power(self, k):
        """Substitute each variable by its k-th power (degree cap scales too)."""
        return MultiSeries(self.nvars, self.degmax * k,
                           {tuple(k * e for e in u): c for u, c in self.terms.items()})

    def truncated(self, degmax):
        return MultiSeries(self.nvars, degmax, self.terms)

    def inverse(self):
        """Inverse of a ring series with constant term 1, by degree-shell
        recurrence, skipping pairs of order >= N(p-1) like mul.

        Work is proportional to the nonzero shell structure: finished inverse
        shells scatter products forward through a pending-contribution heap,
        so degrees whose coefficients all vanish cost nothing.
        """
        one = self.constant_term()
        assert one is not None and one == one.spec.one(), "constant term must be 1"
        floor = one.spec.N * one.spec.npi
        shells = {}
        for u, c in self.terms.items():
            d = sum(u)
            if d:
                shells.setdefault(d, []).append((u, c, c.order()))
        degrees = sorted(shells)
        out = {(0,) * self.nvars: one}
        pending = {}
        heap = []

        def scatter(d_src, shell):
            for e in degrees:
                d = d_src + e
                if d > self.degmax:
                    break
                acc = pending.get(d)
                if acc is None:
                    acc = pending[d] = {}
                    heapq.heappush(heap, d)
                for u1, c1, v1 in shells[e]:
                    for u2, (c2, v2) in shell.items():
                        if v1 + v2 >= floor:
                            continue
                        u = tuple(a + b for a, b in zip(u1, u2))
                        prod = c1 * c2
                        acc[u] = acc[u] + prod if u in acc else prod

        scatter(0, {(0,) * self.nvars: (one, 0)})
        while heap:
            d = heapq.heappop(heap)
            acc = pending.pop(d, None)
            if acc is None:
                continue  # duplicate heap entry
            shell = {u: (-c, c.order()) for u, c in acc.items() if c}
            if not shell:
                continue
            for u, (c, _) in shell.items():
                out[u] = c
            scatter(d, shell)
        return MultiSeries(self.nvars, self.degmax, out)

    def evaluate(self, point):
        """Sum of coeff * prod(point_a^u_a); point entries are ring elements."""
        maxdeg = [0] * self.nvars
        for u in self.terms:
            for i, e in enumerate(u):
                maxdeg[i] = max(maxdeg[i], e)
        pows = []
        for a in range(self.nvars):
            row = [None] * (maxdeg[a] + 1)
            pows.append(row)
        acc = None
        for u in sorted(self.terms):
            c = self.terms[u]
            term = c
            for a, e in enumerate(u):
                if e == 0:
                    continue
                if pows[a][e] is None:
                    pows[a][e] = point[a] ** e
                term = term * pows[a][e]
            acc = term if acc is None else acc + term
        return acc

    def differentiate(self, var):
        out = {}
        for u, c in self.terms.items():
            if u[var] == 0:
                continue
            v = list(u)
            e = v[var]
            v[var] -= 1
            out[tuple(v)] = c * e
        return MultiSeries(self.nvars, self.degmax, out)

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
    return out


def hyperg_coefficient_series(A, i, degmax, ring=None):
    """F_i, truncated at total degree degmax.

    With a ring given, returns F_i(pi*L): coefficient pi^|u| / prod(u_a!),
    always p-integral.  Without a ring, returns the exact rational series
    F_i(L) used by the differential-system checks.
    """
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    i = tuple(int(c) for c in i) if hasattr(i, "__len__") else (int(i),)
    terms = {}
    for u in _solutions(A, i, degmax):
        if ring is None:
            c = Fraction(1, math.prod(math.factorial(e) for e in u))
        else:
            c = pi_pow_over_factorials(ring, sum(u), u)
        terms[u] = c
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


def route_a_once(spec, degmax, ring, orbit_length, series=None):
    """Orbit product of the truncated ratio series at one truncation degree."""
    if series is None:
        series = calF_series(spec.A, degmax, ring)
    else:
        series = series.truncated(degmax)
    u = ring.one()
    for point in _teichmueller_orbit(spec, ring, orbit_length):
        u = u * series.evaluate(point)
    return u


def unit_root_route_A_detailed(spec, degmax, ring, orbit_length, max_rounds=12):
    """(u, agreement order, degmax used) under the stabilization policy.

    The ratio series carries no a-priori coefficient-decay rate, and shells
    of low order recur near powers of p arbitrarily far out, so a bare
    double-and-compare can stabilize on a wrong tail.  Each round scans the
    computed shell profile and accepts only once the scanned range extends a
    full factor of two beyond the last shell below the requested order; the
    evaluation then includes every visible low shell, and the half-range
    comparison is kept as an arithmetic cross-check.  Shells hiding beyond
    twice the accepted range would still be invisible; the cross-route
    agreement checks are the backstop for that residual risk.
    """
    cap = 4 * degmax
    agreed = None
    # Low shells come in families spaced a factor p apart whose orders climb
    # with the scale, so a clean window of factor 8 > p + 1 cannot sit
    # between two sub-target families.
    horizon = 8
    for _ in range(max_rounds):
        series = calF_series(spec.A, cap, ring)
        shells = series.shell_min_valuations()
        d_last = max((d for d, v in shells.items() if d > 0 and v < ring.N),
                     default=0)
        if horizon * d_last <= cap:
            u1 = route_a_once(spec, cap // 2, ring, orbit_length, series)
            u2 = route_a_once(spec, cap, ring, orbit_length, series)
            diff = (u1 - u2).order()
            agreed = ring.N if diff is None else diff // ring.npi
            if agreed >= ring.N:
                return u2, agreed, cap
        cap = max(2 * cap, horizon * d_last + degmax)
    raise PrecisionUnstable(
        f"route A tail not below the target order within degree {cap}"
        + ("" if agreed is None else f" (best agreement {agreed} digits)"))


def check_annihilators(A, i, ell, degmax, p):
    """Apply the lattice-relation and Euler operators to the exact F_i.

    Returns the minimal p-valuation over all residual coefficients within the
    degree range where the truncated computation is exact, or None when every
    residual vanishes identically (the expected outcome).
    """
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    ell = tuple(int(c) for c in ell)
    if len(ell) != len(A.vectors):
        raise NotARelation("relation length mismatch")
    if any(sum(l * a[j] for l, a in zip(ell, A.vectors)) != 0 for j in range(A.n)):
        raise NotARelation(f"{ell} is not a relation of A")
    i = tuple(int(c) for c in i) if hasattr(i, "__len__") else (int(i),)
    F = hyperg_coefficient_series(A, i, degmax)

    plus = F
    minus = F
    dplus = dminus = 0
    for a, l in enumerate(ell):
        for _ in range(max(l, 0)):
            plus = plus.differentiate(a)
            dplus += 1
        for _ in range(max(-l, 0)):
            minus = minus.differentiate(a)
            dminus += 1
    box = plus.sub(minus)
    valid = degmax - max(dplus, dminus)
    residuals = [c for u, c in box.terms.items() if sum(u) <= valid]

    for j in range(A.n):
        zj = MultiSeries(len(A.vectors), degmax)
        for a, vec in enumerate(A.vectors):
            if vec[j] == 0:
                continue
            # L_a d/dL_a multiplies each term by its a-exponent
            part = {u: c * (u[a] * vec[j]) for u, c in F.terms.items() if u[a]}
            zj = zj.add(MultiSeries(len(A.vectors), degmax, part))
        zj = zj.sub(F.scale(Fraction(i[j])))
        residuals.extend(zj.terms.values())

    worst = None
    for c in residuals:
        if c == 0:
            continue
        v = split_p(c.numerator, p)[0] - split_p(c.denominator, p)[0]
        if worst is None or v < worst:
            worst = v
    return worst


def generating_identity_check(A, irange, degmax, perturb=None):
    """Expand prod_a exp(L_a X^a) directly and compare coefficient series.

    Checks every X-exponent i with |i|_inf <= irange against the per-i
    series; `perturb` optionally maps (i, u) pairs to an additive Fraction
    defect, as a negative control for the test harness.
    """
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    by_i = {}
    for u in _solutions_all(A, degmax):
        i = tuple(sum(ua * a[j] for ua, a in zip(u, A.vectors)) for j in range(A.n))
        c = Fraction(1, math.prod(math.factorial(e) for e in u))
        by_i.setdefault(i, {})[u] = c
    checked = set()
    import itertools
    for i in itertools.product(range(-irange, irange + 1), repeat=A.n):
        direct = dict(by_i.get(i, {}))
        if perturb:
            for u in list(direct):
                d = perturb(i, u)
                if d:
                    direct[u] = direct[u] + d
        formula = hyperg_coefficient_series(A, i, degmax)
        if direct != formula.terms:
            return False
        checked.add(i)
    return bool(checked)


def _solutions_all(A, degmax):
    """Every u >= 0 with |u| <= degmax."""
    import itertools
    k = len(A.vectors)
    for u in itertools.product(range(degmax + 1), repeat=k):
        if sum(u) <= degmax:
            yield u
