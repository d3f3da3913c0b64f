"""Truncated hypergeometric coefficient series and route A.

The generating identity  prod_a exp(L_a X^a) = sum_i F_i(L) X^i  defines the
coefficient series F_i, supported on {u >= 0 : sum u_a a = i} with terms
L^u / prod(u_a!).  In F_i(pi*L) the term pi^|u| / prod(u_a!) has pi-order
sum_a s_p(u_a), the base-p digit sums, so it vanishes mod p^N unless that
sum is below N(p-1); digit_solutions enumerates exactly the surviving u,
digit by digit in base p, one digit position per level of numpy int64
arrays (_digit_levels).

Route A (unit_root_route_A_detailed) follows Dwork's "p-adic cycles":
the unit root is the special value of the continuation of
F_0(pi*L) / F_0(pi*L^p) over the Frobenius orbit of the Teichmueller point,
and step s evaluates it as a ratio of truncated sums,
prod_i F_0^(<p^(s+1))(pi*lambda_i) / F_0^(<p^s)(pi*lambda_(i+1)), summed
directly over F_0's surviving terms and grouped by the class of u mod
(q-1).  The terms are read level by level as arrays: their digits come
from the one array rule padic.pi_pow_digits, which reads the factorial
units' inverse table (padic.FactorialUnits), and are summed per shell, class
and pi-row (_f0_shells), with no Python object per term.  A shell is
evaluated in Z_q arrays (_shell_value): each class's lambda^c is gathered
from power tables built once per run (padic.zq_powers) and multiplied as
arrays (padic.law_product), and the shell is one padic.matmul_mod over its
classes and one ring element.  The shells do not depend on lambda, so
they are kept per (A, ring, shell range) and process (_kept_shells, within
padic.MEMO_BYTES), and a later coefficient choice only evaluates them.
Its last step is
a function of p and N alone (route_a_last_step).  It stops by an empirical
rule (see that function), compares steps without dividing, and inverts one
ring element per run, at the stop; it needs no series inverse.  Its arrays
are int64, so past the int64 rule (padic.check_product_precision) it raises
PrecisionTooLow.

calF_series, route_a_once and MultiSeries keep the series form of the same
ratio as the analytic-continuation witness: the ratio as a truncated
power series, evaluated on the orbit.  Its coefficients come from the same
digit rule, one pi_pow_digits call per block of _digit_levels.  Series are
dictionaries from exponent tuples to nonzero coefficients, with a
total-degree cap.  Series arithmetic is for ring series (RingElem
coefficients, pi-scaled) only: the product skips every pair of terms whose
pi-orders sum to N(p-1) or more, since such a product is zero mod p^N and
skipping it changes no digit, and the inverse is Newton's iteration on the
product, so the product is the one place terms are paired.  Fraction
series are coefficient holders for the GKZ and generating-identity checks,
which read their terms directly.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotARelation, PrecisionUnstable, TooLarge
from .padic import (Memo, agreement, check_product_precision, default_s_cut,
                    law_product, matmul_mod, pi_pow_digits, split_p, teichmueller,
                    zq_powers, zq_values)
from .weights import ExponentSet, lattice_solutions


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
        """Inverse of a ring series with constant term 1, by Newton's
        iteration y <- y (2 - x y) on mul (H. T. Kung, Numer. Math. 22, 1974):
        y correct through degree c is correct through 2c + 1 after a step,
        and each cap, degmax >> j for j falling to 0, is at most that."""
        zero = (0,) * self.nvars
        one = self.terms.get(zero)
        assert one is not None and one == one.spec.one(), "constant term must be 1"
        two, y = one + one, MultiSeries(self.nvars, 0, {zero: one})
        for j in range(self.degmax.bit_length() - 1, -1, -1):
            cap = self.degmax >> j
            e = {u: -c for u, c in self.mul(y, cap).terms.items()}
            e[zero] += two
            y = y.mul(MultiSeries(self.nvars, cap, e), cap)
        return y

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


def _digit_table(A, p, order_bound):
    """The digit vectors d in [0, p)^k with sum(d) < order_bound, sorted by
    the residue class of their contribution sum_a d_a a mod p and, within a
    class, by their digit sum: (digits, sums, contributions, sort keys),
    the key of d being its class index times order_bound plus its sum."""
    vecs = np.array(A.vectors, dtype=np.int64)
    k, n = vecs.shape
    d = np.indices((p,) * k).reshape(k, -1).T
    sums = d.sum(axis=1)
    d, sums = d[sums < order_bound], sums[sums < order_bound]
    contrib = d @ vecs
    keys = (contrib % p) @ p ** np.arange(n) * order_bound + sums
    order = np.argsort(keys, kind="stable")
    return d[order], sums[order], contrib[order], keys[order]


# states in one block of _digit_levels, terms in one batch of _f0_shells
BLOCK_STATES = 1 << 13
BATCH_TERMS = 1 << 16


def _digit_levels(A, target, degmax, p, order_bound):
    """digit_solutions' u, one base-p digit position per level: yields
    (u, |u|) as int64 arrays of shape (S, k) and (S,) for each block of
    states that finishes a solution.

    A block holds states of one level as arrays: carry c, digit-sum budget,
    u and degree.  A state's children take every digit vector of the table
    whose contribution is c mod p (_digit_table) and that fits the budget
    and the degree left, found by two searchsorted calls on the sorted
    keys; they form the next level's block.  A state whose carry is 0 is a
    solution; it is emitted when it is new and carried forward, by the zero
    digit vector, while it has budget and degree left for a nonzero digit
    at the next position.  Blocks wait on a stack, deepest first, and one
    of more than BLOCK_STATES states is split before it is expanded, so
    memory grows with BLOCK_STATES and the number of levels, not with the
    widest level.
    """
    vecs = A.vectors
    k, n = len(vecs), A.n
    if degmax < 0 or order_bound <= 0:
        return
    amax = max(abs(c) for a in vecs for c in a)
    digits, sums, contrib, keys = _digit_table(A, p, order_bound)
    radix = p ** np.arange(n)
    stack = [(1, np.array([target], dtype=np.int64), np.array([order_bound - 1]),
              np.zeros((1, k), dtype=np.int64), np.zeros(1, dtype=np.int64),
              np.ones(1, dtype=bool))]
    while stack:
        pj, carry, budget, u, deg, fresh = block = stack.pop()
        if len(carry) > BLOCK_STATES:
            stack += [(pj, *(x[i:i + BLOCK_STATES] for x in block[1:]))
                      for i in range(0, len(carry), BLOCK_STATES)]
            continue
        zero = ~carry.any(axis=1)
        if (done := zero & fresh).any():
            yield u[done], deg[done]
        room = degmax - deg
        limit = np.minimum(budget, room // pj)
        # a solution goes on only if a nonzero digit still fits
        limit[zero & (limit < 1)] = -1
        limit[~zero & (np.abs(carry).max(axis=1) * pj > amax * room)] = -1
        base = (carry % p) @ radix * order_bound
        first = np.searchsorted(keys, base)
        count = np.maximum(np.searchsorted(keys, base + limit, side="right") - first, 0)
        if not count.any():
            continue
        parent = np.repeat(np.arange(len(carry)), count)
        pick = (np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count)
                + first[parent])
        stack.append((pj * p, (carry[parent] - contrib[pick]) // p,
                      budget[parent] - sums[pick], u[parent] + digits[pick] * pj,
                      deg[parent] + sums[pick] * pj, ~zero[parent] | (sums[pick] > 0)))


def digit_solutions(A, target, degmax, p, order_bound):
    """Every u >= 0 with sum_a u_a a = target, |u| <= degmax and
    sum_a s_p(u_a) < order_bound, where s_p is the base-p digit sum, as a
    list of tuples in no fixed order.

    pi^|u| / prod u_a! has pi-order sum_a s_p(u_a), so with
    order_bound = N(p-1) these are exactly the terms of F_target(pi*L)
    that survive mod p^N.  The u are built digit by digit from the lowest
    base-p position j, carrying c = (target - sum_a (u_a mod p^j) a) / p^j:
    the digits d at position j must have sum_a d_a a = c mod p, and the next
    carry is (c - sum_a d_a a) / p.  A carry of 0 ends a solution (all higher
    digits zero) or goes on to a nonzero digit at a higher position.  A
    branch is cut once its digit sums reach order_bound, its degree passes
    degmax, or its carry is too large for the degree left to cancel,
    |c| p^j > max|a| (degmax - |u|).  The branches at position j are
    expanded together, as arrays in blocks (_digit_levels).
    """
    return [tuple(x) for u, _ in _digit_levels(A, target, degmax, p, order_bound)
            for x in u.tolist()]


def hyperg_coefficient_series(A, i, degmax, ring=None):
    """F_i, truncated at total degree degmax.

    With a ring given, returns F_i(pi*L): coefficient pi^|u| / prod(u_a!),
    always p-integral, over the blocks of _digit_levels (digit_solutions'
    enumeration), so only the terms that survive mod p^N are visited, each
    block's digits from one pi_pow_digits call.  Without a ring, returns the
    exact rational series F_i(L) used by the differential-system checks,
    over weights.lattice_solutions.
    """
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    i = tuple(int(c) for c in i) if hasattr(i, "__len__") else (int(i),)
    if ring is None:
        terms = {u: Fraction(1, math.prod(math.factorial(e) for e in u))
                 for u in lattice_solutions(A, i, degmax)}
    else:
        terms = {}
        for u, deg in _digit_levels(A, i, degmax, ring.p, ring.N * ring.npi):
            rows, digits = pi_pow_digits(ring, deg, u)
            for x, r, d in zip(u.tolist(), rows.tolist(), digits.tolist()):
                terms[tuple(x)] = ring.from_slots([0] * (r * ring.m) + [d])
    return MultiSeries(len(A.vectors), degmax, terms)


def calF_series(A, degmax, ring):
    """Truncation of F_0(pi*L) / F_0(pi*L^p), from one enumeration of F_0."""
    num = hyperg_coefficient_series(A, (0,) * A.n, degmax, ring)
    den = MultiSeries(num.nvars, degmax // ring.p, num.terms)
    return num.mul(den.inverse().subst_power(ring.p), degmax)


def teichmueller_orbit(spec, ring, length):
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
    for point in teichmueller_orbit(spec, ring, orbit_length):
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


def _batched(levels):
    """The (u, |u|) arrays of levels, consecutive ones joined until they
    hold at least BATCH_TERMS terms, so small levels share their array
    steps."""
    us, degs, held = [], [], 0
    for u, deg in levels:
        us.append(u)
        degs.append(deg)
        held += len(deg)
        if held >= BATCH_TERMS:
            yield np.concatenate(us), np.concatenate(degs)
            us, degs, held = [], [], 0
    if us:
        yield np.concatenate(us), np.concatenate(degs)


def _f0_shells(A, ring, s_lo, s_hi):
    """The terms of F_0(pi*L) with p^s_lo <= |u| < p^(s_hi+1), by shell.

    Shell s holds p^s <= |u| < p^(s+1).  A term pi^|u| / prod u_a! is one
    digit in pi-row |u| mod (p-1) (pi_pow_digits), and at a Teichmueller
    point lambda^u depends only on each u_a mod (q-1) (q = p^m) once
    u_a > 0, so a shell is summed per class: that residue in 1..q-1 for each
    u_a > 0, and 0 for u_a = 0.  The blocks of _digit_levels, joined into
    batches of at least BATCH_TERMS terms (_batched), are read as arrays (shell,
    class, row and digit per term) and reduced at once, by one np.unique of
    a combined key, to one digit sum mod p^N per (shell, class, row); no
    term is kept past its batch.  Returns (shells, number of terms),
    shells[s - s_lo] a pair of arrays: the classes (G, k) and their digit
    sums per pi-row (G, p-1).  TooLarge if the combined key would not fit
    in int64.
    """
    p, npi, pN = ring.p, ring.npi, ring.pN
    q, k = p ** ring.m, len(A.vectors)
    nshells = s_hi - s_lo + 1
    # a term's key: ((shell * q + class_0) * q + ... + class_(k-1)) * (p-1) + row
    if nshells * q ** k * npi >= 2 ** 63:
        raise TooLarge(f"route A's shell keys need {nshells} * {q}^{k} * {npi} "
                       ">= 2^63 values")
    radix = q ** np.arange(k - 1, -1, -1, dtype=np.int64) * npi
    bounds = np.array([p ** s for s in range(s_lo, s_hi + 2)], dtype=np.int64)
    keys = sums = np.zeros(0, dtype=np.int64)
    count = 0
    levels = _digit_levels(A, (0,) * A.n, int(bounds[-1]) - 1, p, ring.N * npi)
    for u, deg in _batched((u[deg >= bounds[0]], deg[deg >= bounds[0]])
                           for u, deg in levels):
        count += len(deg)
        row, digit = pi_pow_digits(ring, deg, u)
        cls = np.where(u > 0, (u - 1) % (q - 1) + 1, 0)
        shell = np.searchsorted(bounds, deg, side="right") - 1
        key = shell * (q ** k * npi) + cls @ radix + row
        keys, where = np.unique(np.concatenate([keys, key]), return_inverse=True)
        total = np.zeros(len(keys), dtype=np.int64)
        np.add.at(total, where, np.concatenate([sums, digit]))
        sums = total % pN
    shell, rest = np.divmod(keys, q ** k * npi)
    cls, row = np.divmod(rest, npi)
    shells = []
    for s in range(nshells):
        mine = shell == s
        classes, where = np.unique(cls[mine], return_inverse=True)
        digits = np.zeros((len(classes), npi), dtype=np.int64)
        digits[where, row[mine]] = sums[mine]
        classes = classes[:, None] // (radix // npi) % q
        shells.append((classes, digits))
    return shells, count


# Route A's shells per (A's vectors, RingSpec.key, s_lo, s_hi), kept within
# padic.MEMO_BYTES: they do not depend on lambda, so a later coefficient
# choice only evaluates them (_shell_value)
_SHELLS = Memo()


def _kept_shells(A, ring, s_lo, s_hi):
    """_f0_shells(A, ring, s_lo, s_hi), its arrays read-only, from _SHELLS
    when kept there."""
    key = (A.vectors, ring.key, s_lo, s_hi)
    got = _SHELLS.get(key)
    if got is None:
        shells, count = _f0_shells(A, ring, s_lo, s_hi)
        arrays = [x for shell in shells for x in shell]
        for x in arrays:
            x.setflags(write=False)
        got = _SHELLS.keep(key, (tuple(shells), count), sum(x.nbytes for x in arrays))
    return got


def _shell_value(shell, lam_powers, shift, ring):
    """A shell of _f0_shells evaluated at lambda^shift, from lambda's Z_q
    power tables lam_powers (k, q, m), lambda_a^0..lambda_a^(q-1)
    (padic.zq_powers).

    Each class's lambda^(c * shift) is z_class = prod_a lambda_a^(c_a shift),
    gathered from the tables and multiplied as arrays (padic.law_product); a
    shell's digits sit at t^0 of their pi-rows, so the shell is
    sum_class digits[class, row] * z_class in pi-row `row`, one
    padic.matmul_mod of digits^T (p-1, G) by z (G, m) and one RingElem.
    """
    classes, digits = shell
    qm1 = lam_powers.shape[1] - 1
    # lambda^0 = 1 for u_a = 0; else lambda^(c shift) with exponent in 1..q-1
    idx = np.where(classes > 0, (classes * shift - 1) % qm1 + 1, 0)
    z = lam_powers[0, idx[:, 0]]
    for a in range(1, classes.shape[1]):
        z = law_product(ring, z, lam_powers[a, idx[:, a]])
    return ring.from_slots(matmul_mod(digits.T, z, ring.pN).ravel().tolist())


def route_a_last_step(ring):
    """The last step route A may take, a function of p and N alone: 12 past
    the first step s whose truncation degree p^(s+1) - 1 reaches
    4 * default_s_cut(ring) = 4 * ceil(N p^2 / (p-1))."""
    s = 0
    while ring.p ** (s + 1) - 1 < 4 * default_s_cut(ring):
        s += 1
    return s + 12


def unit_root_route_A_detailed(spec, W, ring, orbit_length):
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
    case/precision pairs up to N = 8; it is not proven.  p11-skew and
    p13-skew at N = 3 (D = 2) fall one step behind it (u_0 .. u_5 correct
    to 0, 1, 1, 2, 2, 3 digits against route C), and stop one step late, at
    D*N + 1, with all N digits right.  Comparing with
    u_(s-1) instead is wrong: for D = 2 consecutive steps plateau (p2-skew
    at N = 8 is correct to 2, 3, 3, 7, 5, 7, 7, 8 digits at s = 0..7), and
    that comparison stops early with wrong digits on p2-skew, p2-skew-f4
    and p3-skew-f9 at N = 4.  The cross-route agreement checks are the
    backstop.

    steps[s] is read without dividing: u_s - u_(s-D) is
    (P_s P_(s-D-1) - P_(s-D) P_(s-1)) over the unit P_(s-1) P_(s-D-1),
    with P_(-1) = 1, so the numerator has the same order.  u_s itself is
    formed once, at the stop, with the run's one inverse.

    The last step allowed is route_a_last_step(ring), 12 past the first
    whose truncation degree reaches 4 * ceil(N p^2 / (p-1)).
    PrecisionUnstable is raised at once if that is below D*N, or when no
    step up to it agrees, and PrecisionTooLow at once past the int64 rule.
    D is W.D, W the weight data of spec.A (weights.build_weight_data) that
    the caller has built.
    """
    p, N = ring.p, ring.N
    check_product_precision(ring.pN)
    D = W.D
    first = D * N
    last = route_a_last_step(ring)
    if last < first:
        raise PrecisionUnstable(
            f"route A stops no earlier than step {first} (degree "
            f"{p ** (first + 1) - 1}) but takes steps up to {last} at "
            f"p = {p}, N = {N}")
    lam = teichmueller_orbit(spec, ring, 1)[0]
    lam_powers = np.stack([zq_powers(ring, x, p ** ring.m - 1)
                           for x in zq_values(lam)])
    shifts = [p ** i for i in range(orbit_length)]
    values = [ring.one()] * orbit_length  # F_0^(<p^s)(pi*lambda_i); F_0^(<1) = 1
    P = [ring.one()]                        # P_(-1), P_0, ..., P_s
    shells, terms = _kept_shells(spec.A, ring, 0, first)
    terms += 1  # the constant term
    steps = []
    for s in range(last + 1):
        if s > first:
            (shell,), count = _kept_shells(spec.A, ring, s, s)
            terms += count
        else:
            shell = shells[s]
        values = [v + _shell_value(shell, lam_powers, t, ring)
                  for v, t in zip(values, shifts)]
        P.append(math.prod(values[1:], start=values[0]))
        # u_s - u_(s-D) = (P_s P_(s-D-1) - P_(s-D) P_(s-1)) / (P_(s-1) P_(s-D-1)),
        # and the P are units: the numerator has the difference's order
        steps.append(agreement(P[s + 1] * P[s - D], P[s + 1 - D] * P[s])
                     if s >= D else None)
        if s >= first and steps[s] >= N:
            u = P[s + 1] * P[s].inverse()
            return RouteA(u, steps[s], p ** (s + 1) - 1, tuple(steps), s, D, terms)
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
