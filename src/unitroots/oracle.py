"""Exact exponential sums over torus points.

For each extension degree l the sum S_l is tallied as counts N_c of torus
points whose absolute trace of f equals c, an exact element of Z[zeta_p]
stored as an integer count vector.  Embedding zeta_p into the working ring
turns consecutive ratios S_{l+1}/S_l into p-adic approximations of the unit
root.

Torus points are powers of a multiplicative generator g, so each monomial's
trace is a precomputed table on the exponent linear form v_a . k mod R,
R = q^l - 1.  In two variables with three exponents, two of which form a
unimodular pair and leave the third a combination whose second coefficient
is a unit mod R, the counts are cyclic convolutions of trace-value
indicators over Z/R ("convolution", O(p^2 R + p R log R)).  Every other
exponent set, in any number of variables, walks all R^n points in numpy
chunks ("enumeration").  Each row records which method produced it.  The
point guard applies to R^n whichever method runs.  Fields, their traces
and their generators come from ffield, which derives each once per
process; _char_sum_slow is a pure-Python reference kept for the tests.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import ffield, gfpoly
from .errors import TooLarge
from .padic import horner, zeta_p

ENUMERATION_GUARD = 10 ** 8


def orbit_degree(spec):
    """Least d >= 1 with every coefficient fixed by the q^d power map."""
    F = ffield.FField(spec.p, _presentation_modulus(spec))
    coeffs = [F.elem(c) for c in spec.coeffs]
    q = spec.p ** spec.epsilon
    cur = coeffs
    for d in range(1, spec.m // spec.epsilon + 1):
        cur = [F.pow(x, q) for x in cur]
        if cur == coeffs:
            return d
    raise AssertionError("orbit degree must divide m/epsilon")


def _presentation_modulus(spec):
    g = getattr(spec, "field_poly", None)
    if g is None:
        g = gfpoly.find_irreducible(spec.p, spec.m)
    return gfpoly.trim(c % spec.p for c in g)


@dataclass
class CharSumRow:
    l: int
    field_degree: int       # degree over F_p of the enumerated field
    counts: tuple           # raw trace-value counts, sum = (p^deg - 1)^n
    method: str             # "convolution" or "enumeration"


@dataclass
class CharSumTable:
    d: int                  # orbit degree of the coefficients
    rows: list = field(default_factory=list)


class FqTower:
    """Per-extension enumeration data above the field generated by lambda-bar.

    The coefficients, given in F_{p^m}, generate F_{p^(epsilon*d)}; the sum
    for level l runs over the torus of F_{p^(epsilon*d*l)}.  Each level is
    built as an independent F_p[s]/(h) model with the coefficients embedded
    through a root of the standard subfield polynomial, which is chosen once
    in the presentation field and once per level; any root gives the same
    sums because they differ by a power Frobenius.
    """

    def __init__(self, spec):
        self.spec = spec
        self.p = spec.p
        self.d = orbit_degree(spec)
        self.base_degree = spec.epsilon * self.d
        pres = ffield.FField(spec.p, _presentation_modulus(spec))
        self.sub_poly = gfpoly.find_irreducible(spec.p, self.base_degree)
        rho = ffield.find_root(pres, self.sub_poly)
        self.sub_coords = tuple(
            ffield.subfield_coordinates(pres, rho, pres.elem(c), self.base_degree)
            for c in spec.coeffs)
        self._levels = {}

    def level(self, l):
        """(field, embedded coefficient list) for the degree-l extension."""
        if l not in self._levels:
            F = ffield.field(self.p, self.base_degree * l)
            rho = ffield.find_root(F, self.sub_poly)
            self._levels[l] = (F, [F.evaluate(c, rho) for c in self.sub_coords])
        return self._levels[l]


def char_sum(spec, l, tower=None, guard=ENUMERATION_GUARD, override=False):
    """Exact trace-value counts over the torus of the degree-l extension."""
    tower = tower or FqTower(spec)
    F, lams = tower.level(l)
    n = spec.A.n
    p = spec.p
    R = F.size - 1
    points = R ** n
    if points > guard and not override:
        raise TooLarge(f"{points} torus points exceeds the guard {guard}")

    vecs = spec.A.vectors
    if R * (F.k + 2) > (1 << 26):
        raise TooLarge("trace tables for this field exceed the memory guard")
    tables = _trace_tables(F, lams, R)
    plan = _convolution_plan(vecs, R)
    if plan is None:
        counts, method = _enumerated_counts(tables, vecs, R, p), "enumeration"
    else:
        counts, method = _convolved_counts(tables, R, p, *plan), "convolution"
    total = int(counts.sum())
    assert total == points, "lost or double-counted torus points"
    return CharSumRow(l, F.k, tuple(int(x) for x in counts), method)


def _convolution_plan(vecs, R):
    """(a, b, c, alpha, beta) making the torus sum a convolution over Z/R, or None.

    Needs three exponents in two variables with det(v_a, v_b) = +-1, so that
    k -> (v_a.k, v_b.k) is a bijection of (Z/R)^2, and v_c = alpha v_a +
    beta v_b with gcd(beta, R) = 1.  Orderings are tried in a fixed order.
    """
    if len(vecs) != 3 or len(vecs[0]) != 2:
        return None
    for a, b, c in itertools.permutations(range(3)):
        (a0, a1), (b0, b1), (c0, c1) = vecs[a], vecs[b], vecs[c]
        det = a0 * b1 - a1 * b0
        if abs(det) != 1:
            continue
        alpha = (c0 * b1 - c1 * b0) * det
        beta = (a0 * c1 - a1 * c0) * det
        if math.gcd(beta, R) == 1:
            return a, b, c, alpha, beta
    return None


def _convolved_counts(tables, R, p, a, b, c, alpha, beta):
    """Trace-value counts of t_a(x) + t_b(y) + t_c(alpha x + beta y) over (Z/R)^2.

    With w = beta y the sum runs over (x, w) of t_a(x) + t_b(w / beta) +
    t_c(alpha x + w).  For each s in F_p,
        h_s(z) = #{(x, w) : alpha x + w = z, t_a(x) + t_b(w / beta) = s}
    is the sum over j of the cyclic convolution of the pushforward of
    [t_a = j] along x -> alpha x with [t_b(./beta) = s - j].  One float64
    FFT convolution per s computes it, and N_c is the sum over s of h_s
    on {t_c = c - s}.

    Exactness: every h_s(z) is an integer in [0, R], since each x fixes w.
    The float64 FFT error of an entry is of order eps * log2(R) times the
    sum over j of the products of the two inputs' 2-norms, which is at most
    R * sqrt(gcd(alpha, R)) <= R^(3/2).  The table guard R * (k + 2) <= 2^26
    keeps R below 2^24 for k >= 2 (R = p - 1 for k = 1), so the error is of
    order 10^-4 at worst, and rounding recovers h_s exactly.  The residual
    max |h_s - rint(h_s)| < 1/4 is checked on every output.
    """
    x = np.arange(R, dtype=np.int64)
    ta, tc = tables[a], tables[c]
    tb = tables[b][x * pow(beta, -1, R) % R]
    ax = x * alpha % R
    fa = [np.fft.rfft(np.bincount(ax[ta == j], minlength=R)) for j in range(p)]
    fb = [np.fft.rfft(tb == j) for j in range(p)]
    tc_masks = [tc == j for j in range(p)]
    counts = np.zeros(p, dtype=np.int64)
    for s in range(p):
        h = np.fft.irfft(sum(fa[j] * fb[(s - j) % p] for j in range(p)), n=R)
        hi = np.rint(h)
        assert np.abs(h - hi).max() < 0.25, "convolution count is not exact"
        hi = hi.astype(np.int64)
        for j, mask in enumerate(tc_masks):
            counts[(s + j) % p] += hi[mask].sum()
    return counts


def _enumerated_counts(tables, vecs, R, p):
    """Trace-value counts of sum_a t_a(v_a . k) over every k in (Z/R)^n.

    Each chunk is a block of rows: the last coordinate of k runs along a
    row, and the leading ones are the base-R digits of the row index.  A
    chunk holds about 2^22 points.
    """
    n = len(vecs[0])
    rows = R ** (n - 1)
    chunk = max(1, (1 << 22) // R)
    x = np.arange(R, dtype=np.int64)
    counts = np.zeros(p, dtype=np.int64)
    for start in range(0, rows, chunk):
        i = np.arange(start, min(start + chunk, rows), dtype=np.int64)
        lead = [np.zeros_like(i) for _ in vecs]  # v_a . k over the leading digits
        for j in range(n - 2, -1, -1):
            i, digit = np.divmod(i, R)
            for e, v in zip(lead, vecs):
                e += v[j] * digit
        c = np.zeros((len(lead[0]), R), dtype=np.int64)
        for e, v, t in zip(lead, vecs, tables):
            c += t[(e[:, None] + v[-1] * x[None, :]) % R]
        counts += np.bincount((c % p).ravel(), minlength=p)
    return counts


def _char_sum_slow(F, lams, vecs, R, p):
    """Pure-Python reference for the tests: one field sum per torus point."""
    n = len(vecs[0])
    g = ffield.multiplicative_generator(F)
    counts = [0] * p
    powers = [F.one()]
    for _ in range(R - 1):
        powers.append(F.mul(powers[-1], g))
    for ks in itertools.product(range(R), repeat=n):
        val = F.zero()
        for a, lam in enumerate(lams):
            if F.is_zero(lam):
                continue
            e = sum(k * v for k, v in zip(ks, vecs[a])) % R
            val = F.add(val, F.mul(lam, powers[e]))
        counts[F.trace(val)] += 1
    return np.array(counts, dtype=np.int64)


def _trace_tables(F, lams, R):
    """t_a[j] = Tr(lambda_a g^j) for j < R, g the generator of F*, as int16.

    Baby steps and giant steps: with B = ceil(sqrt(R)) and j = i + B m,
    Tr(lambda g^(Bm) g^i) = c_m^T Q b_i, where b_i and c_m are the
    coordinate vectors of g^i and lambda g^(Bm) and Q[u][v] = Tr(s^(u+v))
    is the trace form of the power basis.  Only ceil(R/B) + B coordinate
    vectors are built, and each table is one (R/B x k) by (k x B) product:
    O(R k) per coefficient where all R coordinate vectors cost O(R k^2).
    A zero coefficient gives a table of zeros.
    """
    k, p = F.k, F.p
    g = ffield.multiplicative_generator(F)
    h = np.array(F.traces(), dtype=np.int64)
    Q = h[np.add.outer(np.arange(k), np.arange(k))]
    B = math.isqrt(R - 1) + 1
    baby = Q @ _generator_power_table(F, g, B).T % p
    giant = _generator_power_table(F, F.pow(g, B), -(-R // B))
    tables = []
    for lam in lams:
        mm = np.array(F.mult_matrix(lam), dtype=np.int64)
        t = (giant @ mm.T % p) @ baby % p
        tables.append(t.ravel()[:R].astype(np.int16))
    return tables


def _generator_power_table(F, g, R):
    """(R x k) array of the coefficient vectors of g^j, built by doubling.

    mm is the multiplication matrix of g^filled; squaring it doubles filled.
    """
    p = F.p
    table = np.zeros((R, F.k), dtype=np.int64)
    table[0] = F.one()
    mm = np.array(F.mult_matrix(g), dtype=np.int64)
    filled = 1
    while filled < R:
        take = min(filled, R - filled)
        table[filled:filled + take] = table[:take] @ mm.T % p
        filled += take
        mm = mm @ mm % p
    return table


def char_sum_table(spec, lmax, guard=ENUMERATION_GUARD, override=False):
    tower = FqTower(spec)
    table = CharSumTable(tower.d)
    for l in range(1, lmax + 1):
        table.rows.append(char_sum(spec, l, tower, guard, override))
    return table


@dataclass
class OracleEstimates:
    ratios: list            # u_l = S_{l+1}/S_l as ring elements
    ratio_diff_orders: list  # ord(u_{l+1} - u_l), None when >= N
    s_valuations: list      # ord(S_l); all zero for unit sums


def embed_and_estimate(table, ring):
    """Ratio estimates of the unit root from consecutive sums.

    S_l = sum_c N_c zeta^c is the count vector evaluated at zeta_p; the
    counts need no normalizing, since sum_c zeta^c = 0.
    """
    zeta = zeta_p(ring)
    elems = [horner(row.counts, zeta) for row in table.rows]
    vals = [e.valuation() for e in elems]
    ratios = []
    for a, b in zip(elems, elems[1:]):
        ratios.append(b * a.inverse())
    diffs = [(v - u).valuation() for u, v in zip(ratios, ratios[1:])]
    return OracleEstimates(ratios, diffs, vals)
