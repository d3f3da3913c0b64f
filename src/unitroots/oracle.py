"""Exact exponential sums over torus points.

For each extension degree l the sum S_l is tallied as counts N_c of torus
points whose absolute trace of f equals c, an exact element of Z[zeta_p]
stored as an integer count vector.  Embedding zeta_p into the working ring
turns consecutive ratios S_{l+1}/S_l into p-adic approximations of the unit
root.

Torus points are powers of a multiplicative generator g, and so is every
nonzero coefficient: lambda_a = rho^(j_a) for a root rho of a primitive
polynomial h, and rho embeds as g^e, a root of h in the level field, so
lambda_a = g^(e_a) with e_a = e j_a mod R (FqTower).  A monomial's trace is
therefore Tr(g^(v_a . k + e_a)): one table t[j] = Tr(g^j), j < R = q^l - 1,
read at the exponent linear form shifted by the offset e_a, and lambda
enters the sum only through these offsets.  The table depends on the
field alone, so each field adds one table of R bytes per process, the
largest in the battery being F_{3^12}'s 531 440; a zero coefficient
contributes trace 0.  In two variables with three exponents, two of which
form a unimodular pair and leave the third a combination whose second
coefficient is a unit mod R, the counts are cyclic convolutions of
trace-value indicators over Z/p x Z/R ("convolution", O(p R log pR)).
Every other exponent set, in any number of variables, walks all R^n points
in numpy chunks ("enumeration").  Each row records which method produced
it.  The guard charges each row the cells its method touches: R^n points
for an enumeration, p R for a convolution's (p, R) FFT arrays.  Fields, their
traces, their generators and the logs of h's roots come from ffield, which
derives each once per process; _char_sum_slow is a pure-Python reference
kept for the tests.
"""

import functools
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
    g = spec.field_poly or gfpoly.find_irreducible(spec.p, spec.m)
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
    for level l runs over the torus of F_{p^(epsilon*d*l)}, an independent
    F_p[s]/(modulus) model.  h is the least primitive polynomial of degree
    epsilon*d and rho its first root in the presentation field; logs[a] is
    the j_a with lambda_a = rho^(j_a), None for lambda_a = 0, each found by
    baby steps and giant steps (ffield.discrete_log).  Level l's
    field holds a root g^e of h (ffield.root_log), and lambda_a embeds
    there as g^(e j_a):
    - rho -> g^e extends to a field embedding F_p(rho) -> F, since both
      are roots of the irreducible h;
    - every nonzero coefficient is a power of rho, since h is primitive and
      the coefficients lie in F_p(rho) = F_{p^(epsilon*d)};
    - so rho^j maps to g^(e j), and zero coefficients keep offset None.
    Another root of h composes the embedding with a power of Frobenius,
    which fixes every trace-value count.
    """

    def __init__(self, spec):
        self.spec = spec
        self.p = spec.p
        self.d = orbit_degree(spec)
        self.base_degree = spec.epsilon * self.d
        pres = ffield.FField(spec.p, _presentation_modulus(spec))
        self.h = ffield.primitive_poly(spec.p, self.base_degree)
        rho = pres.pow(ffield.multiplicative_generator(pres),
                       ffield.root_log(pres, self.h))
        R = spec.p ** self.base_degree - 1  # the order of rho
        self.logs = tuple(ffield.discrete_log(pres, rho, R, pres.elem(c))
                          for c in spec.coeffs)
        self._levels = {}

    def level(self, l):
        """(field, offsets e_a with lambda_a = g^(e_a), None for 0) at degree l."""
        if l not in self._levels:
            F = ffield.field(self.p, self.base_degree * l)
            e, R = ffield.root_log(F, self.h), F.size - 1
            self._levels[l] = (F, [None if j is None else e * j % R
                                   for j in self.logs])
        return self._levels[l]


def char_sum(spec, l, tower=None, guard=ENUMERATION_GUARD, override=False):
    """Exact trace-value counts over the torus of the degree-l extension.

    TooLarge, unless override, when the method's cells pass guard: R^n
    torus points for an enumeration, p R FFT cells for a convolution; both
    guards (_guarded_plan) run before the level's field is built.
    """
    tower = tower or FqTower(spec)
    n, p, vecs = spec.A.n, spec.p, spec.A.vectors
    plan, method, R = _guarded_plan(spec, l, tower.base_degree, guard, override)
    F, offsets = tower.level(l)
    t = _trace_table(F)
    if plan is None:
        counts = _enumerated_counts(t, offsets, vecs, p)
    else:
        counts = _convolved_counts(t, offsets, p, *plan)
    assert int(counts.sum()) == R ** n, "lost or double-counted torus points"
    return CharSumRow(l, F.k, tuple(int(x) for x in counts), method)


def _guarded_plan(spec, l, base_degree, guard=ENUMERATION_GUARD, override=False):
    """(plan, method, R) of level l over a base field of degree base_degree,
    after char_sum's two guards, which read only p, n and R: TooLarge when
    the method's cells pass guard (unless override), or when the trace
    tables' R (k + 2) entries pass 2^26."""
    p, vecs = spec.p, spec.A.vectors
    k = base_degree * l
    R = p ** k - 1
    plan = _convolution_plan(vecs, R)
    method, cells = ("enumeration", R ** spec.A.n) if plan is None else ("convolution", p * R)
    if cells > guard and not override:
        raise TooLarge(f"the {method} touches {cells} cells, past the guard {guard}")
    if R * (k + 2) > (1 << 26):
        raise TooLarge(f"level {l}, field degree k = {k}: the trace tables' R (k + 2) = "
                       f"{R * (k + 2)} entries pass the memory guard 2^26 = {1 << 26}")
    return plan, method, R


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


def _traces_at(t, idx, e):
    """Tr(lambda g^idx) = t[(idx + e) mod R] for an index array idx and
    lambda = g^e; zeros for lambda = 0 (e None).

    np.take's wrap mode reduces idx + e mod R; it steps by whole periods,
    so it is cheap while |idx + e| is a few multiples of R, as at every
    caller.
    """
    if e is None:
        return np.zeros(idx.shape, dtype=t.dtype)
    return np.take(t, idx + e, mode="wrap")


def _convolved_counts(t, offsets, p, a, b, c, alpha, beta):
    """Trace-value counts of t_a(x) + t_b(y) + t_c(alpha x + beta y) over (Z/R)^2,
    t_a(x) = Tr(lambda_a g^x) = t[x + e_a].

    With w = beta y the sum runs over (x, w) of t_a(x) + t_b(w / beta) +
    t_c(alpha x + w).  Let A[j, z] = #{x : alpha x = z, t_a(x) = j}, one
    bincount, and B[j, w] = [t_b(w / beta) = j].  Their cyclic convolution
    over Z/p x Z/R,
        h[s, z] = #{(x, w) : alpha x + w = z, t_a(x) + t_b(w / beta) = s},
    is one 2-D float64 FFT per side and one inverse, and N_c is the sum of
    h[s, z] over t_c(z) = c - s, one weighted bincount.

    Exactness: every h[s, z] is an integer in [0, R], since each x fixes w.
    The float64 FFT error of an entry is of order eps * log2(pR) times the
    product of the inputs' 2-norms, sqrt(sum A^2) * sqrt(sum B^2) <=
    sqrt(gcd(alpha, R) R) * sqrt(R) <= R^(3/2).  The table guard
    R * (k + 2) <= 2^26 keeps R below 2^24 for k >= 2 (R = p - 1 for
    k = 1), so the error is of order 10^-4 at worst, and rounding recovers
    h exactly.  The residual max |h - rint(h)| < 1/4 is checked on every
    output.  The weighted bincount adds integers below R^2 < 2^48 in
    float64, exactly.
    """
    R = len(t)
    x = np.arange(R, dtype=np.int64)
    ta = _traces_at(t, x, offsets[a]).astype(np.int64)
    tb = _traces_at(t, x * pow(beta, -1, R) % R, offsets[b])
    tc = _traces_at(t, x, offsets[c])
    s = np.arange(p)[:, None]
    A = np.bincount(ta * R + x * alpha % R, minlength=p * R).reshape(p, R)
    B = tb == s
    h = np.fft.irfft2(np.fft.rfft2(A.astype(np.float64))
                      * np.fft.rfft2(B.astype(np.float64)), s=(p, R))
    hi = np.rint(h)
    assert np.abs(h - hi).max() < 0.25, "convolution count is not exact"
    counts = np.bincount(((s + tc) % p).ravel(), weights=hi.ravel(), minlength=p)
    return np.rint(counts).astype(np.int64)


def _enumerated_counts(t, offsets, vecs, p):
    """Trace-value counts of sum_a t[v_a . k + e_a] over every k in (Z/R)^n.

    Each monomial reads the table through an n-D view with strides v_a, so
    no index array is formed.  The views lie in one copy of t tiled
    max_a |v_a|_1 + 1 times, each starting at e_a + R * (the sum of v_a's
    negative entries' sizes): every unreduced e_a + v_a . k then falls in
    the tile, at a position congruent to it mod R.  Chunks split the first
    coordinate of k and hold about 2^22 points, or R^(n-1) when that is
    more.  Zero coefficients (offset None) are left out, and the sums, at
    most p - 1 per monomial, are held in the narrowest unsigned dtype and
    counted value by value.
    """
    R = len(t)
    n = len(vecs[0])
    terms = [(v, e) for v, e in zip(vecs, offsets) if e is not None]
    top = len(terms) * (p - 1)
    tile = np.tile(t, max((sum(map(abs, v)) + 1 for v, _ in terms), default=1))
    views = [np.lib.stride_tricks.as_strided(
        tile[e + R * sum(-c for c in v if c < 0):], shape=(R,) * n,
        strides=tuple(c * tile.itemsize for c in v), writeable=False)
        for v, e in terms]
    chunk = max(1, (1 << 22) // R ** (n - 1))
    counts = np.zeros(p, dtype=np.int64)
    for start in range(0, R, chunk):
        c = np.zeros((min(chunk, R - start),) + (R,) * (n - 1),
                     dtype=np.min_scalar_type(top))
        for view in views:
            c += view[start:start + chunk]
        for value in range(top + 1):
            counts[value % p] += np.count_nonzero(c == value)
    return counts


def _char_sum_slow(F, offsets, vecs, R, p):
    """Pure-Python reference for the tests: one field sum per torus point,
    lambda_a g^(v_a . k) = g^(v_a . k + e_a), lambda_a = 0 for e_a None."""
    n = len(vecs[0])
    g = ffield.multiplicative_generator(F)
    counts = [0] * p
    powers = [F.one()]
    for _ in range(R - 1):
        powers.append(F.mul(powers[-1], g))
    for ks in itertools.product(range(R), repeat=n):
        val = F.zero()
        for v, e in zip(vecs, offsets):
            if e is not None:
                val = F.add(val, powers[(sum(k * c for k, c in zip(ks, v)) + e) % R])
        counts[F.trace(val)] += 1
    return np.array(counts, dtype=np.int64)


def _trace_form(F):
    """Q[u][v] = Tr(s^(u+v)), the trace form of the power basis, so that
    Tr(x y) = x^T Q y on coordinate vectors."""
    h = np.array(F.traces(), dtype=np.int64)
    return h[np.add.outer(np.arange(F.k), np.arange(F.k))]


@functools.cache
def _trace_table(F):
    """t[j] = Tr(g^j) for j < R = |F*|, g the generator of F*, read-only.

    Baby steps and giant steps: with B = ceil(sqrt(R)) and j = i + B m,
    Tr(g^(Bm) g^i) = c_m^T Q b_i, where b_i and c_m are the coordinate
    vectors of g^i and g^(Bm) and Q is the trace form.  Only ceil(R/B) + B
    coordinate vectors are built, and the table is one (R/B x k) by (k x B)
    product: O(R k) where all R coordinate vectors cost O(R k^2).  Entries
    are held in the narrowest unsigned dtype that holds p - 1, one byte for
    p < 256.  Built once per field and process.
    """
    p, R = F.p, F.size - 1
    g = ffield.multiplicative_generator(F)
    B = math.isqrt(R - 1) + 1
    baby = _trace_form(F) @ _generator_power_table(F, g, B).T % p
    giant = _generator_power_table(F, F.pow(g, B), -(-R // B))
    t = (giant @ baby % p).ravel()[:R].astype(np.min_scalar_type(p - 1))
    t.flags.writeable = False
    return t


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


def char_sum_table(spec, lmax):
    """The rows of levels 1..lmax; every level's guards run before any
    level's field is built (FqTower builds none), so a refused level costs
    nothing."""
    tower = FqTower(spec)
    for l in range(1, lmax + 1):
        _guarded_plan(spec, l, tower.base_degree)
    table = CharSumTable(tower.d)
    for l in range(1, lmax + 1):
        table.rows.append(char_sum(spec, l, tower))
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
