"""Frobenius operator on weight-truncated monomial spaces.

Route B and C machinery: the exponential splitting series
theta(t) = exp(pi(t - t^p)), the twisted kernel F(lambda, X) with
coefficients B_mu(lambda), truncated matrices of the composed operator
Psi^(eps*d) o prod F(lambda^(p^i), X^(p^i)) on the monomial basis
{X^mu : w(mu) <= Wmax}, the Fredholm determinant with its Newton polygon
and Hensel-extracted unit root, and power iteration on the dual operator.

The weighted Banach norms of the underlying theory differ from the plain
monomial coordinates used here by a diagonal change of basis, which leaves
determinants and eigenvalues untouched; weight normalizations therefore
appear only as valuation bookkeeping, never as ring elements.

Matrices hold ring elements as integer tensors of shape
(dim, dim, p-1, m); products contract through float64 BLAS with exact
integer results.  Each slot of the left operand is cut into limbs: one limb
while dim * (p^N - 1)^2 < 2^52, otherwise limbs of the widest k bits with
dim * (2^k - 1) * (p^N - 1) < 2^53, so every partial sum of every limb
product is an integer below 2^53.  The limb products are reduced mod p^N in
int64 and recombined with the factors 2^(k*i) mod p^N; dim * (p^N - 1)^2
must stay below 2^62 (PrecisionTooLow) so that int64 recombination holds.

Ring arrays (..., p-1, m) multiply elementwise through ring_array_mul, one
slot convolution reduced by the same _fold.  Its entries are int64 while
(p^N - 1)^2 + p^N < 2^63, so a slot product added to a reduced residue
fits, and Python ints (object arrays) past that, on the same code path;
there is no option.  The kernel table B_mu(lambda) is swept with it one
exponent vector at a time over a batch of partial products (kernel_sweep),
and route B scales its vector by the normalizer's inverse with it.
bigF_coefficient and one_step_dual stay the scalar reference paths.
"""

import copy
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (MultipleUnitRoots, NoConvergence, NoUnitRoot, OutsideM,
                     PrecisionTooLow)
from .hyperg import _solutions
from .oracle import orbit_degree
from .padic import (RingElem, newton_root, pi_pow_over_factorials, split_p,
                    teichmueller)
from .weights import enumerate_weighted_monomials, in_cone, weight


@dataclass(frozen=True)
class SplittingCoeffs:
    ring: object
    b: tuple

    def __getitem__(self, i):
        return self.b[i]

    def __len__(self):
        return len(self.b)


def splitting_coefficients(ring, imax):
    """Coefficients b_0..b_imax of exp(pi(t - t^p)).

    b_i = sum_j (-1)^j pi^(i-(p-1)j) / (j! (i-pj)!); every term is
    p-integral, and ord b_i >= i(p-1)/p^2 is asserted for each i.
    """
    p = ring.p
    out = []
    for i in range(imax + 1):
        acc = ring.zero()
        for j in range(i // p + 1):
            term = pi_pow_over_factorials(ring, i - (p - 1) * j, (j, i - p * j))
            if j % 2:
                term = -term
            acc = acc + term
        assert acc.val_at_least(Fraction(i * (p - 1), p * p)), f"b_{i} bound fails"
        out.append(acc)
    assert out[0] == ring.one()
    return SplittingCoeffs(ring, tuple(out))


def default_s_cut(ring):
    """Kernel-sum cutoff making every omitted term vanish mod p^N; route A
    starts its series degree cap at the same value."""
    return math.ceil(ring.N * ring.p ** 2 / (ring.p - 1))


def bigF_coefficient(lam, mu, W, ring, sc, s_cut=None):
    """B_mu at the point lam: sum over nonnegative nu with sum nu_a a = mu
    of prod b_(nu_a) * lam^nu, cut at |nu| <= s_cut."""
    mu = tuple(int(c) for c in mu)
    if not in_cone(W, mu):
        raise OutsideM(f"{mu} is outside the support monoid")
    s_cut = default_s_cut(ring) if s_cut is None else s_cut
    if len(sc) <= s_cut:
        raise ValueError("splitting series too short for the requested cutoff")
    pows = [_power_list(x, s_cut) for x in lam]
    acc = ring.zero()
    for nu in _solutions(W.A, mu, s_cut):
        term = ring.one()
        for a, e in enumerate(nu):
            term = term * sc[e]
            if e:
                term = term * pows[a][e]
        acc = acc + term
    assert acc.val_at_least(weight(W, mu) * (ring.p - 1) / ring.p ** 2), \
        f"kernel bound fails at {mu}"
    return acc


def kernel_sweep(lam, W, ring, sc, s_cut):
    """{mu: B_mu(lam)} for every mu with a nonzero coefficient mod p^N.

    Every multi-index nu with |nu| <= s_cut contributes
    prod_a b_(nu_a) lam_a^(nu_a) to the bucket mu = sum nu_a a; indices
    missing from the result have every contribution beyond the cutoff and so
    vanish mod p^N.  The sweep takes A's vectors one level at a time over a
    batch of states (partial product, remaining budget, mu): each state
    expands by e = 0..budget into its partial times b_e lam_a^e, one
    ring_array_mul per level, and zero partials drop out.  One scatter-add
    sums the last level's partials into their buckets.
    """
    dtype = ring_dtype(ring.pN)
    b = np.array([x.rows for x in sc.b[:s_cut + 1]], dtype=dtype)
    partial = np.array([ring.one().rows], dtype=dtype)
    budget = np.array([s_cut])
    mu = np.zeros((1, W.A.n), dtype=np.int64)
    for x, vec in zip(lam, W.A.vectors):
        pows = np.array([y.rows for y in _power_list(x, s_cut)], dtype=dtype)
        row = ring_array_mul(ring, b, pows)  # b_e * lam_a^e
        # state i expands to e = 0..budget[i]
        counts = budget + 1
        src = np.repeat(np.arange(len(budget)), counts)
        e = np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts, counts)
        partial = ring_array_mul(ring, partial[src], row[e])
        keep = partial.any(axis=(-2, -1))
        partial = partial[keep]
        budget = (budget[src] - e)[keep]
        mu = (mu[src] + e[:, None] * np.array(vec, dtype=np.int64))[keep]
    keys, bucket = np.unique(mu, axis=0, return_inverse=True)
    sums = np.zeros((len(keys), ring.npi, ring.m), dtype=dtype)
    np.add.at(sums, bucket.reshape(-1), partial)
    sums %= ring.pN
    nonzero = sums.any(axis=(-2, -1))
    return {tuple(k): RingElem(ring, tuple(map(tuple, v)), check=False)
            for k, v in zip(keys[nonzero].tolist(), sums[nonzero].tolist())}


def _power_list(x, emax):
    out = [x.spec.one()]
    for _ in range(emax):
        out.append(out[-1] * x)
    return out


@dataclass
class XSeries:
    """Finitely supported coefficient vector on {mu in M : w(mu) <= wmax}.

    side "B" stores the coefficient of X^mu, side "B*" that of X^(-mu); in
    the weighted metric both carry an implicit normalization p^(±w(mu)(p-1)/p^2)
    accounted for in norm_order.
    """
    support: dict
    wmax: Fraction
    side: str

    def norm_order(self, W, ring):
        """Order of the weighted sup-norm; None for the zero vector."""
        sign = 1 if self.side == "B*" else -1
        wfac = Fraction(ring.p - 1, ring.p ** 2)
        best = None
        for mu, c in self.support.items():
            v = c.valuation()
            if v is None:
                continue
            v = v + sign * wfac * weight(W, mu)
            if best is None or v < best:
                best = v
        return best


class OperatorData:
    """Shared tables for one (A, lambda-bar, ring) instance.

    Holds the Teichmueller orbit, splitting series, memoized kernel
    coefficients and the weight-truncated basis, plus the one-step matrices
    of the operator and its dual as integer tensors.
    """

    def __init__(self, spec, W, ring, wmax, s_cut=None):
        self.spec = spec
        self.W = W
        self.ring = ring
        self.wmax = Fraction(wmax)
        self.basis = enumerate_weighted_monomials(W, self.wmax)
        self.index = {mu: i for i, mu in enumerate(self.basis)}
        self.d = orbit_degree(spec)
        self.orbit_len = spec.epsilon * self.d
        lam = tuple(teichmueller(ring, cf) for cf in spec.coeffs)
        self.lam_orbit = [lam]
        for _ in range(self.orbit_len - 1):
            lam = tuple(x ** ring.p for x in lam)
            self.lam_orbit.append(lam)
        self.s_cut = default_s_cut(ring) if s_cut is None else s_cut
        self.sc = splitting_coefficients(ring, self.s_cut)
        self._btables = {}
        self._onestep = {}

    def kernel_table(self, oi):
        """All kernel coefficients at orbit point oi, swept once and kept."""
        if oi not in self._btables:
            self._btables[oi] = kernel_sweep(self.lam_orbit[oi], self.W, self.ring,
                                             self.sc, self.s_cut)
        return self._btables[oi]

    def at_precision(self, ring):
        """This operator over `ring`, a lower precision of the same ring.

        Every table already computed is reduced, not recomputed.  The kernel
        cutoff drops to the one `ring` needs: the terms beyond it vanish
        there, so the reduced tables equal the ones built at `ring` directly.
        """
        od = copy.copy(self)
        od.ring = ring
        od.s_cut = min(self.s_cut, default_s_cut(ring))
        od.lam_orbit = [tuple(x.reduce_to(ring) for x in lam)
                        for lam in self.lam_orbit]
        od.sc = SplittingCoeffs(ring, tuple(b.reduce_to(ring)
                                            for b in self.sc.b[:od.s_cut + 1]))
        od._btables = {}
        for oi, table in self._btables.items():
            reduced = {mu: v.reduce_to(ring) for mu, v in table.items()}
            od._btables[oi] = {mu: v for mu, v in reduced.items() if not v.is_zero()}
        od._onestep = {oi: T % ring.pN for oi, T in self._onestep.items()}
        return od

    def B(self, oi, mu):
        """Kernel coefficient at orbit point oi (zero off the table)."""
        return self.kernel_table(oi).get(tuple(mu), self.ring.zero())

    def one_step_matrix(self, oi):
        """Tensor of the one-step operator: entry (omega, nu) = B(p*omega - nu)."""
        if oi not in self._onestep:
            ring = self.ring
            table = self.kernel_table(oi)
            miss = len(table)  # row index of the zero entry
            keys = np.array(list(table), dtype=np.int64)
            vals = np.zeros((miss + 1, ring.npi, ring.m), dtype=np.int64)
            vals[:miss] = [e.rows for e in table.values()]
            # dense index of the table over its bounding box
            lo = keys.min(axis=0)
            box = keys.max(axis=0) - lo + 1
            dense = np.full(tuple(box), miss)
            dense[tuple((keys - lo).T)] = np.arange(miss)
            basis = np.array(self.basis, dtype=np.int64)
            diff = ring.p * basis[:, None] - basis[None, :] - lo
            inside = ((diff >= 0) & (diff < box)).all(axis=-1)
            idx = np.full(inside.shape, miss)
            idx[inside] = dense[tuple(diff[inside].T)]
            self._onestep[oi] = vals[idx]
        return self._onestep[oi]

    def full_matrix(self):
        """Composed operator: one-step at orbit index 0 applied first."""
        T = self.one_step_matrix(0)
        products = 0
        for oi in range(1, self.orbit_len):
            T = _tensor_matmul(self.ring, self.one_step_matrix(oi), T)
            products += 1
        return RingMatrix(self.ring, self.W, self.basis, T, products)

    def dual_cycle(self, vec):
        """One full dual cycle applied to a coefficient tensor (dim, p-1, m)."""
        col = vec[:, None]
        for oi in range(self.orbit_len - 1, -1, -1):
            M = self.one_step_matrix(oi)
            col = _tensor_matmul(self.ring, np.swapaxes(M, 0, 1), col)
        return col[:, 0]


@dataclass
class RingMatrix:
    ring: object
    W: object
    basis: list
    tensor: np.ndarray
    products: int = 0      # tensor products in the expression that computed it

    @property
    def dim(self):
        return self.tensor.shape[0]

    def entry(self, i, j):
        return RingElem(self.ring, self.tensor[i, j])

    def matmul(self, other):
        return RingMatrix(self.ring, self.W, self.basis,
                          _tensor_matmul(self.ring, self.tensor, other.tensor),
                          self.products + other.products + 1)

    def trace(self):
        diag = self.tensor.diagonal(axis1=0, axis2=1)  # (npi, m, dim)
        return RingElem(self.ring, diag.sum(axis=2))


def limb_bits(dim, pN):
    """Width k of the limbs that split a left operand contracting over dim.

    One limb, all of p^N - 1, when dim * (p^N - 1)^2 < 2^52 (the rule
    perfbench's tracer mirrors); otherwise the widest k, below the width of
    p^N - 1, with dim * (2^k - 1) * (p^N - 1) < 2^53.  Either way every
    partial sum of a limb product with a whole right operand is an integer
    below 2^53, exact in float64.
    """
    top = (pN - 1).bit_length()
    if dim * (pN - 1) ** 2 < 2 ** 52:
        return top
    assert dim * (pN - 1) < 2 ** 53, "no limb width keeps the product exact"
    k = 1
    while k + 1 < top and dim * (2 ** (k + 1) - 1) * (pN - 1) < 2 ** 53:
        k += 1
    return k


def product_limbs(dim, pN):
    """Limbs, of limb_bits(dim, pN) bits each, per slot of a left operand."""
    return -(-(pN - 1).bit_length() // limb_bits(dim, pN))


def _pair_products(spec, A, B):
    """Raw convolution over (pi, t)-slots with exact integer products.

    A (rows, dim, p-1, m) times B (dim, cols, p-1, m), entries in
    [0, p^N), gives the slot-major (2(p-1)-1, 2m-1, rows, cols) that _fold
    reduces.  Each A slot is cut into limbs of limb_bits(dim, p^N) bits;
    one float64 BLAS product per limb and B slot is exact, is reduced mod
    p^N in int64, and enters with the limb's factor 2^shift mod p^N.
    """
    npi, m, pN = spec.npi, spec.m, spec.pN
    rows, dim, cols = A.shape[0], A.shape[1], B.shape[1]
    if dim * (pN - 1) ** 2 >= 2 ** 62:
        raise PrecisionTooLow(
            f"dimension {dim} with p^N = {pN}: dim * (p^N - 1)^2 reaches 2^62, "
            "beyond exact int64 reduction")
    k = limb_bits(dim, pN)
    mask = (1 << k) - 1
    shifts = range(0, k * product_limbs(dim, pN), k)
    bslots = [(j, t) for j in range(npi) for t in range(m) if B[:, :, j, t].any()]
    raw = np.zeros((2 * npi - 1, 2 * m - 1, rows, cols), dtype=np.int64)
    limb = np.empty((rows, dim))
    right = np.empty((dim, cols))
    prod = np.empty((rows, cols))
    red = np.empty((rows, cols), dtype=np.int64)
    for j1 in range(npi):
        for k1 in range(m):
            Aslice = A[:, :, j1, k1]
            if not Aslice.any():
                continue
            for shift in shifts:
                np.copyto(limb, (Aslice >> shift) & mask)
                factor = pow(2, shift, pN)
                for j2, k2 in bslots:
                    np.copyto(right, B[:, :, j2, k2])
                    np.matmul(limb, right, out=prod)
                    np.copyto(red, prod, casting="unsafe")
                    if factor != 1:
                        np.remainder(red, pN, out=red)
                        red *= factor
                    acc = raw[j1 + j2, k1 + k2]
                    acc += red
                    np.remainder(acc, pN, out=acc)
    return raw


def pair_products_reference(spec, A, B):
    """_pair_products in Python integers (object arrays): the reference
    the limb-split kernel is checked against."""
    npi, m = spec.npi, spec.m
    Ao, Bo = A.astype(object), B.astype(object)
    raw = np.zeros((2 * npi - 1, 2 * m - 1, A.shape[0], B.shape[1]), dtype=object)
    for j1 in range(npi):
        for k1 in range(m):
            for j2 in range(npi):
                for k2 in range(m):
                    raw[j1 + j2, k1 + k2] += Ao[:, :, j1, k1] @ Bo[:, :, j2, k2]
    return raw % spec.pN


def ring_dtype(pN):
    """Entry type of ring arrays mod pN: int64 while (pN - 1)^2 + pN < 2^63,
    so a slot product added to a reduced residue fits; Python ints past it."""
    return np.int64 if (pN - 1) ** 2 + pN < 2 ** 63 else object


def ring_array_mul(spec, X, Y):
    """Elementwise product of ring arrays.

    X (..., p-1, m) times Y broadcastable to it, entries in [0, p^N): each
    pair of nonzero (pi, t)-slots adds its product into the slot-major raw
    layout, reduced mod p^N after every addition, and _fold reduces the
    result.  Entries are of ring_dtype(p^N).
    """
    npi, m, pN = spec.npi, spec.m, spec.pN
    dtype = ring_dtype(pN)
    X, Y = X.astype(dtype, copy=False), Y.astype(dtype, copy=False)
    shape = np.broadcast_shapes(X.shape[:-2], Y.shape[:-2])
    raw = np.zeros((2 * npi - 1, 2 * m - 1) + shape, dtype=dtype)
    yslots = [(j, k) for j in range(npi) for k in range(m) if Y[..., j, k].any()]
    for j1 in range(npi):
        for k1 in range(m):
            x = X[..., j1, k1]
            if not x.any():
                continue
            for j2, k2 in yslots:
                acc = raw[j1 + j2, k1 + k2]
                acc += x * Y[..., j2, k2]
                acc %= pN
    return _fold(spec, raw)


def _fold(spec, raw):
    """Reduce pi-degrees >= p-1 (factor -p) and t-degrees >= m (mod g).

    raw is slot-major, (2(p-1)-1, 2m-1, ...), and is reduced in place one
    slot at a time; the result is (..., p-1, m).
    """
    npi, m, pN, p = spec.npi, spec.m, spec.pN, spec.p
    for j in range(raw.shape[0] - 1, npi - 1, -1):
        raw[j - npi] -= p * raw[j]
        raw[j - npi] %= pN
    for k in range(raw.shape[1] - 1, m - 1, -1):
        red = spec._tred[k - m]
        for j in range(npi):
            c = raw[j, k]
            for i in range(m):
                if red[i]:
                    raw[j, i] += c * red[i]
                    raw[j, i] %= pN
    return np.ascontiguousarray(np.moveaxis(raw[:npi, :m], (0, 1), (-2, -1)))


def _tensor_matmul(spec, A, B):
    return _fold(spec, _pair_products(spec, A, B))


def _vec_to_xseries(odata, vec):
    ring = odata.ring
    out = {}
    for i, mu in enumerate(odata.basis):
        e = RingElem(ring, vec[i])
        if not e.is_zero():
            out[mu] = e
    return XSeries(out, odata.wmax, "B*")


def one_step_dual(lam, xi, W, ring, sc, s_cut=None, lookup=None):
    """Dual one-step operator on a B*-vector, dictionary path.

    Output coefficient at X^(-omega) is sum_nu B_(p*nu - omega)(lam) xi_nu,
    truncated to w(omega) <= xi.wmax; the weighted norm never increases.
    A `lookup` callable may serve memoized kernel coefficients.
    """
    if lookup is None:
        def lookup(mu):
            if not in_cone(W, mu):
                return None
            return bigF_coefficient(lam, mu, W, ring, sc, s_cut)
    out = {}
    p = ring.p
    for om in enumerate_weighted_monomials(W, xi.wmax):
        acc = ring.zero()
        for nu, c in xi.support.items():
            b = lookup(tuple(p * a - b_ for a, b_ in zip(nu, om)))
            if b is not None and not b.is_zero():
                acc = acc + b * c
        if not acc.is_zero():
            out[om] = acc
    eta = XSeries(out, xi.wmax, "B*")
    nin, nout = xi.norm_order(W, ring), eta.norm_order(W, ring)
    assert nout is None or (nin is not None and nout >= nin), "dual step grew the norm"
    return eta


@dataclass
class PowerIterationResult:
    u: RingElem
    eigenvector: XSeries
    normalizers: list
    normalizer_diff_orders: list
    cycles: int
    budget: int


def power_iteration_budget(ring, D):
    return math.ceil(ring.N * D * ring.p ** 2 / (ring.p - 1) ** 2) + 3


def power_iteration_unit_root(spec, wmax, ring, W=None, odata=None):
    """Unit eigenvalue and fixed vector of the dual operator.

    Starting from the delta vector at X^0, apply the full orbit cycle, divide
    by the X^0 coefficient (a unit), and repeat until the normalizers agree
    at working precision.  The normalizer sequence is returned for the
    contraction diagnostics.
    """
    if odata is None:
        from .weights import build_weight_data
        W = W or build_weight_data(spec.A)
        odata = OperatorData(spec, W, ring, wmax)
    W = odata.W
    dim = len(odata.basis)
    vec = np.zeros((dim, ring.npi, ring.m), dtype=np.int64)
    vec[0, 0, 0] = 1
    assert odata.basis[0] == (0,) * spec.A.n
    budget = power_iteration_budget(ring, W.D)
    normalizers = []
    for cycle in range(1, budget + 1):
        vec = odata.dual_cycle(vec)
        c = RingElem(ring, vec[0])
        cinv = c.inverse()
        vec = ring_array_mul(ring, vec, np.array(cinv.rows))
        normalizers.append(c)
        if len(normalizers) >= 2:
            diff = (normalizers[-1] - normalizers[-2]).valuation()
            if diff is None:
                diffs = [(b - a).valuation() for a, b in zip(normalizers, normalizers[1:])]
                return PowerIterationResult(c, _vec_to_xseries(odata, vec),
                                            normalizers, diffs, cycle, budget)
    raise NoConvergence(f"normalizers still moving after {budget} cycles")


def frobenius_matrix(spec, wmax, ring, W=None):
    """Matrix of the composed operator on the weight-truncated basis."""
    from .weights import build_weight_data
    W = W or build_weight_data(spec.A)
    odata = OperatorData(spec, W, ring, wmax)
    return odata.full_matrix()


@dataclass
class FredholmPoly:
    ring: object
    coeffs: list           # RingElem, c_0 = 1
    degree_cap: int        # coefficients beyond this provably vanish mod p^N
    dim: int
    products: int = 0      # tensor products behind the traces, the matrix's own included

    def __len__(self):
        return len(self.coeffs)


@dataclass
class NewtonPolygon:
    segments: list  # (slope: Fraction, length: int)

    def slope_zero_length(self):
        for s, ln in self.segments:
            if s == 0:
                return ln
        return 0


def charpoly_degree_cap(basis_weights, p, N, dim):
    """Least k with (p-1)^2/p^2 * (sum of k smallest weights) >= N."""
    ws = sorted(basis_weights)
    acc = Fraction(0)
    for k, w in enumerate(ws, start=1):
        acc += w
        if Fraction((p - 1) ** 2, p ** 2) * acc >= N:
            return min(k, dim)
    return dim


def charpoly_boost(p, cap):
    """Extra precision absorbing the divisions in the Newton identities."""
    return sum(split_p(k, p)[0] for k in range(2, cap + 1)) + 1


def fredholm_coefficients(Mx, target_ring):
    """det(I - T M) mod p^N via trace power sums.

    The matrix must live at precision >= N + charpoly_boost so the exact
    integer divisions by k leave every reported digit intact; coefficients
    beyond the weight-derived cap vanish mod p^N and are not stored.
    """
    ring = Mx.ring
    N = target_ring.N
    cap = charpoly_degree_cap([weight(Mx.W, mu) for mu in Mx.basis],
                              ring.p, N, Mx.dim)
    cap = min(cap + 2, Mx.dim)
    assert ring.N >= N + charpoly_boost(ring.p, cap), "matrix precision too low"
    traces = []
    Mk = Mx
    products = Mx.products
    for _ in range(cap):
        traces.append(Mk.trace())
        if len(traces) < cap:
            Mk = Mk.matmul(Mx)
            products += 1
    coeffs = [ring.one()]
    for k in range(1, cap + 1):
        acc = ring.zero()
        for j in range(1, k + 1):
            acc = acc + traces[j - 1] * coeffs[k - j]
        acc = -acc
        # exact division by k
        v, kk = split_p(k, ring.p)
        acc = acc * pow(kk, -1, ring.pN)
        if v:
            acc = acc.divide_exact_p(v)
        coeffs.append(acc)
    reduced = [c.reduce_to(target_ring) for c in coeffs]
    # trailing coefficients should be invisible at target precision
    while len(reduced) > 1 and reduced[-1].is_zero():
        reduced.pop()
    return FredholmPoly(target_ring, reduced, cap, Mx.dim, products)


def newton_polygon(P):
    """Lower convex hull of (i, ord c_i); orders capped at the precision N."""
    pts = []
    for i, c in enumerate(P.coeffs):
        v = c.valuation()
        pts.append((Fraction(i), Fraction(P.ring.N) if v is None else v))
    if len(pts) <= 1:
        return NewtonPolygon([])
    hull = [pts[0]]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        length = int(x2 - x1)
        if segments and segments[-1][0] == slope:
            segments[-1] = (slope, segments[-1][1] + length)
        else:
            segments.append((slope, length))
    return NewtonPolygon(segments)


def fredholm_unit_root(Mx, ring):
    """(Fredholm polynomial mod p^N, unit root) from a boosted matrix.

    The Newton polygon must show exactly one slope-zero segment of length
    one; the corresponding simple zero 1/u is lifted by Newton iteration.
    """
    P = fredholm_coefficients(Mx, ring)
    return P, unit_root_of_poly(P.coeffs, ring)


@dataclass
class LFunctionData:
    numerator: list        # polynomial coefficients, constant 1
    denominator: list
    series: list           # the processed L-power expanded mod T^(len)
    unit_root: RingElem
    unit_root_matches: bool


def _poly_mul(ring, a, b, cap=None):
    out = [ring.zero()] * (len(a) + len(b) - 1 if cap is None
                           else min(len(a) + len(b) - 1, cap + 1))
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j >= len(out):
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def _poly_scale_T(ring, a, factor):
    out = []
    f = ring.one()
    for c in a:
        out.append(c * f)
        f = f * factor
    return out


def _series_inverse(ring, a, cap):
    assert a[0] == ring.one()
    inv = [ring.zero()] * (cap + 1)
    inv[0] = ring.one()
    for k in range(1, cap + 1):
        acc = ring.zero()
        for j in range(1, min(k, len(a) - 1) + 1):
            acc = acc + a[j] * inv[k - j]
        inv[k] = -acc
    return inv


def lfunction_from_fredholm(P, n, s):
    """Apply the root-scaling transform n times: the alternating product
    prod_k P(p^(k*s) T)^((-1)^k binom(n,k)).

    Returns the numerator and denominator polynomials, the expanded series
    of the processed L-power, and the (preserved) unit root.
    """
    ring = P.ring
    num = [ring.one()]
    den = [ring.one()]
    for k in range(n + 1):
        factor = ring.from_int(ring.p) ** (k * s)
        scaled = _poly_scale_T(ring, P.coeffs, factor)
        tgt = math.comb(n, k)
        for _ in range(tgt):
            if k % 2 == 0:
                num = _poly_mul(ring, num, scaled)
            else:
                den = _poly_mul(ring, den, scaled)
    cap = len(P.coeffs) - 1
    series = _poly_mul(ring, num, _series_inverse(ring, den, cap), cap)
    # unit root of the processed power equals that of P: the k>0 factors
    # scale reciprocal roots by powers of p^s, so only the k=0 factor is
    # slope-zero; verify by extracting from the numerator directly.
    u = unit_root_of_poly(num, ring)
    u0 = unit_root_of_poly(P.coeffs, ring)
    return LFunctionData(num, den, series, u, (u - u0).is_zero())


def unit_root_of_poly(coeffs, ring):
    """The reciprocal of the unique unit zero of a polynomial with c_0 = 1.

    With c_0 = 1 and integral coefficients, the slope-zero segment of the
    Newton polygon ends at the last unit coefficient.
    """
    last = max((k for k in range(1, len(coeffs)) if coeffs[k].is_unit()),
               default=None)
    if last is None:
        raise NoUnitRoot("no slope-zero segment")
    if last > 1:
        raise MultipleUnitRoots("slope-zero segment longer than one")
    return newton_root(coeffs, -(coeffs[1].inverse())).inverse()


def adjoint_check(spec, wmax, ring, W=None):
    """Worst pairing discrepancy between the operator and its dual.

    The dual side is applied through the dictionary path (one_step_dual),
    the primal side through the tensor matrix; on the interior sub-basis
    w <= wmax/p the two pairings must agree at working precision.  Returns
    the minimal discrepancy order, or None when every difference vanishes.
    """
    from .weights import build_weight_data
    W = W or build_weight_data(spec.A)
    odata = OperatorData(spec, W, ring, wmax)
    M = odata.full_matrix()
    interior = [mu for mu in odata.basis
                if weight(W, mu) <= Fraction(wmax) / ring.p]
    worst = None
    for mu in interior:
        xi = XSeries({mu: ring.one()}, Fraction(wmax), "B*")
        for oi in range(odata.orbit_len - 1, -1, -1):
            table = odata.kernel_table(oi)
            xi = one_step_dual(odata.lam_orbit[oi], xi, W, ring, odata.sc,
                               odata.s_cut, lookup=table.get)
        for nu in interior:
            lhs = xi.support.get(nu, ring.zero())
            rhs = M.entry(odata.index[mu], odata.index[nu])
            v = (lhs - rhs).valuation()
            if v is not None and (worst is None or v < worst):
                worst = v
    return worst
