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
(dim, dim, p-1, m); a product is one float64 BLAS GEMM per limb with exact
integer results.  The left side lays the left operand's nonzero
(pi, t)-slots side by side along the contraction in (b, slot) order, b the
contraction index: the tensor's own memory order, so the left side is a
reshape of the tensor when every slot is nonzero.  The right side is the
right operand's regular representation (RegularRep), whose row
(b, pi^j t^s) holds row b of pi^j t^s times the operand, so pi^(p-1) = -p
and g(t) are folded in and the product comes out reduced.  In this order a
contraction over b < K is a prefix of both sides: route C's trace powers
contract row a only over the band b < K(a) that can still reach a trace
(trace_band), runs of rows with equal K in one GEMM or, where that is
cheaper, a few runs together (_row_groups).  Right entries are
centred, |y| <= h = floor(p^N/2); left entries are cut into centred base-p
digits (left_limbs), a limb of w digits at most floor(p^w/2), the carry out
of the top limb, a multiple of p^N, dropped.  Limbs are e digits wide, the
lowest one narrower, for the widest e with K * floor(p^e/2) * h < 2^53
(limb_digits), so every partial sum over a contraction K is an integer
below 2^53; one limb is the rule K * h^2 < 2^53.  The contraction is cut
along b into blocks of as many columns as keep the limb count a single
slot (K = dim) needs, one GEMM each.  Each limb's GEMM takes only the rows where
that limb is nonzero: Dwork's estimate ord B_mu >= w(mu)(p-1)/p^2 makes
high-weight rows of the Frobenius matrix and of its powers divisible by
high powers of p, so many rows skip the low limbs, and rows that are
0 mod p^N skip every GEMM.  Each GEMM's product is reduced mod p^N in int64
and enters its rows with the limb's factor p^shift mod p^N.  That factor,
like the regular representation's coefficients, is a residue times a
residue added to a residue, so products hold exactly where ring_dtype's
int64 rule below, (p^N - 1)^2 + p^N < 2^63, holds, and raise
PrecisionTooLow past it.  RingMatrix builds its regular representation
once, on first use as a right operand, so route C's trace powers expand the
Frobenius matrix once; route B's dual cycle cuts each transposed one-step
matrix into limbs once (OperatorData.dual_cycle).

Ring arrays (..., p-1, m) multiply elementwise through ring_array_mul, one
slot convolution reduced by _fold.  Its entries are int64 while
(p^N - 1)^2 + p^N < 2^63, so a slot product added to a reduced residue
fits, and Python ints (object arrays) past that, on the same code path;
there is no option.  The kernel table B_mu(lambda) is swept with it one
exponent vector at a time over a batch of partial products (kernel_sweep),
and route B scales its vector by the normalizer's inverse with it.
bigF_coefficient and one_step_dual stay the scalar reference paths.
"""

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (MultipleUnitRoots, NoConvergence, NoUnitRoot, OutsideM,
                     PrecisionTooLow)
from .hyperg import _solutions
from .oracle import orbit_degree
from .padic import (RingElem, newton_root, pi_pow_over_factorials, split_p,
                    teichmueller)
from .weights import (build_weight_data, enumerate_weighted_monomials, in_cone,
                      scaled_weights, weight)


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
    lo, box = _bounding_box(mu)
    flat, bucket = np.unique(np.ravel_multi_index(tuple((mu - lo).T), box),
                             return_inverse=True)
    keys = np.stack(np.unravel_index(flat, box), axis=-1) + lo
    sums = np.zeros((len(keys), ring.npi, ring.m), dtype=dtype)
    np.add.at(sums, bucket, partial)
    return _ring_table(ring, keys.tolist(), sums)


def _bounding_box(keys):
    """(lo, shape) of the box spanned by integer vectors keys (n, d): a
    vector k has the C-order flat index ravel_multi_index(k - lo, shape),
    which sorts as the vectors do."""
    lo = keys.min(axis=0)
    return lo, tuple(keys.max(axis=0) - lo + 1)


def _ring_table(ring, keys, vals):
    """{key: RingElem} of the rows of vals (n, p-1, m) nonzero mod p^N."""
    vals = vals % ring.pN
    nonzero = vals.any(axis=(-2, -1))
    return {tuple(k): RingElem(ring, tuple(map(tuple, v)), check=False)
            for k, v, keep in zip(keys, vals.tolist(), nonzero) if keep}


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
    coefficients and the weight-truncated basis (enumerated here unless the
    caller passes it), plus the one-step matrices of the operator and its
    dual as integer tensors.
    """

    def __init__(self, spec, W, ring, wmax, s_cut=None, basis=None):
        self.spec = spec
        self.W = W
        self.ring = ring
        self.wmax = Fraction(wmax)
        self.basis = (enumerate_weighted_monomials(W, self.wmax) if basis is None
                      else basis)
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
        self._higher = {}   # kernel tables at a higher precision (at_precision)
        self._onestep = {}
        self._dual = {}

    def kernel_table(self, oi):
        """All kernel coefficients at orbit point oi, swept once and kept; an
        operator from at_precision reduces its source's table instead, if
        the source has one."""
        if oi not in self._btables:
            if oi in self._higher:
                table = self._higher[oi]
                rows = np.array([v.rows for v in table.values()], dtype=object)
                self._btables[oi] = _ring_table(self.ring, list(table), rows)
            else:
                self._btables[oi] = kernel_sweep(self.lam_orbit[oi], self.W,
                                                 self.ring, self.sc, self.s_cut)
        return self._btables[oi]

    def at_precision(self, ring):
        """This operator over `ring`, a lower precision of the same ring.

        Every table already computed is reduced, not recomputed: the
        one-step matrices here, the kernel tables on their first use.  The
        kernel cutoff drops to the one `ring` needs: the terms beyond it
        vanish there, so the reduced tables equal the ones built at `ring`
        directly.
        """
        od = copy.copy(self)
        od.ring = ring
        od.s_cut = min(self.s_cut, default_s_cut(ring))
        od.lam_orbit = [tuple(x.reduce_to(ring) for x in lam)
                        for lam in self.lam_orbit]
        od.sc = SplittingCoeffs(ring, tuple(b.reduce_to(ring)
                                            for b in self.sc.b[:od.s_cut + 1]))
        od._higher = self._btables
        od._btables = {}
        od._onestep = {oi: (T % ring.pN).astype(ring_dtype(ring.pN), copy=False)
                       for oi, T in self._onestep.items()}
        od._dual = {}
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
            vals = np.zeros((miss + 1, ring.npi, ring.m), dtype=ring_dtype(ring.pN))
            vals[:miss] = [e.rows for e in table.values()]
            # dense index of the table over its bounding box
            lo, box = _bounding_box(keys)
            dense = np.full(box, miss)
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
        ring = self.ring
        T = self.one_step_matrix(0)
        products = 0
        for oi in range(1, self.orbit_len):
            T = _pair_products(ring, self.one_step_matrix(oi), T)
            products += 1
        limbs = product_limbs(len(self.basis), ring.p, ring.N) if products else 0
        return RingMatrix(ring, self.W, self.basis, T, products, limbs)

    def dual_cycle(self, vec):
        """One full dual cycle applied to a coefficient tensor (dim, p-1, m).

        Each one-step matrix's transpose is cut into its LeftLimbs once, on
        the first cycle, and every later cycle reuses them; the matrix itself
        is then dropped (one_step_matrix would gather it again).
        """
        col = vec[:, None]
        for oi in range(self.orbit_len - 1, -1, -1):
            if oi not in self._dual:
                self._dual[oi] = left_limbs(
                    self.ring, np.swapaxes(self.one_step_matrix(oi), 0, 1))
                del self._onestep[oi]
            col = _pair_products(self.ring, self._dual[oi], col)
        return col[:, 0]


@dataclass
class RingMatrix:
    ring: object
    W: object
    basis: list
    tensor: np.ndarray
    products: int = 0      # tensor products in the expression that computed it
    limbs: int = 0         # most limbs per left entry any of those products used
    _right: "RegularRep" = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self):
        return self.tensor.shape[0]

    def right_operand(self, slots):
        """regular_representation of the tensor for at least `slots`, built
        on first use and kept: every trace power of route C multiplies by
        the same matrix."""
        if self._right is None or not np.isin(slots, self._right.slots).all():
            self._right = regular_representation(self.ring, self.tensor, slots)
        return self._right

    def entry(self, i, j):
        return RingElem(self.ring, self.tensor[i, j])

    def matmul(self, other, band=None):
        """self times other, each row only in its band (see _pair_products)
        when one is given."""
        T = _pair_products(self.ring, self.tensor, other.tensor,
                           other.right_operand, band)
        limbs = product_limbs(self.tensor.shape[1], self.ring.p, self.ring.N)
        return RingMatrix(self.ring, self.W, self.basis, T,
                          self.products + other.products + 1,
                          max(self.limbs, other.limbs, limbs))

    def trace(self):
        diag = self.tensor.diagonal(axis1=0, axis2=1)  # (npi, m, dim)
        return RingElem(self.ring, diag.sum(axis=2))


def limb_digits(K, p, N):
    """Width e, in base-p digits, of the limbs that split a left operand
    contracting over K.

    _digit_limbs cuts a left entry into L = ceil(N/e) limbs of centred
    base-p digits, the lowest N - (L-1)e digits wide and every higher one e;
    a limb of w digits is at most floor(p^w/2) in absolute value, and right
    entries are centred, at most h = floor(p^N/2).  So e is the widest
    width, at most N, with K * floor(p^e/2) * h < 2^53: every partial sum
    of a limb's GEMM is then an integer below 2^53 in absolute value, exact
    in float64.  One limb, e = N, is the rule K * h^2 < 2^53.
    """
    h = p ** N // 2
    assert K * (p // 2) * h < 2 ** 53, "no limb width keeps the product exact"
    e = N
    while K * (p ** e // 2) * h >= 2 ** 53:
        e -= 1
    return e


def product_limbs(K, p, N):
    """Limbs, of limb_digits(K, p, N) digits at most, per entry of a left
    operand."""
    return -(-N // limb_digits(K, p, N))


def slot_group(dim, slots, p, N):
    """Left-operand slots one GEMM contracts: the most, up to `slots`, whose
    contraction needs no more limbs than a single slot's (K = dim)."""
    limbs = product_limbs(dim, p, N)
    g = max(slots, 1)
    while g > 1 and product_limbs(g * dim, p, N) > limbs:
        g -= 1
    return g


def _reduce(X, pN):
    """X mod p^N in place, for int64 X (floor division by a scalar is
    several times faster than np.remainder)."""
    X -= X // pN * pN


def _nonzero_slots(X):
    """Indices j*m + s of the nonzero (pi, t)-slots of X (rows, ..., p-1, m);
    one reduction per slot is much faster than one over the leading axes,
    and the first row alone, nonzero in most slots of route C's matrices,
    settles most slots."""
    npi, m = X.shape[-2:]
    planes = [X[..., i // m, i % m] for i in range(npi * m)]
    return np.array([i for i, plane in enumerate(planes)
                     if plane[:1].any() or plane.any()], dtype=np.int64)


def _run(idx):
    """Sorted indices as a slice when they are consecutive, so that indexing
    with them gives a view, not a copy."""
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx


@dataclass(frozen=True)
class RegularRep:
    """Rows of B's regular representation: the right operand of _pair_products.

    Slot j*m + s stands for pi^j t^s.  Row b*len(slots) + n of `matrix`
    (dim*len(slots), cols*len(kept)), float64, is row b of slots[n] * B with
    its (col, slot) coordinates centred in [-floor(p^N/2), floor(p^N/2)];
    only the slots `kept`, the ones some row can reach, are stored.  Rows
    run in (b, slot) order, the order of a left operand's columns, so the
    rows for b < K are a prefix.
    """
    slots: np.ndarray
    kept: np.ndarray
    matrix: np.ndarray


def _regular_terms(spec, slots, present):
    """How the rows `slots` of a regular representation are made.

    For an operand B whose nonzero slots are `present`, slot o of
    pi^j t^s * B (row slot j*m + s) is the sum over B's slots (j0, s0) with
    j0 = j2 - j mod (p-1), o = j2*m + s2, of B's plane times the t^s2
    coefficient of t^(s + s0) mod g, and times -p when j + j0 wraps past
    p - 2.  Returns kept, the slots some row reaches, and src and coef
    (terms, rows, kept): row n, slot kept[c] is the sum over terms of
    coef * B[..., src] mod p^N, unused terms having coef 0.
    """
    npi, m, p, pN = spec.npi, spec.m, spec.p, spec.pN
    # tpow[e][s2]: coefficient of t^s2 in t^e mod g, e <= 2m - 2
    tpow = [[int(e == s2) for s2 in range(m)] for e in range(m)] + list(spec._tred)

    def terms(i, o):
        (j, s), (j2, s2) = divmod(i, m), divmod(o, m)
        j0, wrap = (j2 - j) % npi, -p if j2 < j else 1
        return [(wrap * tpow[s + s0][s2] % pN, j0 * m + s0) for s0 in range(m)
                if tpow[s + s0][s2] and j0 * m + s0 in present]

    rows = [[terms(i, o) for o in range(npi * m)] for i in slots]
    kept = [o for o in range(npi * m) if any(row[o] for row in rows)]
    src = np.zeros((m, len(slots), len(kept)), dtype=np.int64)
    coef = np.zeros_like(src)
    for n, row in enumerate(rows):
        for c, o in enumerate(kept):
            for t, (f, q) in enumerate(row[o]):
                coef[t, n, c], src[t, n, c] = f, q
    return np.array(kept, dtype=np.int64), src, coef


def regular_representation(spec, B, slots):
    """RegularRep of B (dim, cols, p-1, m), entries in [0, p^N), for the
    sorted `slots`: pi^(p-1) = -p and g(t) are applied here, once, instead
    of after every product."""
    pN = spec.pN
    dim, cols = B.shape[:2]
    kept, src, coef = _regular_terms(spec, slots, set(_nonzero_slots(B).tolist()))
    B = B.reshape(dim, cols, -1)
    blocks = np.empty((dim, len(slots), cols, len(kept)))
    for n in range(len(slots)):
        acc = B[:, :, src[0, n]] * coef[0, n]
        for t in range(1, len(src)):
            if coef[t, n].any():
                _reduce(acc, pN)
                acc += B[:, :, src[t, n]] * coef[t, n]
        _reduce(acc, pN)
        acc -= pN * (acc > pN // 2)
        blocks[:, n] = acc
    return RegularRep(np.asarray(slots, dtype=np.int64), kept,
                      blocks.reshape(dim * len(slots), -1))


@dataclass(frozen=True)
class LeftLimbs:
    """A left operand of _pair_products cut into the limbs its GEMMs take.

    rows is the operand's row count and slots its nonzero (pi, t)-slots; its
    columns are laid out in (b, slot) order, b the contraction index, as
    the RegularRep's rows are.  Each of `gemms` is (start, stop, cols,
    limbs): one GEMM per limb contracts columns start:stop against the same
    rows of the RegularRep, into the output columns below `cols` (all of
    them when None), and a limb is (factor, live, digits): digits, float64
    (len(live), stop - start), holds the limb on the rows `live`, the only
    rows where it is nonzero, and enters the product times factor.
    """
    rows: int
    slots: np.ndarray
    gemms: list


def _digit_limbs(X, p, N, e):
    """(shift, limb) of X (n, K), float64 integers in [0, p^N), cut into
    centred base-p digits: the lowest limb N - (L-1)e digits wide and every
    higher one e, so that X = sum limb * p^shift mod p^N.

    A limb of w digits is the centred residue of the carry so far mod p^w,
    |limb| <= floor(p^w/2), so a multiple of p^j has its digits below j
    zero; the carry out of the top limb, a multiple of p^N, drops.  Every
    value is an integer below 2^32 (p^N is, by ring_dtype's int64 rule), so
    float64 division and rounding to nearest give exact carries.  X is
    overwritten.
    """
    width, shift = N - (-(-N // e) - 1) * e, 0
    scratch = np.empty_like(X)
    while shift < N:
        q = p ** width
        # the top limb's carry drops, so it may live in the scratch buffer
        carry = np.divide(X, q, out=scratch if shift + width == N else None)
        np.rint(carry, out=carry)
        X -= np.multiply(carry, q, out=scratch)
        yield shift, X
        X, shift, width = carry, shift + width, e


# A GEMM of r rows against a K x C right side takes about as long as
# K * C * (r + PACK_ROWS) multiply-adds: BLAS packs the right side once a
# call, which costs about as much as 24 rows do (OpenBLAS, one thread,
# x86-64, K and C from 400 to 1028).
PACK_ROWS = 24


def _row_groups(A, band, S):
    """(rows, K, cols) per GEMM row group of A (n, dim * S), laid out in
    (b, slot) order: the rows contract over b < K and fill the output
    columns below cols (every column when None).

    Without a band it is every row over every b.  With one, a row that is
    0 over its own band, b < band[a], enters no group, and the others go
    in runs of equal band.  A group is a few adjacent runs: it contracts
    over its first run's band and fills the columns up to its last row's
    diagonal.  The runs are split into groups so that the sum of
    K * cols * (rows + PACK_ROWS) is least, by dynamic programming.
    """
    rows, dim = A.shape[0], A.shape[1] // S
    if band is None:
        return [(np.arange(rows), dim, None)]
    cuts = [0, *(np.flatnonzero(np.diff(band)) + 1).tolist(), rows]
    runs = [(lo + np.flatnonzero(A[lo:hi, :band[lo] * S].any(axis=1)), int(band[lo]))
            for lo, hi in zip(cuts, cuts[1:])]
    runs = [(live, K) for live, K in runs if len(live)]
    # cost[j], first[j]: the cheapest split of runs[:j], where its last group starts
    cost, first = [0], [0]
    for j in range(1, len(runs) + 1):
        end, n, best = int(runs[j - 1][0][-1]) + 1, 0, None
        for i in range(j - 1, -1, -1):
            n += len(runs[i][0])
            K = runs[i][1]
            c = cost[i] + K * max(K, end) * (n + PACK_ROWS)
            if best is None or c < best[0]:
                best = (c, i)
        cost.append(best[0])
        first.append(best[1])
    groups, j = [], len(runs)
    while j:
        i = first[j]
        live, K = np.concatenate([r for r, _ in runs[i:j]]), runs[i][1]
        groups.append((live, K, max(K, int(live[-1]) + 1)))
        j = i
    return groups[::-1]


def left_limbs(spec, A, band=None):
    """LeftLimbs of A (rows, dim, p-1, m), entries in [0, p^N).

    A's nonzero slots are laid side by side in (b, slot) order, a reshape
    when every slot is nonzero.  Row a contracts over b < band[a] (over
    every b without a band): its entries past that are zeroed in the
    group _row_groups puts it in.  The contraction is cut into blocks of at
    most slot_group(dim, ...) * dim columns, one GEMM each, so no block
    needs more limbs than a single slot (K = dim).  Each entry is cut by
    _digit_limbs into limbs of limb_digits(K, p, N) digits for the length
    K of its block.  A row enters a limb's GEMM only where that limb of it is
    nonzero, so a row that is 0 mod p^N there enters none, and one divisible
    by p^j skips every limb below digit j.
    """
    p, N, pN = spec.p, spec.N, spec.pN
    check_product_precision(pN)
    rows, dim = A.shape[:2]
    slots = _nonzero_slots(A)
    S = len(slots)
    if not S:
        return LeftLimbs(rows, slots, [])
    if band is not None and band.min() >= dim:
        band = None  # a full band is no band
    A = A.reshape(rows, dim, -1)
    if S < A.shape[2]:
        A = A[:, :, slots]
    A = A.reshape(rows, -1)
    step = slot_group(dim, S, p, N) * dim
    gemms = []
    for group, K, cols in _row_groups(A, band, S):
        ends = None if band is None else band[group] * S
        for start in range(0, K * S, step):
            stop = min(start + step, K * S)
            X = A[_run(group), start:stop].astype(np.float64)
            live = group
            if ends is not None:
                # each run of the group past the first ends at its own band
                for i in np.flatnonzero(np.diff(ends)) + 1:
                    X[i:, max(ends[i] - start, 0):] = 0
            if ends is None or stop - start < K * S:
                nz = X.any(axis=1)
                live = group[nz]
                if not len(live):
                    continue
                if len(live) < len(group):
                    X = X[nz]
            limbs = []
            for shift, digits in _digit_limbs(X, p, N, limb_digits(stop - start, p, N)):
                factor, nonzero = pow(p, shift, pN), digits.any(axis=1)
                if nonzero.all():
                    limbs.append((factor, live, digits))
                elif nonzero.any():
                    limbs.append((factor, live[nonzero], digits[nonzero]))
            gemms.append((start, stop, cols, limbs))
    return LeftLimbs(rows, slots, gemms)


def _accumulate(out, live, prod, factor, pN, add, block=64):
    """out[live] = (out[live] if add, else 0, + factor * prod) mod p^N,
    `block` rows at a time.

    prod holds exact integers in float64, out residues in int64.  out may
    share memory with prod: each block is read before its rows of out are
    written.
    """
    for r in range(0, len(live), block):
        x = prod[r:r + block].astype(np.int64)
        if factor != 1:
            _reduce(x, pN)
            x *= factor
        rows = _run(live[r:r + block])
        if add:
            x += out[rows]
        _reduce(x, pN)
        out[rows] = x


def _contract(left, rep, pN):
    """LeftLimbs times the rows left.slots of rep, mod p^N, as int64
    (rows, cols * len(rep.kept)); columns a row's GEMMs leave out are 0."""
    width = rep.matrix.shape[1]
    rhs = rep.matrix
    if len(left.slots) < len(rep.slots):
        pos = np.searchsorted(rep.slots, left.slots)
        rhs = rhs.reshape(-1, len(rep.slots), width)[:, pos].reshape(-1, width)
    out = None
    for start, stop, cols, limbs in left.gemms:
        w = width if cols is None else cols * len(rep.kept)
        for n, (factor, live, digits) in enumerate(limbs):
            prod = digits @ rhs[start:stop, :w]
            if out is None:
                # a first product over every row and column holds the
                # result in place
                out = (prod.view(np.int64) if len(live) == left.rows and w == width
                       else np.zeros((left.rows, width), dtype=np.int64))
            # a group's rows are untouched until its first limb at b = 0
            _accumulate(out[:, :w], live, prod, factor, pN, start > 0 or n > 0)
    return np.zeros((left.rows, width), dtype=np.int64) if out is None else out


def _pair_products(spec, A, B, right=None, band=None):
    """Product of ring matrices in exact float64 GEMMs, reduced mod p^N.

    A (rows, dim, p-1, m) times B (dim, cols, p-1, m), entries in [0, p^N),
    gives (rows, cols, p-1, m).  The left side is A cut into digit limbs
    (left_limbs), or A's LeftLimbs when the caller keeps them; the right
    side is B's RegularRep for A's nonzero slots, from right(slots) when the
    caller keeps it.  Each limb's GEMM is exact, and its product is reduced
    mod p^N in int64 and enters with the limb's factor p^shift mod p^N.

    With a band (trace_band, for a square product), row a contracts only
    over b < band[a].  It is formed on the columns below
    max(band[a], a + 1), its diagonal among them, and on any others its
    GEMM group fills (_row_groups); every other entry is 0.
    """
    npi, m, pN = spec.npi, spec.m, spec.pN
    cols = B.shape[1]
    left = A if isinstance(A, LeftLimbs) else left_limbs(spec, A, band)
    rows = left.rows
    if not len(left.slots):
        return np.zeros((rows, cols, npi, m), dtype=np.int64)
    rep = (regular_representation(spec, B, left.slots) if right is None
           else right(left.slots))
    out = _contract(left, rep, pN)
    del left  # a left operand made here is freed before `full` is made
    if len(rep.kept) == npi * m:
        return out.reshape(rows, cols, npi, m)
    full = np.zeros((rows, cols, npi * m), dtype=np.int64)
    full[..., rep.kept] = out.reshape(rows, cols, -1)
    return full.reshape(rows, cols, npi, m)


def pair_products_reference(spec, A, B):
    """_pair_products in Python integers (object arrays): the slot
    convolution folded by _fold, the reference the GEMM kernel is checked
    against."""
    npi, m = spec.npi, spec.m
    Ao, Bo = A.astype(object), B.astype(object)
    raw = np.zeros((2 * npi - 1, 2 * m - 1, A.shape[0], B.shape[1]), dtype=object)
    for j1 in range(npi):
        for k1 in range(m):
            for j2 in range(npi):
                for k2 in range(m):
                    raw[j1 + j2, k1 + k2] += Ao[:, :, j1, k1] @ Bo[:, :, j2, k2]
    return _fold(spec, raw % spec.pN)


def ring_dtype(pN):
    """Entry type of ring arrays mod pN: int64 while (pN - 1)^2 + pN < 2^63,
    so a slot product added to a reduced residue fits; Python ints past it."""
    return np.int64 if (pN - 1) ** 2 + pN < 2 ** 63 else object


def check_product_precision(pN):
    """PrecisionTooLow where ring_dtype(pN) is object: a product's GEMMs are
    reduced and recombined mod pN in int64, so a residue times a residue
    plus a residue must fit."""
    if ring_dtype(pN) is object:
        raise PrecisionTooLow(f"p^N = {pN} has (p^N - 1)^2 + p^N >= 2^63, "
                              "beyond exact int64 reduction")


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
    W = W or build_weight_data(spec.A)
    odata = OperatorData(spec, W, ring, wmax)
    return odata.full_matrix()


@dataclass
class FredholmPoly:
    ring: object
    coeffs: list           # RingElem, c_0 = 1
    degree_cap: int        # traces formed; c_k past it vanish mod p^N (fredholm_cap)
    dim: int
    products: int = 0      # tensor products behind the traces, the matrix's own included
    limbs: int = 0         # most limbs per left entry any of those products used

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
    acc = 0
    for k, w in enumerate(sorted(basis_weights), start=1):
        acc += w
        if (p - 1) ** 2 * acc >= N * p * p:
            return min(k, dim)
    return dim


def fredholm_cap(W, basis, p, N):
    """Trace powers route C forms, and so the last Fredholm coefficient it
    computes: charpoly_degree_cap - 1, or all dim when the bound is never
    reached.

    A one-step entry (omega, nu) = B(p*omega - nu) has
    ord >= (p-1)/p^2 * w(p*omega - nu) >= (p-1)/p^2 * (p*w(omega) - w(nu)),
    w being subadditive, and so has the orbit composite.  So every k x k
    principal minor has ord >= (p-1)^2/p^2 * (sum of w over its rows), and
    c_k vanishes mod p^N for every k >= charpoly_degree_cap.  The weights
    come scaled by D, as integers, so the bound is N * D; a fallback of
    dim + 1 tells a bound reached at k = dim from one never reached.
    """
    dim = len(basis)
    cap = charpoly_degree_cap(scaled_weights(W, basis), p, N * W.D, dim + 1)
    return min(cap - 1, dim)


def trace_band(W, basis, p, N):
    """K(a) for each row a of route C's trace powers: the columns c with
    (p-1)^2 * (w(a) + w(c)) < N * p^2, a prefix of the weight-ordered basis,
    so K never increases down the rows.

    By the one-step estimate of fredholm_cap, a cycle a_0 -> ... -> a_k = a_0
    through M has ord >= (p-1)/p^2 * sum(p*w(a_i) - w(a_(i+1))), which is
    (p-1)^2/p^2 * sum w(a_i).  An entry (a, c) of M^j, j < k, enters tr M^k
    only through cycles that visit a and c at two distinct positions, so
    past K(a) it adds nothing mod p^N: M^(j+1) may take row a of M^j over
    the columns below K(a) alone.  The weights come scaled by D, as
    integers.
    """
    sw = (p - 1) ** 2 * np.array(scaled_weights(W, basis), dtype=np.int64)
    assert (np.diff(sw) >= 0).all(), "basis not in weight order"
    return np.searchsorted(sw, N * p * p * W.D - sw)


def charpoly_boost(p, cap):
    """Digits the Newton identities lose over cap traces: v_p(cap!).

    Traces exact mod p^N' give c_k exact mod p^(N' - v_p(k!)), each step
    dividing by k and losing at most v_p(k) digits beyond its inputs; so
    N' = N + v_p(cap!) keeps every c_k, k <= cap, exact mod p^N.  Before the
    division by p^(v_p(k)) the error has ord >= N + v_p(k), so the division
    is exact.
    """
    return sum(split_p(k, p)[0] for k in range(2, cap + 1))


def fredholm_coefficients(Mx, target_ring, cap=None):
    """det(I - T M) mod p^N via trace power sums.

    cap traces give c_1 .. c_cap; the matrix must live at precision
    >= N + charpoly_boost(p, cap) so the exact divisions by k leave every
    reported digit intact.  The cap defaults to fredholm_cap, past which
    every c_k vanishes mod p^N; a caller that has it passes it.  Each trace
    power forms only the band of its rows that can still reach a trace at
    the matrix's precision (trace_band).  Trailing coefficients that vanish
    mod p^N are not stored.
    """
    ring = Mx.ring
    N = target_ring.N
    if cap is None:
        cap = fredholm_cap(Mx.W, Mx.basis, ring.p, N)
    assert ring.N >= N + charpoly_boost(ring.p, cap), "matrix precision too low"
    band = trace_band(Mx.W, Mx.basis, ring.p, ring.N)
    traces = []
    Mk = Mx
    products = Mx.products
    for _ in range(cap):
        traces.append(Mk.trace())
        if len(traces) < cap:
            Mk = Mk.matmul(Mx, band)
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
    return FredholmPoly(target_ring, reduced, cap, Mx.dim, products, Mk.limbs)


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


def fredholm_unit_root(Mx, ring, cap=None):
    """(Fredholm polynomial mod p^N, unit root) from a boosted matrix.

    The Newton polygon must show exactly one slope-zero segment of length
    one; the corresponding simple zero 1/u is lifted by Newton iteration.
    """
    P = fredholm_coefficients(Mx, ring, cap)
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


def lfunction_from_fredholm(P, n, s, u0):
    """Apply the root-scaling transform n times: the alternating product
    prod_k P(p^(k*s) T)^((-1)^k binom(n,k)).

    u0 is P's unit root, as fredholm_unit_root returns it.  Returns the
    numerator and denominator polynomials, the expanded series of the
    processed L-power, and the (preserved) unit root with whether it equals
    u0.
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
