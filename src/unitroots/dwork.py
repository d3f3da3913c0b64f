"""Frobenius operator on weight-truncated monomial spaces.

Route B and C machinery: over padic's splitting series
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
(b, pi^j t^s) holds row b of pi^j t^s times the operand, read from
RingSpec.law, the one place pi^(p-1) = -p and g(t) are applied, so the
product comes out reduced.  In this order a contraction over lo <= b < hi
is a slice of both sides.  Every product contracts each row over every b
but route C's first-return products, which contract row r only over its
window r < b < K(r) (first_return_product), a few adjacent rows in one
GEMM (_row_groups), planned once per call (WindowPlan).  Right entries
are centred, |y| <= h = floor(p^N/2); left entries are cut into centred
base-p digits (left_limbs), a limb of w digits at most floor(p^w/2), the
carry out of the top limb, a multiple of p^N, dropped.  Limbs are e
digits wide, the lowest one narrower, for the widest e with
K * floor(p^e/2) * h < 2^53 (limb_digits), so every partial sum over a
contraction K is an integer below 2^53; one limb is the rule
K * h^2 < 2^53.  The contraction is cut along b into blocks of as many
columns as keep the limb count a single slot (K = dim) needs, one GEMM
each.  Each limb's GEMM takes only the rows where that limb is nonzero:
Dwork's estimate ord B_mu >= w(mu)(p-1)/p^2 makes high-weight rows of the
Frobenius matrix and of its powers divisible by high powers of p, so many
rows skip the low limbs, and rows that are 0 mod p^N skip every GEMM.
Each GEMM's product is reduced mod p^N in int64 and enters its rows with
the limb's factor p^shift mod p^N.  That factor, like the regular
representation's coefficients, is a residue times a residue added to a
residue, so products hold exactly where ring_dtype's int64 rule below,
(p^N - 1)^2 + p^N < 2^63, holds, and raise PrecisionTooLow past it.
RingMatrix builds its regular representation once, on first use as a
right operand, so route C's first-return products expand the leading
block of the Frobenius matrix once; route B's dual cycle cuts each
transposed one-step matrix into limbs once (OperatorData.dual_cycle).

Ring arrays (..., p-1, m) multiply elementwise through ring_array_mul, one
multiply-add per pair of RingSpec.law.  Its entries are int64 while
(p^N - 1)^2 + p^N < 2^63, so a slot product added to a reduced residue
fits, and Python ints (object arrays) past that, on the same code path;
there is no option.  With it the kernel table B_mu(lambda) is swept one
exponent vector at a time over a batch of partial products (kernel_sweep)
and kept as two arrays, its points and its coefficients (KernelTable), from
which one_step_matrix gathers by flat index; route B scales its vector by
the normalizer's inverse, and route C multiplies its polynomials in T, the
first-return factors and the L-function's alike, in a product tree
(_series_product).  bigF_coefficient
and one_step_dual stay the scalar reference paths, and
pair_products_reference folds by its own encoding of the law, _fold.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (MultipleUnitRoots, NoConvergence, NoUnitRoot, OutsideM,
                     PrecisionTooLow)
from .hyperg import _solutions
from .oracle import orbit_degree
from .padic import (RingElem, default_s_cut, newton_root, powers,
                    splitting_coefficients, teichmueller)
from .weights import (build_weight_data, enumerate_weighted_monomials, in_cone,
                      scaled_weights, weight)


def bigF_coefficient(lam, mu, W, ring, sc, s_cut=None):
    """B_mu at the point lam: sum over nonnegative nu with sum nu_a a = mu
    of prod b_(nu_a) * lam^nu, cut at |nu| <= s_cut."""
    mu = tuple(int(c) for c in mu)
    if not in_cone(W, mu):
        raise OutsideM(f"{mu} is outside the support monoid")
    s_cut = default_s_cut(ring) if s_cut is None else s_cut
    if len(sc) <= s_cut:
        raise ValueError("splitting series too short for the requested cutoff")
    pows = [powers(x, s_cut) for x in lam]
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
    """KernelTable of B_mu(lam) for every mu with a nonzero coefficient mod
    p^N: points (k, n), the mu in sorted order, and coeffs (k, p-1, m).

    Every multi-index nu with |nu| <= s_cut contributes
    prod_a b_(nu_a) lam_a^(nu_a) to the bucket mu = sum nu_a a; indices
    missing from the result have every contribution beyond the cutoff and so
    vanish mod p^N.  The sweep takes A's vectors one level at a time over a
    batch of states (partial product, remaining budget, mu): each state
    expands by e = 0..budget into its partial times b_e lam_a^e, one
    ring_array_mul per level, and zero partials drop out.  One scatter-add
    sums the last level's partials into their buckets, which are reduced
    mod p^N and kept where nonzero; the arrays are the table, with no
    RingElem per entry.  Entries are of ring_dtype(p^N), Python ints past
    the int64 rule, on the same code path.
    """
    dtype = ring_dtype(ring.pN)
    b = np.array([x.rows for x in sc.b[:s_cut + 1]], dtype=dtype)
    partial = np.array([ring.one().rows], dtype=dtype)
    budget = np.array([s_cut])
    mu = np.zeros((1, W.A.n), dtype=np.int64)
    for x, vec in zip(lam, W.A.vectors):
        pows = np.array([y.rows for y in powers(x, s_cut)], dtype=dtype)
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
    lo = mu.min(axis=0)
    box = tuple(mu.max(axis=0) - lo + 1)
    # C-order flat indices of the box sort as the vectors do
    flat, bucket = np.unique(np.ravel_multi_index(tuple((mu - lo).T), box),
                             return_inverse=True)
    sums = np.zeros((len(flat), ring.npi, ring.m), dtype=dtype)
    np.add.at(sums, bucket, partial)
    _reduce(sums, ring.pN)
    keep = sums.any(axis=(-2, -1))
    points = np.stack(np.unravel_index(flat[keep], box), axis=-1) + lo
    return KernelTable(ring, points, sums[keep])


class KernelTable(Mapping):
    """Read-only mapping {mu: B_mu(lam)} over two arrays: points (k, n), the
    exponent vectors mu, and coeffs (k, p-1, m), their coefficients reduced
    mod p^N, of ring_dtype(p^N).  one_step_matrix gathers from the arrays;
    a RingElem is made only when an entry is read through the mapping, and
    the index from mu to row only on the first such read.
    """

    def __init__(self, ring, points, coeffs):
        self.ring = ring
        self.points = points
        self.coeffs = coeffs
        self._rows = None

    @classmethod
    def of_elements(cls, ring, points, elems):
        """The table {points[i]: elems[i]}, points integer vectors of one
        length, elems RingElems of ring."""
        coeffs = np.array([e.rows for e in elems], dtype=ring_dtype(ring.pN))
        return cls(ring, np.array(points, dtype=np.int64).reshape(len(points), -1),
                   coeffs.reshape(len(elems), ring.npi, ring.m))

    def __getitem__(self, mu):
        if self._rows is None:
            self._rows = {key: i for i, key in enumerate(self)}
        i = self._rows[tuple(mu)]
        return _ring_elems(self.ring, self.coeffs[i:i + 1])[0]

    def __iter__(self):
        return map(tuple, self.points.tolist())

    def __len__(self):
        return len(self.points)


def _ring_elems(ring, X):
    """RingElem of each row of X (n, p-1, m), entries reduced mod p^N."""
    return [RingElem(ring, tuple(map(tuple, x)), check=False) for x in X.tolist()]


@dataclass
class XSeries:
    """Finitely supported dual vector on {mu in M : w(mu) <= wmax}: support
    maps mu to the coefficient of X^(-mu), which in the weighted metric
    carries the normalization p^(w(mu)(p-1)/p^2) accounted for in
    norm_order.
    """
    support: dict
    wmax: Fraction

    def norm_order(self, W, ring):
        """Order of the weighted sup-norm; None for the zero vector."""
        wfac = Fraction(ring.p - 1, ring.p ** 2)
        best = None
        for mu, c in self.support.items():
            v = c.valuation()
            if v is None:
                continue
            v = v + wfac * weight(W, mu)
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
        self.W = W
        self.ring = ring
        self.wmax = Fraction(wmax)
        self.basis = (enumerate_weighted_monomials(W, self.wmax) if basis is None
                      else basis)
        self.orbit_len = spec.epsilon * orbit_degree(spec)
        lam = tuple(teichmueller(ring, cf) for cf in spec.coeffs)
        self.lam_orbit = [lam]
        for _ in range(self.orbit_len - 1):
            lam = tuple(x ** ring.p for x in lam)
            self.lam_orbit.append(lam)
        self.s_cut = default_s_cut(ring) if s_cut is None else s_cut
        self.sc = splitting_coefficients(ring, self.s_cut)
        self._btables = {}
        self._onestep = {}
        self._dual = {}

    def kernel_table(self, oi):
        """The KernelTable of orbit point oi, swept once and kept: a
        read-only mapping {mu: B_mu(lambda)} over kernel_sweep's arrays."""
        if oi not in self._btables:
            self._btables[oi] = kernel_sweep(self.lam_orbit[oi], self.W,
                                             self.ring, self.sc, self.s_cut)
        return self._btables[oi]

    def one_step_matrix(self, oi):
        """Tensor of the one-step operator: entry (omega, nu) = B(p*omega - nu).

        The gather reads the kernel table's arrays through one flat index
        per (omega, nu).  Every p*omega - nu lies in the box lo <= mu < lo +
        box, lo = p*min - max and box = (p+1)(max - min) + 1 per coordinate,
        min and max the basis's extremes there; an index over that box holds
        each table point's row and the zero row elsewhere.  Its flat index
        is a row term of omega minus a column term of nu, so no (omega, nu)
        needs a range test.  The index has prod((p+1)(max - min) + 1) int32
        entries, whatever the table's size: for n = 3 that is about the cube
        of (p+1)(max - min), 4 MB when (p+1)(max - min) is 100 in every
        coordinate.
        """
        if oi not in self._onestep:
            ring = self.ring
            table = self.kernel_table(oi)
            basis = np.array(self.basis, dtype=np.int64)
            top = ring.p * basis
            lo = top.min(axis=0) - basis.max(axis=0)
            box = top.max(axis=0) - basis.min(axis=0) - lo + 1
            stride = np.cumprod(np.append(1, box[:0:-1]))[::-1]  # C order
            keys = table.points - lo
            inside = ((keys >= 0) & (keys < box)).all(axis=1)
            miss = len(table)  # row of the zero entry
            dense = np.full(int(box.prod()), miss, dtype=np.int32)
            dense[keys[inside] @ stride] = np.flatnonzero(inside)
            vals = np.concatenate([table.coeffs, np.zeros(
                (1,) + table.coeffs.shape[1:], dtype=table.coeffs.dtype)])
            idx = dense[((top - lo) @ stride)[:, None] - (basis @ stride)[None, :]]
            # np.take copies whole rows, several times faster than vals[idx]
            self._onestep[oi] = np.take(vals, idx, axis=0)
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
        is then dropped, so a caller that wants full_matrix as well composes
        it first (one_step_matrix would gather it again from the kernel
        table).  The runner does so by running route C before route B.
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
    products: int = 0      # tensor products that composed it (full_matrix)
    limbs: int = 0         # most limbs per left entry any of those products used
    _right: "RegularRep" = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self):
        return self.tensor.shape[0]

    def right_operand(self, slots):
        """regular_representation of the tensor for at least `slots`, built
        on first use and kept: every first-return product of route C
        multiplies by the same matrix, and so does every power M^(k+1) =
        M^k.matmul(M) of the selftest's dense trace-power reference."""
        if self._right is None or not np.isin(slots, self._right.slots).all():
            self._right = regular_representation(self.ring, self.tensor, slots)
        return self._right

    def entry(self, i, j):
        return RingElem(self.ring, self.tensor[i, j])

    def matmul(self, other):
        """self times other, through other's kept right operand."""
        return RingMatrix(self.ring, self.W, self.basis,
                          _pair_products(self.ring, self.tensor, other.tensor,
                                         other.right_operand))

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
    several times faster than np.remainder); object X, as ring_array_mul
    passes past the int64 rule, is reduced correctly but more slowly."""
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

    Slot o of row slot i, pi^j t^s * B for i = j*m + s, is the sum of f
    times B's plane k over B's nonzero slots k, the ascending `present`,
    and the pairs (o, f) of RingSpec.law[i][k].  Returns kept, the slots
    some row reaches, and src and coef (terms, rows, kept): row n, slot
    kept[c] is the sum over terms of coef * B[..., src] mod p^N, unused
    terms having coef 0.
    """
    S = spec.npi * spec.m
    rows = [[[] for _ in range(S)] for _ in slots]
    for terms, i in zip(rows, slots):
        for k in present:
            for o, f in spec.law[i][k]:
                terms[o].append((f, k))
    kept = [o for o in range(S) if any(terms[o] for terms in rows)]
    src = np.zeros((spec.m, len(slots), len(kept)), dtype=np.int64)
    coef = np.zeros_like(src)
    for n, terms in enumerate(rows):
        for c, o in enumerate(kept):
            for t, (f, k) in enumerate(terms[o]):
                coef[t, n, c], src[t, n, c] = f, k
    return np.array(kept, dtype=np.int64), src, coef


# Entries per temporary when regular_representation expands B: rows of B
# are taken a few at a time, so the temporaries, 512 KB each in int64, stay
# small beside the representation itself (3-7 MB for route C's leading
# block on the benchmark's N = 8 cases), which would otherwise set route
# C's memory peak.
REP_TEMP = 2 ** 16


def regular_representation(spec, B, slots):
    """RegularRep of B (dim, cols, p-1, m), entries in [0, p^N), for the
    sorted `slots`: pi^(p-1) = -p and g(t) enter here, once, through
    RingSpec.law (_regular_terms), instead of after every product."""
    pN = spec.pN
    dim, cols = B.shape[:2]
    kept, src, coef = _regular_terms(spec, slots, _nonzero_slots(B).tolist())
    B = B.reshape(dim, cols, -1)
    blocks = np.empty((dim, len(slots), cols, len(kept)))
    step = max(1, REP_TEMP // max(cols * len(kept), 1))
    for lo in range(0, dim, step):
        Bs = B[lo:lo + step]
        for n in range(len(slots)):
            acc = Bs[:, :, src[0, n]] * coef[0, n]
            for t in range(1, len(src)):
                if coef[t, n].any():
                    _reduce(acc, pN)
                    acc += Bs[:, :, src[t, n]] * coef[t, n]
            _reduce(acc, pN)
            acc -= pN * (acc > pN // 2)
            blocks[lo:lo + step, n] = acc
    return RegularRep(np.asarray(slots, dtype=np.int64), kept,
                      blocks.reshape(dim * len(slots), -1))


@dataclass(frozen=True)
class LeftLimbs:
    """A left operand of _pair_products cut into the limbs its GEMMs take.

    rows is the operand's row count and slots its nonzero (pi, t)-slots; its
    columns are laid out in (b, slot) order, b the contraction index, as
    the RegularRep's rows are.  Each of `gemms` is a row group (cols,
    blocks): it fills the output columns cols = (first, stop), every one
    when None, and each block (start, stop, limbs) contracts columns
    start:stop against the same rows of the RegularRep, one GEMM per limb.
    A limb is (factor, live, digits): digits, float64 (len(live),
    stop - start), holds the limb on the rows `live`, the only rows where
    it is nonzero, and enters the product times factor.
    """
    rows: int
    slots: np.ndarray
    gemms: list

    def madds(self, rep):
        """Multiply-adds of this operand's GEMMs against the RegularRep rep."""
        return sum(len(live) * (stop - start) * (w1 - w0)
                   for cols, blocks in self.gemms
                   for w0, w1 in [_out_columns(cols, rep)]
                   for start, stop, limbs in blocks
                   for _, live, _ in limbs)


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


def _window(rows, b, band):
    """Mask (len(rows), len(b)) of the contraction indices b in each row
    a's window a < b < band[a]."""
    return (b > rows[:, None]) & (b < band[rows][:, None])


def _row_groups(M, band):
    """(live, lo, hi, cols) per GEMM row group of route C's first-return
    products Y_k M, planned from M (K, K, p-1, m): the rows `live`
    contract over lo <= b < hi and fill the output columns cols = (first,
    stop).

    Row a contracts over its window a < b < band[a] into the columns from
    a to max(band[a], a + 1); band never increases down the rows, so a
    row's window lies in each earlier row's.  Rows of M that are 0 over
    their window enter no group: such a row of Y_k M is 0, so it stays 0
    over its window in every later Y_k, and the plan from M holds for the
    whole call.  The others form runs that contract over their first row's
    window.  A row joins the run before it while the work spent outside its
    rows' windows stays within PACK_ROWS rows of the run's, the price of
    one GEMM more.
    """
    index = np.arange(len(M))
    live = np.flatnonzero(np.logical_and(
        M.any(axis=(2, 3)), _window(index, index, band)).any(axis=1))
    top, hi = np.maximum(band, index + 1).tolist(), band.tolist()
    groups = []
    for a in live.tolist():
        own = (hi[a] - a - 1) * (top[a] - a)
        if groups:
            g = groups[-1]
            f = g[0][0]
            stop = max(g[2], top[a])
            work = (hi[f] - f - 1) * (stop - f)
            if work * (len(g[0]) + 1) - (g[3] + own) <= PACK_ROWS * work:
                g[0].append(a)
                g[2], g[3] = stop, g[3] + own
                continue
        groups.append([[a], a, top[a], own])
    return [(np.array(members), f + 1, hi[f], (f, stop))
            for members, f, stop, _ in groups]


class WindowPlan:
    """Route C's row groups (_row_groups) for one first_return_product call,
    with the window mask of each (group, block) made on first use and kept:
    every first-return product of the call reuses both."""

    def __init__(self, M, band):
        self.band = band
        self.groups = _row_groups(M, band)
        self._masks = {}

    def mask(self, g, start, stop, S):
        """Window mask of group g's rows over the columns start:stop of a
        left operand of S slots in (b, slot) order."""
        key = (g, start, stop, S)
        if key not in self._masks:
            self._masks[key] = _window(self.groups[g][0],
                                       np.arange(start, stop) // S, self.band)
        return self._masks[key]


def left_limbs(spec, A, plan=None):
    """LeftLimbs of A (rows, dim, p-1, m), entries in [0, p^N).

    A's nonzero slots are laid side by side in (b, slot) order, a reshape
    when every slot is nonzero.  With route C's WindowPlan, row a
    contracts over its window a < b < band[a] alone (first_return_product):
    its entries outside it are zeroed, by the plan's kept mask, in the
    group the plan puts it in, and a row that is 0 there enters no GEMM of
    that block; without one, every row contracts over every b.  The
    contraction is cut into blocks of at most slot_group(dim, ...) * dim
    columns, one GEMM each, so no block needs more limbs than a single slot
    (K = dim).  Each entry is cut by _digit_limbs into limbs of
    limb_digits(K, p, N) digits for the length K of its block.  A row
    enters a limb's GEMM only where that limb of it is nonzero, so a row
    that is 0 mod p^N there enters none, and one divisible by p^j skips
    every limb below digit j.
    """
    p, N, pN = spec.p, spec.N, spec.pN
    check_product_precision(pN)
    rows, dim = A.shape[:2]
    slots = _nonzero_slots(A)
    S = len(slots)
    if not S:
        return LeftLimbs(rows, slots, [])
    A = A.reshape(rows, dim, -1)
    if S < A.shape[2]:
        A = A[:, :, slots]
    A = A.reshape(rows, -1)
    step = slot_group(dim, S, p, N) * dim
    groups = [(np.arange(rows), 0, dim, None)] if plan is None else plan.groups
    gemms = []
    for g, (group, lo, hi, cols) in enumerate(groups):
        blocks = []
        for start in range(lo * S, hi * S, step):
            stop = min(start + step, hi * S)
            X = A[_run(group), start:stop].astype(np.float64)
            if plan is not None:
                X *= plan.mask(g, start, stop, S)
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
            blocks.append((start, stop, limbs))
        if blocks:
            gemms.append((cols, blocks))
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


def _out_columns(cols, rep):
    """Columns (w0, w1) of rep.matrix for the output columns cols, all if None."""
    n = len(rep.kept)
    return (0, rep.matrix.shape[1]) if cols is None else (cols[0] * n, cols[1] * n)


def _contract(left, rep, pN):
    """LeftLimbs times the rows left.slots of rep, mod p^N, as int64
    (rows, cols * len(rep.kept)); columns a row's GEMMs leave out are 0."""
    width = rep.matrix.shape[1]
    rhs = rep.matrix
    if len(left.slots) < len(rep.slots):
        pos = np.searchsorted(rep.slots, left.slots)
        rhs = rhs.reshape(-1, len(rep.slots), width)[:, pos].reshape(-1, width)
    out = None
    for cols, blocks in left.gemms:
        w0, w1 = _out_columns(cols, rep)
        for i, (start, stop, limbs) in enumerate(blocks):
            for n, (factor, live, digits) in enumerate(limbs):
                prod = digits @ rhs[start:stop, w0:w1]
                if out is None:
                    # a first product over every row and column holds the
                    # result in place
                    out = (prod.view(np.int64)
                           if len(live) == left.rows and w1 - w0 == width
                           else np.zeros((left.rows, width), dtype=np.int64))
                # a group's rows are untouched until its first limb
                _accumulate(out[:, w0:w1], live, prod, factor, pN, i > 0 or n > 0)
    return np.zeros((left.rows, width), dtype=np.int64) if out is None else out


def _pair_products(spec, A, B, right=None):
    """Product of ring matrices in exact float64 GEMMs, reduced mod p^N.

    A (rows, dim, p-1, m) times B (dim, cols, p-1, m), entries in [0, p^N),
    gives (rows, cols, p-1, m).  The left side is A cut into digit limbs
    (left_limbs), or A's LeftLimbs when the caller keeps them; the right
    side is B's RegularRep for A's nonzero slots, from right(slots) when the
    caller keeps it.  Each limb's GEMM is exact, and its product is reduced
    mod p^N in int64 and enters with the limb's factor p^shift mod p^N.

    A windowed caller passes left_limbs(spec, A, plan) as A, plan its
    WindowPlan: row a then contracts only over a < b < band[a], and is
    formed on the columns from a to max(band[a], a + 1), its diagonal among
    them, and on any others its GEMM group fills (_row_groups); every other
    entry is 0.
    """
    npi, m, pN = spec.npi, spec.m, spec.pN
    cols = B.shape[1]
    left = A if isinstance(A, LeftLimbs) else left_limbs(spec, A)
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
    against; _fold, not RingSpec.law, encodes the ring law here."""
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
    pair of nonzero (pi, t)-slots i, k adds its product, times f, into slot
    o for each pair (o, f) of RingSpec.law[i][k], reduced mod p^N after
    every addition.  Entries are of ring_dtype(p^N).
    """
    npi, m, pN = spec.npi, spec.m, spec.pN
    dtype = ring_dtype(pN)
    X, Y = X.astype(dtype, copy=False), Y.astype(dtype, copy=False)
    shape = np.broadcast_shapes(X.shape[:-2], Y.shape[:-2])
    out = np.zeros((npi * m,) + shape, dtype=dtype)
    yslots = [k for k in range(npi * m) if Y[..., k // m, k % m].any()]
    for i, law in enumerate(spec.law):
        x = X[..., i // m, i % m]
        if not x.any():
            continue
        for k in yslots:
            xy = x * Y[..., k // m, k % m]
            if any(f != 1 for _, f in law[k]):
                _reduce(xy, pN)  # so that xy * f plus a residue fits
            for o, f in law[k]:
                acc = out[o]
                acc += xy if f == 1 else xy * f
                _reduce(acc, pN)
    return np.ascontiguousarray(np.moveaxis(out.reshape((npi, m) + shape),
                                            (0, 1), (-2, -1)))


def _fold(spec, raw):
    """Reduce pi-degrees >= p-1 (factor -p) and t-degrees >= m (mod g): the
    reference's own encoding of the ring law, which RingSpec.law is checked
    against.

    raw is slot-major, (2(p-1)-1, 2m-1, ...), and is reduced in place one
    slot at a time, the t-degrees by long division by g; the result is
    (..., p-1, m).
    """
    npi, m, pN, p = spec.npi, spec.m, spec.pN, spec.p
    for j in range(raw.shape[0] - 1, npi - 1, -1):
        raw[j - npi] -= p * raw[j]
        raw[j - npi] %= pN
    for k in range(raw.shape[1] - 1, m - 1, -1):
        for i in range(m):  # t^k = -t^(k-m) (g_0 + ... + g_(m-1) t^(m-1))
            raw[:npi, k - m + i] -= spec.g[i] * raw[:npi, k]
            raw[:npi, k - m + i] %= pN
    return np.ascontiguousarray(np.moveaxis(raw[:npi, :m], (0, 1), (-2, -1)))


def _vec_to_xseries(odata, vec):
    """Route B's eigenvector: an element per nonzero row of vec, reduced."""
    rows = np.flatnonzero(vec.any(axis=(-2, -1)))
    return XSeries(dict(zip((odata.basis[i] for i in rows),
                            _ring_elems(odata.ring, vec[rows]))), odata.wmax)


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
    eta = XSeries(out, xi.wmax)
    nin, nout = xi.norm_order(W, ring), eta.norm_order(W, ring)
    assert nout is None or (nin is not None and nout >= nin), "dual step grew the norm"
    return eta


@dataclass
class PowerIterationResult:
    u: RingElem
    eigenvector: XSeries
    normalizer_diff_orders: list
    cycles: int
    budget: int


def power_iteration_budget(ring, D):
    return math.ceil(ring.N * D * ring.p ** 2 / (ring.p - 1) ** 2) + 3


def power_iteration_unit_root(odata):
    """Unit eigenvalue and fixed vector of the dual of odata's operator.

    Starting from the delta vector at X^0, apply the full orbit cycle, divide
    by the X^0 coefficient (a unit), and repeat until the normalizers agree
    at odata's precision, within power_iteration_budget cycles.  The orders
    of successive normalizer differences are returned for the contraction
    diagnostics.
    """
    ring = odata.ring
    vec = np.zeros((len(odata.basis), ring.npi, ring.m), dtype=np.int64)
    vec[0, 0, 0] = 1
    assert not any(odata.basis[0])
    budget = power_iteration_budget(ring, odata.W.D)
    normalizers = []
    for cycle in range(1, budget + 1):
        vec = odata.dual_cycle(vec)
        c = RingElem(ring, vec[0])
        vec = ring_array_mul(ring, vec, np.array(c.inverse().rows))
        normalizers.append(c)
        if len(normalizers) >= 2:
            diff = (normalizers[-1] - normalizers[-2]).valuation()
            if diff is None:
                diffs = [(b - a).valuation() for a, b in zip(normalizers, normalizers[1:])]
                return PowerIterationResult(c, _vec_to_xseries(odata, vec),
                                            diffs, cycle, budget)
    raise NoConvergence(f"normalizers still moving after {budget} cycles")


@dataclass
class FredholmPoly:
    ring: object
    coeffs: list           # RingElem, c_0 = 1
    degree_cap: int        # last c_k computed; those past it vanish mod p^N (fredholm_cap)
    products: int = 0      # tensor products behind coeffs, the matrix's own included
    limbs: int = 0         # most limbs per left entry any of those products used
    factors: int = 0       # first-return factors f_r formed, K(0) (first_return_product)
    madds: int = 0         # multiply-adds the first-return products' GEMMs ran


@dataclass
class NewtonPolygon:
    segments: list  # (slope: Fraction, length: int)

    def slope_zero_length(self):
        for s, ln in self.segments:
            if s == 0:
                return ln
        return 0


def fredholm_cap(W, basis, p, N):
    """The last Fredholm coefficient c_k route C computes: the first k with
    (p-1)^2 * (w_0 + ... + w_k) >= N * p^2, w_0 <= w_1 <= ... the basis
    weights in order, or dim = len(basis) when no k reaches it.

    A one-step entry (omega, nu) = B(p*omega - nu) has
    ord >= (p-1)/p^2 * w(p*omega - nu) >= (p-1)/p^2 * (p*w(omega) - w(nu)),
    w being subadditive, and so has the orbit composite.  So every j x j
    principal minor has ord >= (p-1)^2/p^2 * (sum of w over its rows), at
    least the sum of the j smallest weights; c_j vanishes mod p^N for every
    j > k, and c_j for j > dim is 0.  The weights come scaled by D, as
    integers, so the bound is N * D * p^2.
    """
    acc = 0
    for k, w in enumerate(sorted(scaled_weights(W, basis))):
        acc += w
        if (p - 1) ** 2 * acc >= N * W.D * p * p:
            return k
    return len(basis)


def trace_band(W, basis, p, N):
    """K(a) for each basis index a: the columns c with
    (p-1)^2 * (w(a) + w(c)) < N * p^2, a prefix of the weight-ordered basis,
    so K never increases down the rows.

    By the one-step estimate of fredholm_cap, a cycle a_0 -> ... -> a_k = a_0
    through M has ord >= (p-1)/p^2 * sum(p*w(a_i) - w(a_(i+1))), which is
    (p-1)^2/p^2 * sum w(a_i).  So a cycle that visits a and some c >= K(a)
    at two distinct positions is 0 mod p^N: the first-return series of a
    need only the vertices below K(a), its window a < c < K(a)
    (first_return_product).  The weights come scaled by D, as integers.
    """
    sw = (p - 1) ** 2 * np.array(scaled_weights(W, basis), dtype=np.int64)
    assert (np.diff(sw) >= 0).all(), "basis not in weight order"
    return np.searchsorted(sw, N * p * p * W.D - sw)


def first_return_product(spec, M, band, cap):
    """(c, madds): c (cap + 1, p-1, m) holds det(I - T M) mod (p^N, T^(cap+1))
    and madds the multiply-adds of the GEMMs that formed it.

    det(I - T M) is the product over r of f_r = 1 - M_rr T -
    sum_k s_(r,k) T^(k+2), s_(r,k) = M[r, >r] (M_>r)^k M[>r, r] summing the
    cycles through r whose other vertices lie above r (README, "Route C").
    band is K (trace_band; the dimension everywhere keeps every cycle): f_r
    is 1 for r >= K(0), and f_r's other vertices lie in the window
    r < c < K(r).  In rows, Y_0 = M, Z = Y_k M, s_(r,k) = Z[r, r] and
    Y_(k+1) = Z, each row read on its window alone: cap - 1 products within
    the leading K(0) x K(0) block.  One WindowPlan, made from M, serves
    them all (left_limbs): its row groups, and each (group, block)'s
    window mask, are planned once per call, since a row of M that is 0
    over its window stays 0 there in every Y_k.
    """
    pN, K0 = spec.pN, int(band[0])
    M = M[:K0, :K0]
    rows = np.arange(K0)
    f = np.zeros((K0, cap + 1, spec.npi, spec.m), dtype=np.int64)
    f[:, 0, 0, 0] = 1
    if cap:
        f[:, 1] = -M[rows, rows] % pN
    right = RingMatrix(spec, None, None, M).right_operand
    plan = WindowPlan(M, np.asarray(band[:K0], dtype=np.int64))
    Y, madds = M, 0
    for k in range(cap - 1):
        # left_limbs reads row r of Y on its window alone: Y_k is Y there
        left = left_limbs(spec, Y, plan)
        del Y  # freed before the product is made
        if len(left.slots):
            madds += left.madds(right(left.slots))
        Y = _pair_products(spec, left, M, right)
        f[:, k + 2] = -Y[rows, rows] % pN
    return _series_product(spec, f), madds


def _series_product(spec, F):
    """Product of the polynomials F (n, d + 1, p-1, m) in T, mod T^(d+1), by
    a product tree: one ring_array_mul a level over the coefficient pairs of
    adjacent factors, up to the last coefficient nonzero in any."""
    d = F.shape[1] - 1
    while len(F) > 1:
        if len(F) % 2:
            F = np.concatenate([F, np.zeros_like(F[:1])])
            F[-1, 0, 0, 0] = 1
        e = int(np.flatnonzero(F.any(axis=(0, 2, 3)))[-1]) + 1
        prod = ring_array_mul(spec, F[0::2, :e, None], F[1::2, None, :e])
        F = np.zeros((len(prod), d + 1) + F.shape[2:], dtype=np.int64)
        for i in range(e):
            j = min(e, d + 1 - i)
            F[:, i:i + j] += prod[:, i, :j]
        _reduce(F, spec.pN)
    return F[0]


def fredholm_coefficients(Mx):
    """det(I - T M) mod p^N, p^N Mx's own precision, by first_return_product
    over trace_band: no division, so no digits beyond N.  It stops at
    fredholm_cap, past which every c_k vanishes mod p^N.  Trailing
    coefficients that vanish mod p^N are not stored.
    """
    ring = Mx.ring
    cap = fredholm_cap(Mx.W, Mx.basis, ring.p, ring.N)
    band = trace_band(Mx.W, Mx.basis, ring.p, ring.N)
    c, madds = first_return_product(ring, Mx.tensor, band, cap)
    coeffs = _ring_elems(ring, c)
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    products, K0 = max(cap - 1, 0), int(band[0])
    limbs = max(Mx.limbs, product_limbs(K0, ring.p, ring.N) if products else 0)
    return FredholmPoly(ring, coeffs, cap, Mx.products + products, limbs, K0, madds)


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


def fredholm_unit_root(Mx):
    """(fredholm_coefficients(Mx), unit root) at Mx's precision p^N.

    The Newton polygon must show exactly one slope-zero segment of length
    one; the corresponding simple zero 1/u is lifted by Newton iteration.
    """
    P = fredholm_coefficients(Mx)
    return P, unit_root_of_poly(P.coeffs, Mx.ring)


@dataclass
class LFunctionData:
    numerator: list        # polynomial coefficients, constant 1
    denominator: list
    series: list           # the processed L-power expanded mod T^(len)
    unit_root: RingElem
    unit_root_matches: bool


def lfunction_from_fredholm(P, n, s, u0):
    """Apply the root-scaling transform n times: the alternating product
    prod_k P(p^(k*s) T)^((-1)^k binom(n,k)).

    P(p^(ks) T) scales c_i by the integer p^(ksi) mod p^N.  The numerator
    (k even) and the denominator (k odd) are each one _series_product of
    their binom(n, k) copies, every factor padded with zeros to the side's
    full degree d * count, d = deg P.  The series is num / den mod T^(d+1),
    q_k = num_k - sum_(1 <= j <= min(k, deg den)) den_j q_(k-j).  u0 is P's
    unit root, as fredholm_unit_root returns it.  Returns the numerator and
    denominator polynomials, the series of the processed L-power, and the
    (preserved) unit root with whether it equals u0.
    """
    ring = P.ring
    p, pN, d = ring.p, ring.pN, len(P.coeffs) - 1
    c = np.array([x.rows for x in P.coeffs], dtype=ring_dtype(pN))
    sides = []
    for parity in (0, 1):
        ks = [k for k in range(parity, n + 1, 2) for _ in range(math.comb(n, k))]
        F = np.zeros((len(ks), d * len(ks) + 1) + c.shape[1:], dtype=c.dtype)
        F[:, :d + 1] = c * np.array([[pow(p, k * s * i, pN) for i in range(d + 1)]
                                     for k in ks], dtype=c.dtype)[..., None, None] % pN
        sides.append(_series_product(ring, F))
    num, den = sides
    q = num[:d + 1].copy()
    for k in range(1, d + 1):
        j = min(k, len(den) - 1)
        q[k] -= ring_array_mul(ring, den[1:j + 1], q[k - j:k][::-1]).sum(axis=0)
        _reduce(q[k], pN)
    num, den = _ring_elems(ring, num), _ring_elems(ring, den)
    # the k > 0 factors scale reciprocal roots by powers of p^s, so the unit
    # root is P's alone; it is read off the numerator as a check
    u = unit_root_of_poly(num, ring)
    return LFunctionData(num, den, _ring_elems(ring, q), u, (u - u0).is_zero())


def unit_root_of_poly(coeffs, ring):
    """The reciprocal of the unique unit zero of a polynomial with c_0 = 1.

    With c_0 = 1 and integral coefficients, the slope-zero segment of the
    Newton polygon ends at the last unit coefficient.  When that is c_1, the
    reciprocal u is lifted directly as a root of the reversal
    T^d P(1/T) = coeffs[::-1], which is T^(d-1) (T + c_1) mod pi: its root
    -c_1 there is simple, so no inverse is needed.  Trailing zero
    coefficients put a factor T^z in the reversal, which does not vanish at
    a unit, so the same root is lifted.
    """
    last = max((k for k in range(1, len(coeffs)) if coeffs[k].is_unit()),
               default=None)
    if last is None:
        raise NoUnitRoot("no slope-zero segment")
    if last > 1:
        raise MultipleUnitRoots("slope-zero segment longer than one")
    return newton_root(coeffs[::-1], -coeffs[1])


def adjoint_check(spec, wmax, ring):
    """Worst pairing discrepancy between the operator and its dual.

    The dual side is applied through the dictionary path (one_step_dual),
    the primal side through the tensor matrix; on the interior sub-basis
    w <= wmax/p the two pairings must agree at working precision.  Returns
    the minimal discrepancy order, or None when every difference vanishes.
    """
    W = build_weight_data(spec.A)
    odata = OperatorData(spec, W, ring, wmax)
    M = odata.full_matrix()
    index = {mu: i for i, mu in enumerate(odata.basis)}
    interior = [mu for mu in odata.basis
                if weight(W, mu) <= Fraction(wmax) / ring.p]
    worst = None
    for mu in interior:
        xi = XSeries({mu: ring.one()}, Fraction(wmax))
        for oi in range(odata.orbit_len - 1, -1, -1):
            table = odata.kernel_table(oi)
            xi = one_step_dual(odata.lam_orbit[oi], xi, W, ring, odata.sc,
                               odata.s_cut, lookup=table.get)
        for nu in interior:
            lhs = xi.support.get(nu, ring.zero())
            rhs = M.entry(index[mu], index[nu])
            v = (lhs - rhs).valuation()
            if v is not None and (worst is None or v < worst):
                worst = v
    return worst
