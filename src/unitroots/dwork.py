"""Frobenius operator on weight-truncated monomial spaces.

Route B and C machinery: over padic's splitting series, Dwork's
theta(t) = E(gamma t) with E the Artin-Hasse exponential, whose
coefficients b_e have ord >= e/(p-1), the twisted kernel F(lambda, X) with
coefficients B_mu(lambda), truncated matrices of the composed operator
Psi^(eps*d) o prod F(lambda^(p^i), X^(p^i)) on the monomial basis
{X^mu : w(mu) <= Wmax}, the Fredholm determinant with its Newton polygon
and Hensel-extracted unit root, and power iteration on the dual operator.

The weighted Banach norms of the underlying theory differ from the plain
monomial coordinates used here by a diagonal change of basis, which leaves
determinants and eigenvalues untouched; weight normalizations therefore
appear only as valuation bookkeeping, never as ring elements.

Matrices hold ring elements as integer tensors of shape
(dim, dim, p-1, m); a product is one float64 BLAS GEMM per limb on padic's
float64 back end.  The left side lays the left operand's nonzero
(pi, t)-slots side by side along the contraction in (b, slot) order, b the
contraction index: the tensor's own memory order, so the left side is a
reshape of the tensor when every slot is nonzero.  The right side is the
right operand's regular representation (RegularRep), whose row
(b, pi^j t^s) holds row b of pi^j t^s times the operand: each block of
the operand's rows is centred once, in int64, and padic.law_rows writes
its rows by the law_plan of the slots, read from RingSpec.law, the one
place pi^(p-1) = -p and g(t) are applied, so the product comes out
reduced.  In this order a contraction over lo <= b < hi is a slice of
both sides.  Every product contracts each row over every b but route C's
first-return products: product k contracts row r only over its window
r < b < K_k(r), cut by Dwork's cycle bound (cycle_bound, trace_band), and
keeps only the rows still live (first_return_product), ROW_BLOCK of them
to a GEMM over the first one's window (WindowPlan).  Right entries
are centred, and left entries cut into digit limbs (left_limbs) in blocks
of padic.slot_group slots, each limb's GEMM exact by padic's rule
(padic.exact_terms).  Each limb's GEMM takes only the rows where that limb
is nonzero: Dwork's estimate ord B_mu >= w(mu)/(p-1) makes high-weight
rows of the Frobenius matrix and of its powers divisible by high powers of
p, so many rows skip the low limbs, and rows that are 0 mod p^N skip every
GEMM.
RingMatrix builds its regular representation once, on first use as a
right operand, so route C's first-return products expand the leading
block of the Frobenius matrix once; route B's dual cycle cuts each
transposed one-step matrix into limbs once (OperatorData.dual_cycle).

Ring arrays (..., p-1, m) hold int64 entries and multiply elementwise
through ring_array_mul, padic.law_product on their slots: one
padic.matmul_mod of X's nonzero slots against Y's regular
representation, read from the same plans, on padic's int64 back end.
Past its rule padic.ring_array, which makes them from elements, raises
PrecisionTooLow, and so does ring_array_mul.  The kernel table
B_mu(lambda) is swept one exponent vector at a time over a batch of partial
products in Z_q (kernel_sweep): b_e = a_e gamma^e with a_e in Z_p, and
lambda is a Teichmueller point, so a partial product is one Z_q value z
times gamma^s, s its degree, and each level is one padic.law_product by
a_e lambda_a^e; the sums z of each (mu, s) are contracted with the
table of gamma^s, one padic.matmul_mod per run of mu (_gamma_contract).
Which states survive, their buckets and the runs of the contraction do not
depend on lambda: they are a SweepPlan, made once per (A, p, N, s_cut)
and process and kept (_SWEEPS, within padic.MEMO_BYTES), so a later
coefficient choice, or residue degree, only multiplies and sums.
The table is kept as two arrays, its points and its
coefficients (KernelTable), from which the one-step matrices are gathered
by flat index; route B cross-multiplies its vectors by their X^0 terms
and returns its eigenvector as a ring array on the basis, and route C
multiplies its polynomials in T, the first-return factors and the
L-function's alike, in a product tree (_series_product).
bigF_coefficient and one_step_dual stay the scalar reference paths, and
pair_products_reference, in Python integers, folds by its own encoding of
the law, _fold.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import MultipleUnitRoots, NoConvergence, NonUnitDivision, NoUnitRoot, OutsideCone
from .hyperg import teichmueller_orbit
from .oracle import orbit_degree
# teichmueller is unused here; perfbench/tracing.py patches it by name
# default_s_cut, route A's cutoff, is unused here; tests import it from dwork
from .padic import (Memo, RingElem, accumulate_limb, centred_mod, check_product_precision,
                    default_s_cut, horner, kernel_cut, law_plan, law_product, law_rows,
                    matmul_mod, newton_root, nonzero_slots, powers, product_limbs,
                    reduce_mod, ring_array, ring_elems, slot_group, split_limbs,
                    split_p, splitting_coefficients, teichmueller, view_index,
                    zq_powers, zq_values)
from .weights import (build_weight_data, enumerate_weighted_monomials, in_cone,
                      lattice_solutions, scaled_weights, weight)


def bigF_coefficient(lam, mu, W, ring, sc, s_cut=None, pows=None):
    """B_mu at the point lam: sum over nonnegative nu with sum nu_a a = mu
    (weights.lattice_solutions) of prod b_(nu_a) * lam^nu, cut at
    |nu| <= s_cut (kernel_cut by default).  pows, the lists
    powers(lam_a, s_cut), may be passed by a caller that reads many mu at
    one lam."""
    mu = tuple(int(c) for c in mu)
    if not in_cone(W, mu):
        raise OutsideCone(f"{mu} is outside the cone")
    s_cut = kernel_cut(ring) if s_cut is None else s_cut
    if len(sc) <= s_cut:
        raise ValueError("splitting series too short for the requested cutoff")
    if pows is None:
        pows = [powers(x, s_cut) for x in lam]
    acc = ring.zero()
    for nu in lattice_solutions(W.A, mu, s_cut):
        term = ring.one()
        for a, e in enumerate(nu):
            term = term * sc[e]
            if e:
                term = term * pows[a][e]
        acc = acc + term
    assert acc.val_at_least(weight(W, mu) / (ring.p - 1)), \
        f"kernel bound fails at {mu}"
    return acc


@dataclass(frozen=True)
class GammaLayout:
    """Where _gamma_contract lays the buckets (mu, s) of a sweep, sorted by
    mu and then s: as rows of a matrix Z (k * width, m), where row
    r * width + c is column c of mu's row r, bucket i at row index[i].
    The rows of mu are sorted by smin(mu), the least s of mu.  The s of a
    mu run from smin(mu) in steps of g, the gcd of every s - smin(mu) (3 on
    triangle, where s = mu_1 + mu_2 + 3 nu_3; a single s on edge), so the
    column is (s - smin(mu))/g.  runs holds (r0, r1, v, L) for each run of
    rows r0 <= r < r1 of one smin = v, L their widest, and rank[i] the row
    of the i-th mu in sorted order.
    """
    index: np.ndarray
    width: int
    g: int
    runs: tuple
    rank: np.ndarray


def _gamma_layout(s, first):
    """GammaLayout of the buckets whose s are `s`, sorted by mu and then s,
    first where each mu begins."""
    row = np.repeat(np.arange(len(first)), np.diff(first, append=len(s)))
    smin = s[first]
    shift = s - smin[row]
    g = int(np.gcd.reduce(shift)) or 1
    order = np.argsort(smin, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    width = (np.maximum.reduceat(shift, first)[order] // g + 1).tolist()
    smin = smin[order].tolist()
    runs, r0 = [], 0
    for r1 in (np.flatnonzero(np.diff(smin, append=-1)) + 1).tolist():
        runs.append((r0, r1, smin[r0], max(width[r0:r1])))
        r0 = r1
    index = rank[row] * max(width) + shift // g
    return GammaLayout(index, max(width), g, tuple(runs), rank)


def _gamma_contract(ring, gpow, layout, sums):
    """coeffs (k, p-1, m) of B_mu = sum_s gamma^s z_(mu,s) for the k mu of
    a GammaLayout, sums (buckets, m) holding the z of its buckets and gpow
    the pi-row digits of gamma^0, gamma^1, ..., (s_cut + 1, p-1).  Each run
    of rows of one smin = v contracts its columns with gamma^v,
    gamma^(v+g), ... in one padic.matmul_mod: per bucket, p - 1 products,
    where one matmul over every s, 0..s_cut, would form (s_cut + 1)(p - 1)
    per mu.
    """
    k, L = len(layout.rank), layout.width
    Z = np.zeros((k * L, ring.m), dtype=np.int64)
    Z[layout.index] = sums
    Z = Z.reshape(k, L, ring.m)
    out = np.empty((k, ring.npi, ring.m), dtype=np.int64)
    for r0, r1, v, L in layout.runs:
        out[r0:r1] = matmul_mod(gpow[v::layout.g][:L].T, Z[r0:r1, :L], ring.pN)
    return out[layout.rank]


@dataclass(frozen=True)
class SweepPlan:
    """The part of kernel_sweep that lambda does not enter, for one (A, p,
    N, s_cut).  levels[a] = (src, e) for A's a-th vector: each state of that
    level is the state src of the level before times a_e lambda_a^e, the
    last level's states in bucket order.  A bucket (mu, s) holds the
    states from starts[i] to the next start; starts is None when each
    holds one, as on every set whose nu is fixed by mu and |nu| (all the
    battery's sets but edge).  layout lays the buckets out for
    _gamma_contract (GammaLayout), points (k, n) holds every mu with a
    bucket, sorted, and gpow the pi-row digits of gamma^0..gamma^s_cut.
    Its arrays are read-only and it holds no ring, so one plan serves every
    lambda and every residue degree m."""
    levels: tuple
    starts: np.ndarray
    layout: GammaLayout
    points: np.ndarray
    gpow: np.ndarray

    def nbytes(self):
        return sum(x.nbytes for x in self.arrays())

    def arrays(self):
        yield from (x for level in self.levels for x in level)
        yield from (self.layout.index, self.layout.rank, self.points, self.gpow)
        if self.starts is not None:
            yield self.starts


# (A's vectors, p, N, s_cut) -> SweepPlan, kept within padic.MEMO_BYTES
_SWEEPS = Memo()


def _sweep_plan(ring, A, sc, s_cut):
    """The SweepPlan of A, ring.p, ring.N and s_cut, sc the splitting
    series.

    A state (s, mu), with a z that lambda sets, expands by e = 0..s_cut - s.
    It is dropped when the a_e of its exponents have orders summing to N or
    more: then its z is 0 mod p^N at every lambda in Z_q, and at a
    Teichmueller point, a unit or 0, these are the states whose z is 0 (a
    zero coefficient leaves zero states in, which sum to nothing).  The last
    level's states are sorted into their buckets (mu, s).
    """
    p, N, S = ring.p, ring.N, s_cut + 1
    # ord_p a_e, N for a_e = 0 mod p^N
    ords = np.array([N if a == 0 else min(split_p(a, p)[0], N) for a in sc.a[:S]],
                    dtype=np.int64)
    o = np.zeros(1, dtype=np.int64)
    s = np.zeros(1, dtype=np.int64)
    mu = np.zeros((1, A.n), dtype=np.int64)
    levels = []
    for vec in A.vectors:
        # state i expands to e = 0..s_cut - s[i]
        counts = s_cut - s + 1
        src = np.repeat(np.arange(len(s)), counts)
        e = np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts, counts)
        o = o[src] + ords[e]
        live = np.flatnonzero(o < N)
        src, e, o = src[live], e[live], o[live]
        s = s[src] + e
        mu = mu[src] + e[:, None] * np.array(vec, dtype=np.int64)
        levels.append((src, e))
    del o, live, src, e
    lo = mu.min(axis=0)
    box = tuple(mu.max(axis=0) - lo + 1)
    # C-order flat indices of the box sort as the vectors do, and s within a mu
    key = np.ravel_multi_index(tuple((mu - lo).T), box) * S + s
    del mu, s
    order = np.argsort(key, kind="stable")
    key = key[order]
    levels[-1] = tuple(x[order] for x in levels[-1])
    del order
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    flat, s = np.divmod(key[starts], S)
    if len(starts) == len(key):
        starts = None
    del key
    first = np.flatnonzero(np.diff(flat, prepend=-1))
    points = np.stack(np.unravel_index(flat[first], box), axis=-1) + lo
    plan = SweepPlan(tuple(levels), starts, _gamma_layout(s, first), points,
                     np.array(sc.gpow[:S], dtype=np.int64))
    for x in plan.arrays():
        x.setflags(write=False)
    return plan


def kernel_sweep(lam, W, ring, sc, s_cut):
    """KernelTable of B_mu(lam) for every mu with a nonzero coefficient mod
    p^N: points (k, n), the mu in sorted order, and coeffs (k, p-1, m).

    Every multi-index nu with |nu| <= s_cut contributes
    prod_a b_(nu_a) lam_a^(nu_a) = gamma^|nu| prod_a a_(nu_a) lam_a^(nu_a)
    to the bucket mu = sum nu_a a; indices missing from the result have
    every contribution beyond the cutoff and so vanish mod p^N.  The
    Artin-Hasse coefficients a_e lie in Z_p (sc.a) and lam in Z_q
    (ValueError otherwise; every caller passes Teichmueller points), so a
    partial product is z gamma^s with z in Z_q and s = |nu| so far.  The
    sweep takes A's vectors one level at a time over a batch of states (z,
    s, mu): each state expands by e = 0..s_cut - s into z a_e lam_a^e, one
    law_product per level.  The states, their buckets (mu, s) and the
    layout of the contraction do not depend on lam, and are kept per (A,
    p, N, s_cut) and process as a SweepPlan (_sweep_plan, _SWEEPS, within
    padic.MEMO_BYTES): a later sweep only forms lam's powers, one
    law_product per level, one bucket sum (np.add.reduceat over the
    states, sorted by bucket) and the contraction with the table of
    gamma^s (sc.gpow), (s_cut + 1, p-1): pi-row j of B_mu is sum_s
    (gamma^s)_j z_(mu,s), one integer matmul per run of mu of one least s
    (_gamma_contract).  The coefficients are kept where nonzero, and the
    arrays are the table, with no RingElem per entry.  Entries are int64;
    past the int64 rule PrecisionTooLow is raised before the first
    product.
    """
    pN, S = ring.pN, s_cut + 1
    check_product_precision(pN)
    a = np.array(sc.a[:S], dtype=np.int64)
    rows = [zq_powers(ring, x, s_cut) * a[:, None] % pN  # a_e * lam_a^e
            for x in zq_values(lam)]
    key = (W.A.vectors, ring.p, ring.N, s_cut)
    plan = _SWEEPS.get(key)
    if plan is None:
        plan = _sweep_plan(ring, W.A, sc, s_cut)
        _SWEEPS.keep(key, plan, plan.nbytes())
    z = np.zeros((1, ring.m), dtype=np.int64)
    z[0, 0] = 1
    for (src, e), row in zip(plan.levels, rows):
        z = law_product(ring, z[src], row[e])
    if plan.starts is None:
        sums = z
    else:
        sums = np.add.reduceat(z, plan.starts, axis=0)
        reduce_mod(sums, pN)
    del z
    coeffs = _gamma_contract(ring, plan.gpow, plan.layout, sums)
    keep = coeffs.any(axis=(-2, -1))
    return KernelTable(ring, plan.points[keep], coeffs[keep])


class KernelTable(Mapping):
    """Read-only mapping {mu: B_mu(lam)} over two arrays: points (k, n), the
    exponent vectors mu, and coeffs (k, p-1, m), their coefficients reduced
    mod p^N, int64.  one_step_matrix gathers from the arrays;
    a RingElem is made only when an entry is read through the mapping, and
    the index from mu to row only on the first such read.
    """

    def __init__(self, ring, points, coeffs):
        self.ring = ring
        self.points = points
        self.coeffs = coeffs
        self._index = None

    def __getitem__(self, mu):
        if self._index is None:
            self._index = {key: i for i, key in enumerate(self)}
        i = self._index[tuple(mu)]
        return ring_elems(self.ring, self.coeffs[i])[0]

    def __iter__(self):
        return map(tuple, self.points.tolist())

    def __len__(self):
        return len(self.points)


@dataclass
class XSeries:
    """Finitely supported dual vector on {mu in M : w(mu) <= wmax}: support
    maps mu to the coefficient of X^(-mu), which in the weighted metric
    carries the normalization p^(w(mu)/(p-1)) accounted for in norm_order,
    the estimate ord B_mu >= w(mu)/(p-1) (cycle_bound).
    """
    support: dict
    wmax: Fraction

    def norm_order(self, W, ring):
        """Order of the weighted sup-norm; None for the zero vector."""
        wfac = Fraction(1, ring.p - 1)
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

    Holds the Teichmueller orbit, splitting series and the weight-truncated
    basis (enumerated here unless the caller passes it), and keeps three
    things per orbit point: its kernel table, the gather index of its
    one-step matrix (_gather_index), which routes B and C share, and route
    B's LeftLimbs of its transposed one-step matrix.  One-step matrices are
    gathered from the tables on every call and not kept.
    """

    def __init__(self, spec, W, ring, wmax, s_cut=None, basis=None):
        self.W = W
        self.ring = ring
        self.basis = (enumerate_weighted_monomials(W, wmax) if basis is None
                      else basis)
        self.orbit_len = spec.epsilon * orbit_degree(spec)
        self.lam_orbit = teichmueller_orbit(spec, ring, self.orbit_len)
        self.s_cut = kernel_cut(ring) if s_cut is None else s_cut
        self.sc = splitting_coefficients(ring, self.s_cut)
        self._btables = {}
        self._gathers = {}
        self._dual = {}

    def kernel_table(self, oi):
        """The KernelTable of orbit point oi, swept once and kept: a
        read-only mapping {mu: B_mu(lambda)} over kernel_sweep's arrays."""
        if oi not in self._btables:
            self._btables[oi] = kernel_sweep(self.lam_orbit[oi], self.W,
                                             self.ring, self.sc, self.s_cut)
        return self._btables[oi]

    def _gather_index(self, oi):
        """(vals, dense, r, c) of orbit point oi: the kernel table's
        coefficients and a zero row, and a flat index over a box, with
        B(p*omega - nu) = vals[dense[r - c]], r the row terms of omega and c
        the column terms of nu.  Every p*omega - nu lies in the box lo <= mu
        < lo + box, lo = p*min - max and box = (p+1)(max - min) + 1 per
        coordinate, min and max the basis's extremes there, so no (omega,
        nu) needs a range test.  dense holds each table point's row and the
        zero row elsewhere: prod((p+1)(max - min) + 1) int32 entries,
        whatever the table's size, for n = 3 about the cube of (p+1)(max -
        min), 4 MB when that is 100 in every coordinate.  Built once per
        orbit point and kept.
        """
        if oi in self._gathers:
            return self._gathers[oi]
        table = self.kernel_table(oi)
        basis = np.array(self.basis, dtype=np.int64)
        top = self.ring.p * basis
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
        self._gathers[oi] = vals, dense, (top - lo) @ stride, basis @ stride
        return self._gathers[oi]

    def one_step_matrix(self, oi):
        """Tensor of the one-step operator: entry (omega, nu) = B(p*omega - nu),
        gathered from the kernel table (_gather_index) on every call."""
        vals, dense, r, c = self._gather_index(oi)
        # np.take copies whole rows, several times faster than vals[idx]
        return np.take(vals, dense[r[:, None] - c[None, :]], axis=0)

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

        Each one-step matrix is gathered already transposed, entry (nu,
        omega) = B(p*omega - nu), C-contiguous, so left_limbs lays it out
        with no copy; it is cut into its LeftLimbs on the first cycle, and
        every later cycle reuses them.
        """
        col = vec[:, None]
        for oi in range(self.orbit_len - 1, -1, -1):
            if oi not in self._dual:
                vals, dense, r, c = self._gather_index(oi)
                self._dual[oi] = left_limbs(
                    self.ring, np.take(vals, dense[r[None, :] - c[:, None]], axis=0))
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
        if self._right is None or not set(slots.tolist()) <= set(self._right.slots.tolist()):
            self._right = regular_representation(self.ring, self.tensor, slots)
        return self._right

    def entry(self, i, j):
        return ring_elems(self.ring, self.tensor[i, j])[0]

    def matmul(self, other):
        """self times other, through other's kept right operand."""
        return RingMatrix(self.ring, self.W, self.basis,
                          _pair_products(self.ring, self.tensor, other.tensor,
                                         other.right_operand))

    def trace(self):
        diag = self.tensor.diagonal(axis1=0, axis2=1)  # (npi, m, dim)
        return ring_elems(self.ring, diag.sum(axis=2))[0]


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


# Entries per temporary when regular_representation expands B: rows of B
# are taken a few at a time, so the temporaries, 512 KB each in int64, stay
# small beside the representation itself (3-7 MB for route C's leading
# block on the benchmark's N = 8 cases), which would otherwise set route
# C's memory peak.
REP_TEMP = 2 ** 16


def regular_representation(spec, B, slots):
    """RegularRep of B (dim, cols, p-1, m), entries in [0, p^N), for the
    sorted `slots`: pi^(p-1) = -p and g(t) enter here, once, through the
    law_plan of the slots over B's nonzero slots (made once per ring and
    slot pattern), instead of after every product.  Each block of rows of
    B is centred once, in int64 (centred_mod), and padic.law_rows writes
    its rows from it, the terms that wrap past pi^(p-2) (-p) or t^(m-1)
    (g's coefficients) summed by padic.matmul_mod and centred.
    PrecisionTooLow past the int64 rule of check_product_precision.
    """
    check_product_precision(spec.pN)
    dim, cols = B.shape[:2]
    B = B.reshape(dim, cols, -1)
    plan = law_plan(spec, tuple(np.asarray(slots).tolist()), nonzero_slots(B))
    blocks = np.empty((dim, len(slots), cols, len(plan.kept)))
    step = max(1, REP_TEMP // max(cols * max(len(plan.kept), B.shape[2], plan.wrapped[0].size), 1))
    for lo in range(0, dim, step):
        law_rows(plan, centred_mod(B[lo:lo + step], spec.pN).transpose(2, 0, 1),
                 blocks[lo:lo + step].transpose(1, 3, 0, 2), spec.pN)
    return RegularRep(np.asarray(slots, dtype=np.int64), plan.kept,
                      blocks.reshape(dim * len(slots), -1))


@dataclass(frozen=True)
class LeftLimbs:
    """A left operand of _pair_products cut into the limbs its GEMMs take.

    rows is the operand's row count and slots its nonzero (pi, t)-slots; its
    columns are laid out in (b, slot) order, b the contraction index, as
    the RegularRep's rows are.  Each of `gemms` is one GEMM (cols, start,
    stop, factor, live, digits): one limb, float64 (len(live), stop -
    start), of the rows `live`, those of its row group where it is nonzero,
    times the RegularRep's rows start:stop, entering the output columns
    cols = (first, stop), every one when None, times factor.
    """
    rows: int
    slots: np.ndarray
    gemms: list

    def madds(self, rep):
        """Multiply-adds of this operand's GEMMs against the RegularRep rep."""
        return sum(len(live) * (stop - start) * (w1 - w0)
                   for cols, start, stop, _, live, _ in self.gemms
                   for w0, w1 in [_out_columns(cols, rep)])


# Live rows per GEMM of a windowed product.  fredholm_coefficients on
# p2-triangle at N = 16 (dim 361) took 6.3 ms at 8, 3.8 ms at 32 and
# 4.1 ms at 128 (best of 11, OpenBLAS on one thread, x86-64).
ROW_BLOCK = 32


class WindowPlan:
    """One first-return product's row groups: row a contracts over its
    window a < b < band[a] into the columns from a to max(out[a], a + 1).
    The rows whose window is not empty, a prefix, and that are `alive` (a
    row known to be 0 over its window enters none) are taken ROW_BLOCK at a
    time; the rows past `rows` enter none.  band never increases down the
    rows, so each of `groups`, (live, lo, hi, cols), contracts its rows over
    its first row's window, lo <= b < hi, which holds every later row's, and
    fills the output columns cols = (first, stop) that any of them needs.
    """

    def __init__(self, band, out, alive):
        self.band = band
        index = np.arange(len(band))
        live = np.flatnonzero((band > index + 1) & alive)
        top = np.maximum(out, index + 1)
        self.groups = [(g, int(g[0]) + 1, int(band[g[0]]), (int(g[0]), int(top[g].max())))
                       for g in (live[i:i + ROW_BLOCK] for i in range(0, len(live), ROW_BLOCK))]
        self.rows = int(live[-1]) + 1 if len(live) else 0

    def mask(self, rows, start, stop, S):
        """Mask (len(rows), stop - start) of each row a's window a < b <
        band[a] over the columns start:stop of a left operand of S slots in
        (b, slot) order."""
        b = np.arange(start, stop) // S
        return (b > rows[:, None]) & (b < self.band[rows][:, None])


def left_limbs(spec, A, plan=None):
    """LeftLimbs of A (rows, dim, p-1, m), entries in [0, p^N).

    A's nonzero slots are laid side by side in (b, slot) order, a reshape
    when every slot is nonzero.  Every row contracts over every b, or, with
    the WindowPlan of one of route C's first-return products, over its
    window a < b < band[a] alone (first_return_product), zeroed outside it
    by the plan's mask in its row group.  The contraction is cut into
    blocks of at most padic.slot_group(dim, ...) * dim columns, so no block
    needs more limbs than a single slot (K = dim), and each block's entries
    into limbs by padic.split_limbs.  A row enters a limb's GEMM only where
    that limb of it is nonzero: a row that is 0 mod p^N there enters none,
    and one divisible by p^j skips every limb below digit j.
    """
    p, N, pN = spec.p, spec.N, spec.pN
    check_product_precision(pN)
    rows, dim = A.shape[:2]
    A = A.reshape(rows, dim, spec.npi * spec.m)
    slots = np.array(nonzero_slots(A), dtype=np.int64)
    S = len(slots)
    if not S:
        return LeftLimbs(rows, slots, [])
    if S < A.shape[2]:
        A = A[:, :, slots]
    A = A.reshape(rows, -1)
    step = slot_group(dim, S, p, N) * dim
    groups = [(np.arange(rows), 0, dim, None)] if plan is None else plan.groups
    gemms = []
    for group, lo, hi, cols in groups:
        for start in range(lo * S, hi * S, step):
            stop = min(start + step, hi * S)
            X = A[view_index(group), start:stop].astype(np.float64)
            if plan is not None:
                X *= plan.mask(group, start, stop, S)
            nz = X.any(axis=1)
            live = group[nz]
            if not len(live):
                continue
            if len(live) < len(group):
                X = X[nz]
            for factor, digits in split_limbs(X, p, N):
                nonzero = digits.any(axis=1)
                if nonzero.all():
                    gemms.append((cols, start, stop, factor, live, digits))
                elif nonzero.any():
                    gemms.append((cols, start, stop, factor, live[nonzero], digits[nonzero]))
    return LeftLimbs(rows, slots, gemms)


def _out_columns(cols, rep):
    """Columns (w0, w1) of rep.matrix for the output columns cols, all if None."""
    n = len(rep.kept)
    return (0, rep.matrix.shape[1]) if cols is None else (cols[0] * n, cols[1] * n)


def _contract(left, rep, pN):
    """LeftLimbs times the rows left.slots of rep, mod p^N, as int64
    (rows, cols * len(rep.kept)); columns a row's GEMMs leave out are 0."""
    rhs = rep.matrix
    width = rhs.shape[1]
    if len(left.slots) < len(rep.slots):
        pos = np.searchsorted(rep.slots, left.slots)
        rhs = rhs.reshape(-1, len(rep.slots), width)[:, pos].reshape(-1, width)
    out = None
    for cols, start, stop, factor, live, digits in left.gemms:
        w0, w1 = _out_columns(cols, rep)
        prod = digits @ rhs[start:stop, w0:w1]
        add = out is not None
        if not add:  # a first product over all rows and columns holds the result in place
            out = (prod.view(np.int64)
                   if len(live) == left.rows and w1 - w0 == width
                   else np.zeros((left.rows, width), dtype=np.int64))
        accumulate_limb(out[:, w0:w1], live, prod, factor, pN, add)
    return np.zeros((left.rows, width), dtype=np.int64) if out is None else out


def _pair_products(spec, A, B, right=None):
    """Product of ring matrices in exact float64 GEMMs, reduced mod p^N.

    A (rows, dim, p-1, m) times B (dim, cols, p-1, m), entries in [0, p^N),
    gives (rows, cols, p-1, m).  The left side is A cut into digit limbs
    (left_limbs), or A's LeftLimbs when the caller keeps them; the right
    side is B's RegularRep for A's nonzero slots, from right(slots) when the
    caller keeps it.  Each limb's GEMM is exact, and its product enters the
    int64 result through padic.accumulate_limb.

    A windowed caller passes left_limbs(spec, A, plan) as A, plan its
    WindowPlan: row a then contracts only over a < b < plan.band[a], and is
    formed on the columns from a to max(out[a], a + 1), its diagonal among
    them, and on any others its row group fills (WindowPlan); every other
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


def ring_array_mul(spec, X, Y):
    """Elementwise product of ring arrays X (..., p-1, m) and Y
    broadcastable to it, entries in [0, p^N): padic.law_product on their
    flattened slots.  Entries are int64; PrecisionTooLow past the int64
    rule of check_product_precision, where they would overflow silently.
    """
    S = spec.npi * spec.m
    Z = law_product(spec, X.reshape(X.shape[:-2] + (S,)),
                    Y.reshape(Y.shape[:-2] + (S,)))
    return Z.reshape(Z.shape[:-1] + (spec.npi, spec.m))


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
    eigenvector: np.ndarray  # (dim, p-1, m), row i the coefficient of X^(-basis[i])
    normalizer_diff_orders: list
    cycles: int
    budget: int


def power_iteration_budget(ring, D):
    """ceil(N D p^2/(p-1)^2) + 3 cycles, route B's own allowance: its cycle
    count is set by how fast the normalizers converge, not by cycle_bound,
    and cycle_bound + 3 = N D + 3 would leave no margin (p2- and
    p3-kloosterman at N = 12 run 15 cycles)."""
    return -(-ring.N * D * ring.p ** 2 // ring.npi ** 2) + 3


def power_iteration_unit_root(odata):
    """Unit eigenvalue and fixed vector of the dual of odata's operator.

    Apply the full orbit cycle M to the delta vector at X^0, keeping
    v_k = M^k e_0 and its X^0 coefficient a_k (a_0 = 1), a unit or
    NonUnitDivision.  Stop, within power_iteration_budget cycles, when the
    normalizer c_k = a_k/a_(k-1) and the normalized vector v_k/a_k both
    repeat mod p^N, tested by cross-multiplying: a_k a_(k-2) = a_(k-1)^2,
    then v_k a_(k-1) = v_(k-1) a_k, one ring_array_mul on the pair.  Only
    the stop K inverts, once, a_K a_(K-1): c = a_K/a_(K-1) and the
    eigenvector v_K/a_K, a ring array on odata.basis, are read from that
    inverse.  That stop is
    a certificate: w = v_(K-1)/a_(K-1) has M w = c w with w_0 = 1, so
    det(M - c) = 0 mod p^N (multiply by the adjugate).  Every eigenvalue of
    M but the unit root u is a non-unit, so its difference from c is a unit,
    and ord(c - u) = ord det(M - c) >= N.  A repeated vector makes the next
    c repeat, so the second condition costs at most one cycle; it keeps the
    last normalizer difference None.  A repeated c alone proves nothing: at p = 2 the
    normalizers can repeat before they converge.  The orders ord(c_(k+1) -
    c_k) = ord(a_(k+1) a_(k-1) - a_k^2) are returned for the diagnostics.
    """
    ring = odata.ring
    vec = np.zeros((len(odata.basis), ring.npi, ring.m), dtype=np.int64)
    vec[0, 0, 0] = 1
    assert not any(odata.basis[0])
    budget = power_iteration_budget(ring, odata.W.D)
    a = [ring.one()]
    diffs = []
    for cycle in range(1, budget + 1):
        prev, vec = vec, odata.dual_cycle(vec)
        a.append(ring_elems(ring, vec[0])[0])
        if not a[-1].is_unit():
            raise NonUnitDivision("element is not a unit")
        if cycle < 2:
            continue
        diffs.append((a[-1] * a[-3] - a[-2] * a[-2]).valuation())
        if diffs[-1] is None:
            # v_k a_(k-1) and v_(k-1) a_k in one product
            cross = ring_array_mul(ring, np.stack([vec, prev]),
                                   ring_array(a[-2:])[:, None])
            if np.array_equal(cross[0], cross[1]):
                # from inv = 1/(a_K a_(K-1)): c = a_K^2 inv and 1/a_K = a_(K-1) inv
                inv = (a[-1] * a[-2]).inverse()
                vec = ring_array_mul(ring, vec, ring_array([a[-2] * inv])[0])
                return PowerIterationResult(a[-1] * a[-1] * inv, vec, diffs,
                                            cycle, budget)
    raise NoConvergence(f"normalizers still moving after {budget} cycles")


@dataclass
class FredholmPoly:
    ring: object
    coeffs: list           # RingElem, c_0 = 1
    degree_cap: int        # last c_k computed; those past it vanish mod p^N (fredholm_cap)
    products: int = 0      # tensor products behind coeffs, the matrix's own included
    limbs: int = 0         # most limbs per left entry any of those products used
    madds: int = 0         # multiply-adds the first-return products' GEMMs ran


@dataclass
class NewtonPolygon:
    segments: list  # (slope: Fraction, length: int)

    def slope_zero_length(self):
        for s, ln in self.segments:
            if s == 0:
                return ln
        return 0


def cycle_bound(p, N, D):
    """B = N D: a cycle of the Frobenius matrix vanishes mod p^N once the
    integer sum(D * w) over its vertices reaches B, and every basis the
    runner builds is {mu : D * w(mu) < B} (default_wmax).

    ord b_e >= e/(p-1) for the Artin-Hasse splitting function
    (splitting_coefficients), so ord B_mu >= w(mu)/(p-1), and a one-step
    entry B(p*omega - nu) has ord >= (p*w(omega) - w(nu))/(p-1), w being
    subadditive (A. Adolphson and S. Sperber, Ann. of Math. 130, 1989), and
    so has the orbit composite; over a cycle a_0 -> ... -> a_j = a_0 these
    sum to sum w(a_i), vertices counted with multiplicity.  p does not
    enter.
    """
    return N * D


def fredholm_cap(W, basis, p, N):
    """The last Fredholm coefficient c_k route C computes: the first k with
    D * (w_0 + ... + w_k) >= B (cycle_bound), w_0 <= w_1 <= ... the basis
    weights in order, or dim = len(basis) when no k reaches it.

    A j x j principal minor is a sum over sets of disjoint cycles covering
    its rows, so its ord is at least the sum of w over its rows, at least
    that of the j smallest weights: c_j vanishes mod p^N for every j > k,
    that is once w_0 + ... + w_k >= N, and c_j for j > dim is 0.
    """
    acc = np.cumsum(np.sort(scaled_weights(W, basis)))
    return int(np.searchsorted(acc, cycle_bound(p, N, W.D)))


def trace_band(W, basis, p, N, products):
    """K_k(a) for k < max(products, 1) and each basis index a, as an array
    (k, a): the columns c with D * (w(a) + k * w(a + 1) + w(c)) < B
    (cycle_bound), a prefix of the weight-ordered basis, w(a + 1) read as
    w(a) past the last index.  K_k never increases down the rows, since
    w(a) and w(a + 1) do not decrease, nor in k; K_0 is the window of every
    cycle through a, and K_0(0) is the whole of a basis cut below B.

    The cycles of s_(a,j) (first_return_product) visit a once and j + 1
    vertices above a, each of weight at least w(a + 1).  Product k of
    first_return_product contracts over the (k+1)-th of them, c: every
    cycle through c there has weight at least w(a) + k * w(a + 1) + w(c),
    so it vanishes when c >= K_k(a).
    """
    sw = scaled_weights(W, basis)
    assert (np.diff(sw) >= 0).all(), "basis not in weight order"
    above = np.append(sw[1:], sw[-1:])
    k = np.arange(max(products, 1))[:, None]
    return np.searchsorted(sw, cycle_bound(p, N, W.D) - sw - k * above)


def first_return_product(spec, M, band, cap):
    """(c, madds): c (cap + 1, p-1, m) holds det(I - T M) mod (p^N, T^(cap+1))
    and madds the multiply-adds of the GEMMs that formed it.

    det(I - T M) is the product over r of f_r = 1 - M_rr T -
    sum_k s_(r,k) T^(k+2), s_(r,k) = M[r, >r] (M_>r)^k M[>r, r] summing the
    cycles through r whose other vertices lie above r (README, "Route C").
    band is K_k (trace_band), one row per product, or one row that serves
    every product (the dimension everywhere keeps every cycle): f_r is 1
    for r >= K_0(0).  In rows, Y_0 = M, Z = Y_k M, s_(r,k) = Z[r, r] and
    Y_(k+1) = Z: product k contracts row r over its window r < b < K_k(r)
    alone, and forms it on the columns [r, max(K_(k+1)(r), r + 1)), the
    next window and the diagonal, the last product on its diagonal alone.
    Every cycle of s_(r,j), j >= k, whose (k+1)-th vertex after r is some
    b >= K_k(r) vanishes mod p^N, so the cut changes no s_(r,j); an entry
    of Z off those columns ends at a vertex below r (no cycle of f_r passes
    there) or past the next window.  K_k never increases down the rows or
    in k, so a row whose window is empty in product k is empty in every
    later one: its later s_(r,j) vanish, and Y keeps only the rows still
    live, a prefix.  A row of M that is 0 over its first window is 0 in
    every Y_k, found once per call, and enters no row group.  All cap - 1
    products stay within the leading K_0(0) x K_0(0) block of M, expanded
    once (RingMatrix.right_operand), and each takes its live rows ROW_BLOCK
    at a time (WindowPlan).
    """
    pN = spec.pN
    band = np.asarray(band, dtype=np.int64)
    bands = np.broadcast_to(band, (max(cap - 1, 1), band.shape[-1]))
    K0 = int(bands[0, 0])
    M, bands = M[:K0, :K0], bands[:, :K0]
    rows = np.arange(K0)
    f = np.zeros((K0, cap + 1, spec.npi, spec.m), dtype=np.int64)
    f[:, 0, 0, 0] = 1
    if cap:
        f[:, 1] = -M[rows, rows] % pN
    right = RingMatrix(spec, None, None, M).right_operand
    outs = np.concatenate([bands[1:cap - 1], np.zeros((1, K0), dtype=np.int64)])
    # a row of M that is 0 over its first window is 0 in every Y_k (one
    # slice a row: a reduction over the slot axes of all of M is 8x slower)
    alive = np.array([M[r, r + 1:b].any() for r, b in enumerate(bands[0].tolist())],
                     dtype=bool)
    Y, madds = M, 0
    for k in range(cap - 1):
        plan = WindowPlan(bands[k], outs[k], alive)
        # left_limbs reads row r of Y on its window alone: Y_k is Y there
        left = left_limbs(spec, Y[:plan.rows], plan)
        del Y  # freed before the product is made
        if len(left.slots):
            madds += left.madds(right(left.slots))
        Y = _pair_products(spec, left, M, right)
        live = rows[:len(Y)]
        f[live, k + 2] = -Y[live, live] % pN
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
        reduce_mod(F, spec.pN)
    return F[0]


def fredholm_coefficients(Mx):
    """det(I - T M) mod p^N, p^N Mx's own precision, by first_return_product
    over trace_band, one window per product: no division, so no digits
    beyond N.  It stops at fredholm_cap, past which every c_k vanishes mod
    p^N.  Trailing coefficients that vanish mod p^N are not stored.
    """
    ring = Mx.ring
    cap = fredholm_cap(Mx.W, Mx.basis, ring.p, ring.N)
    band = trace_band(Mx.W, Mx.basis, ring.p, ring.N, cap - 1)
    c, madds = first_return_product(ring, Mx.tensor, band, cap)
    coeffs = ring_elems(ring, c)
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    products, K0 = max(cap - 1, 0), int(band[0, 0])
    limbs = max(Mx.limbs, product_limbs(K0, ring.p, ring.N) if products else 0)
    return FredholmPoly(ring, coeffs, cap, Mx.products + products, limbs, madds)


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
    # every point on or above a chord was popped, so the slopes strictly
    # increase and no two segments need merging
    return NewtonPolygon([((y2 - y1) / (x2 - x1), int(x2 - x1))
                          for (x1, y1), (x2, y2) in zip(hull, hull[1:])])


def fredholm_unit_root(Mx):
    """(fredholm_coefficients(Mx), unit root) at Mx's precision p^N.

    The Newton polygon must show exactly one slope-zero segment of length
    one; the corresponding simple zero 1/u is lifted by Newton iteration.
    """
    P = fredholm_coefficients(Mx)
    return P, unit_root_of_poly(P.coeffs)


@dataclass
class LFunctionData:
    numerator: list        # polynomial coefficients, constant 1
    denominator: list
    series: list           # the processed L-power expanded mod T^(len)
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
    denominator polynomials, the series of the processed L-power, and
    whether u0 is the numerator's unit root too.

    The k > 0 factors scale reciprocal roots by powers of p^s, so the unit
    root is P's alone, and one evaluation decides it.  The reversed
    numerator R = num[::-1] is T^z prod_i (T - alpha_i) over its reciprocal
    roots, the unit one u among them: T^(e-1) (T + c_1) mod pi.  At u0 = u
    mod pi every other factor is a unit, so ord R(u0) = ord(u0 - u) and R(u0)
    vanishes mod p^N exactly when u0 = u; otherwise R(u0) is a unit.
    """
    ring = P.ring
    p, pN, d = ring.p, ring.pN, len(P.coeffs) - 1
    c = ring_array(P.coeffs)
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
        reduce_mod(q[k], pN)
    num, den = ring_elems(ring, num), ring_elems(ring, den)
    return LFunctionData(num, den, ring_elems(ring, q),
                         horner(num[::-1], u0).is_zero())


def unit_root_of_poly(coeffs):
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
