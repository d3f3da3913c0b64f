"""Exact truncated arithmetic in Z_q[pi], pi^(p-1) = -p.

Elements live in O_N = (Z_q[pi] / (pi^(p-1) + p)) mod p^N, where
Z_q = Z_p[t]/(g) is the unramified extension of residue degree m.  An element
is (p-1) m residues mod p^N, its slots, in RingSpec.law's order:

    sum_{j < p-1} sum_{k < m} slots[j*m + k] * t^k * pi^j.

RingSpec.law is the one place pi^(p-1) = -p and the reduction mod g are
applied: law[i][k] lists the (slot, coefficient mod p^N) pairs of slot i
times slot k.  RingElem.__mul__ reads it in Python ints, and zq_powers its
pi-row-0 block.  Array products read it through a LawPlan, made once per
ring and pair of nonzero-slot patterns and kept (law_plan): how each slot
multiple pi^j t^s * Y is copied or summed from Y's planes.  Its one reader,
law_rows, forms those rows, wrapped terms centred, for dwork's GEMM right
operand and for law_product, the one int64 product step: ring arrays
(ring_array_mul) and Z_q arrays (pi-row 0).  dwork's reference keeps its
own encoding, _fold.  A (p-1) x m digit matrix, rows by pi-degree, is read
only by RingElem() and written only by digits(); int64 ring arrays
(n, p-1, m) meet elements only in ring_array and ring_elems, and Z_q
arrays (n, m), pi-row 0, are taken from them by zq_values.

Exact products mod p^N are owned here, under one rule (exact_terms) with
two back ends: matmul_mod in int64 for short contractions (the ring laws,
dwork's gamma contraction, route A's shells), and digit limbs on dwork's
float64 GEMMs for routes B and C (split_limbs, accumulate_limb).

Orders are integers in units of ord pi = 1/(p-1): RingElem.order() is the
exact pi-adic order, and every element of order >= N(p-1) is zero.
valuation() is its rational view, order/(p-1), normalized by ord p = 1.  All
elements handled here are p-integral.  Division is only provided for units
(and for exact powers of p, with a divisibility check); anything else raises
NonUnitDivision rather than degrading precision.  A fraction's denominator
prime to p is inverted by pow(d, -1, p^N); a unit is inverted in the
residue field GF(p)[t]/(g mod p) by ffield.FField.inv and lifted by
Newton's iteration.

The Newton lifts here, inverse and newton_root, start from one correct
pi-digit and double the correct digits each step, so lift_steps(spec) =
ceil(log2 N(p-1)) steps reach all of O_N; each lift asserts its result,
and newton_root inverts one element, carrying that inverse along.
The Teichmueller lift is one Frobenius power of the digit lift, and one
array rule, pi_pow_digits, gives the digits of pi^k / prod(f!) for route
A's sums.  Its factorial unit parts come as inverses, from the one prefix
table of FactorialUnits, by the generalized Wilson theorem, shared by
every ring of the same p and N.  Dwork's splitting function for routes B
and C is theta(t) = E(gamma t) (splitting_coefficients): E the
Artin-Hasse exponential, whose coefficients a_e are p-integral
(artin_hasse), and gamma in Z_p[pi] the root of sum_j gamma^(p^j)/p^j = 0
with gamma == pi (artin_hasse_gamma), so b_e = a_e gamma^e has ord >=
e/(p-1) and vanishes mod p^N past kernel_cut = N(p-1) - 1.  Its a_e and
the digits of gamma^e are kept per p and N (splitting_coefficients), so no
job rebuilds them; these memos, like the factorial tables and the plans,
hold ints and arrays only and keep no ring alive.  So do the tables that
dwork's sweep and route A keep in a Memo, within MEMO_BYTES each.  Arrays of
residues are int64 only under the one int64 rule (int64_exact,
check_product_precision), and ring_array, the one way from elements into
int64 ring arrays, raises PrecisionTooLow past it.  The
primitive p-th root of unity is theta(1) = E(gamma) (zeta_p), Dwork's
additive character, with zeta == 1 + pi (mod pi^2).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from operator import index

import numpy as np

from . import ffield, gfpoly
from .errors import (CompositeP, ConfigInvalid, NonUnitDivision,
                     PrecisionTooLow, ReduciblePolynomial)


class RingSpec:
    """Descriptor of one working ring O_N.  Its fields never change after
    construction; factorials, the FactorialUnits table every ring of the
    same p and N shares (_FACTORIALS), only grows."""

    def __init__(self, p, m, g, N):
        self.p, self.m, self.N = p, m, N
        self.g = tuple(int(c) for c in g)  # monic, length m+1
        self.pN = p ** N
        self.npi = p - 1
        self.gbar = gfpoly.trim(c % p for c in self.g)
        # tpow[e]: t^e mod g for e <= 2m - 2, a length-m vector mod p^N
        tpow = [tuple(int(e == s) for s in range(m)) for e in range(m)]
        for _ in range(m - 1):
            *low, top = tpow[-1]
            tpow.append(tuple((c - top * b) % self.pN
                              for c, b in zip([0] + low, self.g)))
        # law[i][k]: the (slot, coefficient) pairs of slot i times slot k
        npi, S = self.npi, self.npi * m

        def product(i, k):
            (j1, s1), (j2, s2) = divmod(i, m), divmod(k, m)
            j, f = (j1 + j2, 1) if j1 + j2 < npi else (j1 + j2 - npi, -p)
            return tuple((j * m + s, f * c % self.pN)
                         for s, c in enumerate(tpow[s1 + s2]) if f * c % self.pN)
        self.law = tuple(tuple(product(i, k) for k in range(S)) for i in range(S))
        self.key = (p, m, N, self.g)
        self.factorials = _FACTORIALS.get((p, N))
        if self.factorials is None:
            self.factorials = _FACTORIALS[p, N] = FactorialUnits(self)

    def __eq__(self, other):
        return self is other or (isinstance(other, RingSpec)
                                 and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"RingSpec(p={self.p}, m={self.m}, N={self.N})"

    # --- element constructors -------------------------------------------

    def zero(self):
        return self.from_slots([])

    def one(self):
        return self.from_int(1)

    def from_slots(self, flat):
        """Element whose slot j*m + s, the coefficient of pi^j t^s, is
        flat[j*m + s] mod p^N, for Python ints `flat`; 0 past its end."""
        slots = [c % self.pN for c in flat]
        x = object.__new__(RingElem)
        x.spec, x.slots = self, tuple(slots + [0] * (self.npi * self.m - len(slots)))
        return x

    def from_int(self, n):
        return self.from_slots([n])

    def from_tpoly(self, coeffs):
        """Element of Z_q given by an ascending t-coefficient list."""
        if len(coeffs) > self.m:
            raise ValueError("t-polynomial degree exceeds ring degree")
        return self.from_slots([int(c) for c in coeffs])

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if (den := fr.denominator) % self.p == 0:
            raise NonUnitDivision(f"denominator {den} is divisible by p={self.p}")
        return self.from_int(fr.numerator * pow(den, -1, self.pN))

    def pi(self):
        return self.from_int(-2) if self.p == 2 else self.from_slots([0] * self.m + [1])


def make_ring(p, m=1, g=None, N=4):
    """Validated ring descriptor; deterministic defining polynomial if absent."""
    if ffield.factorize(p) != {p: 1}:
        raise CompositeP(f"{p} is not prime")
    if N < 1:
        raise PrecisionTooLow(f"precision N = {N} is below 1")
    if m < 1:
        raise ConfigInvalid(f"residue degree m = {m} is below 1")
    if g is None:
        g = gfpoly.find_irreducible(p, m)
    g = tuple(int(c) for c in g)
    if len(g) != m + 1 or g[m] % p ** N != 1:
        raise ConfigInvalid(f"defining polynomial {g} is not monic of degree {m}")
    if not gfpoly.is_irreducible(gfpoly.trim(c % p for c in g), p):
        raise ReduciblePolynomial(f"{g} is reducible mod {p}")
    return RingSpec(p, m, g, N)


class RingElem:
    """Value type; all operations return new elements.  RingElem(spec,
    digits) reads a (p-1) x m integer matrix, rows by pi-degree, mod p^N;
    ValueError for another shape or a non-integer entry (operator.index).
    Inside the package elements come from RingSpec.from_slots."""

    __slots__ = ("spec", "slots")

    def __init__(self, spec, digits):
        try:
            rows = [[index(c) % spec.pN for c in r] for r in digits]
        except TypeError:
            rows = []  # not a matrix of integers: no shape fits
        if len(rows) != spec.npi or any(len(r) != spec.m for r in rows):
            raise ValueError("digits are not a (p-1) x m matrix of integers")
        self.spec, self.slots = spec, tuple(c for r in rows for c in r)

    # --- predicates ------------------------------------------------------

    def is_zero(self):
        return not any(self.slots)

    def is_unit(self):
        return any(c % self.spec.p for c in self.slots[:self.spec.m])

    def __eq__(self, other):
        return (isinstance(other, RingElem) and self.spec == other.spec
                and self.slots == other.slots)

    def __hash__(self):
        return hash((self.spec.key, self.slots))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"RingElem({self.digits()})"

    # --- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.spec is not self.spec and other.spec != self.spec:
                raise ValueError("mixed ring specs")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        if isinstance(other, Fraction):
            return self.spec.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.spec.from_slots([a + b for a, b in zip(self.slots, other.slots)])

    __radd__ = __add__

    def __neg__(self):
        return self.spec.from_slots([-c for c in self.slots])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.spec.from_slots([a - b for a, b in zip(self.slots, other.slots)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product by RingSpec.law, in Python ints reduced once at the end:
        slots hold Python ints, as both constructors make sure, so the sums
        cannot overflow."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        ys = [(k, y) for k, y in enumerate(other.slots) if y]
        acc = [0] * len(spec.law)
        for law, x in zip(spec.law, self.slots):
            if x:
                for k, y in ys:
                    xy = x * y
                    for o, f in law[k]:
                        acc[o] += xy * f
        return spec.from_slots(acc)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result, base = self.spec.one(), self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        """Inverse of a unit, by Newton lifting from the residue field.

        The residue-field inverse y is right mod pi, and y -> y(2 - xy)
        squares the error 1 - xy, so lift_steps(spec) steps make it exact.
        """
        spec = self.spec
        if not self.is_unit():
            raise NonUnitDivision("element is not a unit")
        # invert mod (p, pi) in the residue field GF(p)[t]/(gbar)
        y = spec.from_tpoly(ffield.FField(spec.p, spec.gbar).inv(
            tuple(c % spec.p for c in self.slots[:spec.m])))
        two = spec.from_int(2)
        for _ in range(lift_steps(spec)):
            y = y * (two - self * y)
        assert (self * y - spec.one()).is_zero()
        return y

    def divide_exact_p(self, k):
        """Exact division by p^k; raises if any coefficient is not divisible.

        The result is only trustworthy modulo p^(N-k); callers are expected
        to run at boosted precision when they use this (Newton's identities
        in selftest.newton_coefficients).
        """
        pk = self.spec.p ** k
        for c in self.slots:
            if c % pk:
                raise NonUnitDivision(f"coefficient {c} not divisible by p^{k}")
        return self.spec.from_slots([c // pk for c in self.slots])

    # --- valuation and serialization --------------------------------------

    def order(self):
        """Exact pi-adic order as an int (units of 1/(p-1)); None for zero."""
        npi, p, m = self.spec.npi, self.spec.p, self.spec.m
        return min((npi * split_p(c, p)[0] + i // m
                    for i, c in enumerate(self.slots) if c), default=None)

    def valuation(self):
        """Rational view of order(): ord p = 1; None for zero (>= N)."""
        v = self.order()
        return None if v is None else Fraction(v, self.spec.npi)

    def val_at_least(self, bound):
        v = self.order()
        return v is None or v >= bound * self.spec.npi

    def reduce_to(self, spec):
        """Image in a ring of lower precision (same p, m, g mod p^N')."""
        if (spec.p, spec.m) != (self.spec.p, self.spec.m) or spec.N > self.spec.N:
            raise ValueError("not a precision reduction of the same ring")
        return spec.from_slots(self.slots)

    def digits(self):
        """Canonical integer digit matrix, rows indexed by pi-degree."""
        return [list(r) for r in zip(*[iter(self.slots)] * self.spec.m)]  # rows of m


def valuation(x):
    return x.valuation()


def ring_array(elems):
    """int64 ring array (n, p-1, m) of n >= 1 elements of one ring; the one
    bridge into ring arrays, so PrecisionTooLow past the int64 rule
    (check_product_precision), where residues no longer fit."""
    spec = elems[0].spec
    check_product_precision(spec.pN)
    return np.array([x.slots for x in elems], dtype=np.int64).reshape(-1, spec.npi, spec.m)


def ring_elems(spec, X):
    """The element of each trailing (p-1, m) block of an integer array X."""
    return [spec.from_slots(x) for x in X.reshape(-1, spec.npi * spec.m).tolist()]


def reduce_mod(X, pN):
    """int64 X mod p^N in place (floor division by a scalar is several
    times faster than np.remainder)."""
    X -= X // pN * pN


def centred_mod(X, pN):
    """int64 X mod p^N, centred, as a new array: r <= floor(p^N/2) stays r,
    any other r becomes r - p^N; X + (p^N - 1) // 2 must fit int64."""
    return X - (X + (pN - 1) // 2) // pN * pN


def zq_values(elems):
    """int64 array (n, m) of n >= 1 elements of Z_q, their pi-row 0, through
    ring_array (so PrecisionTooLow past the int64 rule); ValueError for an
    element with a nonzero pi-row >= 1."""
    X = ring_array(elems)
    if X[:, 1:].any():
        raise ValueError("element is not in Z_q: a pi-row >= 1 is nonzero")
    return X[:, 0]


# A law plan is made once per ring, row slots and operand slots, and kept:
# (RingSpec.key, rows, present) -> LawPlan, which holds ints, slices and
# int64 arrays only, so the memo keeps no ring alive.
_PLANS = {}


@dataclass(frozen=True)
class LawPlan:
    """How the rows `rows` of the regular representation of an operand
    whose nonzero slots are `present` are made from its planes.

    Row n, slot rows[n] = j*m + s, is pi^j t^s times the operand; its slot
    o is the sum of f times the operand's plane k over k in `present` and
    the pairs (o, f) of RingSpec.law[rows[n]][k].  `kept` holds the
    ascending slots o some row reaches, and index is rows as an index.
    terms[n] = (copy, wrap, zero) gives row n by positions in kept: copy =
    (cols, src), the columns that are one plane of law coefficient 1,
    copied from the planes src; wrap = (cols, src), the others, copied from
    the wrapped planes src; zero, the columns no term reaches.  Each is None
    when empty, and an index that is a run of consecutive slots is a
    slice, a view.  Wrapped plane d, one per distinct list of terms, is the
    sum over t of coef[d, 0, t] times plane src[d, t], wrapped = (src,
    coef), the lists padded with zero coefficients.  law_rows is the plan's
    one reader, and writes the wrapped planes centred.
    """
    rows: tuple
    index: object
    kept: np.ndarray
    wrapped: tuple
    terms: tuple


def view_index(idx):
    """Non-decreasing int indices, a sequence or an array, as a slice when
    they are consecutive, so that indexing with them gives a view, not a
    copy; else as an int64 array."""
    if idx[-1] - idx[0] == len(idx) - 1:
        return slice(idx[0], idx[-1] + 1)
    return np.asarray(idx, dtype=np.int64)


def law_plan(spec, rows, present):
    """The LawPlan of the row slots `rows` over an operand whose nonzero
    slots are `present` (ascending int tuples), read from RingSpec.law
    once per RingSpec.key, rows and present and kept (_PLANS)."""
    key = (spec.key, rows, present)
    plan = _PLANS.get(key)
    if plan is None:
        S = len(spec.law)
        sums = [[[] for _ in range(S)] for _ in rows]
        for row, i in zip(sums, rows):
            for k in present:
                for o, f in spec.law[i][k]:
                    row[o].append((k, f))
        kept = [o for o in range(S) if any(row[o] for row in sums)]
        lists, terms = {}, []  # each distinct wrapped term list -> its plane

        def part(pairs):
            """(cols, src) of (column, source) pairs, as indices; None if empty."""
            if not pairs:
                return None
            cols, src = [c for c, _ in pairs], [k for _, k in pairs]
            return view_index(cols), (view_index(src) if src == sorted(src)
                                      else np.array(src, dtype=np.int64))
        for row in sums:
            cols = [row[o] for o in kept]
            copy = [(c, t[0][0]) for c, t in enumerate(cols)
                    if len(t) == 1 and t[0][1] == 1]
            wrap = [(c, lists.setdefault(tuple(t), len(lists))) for c, t in enumerate(cols)
                    if t and (len(t) > 1 or t[0][1] != 1)]
            zero = [c for c, t in enumerate(cols) if not t]
            terms.append((part(copy), part(wrap), view_index(zero) if zero else None))
        width = max(map(len, lists), default=0)
        pairs = np.array([t + ((t[0][0], 0),) * (width - len(t)) for t in lists],
                         dtype=np.int64).reshape(len(lists), width, 2)
        pairs.setflags(write=False)  # shared by every later call
        plan = LawPlan(rows, view_index(rows) if rows else None, np.array(kept, dtype=np.int64),
                       (pairs[..., 0], pairs[:, None, :, 1]), tuple(terms))
        plan.kept.setflags(write=False)  # shared by every later call
        _PLANS[key] = plan
    return plan


def exact_terms(x, y, limit):
    """The most products of entries |a| <= x and |b| <= y that a sum holds
    below limit, the largest k with k x y < limit: the one exactness rule of
    both back ends (J.-G. Dumas, T. Gautier and C. Pernet, "Finite field
    linear algebra subroutines", ISSAC 2002).  int64 (unreduced_terms):
    x = y = p^N - 1 on top of a residue, limit 2^63 - p^N.  float64
    (limb_digits): a limb of e centred digits, x = floor(p^e/2), times a
    centred residue, y = floor(p^N/2), limit 2^53; its carries are cut in
    float64 too, exact while p^N < 2^52, which the int64 rule implies."""
    return (limit - 1) // (x * y)


def unreduced_terms(pN):
    """matmul_mod's room, the residue products an int64 sum holds on a
    residue (exact_terms); below 1 past the int64 rule."""
    return exact_terms(pN - 1, pN - 1, 2 ** 63 - pN)


def int64_exact(pN):
    """Whether unreduced_terms(pN) >= 1, the one int64 rule: ring arrays,
    factorial-unit tables and each limb's product are reduced and
    recombined mod pN in int64."""
    return unreduced_terms(pN) >= 1


def check_product_precision(pN):
    """PrecisionTooLow unless int64_exact(pN)."""
    if not int64_exact(pN):
        raise PrecisionTooLow(f"p^N = {pN} has (p^N - 1)^2 + p^N >= 2^63, "
                              "beyond exact int64 reduction")


def matmul_mod(X, Y, pN):
    """X @ Y mod p^N in [0, p^N), int64, with np.matmul's semantics (batch
    axes broadcast), for int64 X (..., k) and Y (..., k, n) whose entries
    are below p^N in absolute value: the int64 back end of exact_terms.
    The contraction is cut into chunks of unreduced_terms(p^N) terms, each
    summed on a residue, so a reduction comes only where the next chunk
    could leave int64.  An empty contraction gives zeros; past the int64
    rule PrecisionTooLow."""
    check_product_precision(pN)
    room = unreduced_terms(pN)
    out = np.matmul(X[..., :room], Y[..., :room, :])
    for lo in range(room, X.shape[-1], room):
        reduce_mod(out, pN)
        out += np.matmul(X[..., lo:lo + room], Y[..., lo:lo + room, :])
    reduce_mod(out, pN)
    return out


def limb_digits(K, p, N):
    """Width e, in base-p digits, of the limbs split_limbs cuts a left
    operand contracting over K into: the widest, at most N, whose GEMMs
    against centred residues stay exact in float64 (exact_terms)."""
    h = p ** N // 2
    e = N
    while K > exact_terms(p ** e // 2, h, 2 ** 53):
        assert e > 1, "no limb width keeps the product exact"
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


def _digit_limbs(X, p, N, e):
    """(shift, limb) of X (n, K), float64 integers in [0, p^N), cut into
    centred base-p digits: the lowest limb N - (L-1)e digits wide and every
    higher one e, L = ceil(N/e), so that X = sum limb * p^shift mod p^N.

    A limb of w digits is the centred residue of the carry so far mod p^w,
    |limb| <= floor(p^w/2), so a multiple of p^j has its digits below j
    zero; the carry out of the top limb, a multiple of p^N, drops.  Every
    value is an integer below p^N, so float64 division and rounding to
    nearest give exact carries (exact_terms).  X is overwritten.
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


def split_limbs(X, p, N):
    """(factor, limb) of X (n, K), float64 integers in [0, p^N), cut by
    _digit_limbs into limbs of limb_digits(K, p, N) digits:
    X = sum factor * limb mod p^N.  X is overwritten."""
    pN = p ** N
    for shift, limb in _digit_limbs(X, p, N, limb_digits(X.shape[1], p, N)):
        yield pow(p, shift, pN), limb


# Rows accumulate_limb takes at a time, so its int64 temporaries stay small.
ACC_ROWS = 64


def accumulate_limb(out, live, prod, factor, pN, add):
    """out[live] = (out[live] if add, else 0, + factor * prod) mod p^N,
    ACC_ROWS rows at a time, for a limb's exact float64 product prod and
    its factor from split_limbs.  out may share memory with prod: each
    block is read before its rows of out are written."""
    for r in range(0, len(live), ACC_ROWS):
        x = prod[r:r + ACC_ROWS].astype(np.int64)
        if factor != 1:
            reduce_mod(x, pN)
            x *= factor
        rows = view_index(live[r:r + ACC_ROWS])
        if add:
            x += out[rows]
        reduce_mod(x, pN)
        out[rows] = x


def law_rows(plan, planes, out, pN):
    """Fill out (len(plan.rows), len(plan.kept), ...), any real dtype: out[n]
    is pi^j t^s times the operand of slot-major planes (S, ...), |entries| <
    p^N, for slot plan.rows[n] = j*m + s; the wrapped planes summed by one
    matmul_mod and centred (centred_mod)."""
    src, coef = plan.wrapped
    if len(src):
        P = planes[src]
        wrapped = centred_mod(matmul_mod(coef, P.reshape(P.shape[:2] + (-1,)), pN), pN)
        wrapped = wrapped.reshape(P.shape[:1] + P.shape[2:])
    for n, (copy, wrap, zero) in enumerate(plan.terms):
        if copy is not None:
            out[n, copy[0]] = planes[copy[1]]
        if wrap is not None:
            out[n, wrap[0]] = wrapped[wrap[1]]
        if zero is not None:
            out[n, zero] = 0


def nonzero_slots(X):
    """The i with X[..., i] nonzero, as a tuple: one reduction per slot is
    much faster than one over the leading axes, and a plane's first entry,
    nonzero in most slots, settles it before the whole plane is read."""
    if not X.size:
        return ()
    return tuple(i for i in range(X.shape[-1]) if X[..., i].flat[0] or X[..., i].any())


def law_product(spec, X, Y):
    """Elementwise ring product of int64 slot arrays X (..., S) and Y
    broadcastable to it, entries in [0, p^N), slot i in RingSpec.law's
    order for i < S: a ring array's flattened (p-1, m) axes (S = (p-1) m)
    or a Z_q array (S = m, pi-row 0, where the law keeps every product).

    R, Y's regular representation on X's nonzero slots (law_plan), is
    formed at Y's shape by law_rows, its wrapped planes centred, so
    |R| < p^N: R[..., n, :] is pi^j t^s * Y for the n-th of those slots
    i = j*m + s.  The product is sum_n X[..., i] R[..., n, :], one
    matmul_mod that the n run through.  PrecisionTooLow past the int64
    rule (check_product_precision), where a residue times a residue no
    longer fits.
    """
    pN = spec.pN
    check_product_precision(pN)
    shape = np.broadcast(X[..., 0], Y[..., 0]).shape
    plan = law_plan(spec, nonzero_slots(X), nonzero_slots(Y))
    if not plan.kept.size:
        return np.zeros(shape + X.shape[-1:], dtype=np.int64)
    d = Y.ndim - 1
    R = np.empty((len(plan.rows), len(plan.kept)) + Y.shape[:-1], dtype=np.int64)
    law_rows(plan, Y.transpose((d,) + tuple(range(d))), R, pN)
    R = R.transpose(tuple(range(2, d + 2)) + (0, 1))
    out = matmul_mod(X[..., None, plan.index], R, pN)[..., 0, :]
    if len(plan.kept) == X.shape[-1]:
        return out
    full = np.zeros(shape + X.shape[-1:], dtype=np.int64)
    full[..., plan.kept] = out
    return full


def zq_powers(spec, x, e):
    """int64 array (e + 1, m) of x^0, ..., x^e for x in Z_q, an int64 array
    (m,): each power one product from the last in Python ints, by the
    pi-row-0 block of RingSpec.law, which costs less than any array step
    on tables this short."""
    m, pN = spec.m, spec.pN
    xs = x.tolist()
    out = [[1] + [0] * (m - 1)]
    law = [[(s2, spec.law[s][s2]) for s2 in range(m) if xs[s2]] for s in range(m)]
    for _ in range(e):
        acc = [0] * m
        for a, pairs in zip(out[-1], law):
            if a:
                for s2, prods in pairs:
                    ab = a * xs[s2]
                    for o, f in prods:
                        acc[o] += ab * f
        out.append([c % pN for c in acc])
    return np.array(out, dtype=np.int64)


def agreement(x, y):
    """The digits on which x and y agree, floor(ord(x - y)); N when x = y."""
    v = (x - y).order()
    return x.spec.N if v is None else v // x.spec.npi


def teichmueller(spec, xbar):
    """The root-of-unity (or zero) lift of a residue-field element.

    xbar is an ascending t-coefficient list mod p, and its digit lift is
    x = w (1 + p z) with w the lift sought, w^q = w for q = p^m.  Since
    (1 + p z)^(p^k) = 1 mod p^(k+1), x^(q^j) = w mod p^N as soon as
    m j >= N - 1: one Frobenius power, j = ceil((N-1)/m).
    """
    x = spec.from_tpoly(tuple(c % spec.p for c in xbar))
    return x ** (spec.p ** spec.m) ** -(-(spec.N - 1) // spec.m)


def zeta_p(spec):
    """Primitive p-th root of unity with zeta == 1 + pi (mod pi^2).

    It is Dwork's theta(1) = E(gamma) = sum_e b_e, summed through
    kernel_cut(spec), past which every b_e vanishes mod p^N: pi-row j holds
    sum_e a_e (gamma^e)_j (splitting_coefficients, whose memo holds the
    a_e and the digits of gamma^e), summed and checked on every call.
    """
    if spec.N * spec.npi < 2:
        raise PrecisionTooLow("cannot separate zeta_p from 1 at this precision")
    sc = splitting_coefficients(spec, kernel_cut(spec))
    slots = [0] * (spec.npi * spec.m)
    slots[::spec.m] = [sum(a * g for a, g in zip(sc.a, row)) for row in zip(*sc.gpow)]
    z = spec.from_slots(slots)
    assert (z ** spec.p - spec.one()).is_zero() and not (z - spec.one()).is_zero()
    return z


def horner(coeffs, x):
    """sum_k coeffs[k] * x^k for an ascending coefficient list."""
    acc = x.spec.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def lift_steps(spec):
    """Newton steps that lift one correct pi-digit to all N(p-1) digits of
    O_N: each step doubles the correct digits, so ceil(log2 N(p-1))."""
    return (spec.N * spec.npi - 1).bit_length()


def newton_root(coeffs, x):
    """The root of the polynomial f that is congruent to x, by Newton lifting.

    x must be a simple root modulo pi, so the derivative there is a unit.
    f'(x) is inverted once, at the start, and its inverse y is carried
    along by one step y <- y (2 - f'(x) y) at each new x: if x and y are
    right to d pi-digits (x against the root r, y against 1/f'(r)), then
    x - f(x) y and the new y are right to 2d, so the lift_steps(spec) steps
    still reach all of O_N.
    """
    spec = x.spec
    dcoeffs = [spec.from_int(k) * c for k, c in enumerate(coeffs) if k >= 1]
    y, two = horner(dcoeffs, x).inverse(), spec.from_int(2)
    for _ in range(lift_steps(spec)):
        val = horner(coeffs, x)
        if val.is_zero():
            break
        x = x - val * y
        y = y * (two - horner(dcoeffs, x) * y)
    assert horner(coeffs, x).is_zero(), "Newton lift did not converge"
    return x


def split_p(n, p):
    """(v, u) with n = p^v * u and u prime to p, for a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def running_products(f, pN):
    """out[i] = f[0] * ... * f[i] mod pN for a 1-D array f of residues.

    The array is cut into rows of w = sqrt(len f / 16) + 1 entries; the rows
    are scanned together, column by column, in w array steps, and each row
    is then scaled by the product of the rows above it, which one Python
    loop over the row totals forms.  Entries multiply in f's dtype: int64
    under the int64 rule, Python integers (object) past it.
    """
    n = len(f)
    width = isqrt(n // 16) + 1
    rows = -(-n // width)
    x = np.ones(rows * width, dtype=f.dtype)
    x[:n] = f
    x = x.reshape(rows, width)
    for c in range(1, width):
        x[:, c] = x[:, c] * x[:, c - 1] % pN
    above, acc = [], 1
    for total in x[:, -1].tolist():
        above.append(acc)
        acc = acc * total % pN
    x = x * np.array(above, dtype=f.dtype)[:, None] % pN
    return x.reshape(-1)[:n]


# One FactorialUnits table per (p, N), the only inputs it depends on, shared
# by every ring of that p and N; it holds ints and arrays only.
_FACTORIALS = {}


class FactorialUnits:
    """n! = p^v(n!) * U(n) mod p^N, by the generalized Wilson theorem.

    The multiples of p in 1..n contribute p^floor(n/p) * floor(n/p)!, so
    U(n) = R(n) * U(floor(n/p)) with R(n) the product of the j <= n prime to
    p.  R is periodic up to sign: a full block of p^N consecutive units
    multiplies to -1 mod p^N, except +1 for p = 2, N >= 3.  So
    R(n) = (+-1)^floor(n/p^N) * T[n mod p^N] with T the prefix products of
    the units below p^N, and U(n) is the product of log_p n such factors.

    inverse_prefix holds the inverses T[r]^-1, grown only as far as the
    largest residue asked for, and last the T of its last entry, where growth
    resumes; a growth step inverts one residue, its new last T, and reads the
    other inverses off suffix products (running_products).  The table is
    int64 under the int64 rule (int64_exact) and Python integers past it.
    inverses reads U(n)^-1 for an array of n in log_p(max n) array steps and
    keeps no result per n.
    """

    def __init__(self, spec):
        self.p, self.pN = spec.p, spec.pN
        self.block = 1 if spec.p == 2 and spec.N >= 3 else -1
        dtype = np.int64 if int64_exact(self.pN) else object
        self.inverse_prefix = np.ones(1, dtype=dtype)  # T[r]^-1 mod p^N
        self.last = 1  # T[r] = prod_{j <= r, p ∤ j} j at the table's last r

    def _grow(self, r):
        """Extend the table through residue r."""
        start = len(self.inverse_prefix)
        if r < start:
            return
        pN, dtype = self.pN, self.inverse_prefix.dtype
        f = np.arange(start, r + 1, dtype=np.int64)
        f[f % self.p == 0] = 1
        f = f.astype(dtype)
        top = np.concatenate([np.array([self.last], dtype=dtype), f])
        self.last = int(running_products(top, pN)[-1])
        # T[j]^-1 = T[r]^-1 * f[j+1] * ... * f[r]: running products from the top
        last = np.array([pow(self.last, -1, pN)], dtype=dtype)
        inverse = running_products(np.concatenate([last, f[:0:-1]]), pN)[::-1]
        self.inverse_prefix = np.concatenate([self.inverse_prefix, inverse])

    def inverses(self, n):
        """(v_p(n!), U(n)^-1 mod p^N) for an int64 array n, elementwise, in
        log_p(max n) array steps; the units come in the table's dtype."""
        p, pN = self.p, self.pN
        span = min(pN, np.iinfo(np.int64).max)  # an int64 n is below a larger p^N
        n = np.asarray(n, dtype=np.int64)
        v = np.zeros_like(n)
        inv = np.ones_like(n)
        while n.size and n.max() > 1:
            q, r = np.divmod(n, span)
            self._grow(int(r.max()))
            t = self.inverse_prefix[r]
            if self.block < 0:
                t = np.where(q & 1, pN - t, t)
            inv = inv * t % pN
            n = n // p
            v += n
        return v, inv


def pi_pow_digits(spec, k, factorials):
    """(rows, digits) with pi^k / prod_j f_j! = digits * pi^rows, digits mod
    p^N, elementwise for k of shape (S,) and factorials of shape (S, r),
    both int64.

    pi^k = pi^(k mod (p-1)) * (-p)^floor(k/(p-1)); the leftover power of p
    is nonnegative whenever k is the sum of the factorial arguments (the
    base-p digit sums make up the difference), which covers every exp-type
    coefficient used here, and NonUnitDivision otherwise.  The unit parts
    come as inverses (FactorialUnits.inverses), so no term is inverted; the
    digits come in the dtype of its inverse_prefix, int64 under the int64
    rule and Python integers past it.  At p = 2 the row is 0 and
    (-1)^k 2^k is pi^k for pi = -2.
    """
    N, npi, pN = spec.N, spec.npi, spec.pN
    v, inv = spec.factorials.inverses(factorials)
    upar = np.ones(len(k), dtype=np.int64)
    for col in inv.T:
        upar = upar * col % pN
    e = k // npi
    e_p = e - v.sum(axis=1)
    if (e_p < 0).any():
        raise NonUnitDivision("combination is not p-integral")
    ppow = np.array([spec.p ** i for i in range(N)] + [0],
                    dtype=spec.factorials.inverse_prefix.dtype)
    digits = ppow[np.minimum(e_p, N)] * upar % pN
    return k % npi, np.where(e & 1, -digits, digits) % pN


def artin_hasse(p, n):
    """a_0..a_n of the Artin-Hasse exponential E(t) = exp(sum_j t^(p^j)/p^j),
    exact Fractions, by E'/E = sum_j t^(p^j - 1): e a_e = sum_(p^j <= e)
    a_(e - p^j).  Every a_e is p-integral (Dieudonne-Dwork)."""
    a = [Fraction(1)]
    for e in range(1, n + 1):
        acc, q = Fraction(0), 1
        while q <= e:
            acc += a[e - q]
            q *= p
        a.append(acc / e)
    return a


def artin_hasse_gamma(p, N):
    """The pi-row digits (p-1 ints mod p^N) of gamma in Z_p[pi], the root of
    sum_j gamma^(p^j)/p^j = 0 with gamma == pi (mod pi^2), by Newton's
    iteration from pi.

    The term j has ord p^j/(p-1) - j, so the terms with p^j - j(p-1) >=
    N(p-1) vanish mod p^N and J, the last other one, bounds the division:
    the sum is formed in O_(N+J), where gamma^(p^j) is known mod p^(N+J)
    and so gamma^(p^j)/p^j (divide_exact_p) mod p^N, a function of gamma
    mod p^N alone.  The derivative sum_j gamma^(p^j - 1) is 1 mod pi, a
    unit, so each step doubles the correct digits and lift_steps + 1 steps
    reach a root mod p^N, which the loop asserts.
    """
    J = 1
    while p ** (J + 1) - (J + 1) * (p - 1) < N * (p - 1):
        J += 1
    wide, ring = RingSpec(p, 1, (0, 1), N + J), RingSpec(p, 1, (0, 1), N)
    x = wide.pi()
    for _ in range(lift_steps(ring) + 1):
        f, df = x, wide.one()
        for j in range(1, J + 1):
            xp = x ** (p ** j - 1)
            f, df = f + (xp * x).divide_exact_p(j), df + xp
        if f.reduce_to(ring).is_zero():
            return x.reduce_to(ring).slots
        x = x - f * df.inverse()
    raise AssertionError("gamma's Newton iteration did not converge")


@dataclass(frozen=True)
class SplittingCoeffs:
    """b_0..b_imax of Dwork's splitting function theta(t) = E(gamma t) in
    one ring: b_e = a[e] * gamma^e, a[e] the Artin-Hasse coefficient mod
    p^N and gpow[e] the p - 1 pi-row digits of gamma^e, ints.  The elements
    b are made on first read; the kernel sweep reads a and gpow alone."""
    ring: RingSpec
    a: tuple
    gpow: tuple

    @cached_property
    def b(self):
        m, pN = self.ring.m, self.ring.pN
        out = []
        for a, g in zip(self.a, self.gpow):
            slots = [0] * (len(g) * m)
            slots[::m] = [a * c % pN for c in g]
            out.append(self.ring.from_slots(slots))
        return tuple(out)

    def __getitem__(self, i):
        return self.b[i]

    def __len__(self):
        return len(self.a)


# Bytes each Memo keeps: dwork's sweep plans and route A's shells, the
# tables of a job that do not depend on its coefficients.  A sweep plan of
# the triangle at p = 61, N = 4 takes about 100 MB, more than it saves.
MEMO_BYTES = 32 << 20


class Memo:
    """A per-process store of tables that depend on no coefficient choice,
    key -> value, keys and values holding ints and read-only arrays, never
    a ring.  keep(key, value, nbytes) keeps value while the values kept
    stay within MEMO_BYTES, read when it is called; a value past that is
    used by its caller and not kept.  Nothing is evicted."""

    def __init__(self):
        self.entries, self.held = {}, 0

    def __len__(self):
        return len(self.entries)

    def get(self, key):
        return self.entries.get(key)

    def keep(self, key, value, nbytes):
        if self.held + nbytes <= MEMO_BYTES:
            self.entries[key] = value
            self.held += nbytes
        return value


# (p, N) -> (a, gpow): the Artin-Hasse coefficients a_0, a_1, ... mod p^N
# and the pi-row digits of gamma^0, gamma^1, ..., as far as any ring asked,
# Python ints: the splitting series lies in Z_p[pi], so it depends on p and
# N alone.
_SPLITTING = {}


def splitting_coefficients(ring, imax):
    """SplittingCoeffs b_0..b_imax of theta(t) = E(gamma t) in ring, E the
    Artin-Hasse exponential (artin_hasse) and gamma its root
    (artin_hasse_gamma): Dwork's splitting function with ord b_e >= e/(p-1)
    (B. Dwork, "On the zeta function of a hypersurface", Publ. Math. IHES
    12, 1962), so b_e vanishes mod p^N past kernel_cut(ring).  Its digits
    are kept per (p, N) and process (_SPLITTING), and computed again, to the
    new length, when a larger imax is asked for.  Each gamma^e is checked to
    have ord exactly e/(p-1) (zero mod p^N from e = N(p-1) on), and a_0 = 1.
    """
    p, pN, key = ring.p, ring.pN, (ring.p, ring.N)
    a, gpow = _SPLITTING.get(key, ((), ()))
    if len(a) <= imax:
        a = tuple(f.numerator * pow(f.denominator, -1, pN) % pN
                  for f in artin_hasse(p, imax))
        assert a[0] == 1
        zp = RingSpec(p, 1, (0, 1), ring.N)
        gamma, x, gpow = zp.from_slots(artin_hasse_gamma(p, ring.N)), zp.one(), []
        for e in range(imax + 1):
            assert x.order() == (e if e < ring.N * ring.npi else None), \
                f"ord gamma^{e} is not {e}/(p-1)"
            gpow.append(x.slots)
            x = x * gamma
        a, gpow = _SPLITTING[key] = a, tuple(gpow)
    return SplittingCoeffs(ring, a[:imax + 1], gpow[:imax + 1])


def kernel_cut(ring):
    """Routes B and C's kernel-sum cutoff N(p-1) - 1: ord b_e >= e/(p-1)
    (splitting_coefficients), so every b_e with e >= N(p-1), and every
    kernel term of |nu| past the cut, vanishes mod p^N."""
    return ring.N * ring.npi - 1


def default_s_cut(ring):
    """ceil(N p^2/(p-1)), route A's series degree scale
    (hyperg.route_a_last_step): the kernel-sum cutoff of the splitting
    series exp(pi(t - t^p)), whose coefficients have ord >= e(p-1)/p^2.
    Routes B and C cut at kernel_cut."""
    return -(-ring.N * ring.p ** 2 // (ring.p - 1))


def powers(x, e):
    """[x^0, x^1, ..., x^e], each one product from the last."""
    out = [x.spec.one()]
    for _ in range(e):
        out.append(out[-1] * x)
    return out
