"""Exact truncated arithmetic in Z_q[pi], pi^(p-1) = -p.

Elements live in O_N = (Z_q[pi] / (pi^(p-1) + p)) mod p^N, where
Z_q = Z_p[t]/(g) is the unramified extension of residue degree m.  An element
is a (p-1) x m array of residues mod p^N:

    sum_{j < p-1} sum_{k < m} c[j][k] * t^k * pi^j.

RingSpec.law is the one place pi^(p-1) = -p and the reduction mod g are
applied: law[i][k] lists the (slot, coefficient mod p^N) pairs of slot i
times slot k, slot j*m + k standing for t^k pi^j.  RingElem.__mul__ and
dwork's products read it; dwork's reference keeps its own encoding, _fold.

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
ceil(log2 N(p-1)) steps reach all of O_N; each lift asserts its result.
The Teichmueller lift is one Frobenius power of the digit lift, and the
digit of pi^k / prod(f!) (pi_pow_digit) serves both Dwork's splitting
series theta(t) = exp(pi(t - t^p)) (splitting_coefficients) and route A's
sums.  The primitive p-th root of unity is theta(1) (zeta_p), Dwork's
additive character, with zeta == 1 + pi (mod pi^2).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import ceil

from . import ffield, gfpoly
from .errors import (CompositeP, ConfigInvalid, NonUnitDivision,
                     PrecisionTooLow, ReduciblePolynomial)


class RingSpec:
    """Descriptor of one working ring O_N.  Its fields never change after
    construction; factorials, the ring's FactorialUnits memo, only grows."""

    def __init__(self, p, m, g, N):
        self.p = p
        self.m = m
        self.N = N
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
        self.factorials = FactorialUnits(self)

    def __eq__(self, other):
        return self is other or (isinstance(other, RingSpec)
                                 and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"RingSpec(p={self.p}, m={self.m}, N={self.N})"

    # --- element constructors -------------------------------------------

    def zero(self):
        return RingElem(self, ((0,) * self.m,) * self.npi, check=False)

    def one(self):
        return self.from_int(1)

    def from_slots(self, flat):
        """Element whose slot j*m + s, the coefficient of pi^j t^s, is
        flat[j*m + s] mod p^N, for Python ints `flat`; 0 past its end."""
        m, pN = self.m, self.pN
        flat = iter([c % pN for c in flat] + [0] * (self.npi * m - len(flat)))
        return RingElem(self, tuple(zip(*[flat] * m)), check=False)  # rows of m

    def from_int(self, n):
        return self.from_slots([n])

    def from_tpoly(self, coeffs):
        """Element of Z_q given by an ascending t-coefficient list."""
        if len(coeffs) > self.m:
            raise ValueError("t-polynomial degree exceeds ring degree")
        return self.from_slots([int(c) for c in coeffs])

    def from_fraction(self, fr):
        fr = Fraction(fr)
        den = fr.denominator
        if den % self.p == 0:
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
    """Value type; all operations return new elements."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec, rows, check=True):
        if check:
            pN = spec.pN
            rows = tuple(tuple(int(c) % pN for c in r) for r in rows)
            if len(rows) != spec.npi or any(len(r) != spec.m for r in rows):
                raise ValueError("coefficient array has wrong shape")
        self.spec = spec
        self.rows = rows

    # --- predicates ------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for r in self.rows for c in r)

    def is_unit(self):
        return any(c % self.spec.p != 0 for c in self.rows[0])

    def __eq__(self, other):
        return (isinstance(other, RingElem) and self.spec == other.spec
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.spec.key, self.rows))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"RingElem({self.rows})"

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
        pN = self.spec.pN
        rows = tuple(tuple((a + b) % pN for a, b in zip(ra, rb))
                     for ra, rb in zip(self.rows, other.rows))
        return RingElem(self.spec, rows, check=False)

    __radd__ = __add__

    def __neg__(self):
        pN = self.spec.pN
        return RingElem(self.spec,
                        tuple(tuple((-c) % pN for c in r) for r in self.rows),
                        check=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product by RingSpec.law, in Python ints reduced once at the end:
        rows hold Python ints, as check=True and every check=False caller
        make sure, so the sums cannot overflow."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        ys = [(k, y) for k, y in enumerate(chain.from_iterable(other.rows)) if y]
        acc = [0] * len(spec.law)
        for law, x in zip(spec.law, chain.from_iterable(self.rows)):
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
        result = self.spec.one()
        base = self
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
            tuple(c % spec.p for c in self.rows[0])))
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
        rows = []
        for r in self.rows:
            row = []
            for c in r:
                if c % pk:
                    raise NonUnitDivision(f"coefficient {c} not divisible by p^{k}")
                row.append(c // pk)
            rows.append(tuple(row))
        return RingElem(self.spec, tuple(rows), check=False)

    # --- valuation and serialization --------------------------------------

    def order(self):
        """Exact pi-adic order as an int (units of 1/(p-1)); None for zero."""
        npi, p = self.spec.npi, self.spec.p
        return min((npi * split_p(c, p)[0] + j
                    for j, r in enumerate(self.rows) for c in r if c), default=None)

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
        pN = spec.pN
        return RingElem(spec, tuple(tuple(c % pN for c in r) for r in self.rows),
                        check=False)

    def digits(self):
        """Canonical integer digit matrix, rows indexed by pi-degree."""
        return [list(r) for r in self.rows]


def valuation(x):
    return x.valuation()


def teichmueller(spec, xbar):
    """The root-of-unity (or zero) lift of a residue-field element.

    xbar is an ascending t-coefficient list mod p, and its digit lift is
    x = w (1 + p z) with w the lift sought, w^q = w for q = p^m.  Since
    (1 + p z)^(p^k) = 1 mod p^(k+1), x^(q^j) = w mod p^N as soon as
    m j >= N - 1: one Frobenius power, j = ceil((N-1)/m).
    """
    x = spec.from_tpoly(tuple(c % spec.p for c in xbar))
    return x ** (spec.p ** spec.m) ** -(-(spec.N - 1) // spec.m)


_ZETA_ROWS = {}  # RingSpec.key -> zeta_p's rows, int tuples only


def zeta_p(spec):
    """Primitive p-th root of unity with zeta == 1 + pi (mod pi^2).

    It is Dwork's theta(1) = sum_i b_i, summed through default_s_cut(spec),
    past which every b_i vanishes mod p^N (B. Dwork, "On the zeta function
    of a hypersurface", Publ. Math. IHES 12, 1962).  The sum reads about
    N^2 p^3 / (2(p-1)^2) factorial digits, so its cost grows as N^2, where
    a Newton solve of the cyclotomic equation takes O(log N) ring steps;
    that is cheaper only past about N = 12, and the oracle, its one caller,
    runs at smaller N.  The digits are summed and checked once per
    RingSpec.key and process and memoized as int tuples, so the memo keeps
    no ring alive; later calls on an equal ring only wrap them.
    """
    if spec.N * spec.npi < 2:
        raise PrecisionTooLow("cannot separate zeta_p from 1 at this precision")
    rows = _ZETA_ROWS.get(spec.key)
    if rows is None:
        z = sum(splitting_coefficients(spec, default_s_cut(spec)).b, spec.zero())
        assert (z ** spec.p - spec.one()).is_zero() and not (z - spec.one()).is_zero()
        rows = _ZETA_ROWS[spec.key] = z.rows
    return RingElem(spec, rows, check=False)


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
    """The root of the polynomial that is congruent to x, by Newton lifting.

    x must be a simple root modulo pi, so the derivative there is a unit and
    each of the lift_steps(spec) steps doubles the number of correct
    pi-digits.
    """
    spec = x.spec
    dcoeffs = [spec.from_int(k) * c for k, c in enumerate(coeffs) if k >= 1]
    for _ in range(lift_steps(spec)):
        val = horner(coeffs, x)
        if val.is_zero():
            break
        x = x - val * horner(dcoeffs, x).inverse()
    assert horner(coeffs, x).is_zero(), "Newton lift did not converge"
    return x


def split_p(n, p):
    """(v, u) with n = p^v * u and u prime to p, for a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


class FactorialUnits:
    """n! = p^v(n!) * U(n) mod p^N, by the generalized Wilson theorem.

    The multiples of p in 1..n contribute p^floor(n/p) * floor(n/p)!, so
    U(n) = R(n) * U(floor(n/p)) with R(n) the product of the j <= n prime to
    p.  R is periodic up to sign: a full block of p^N consecutive units
    multiplies to -1 mod p^N, except +1 for p = 2, N >= 3.  So
    R(n) = (+-1)^floor(n/p^N) * T[n mod p^N] with T the prefix products of
    the units below p^N, grown only as far as the largest residue asked for.
    Results are kept, so n costs one step once floor(n/p) is known.
    """

    def __init__(self, spec):
        self.p, self.pN = spec.p, spec.pN
        self.block = 1 if spec.p == 2 and spec.N >= 3 else -1
        self.prefix = [1]  # prefix[r] = prod_{j <= r, p ∤ j} j mod p^N
        self.known = {0: (0, 1), 1: (0, 1)}

    def _grow(self, r):
        p, pN, prefix = self.p, self.pN, self.prefix
        acc = prefix[-1]
        for j in range(len(prefix), r + 1):
            if j % p:
                acc = acc * j % pN
            prefix.append(acc)

    def __call__(self, n):
        """(v_p(n!), U(n) mod p^N)."""
        f = self.known.get(n)
        if f is None:
            q, r = divmod(n, self.pN)
            if r >= len(self.prefix):
                self._grow(r)
            v, unit = self(n // self.p)
            unit = unit * self.prefix[r] % self.pN
            if q & 1 and self.block < 0:
                unit = self.pN - unit
            f = self.known[n] = (v + n // self.p, unit)
        return f


def pi_pow_digit(spec, k, factorials):
    """(row, digit) with pi^k / prod(f!) = digit * pi^row, digit mod p^N.

    pi^k = pi^(k mod (p-1)) * (-p)^floor(k/(p-1)); the leftover power of p
    is nonnegative whenever k is the sum of the factorial arguments (the
    base-p digit sums make up the difference), which covers every exp-type
    coefficient used here.  Factorials enter through their unit parts mod
    p^N (FactorialUnits), so large indices stay cheap.  The digit is
    (-1)^e * p^(e_p) / unit, e = floor(k/(p-1)); at p = 2 the row is 0 and
    (-1)^k 2^k is pi^k for pi = -2.
    """
    units, pN = spec.factorials, spec.pN
    e_p, upar = k // spec.npi, 1
    for f in factorials:
        v, u = units(f)
        e_p -= v
        upar = upar * u % pN
    if e_p < 0:
        raise NonUnitDivision("combination is not p-integral")
    digit = spec.p ** e_p * pow(upar, -1, pN) if e_p < spec.N else 0
    return k % spec.npi, (-digit if k // spec.npi & 1 else digit) % pN


def pi_pow_over_factorials(spec, k, factorials):
    """pi^k / prod(f!) as a ring element, for p-integral combinations: the
    one nonzero digit of pi_pow_digit, in its row."""
    r, digit = pi_pow_digit(spec, k, factorials)
    return spec.from_slots([0] * (r * spec.m) + [digit])


@dataclass(frozen=True)
class SplittingCoeffs:
    b: tuple

    def __getitem__(self, i):
        return self.b[i]

    def __len__(self):
        return len(self.b)


def splitting_coefficients(ring, imax):
    """Coefficients b_0..b_imax of exp(pi(t - t^p)).

    b_i = sum_j (-1)^j pi^(i-(p-1)j) / (j! (i-pj)!), and every term is one
    p-integral digit in pi-row i mod (p-1) (pi_pow_digit); so b_i is the
    sum of those digits in that row.  ord b_i >= i(p-1)/p^2 is asserted for
    each i.
    """
    p = ring.p
    out = []
    for i in range(imax + 1):
        digit = sum((-1) ** j * pi_pow_digit(ring, i - (p - 1) * j, (j, i - p * j))[1]
                    for j in range(i // p + 1))
        b = ring.from_slots([0] * (i % (p - 1) * ring.m) + [digit])
        assert b.val_at_least(Fraction(i * (p - 1), p * p)), f"b_{i} bound fails"
        out.append(b)
    assert out[0] == ring.one()
    return SplittingCoeffs(tuple(out))


def default_s_cut(ring):
    """Kernel-sum cutoff making every omitted term vanish mod p^N; route A
    starts its series degree cap at the same value."""
    return ceil(ring.N * ring.p ** 2 / (ring.p - 1))


def powers(x, e):
    """[x^0, x^1, ..., x^e], each one product from the last."""
    out = [x.spec.one()]
    for _ in range(e):
        out.append(out[-1] * x)
    return out
