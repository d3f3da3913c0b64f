"""Small finite fields F_{p^k} = F_p[s]/(h) and the embeddings between them.

Elements are coefficient tuples of length k (ascending powers of s).  Fields
here stay desk-scale: multiplicative generators are found by factoring the
group order with trial division.  Subfields are placed by discrete logs: a
root of a primitive polynomial of degree deg generates F_{p^deg}^*, and
root_log finds the least e with g^e one of its roots by scanning the cyclic
subgroup of order p^deg - 1, so a root rho of the same polynomial in
another field embeds as rho^j -> g^(e*j).  The log j of an element to base
rho comes from baby steps and giant steps (discrete_log), in O(sqrt(p^deg))
field products.

Each fact about a field has one rule.  Traces come from the power sums
Tr(s^e) of the modulus by Newton's identities (FField.traces), polynomials
over F_p are evaluated by one Horner rule (FField.evaluate), and inverses
are powers.  A field is hashable by (p, modulus), so its traces, its
generator and its roots' logs are derived once per process.
"""

import functools
from dataclasses import dataclass
from math import isqrt

from . import gfpoly


@dataclass(frozen=True)
class FField:
    p: int
    modulus: tuple  # monic, ascending, length k+1

    @property
    def k(self):
        return len(self.modulus) - 1

    @property
    def size(self):
        return self.p ** self.k

    def zero(self):
        return (0,) * self.k

    def one(self):
        return ((1,) + (0,) * (self.k - 1)) if self.k > 1 else (1,)

    def elem(self, coeffs):
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.k:
            raise ValueError("coefficient list too long")
        return coeffs + (0,) * (self.k - len(coeffs))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        r = gfpoly.mulmod(gfpoly.trim(a), gfpoly.trim(b), self.modulus, self.p)
        return r + (0,) * (self.k - len(r))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = gfpoly.powmod(gfpoly.trim(a), e, self.modulus, self.p)
        return r + (0,) * (self.k - len(r))

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.size - 2)

    def is_zero(self, a):
        return not any(a)

    @functools.cache
    def traces(self):
        """Tr(s^e) to F_p for e < 2k - 1, by Newton's identities.

        The conjugates of s are the roots of the modulus x^k + sum c_i x^i,
        so the power sums P_e = Tr(s^e) satisfy P_0 = k and
        P_e = -(sum_{0 < i < min(e, k+1)} c_(k-i) P_(e-i) + e c_(k-e) [e <= k]).
        """
        k, p, c = self.k, self.p, self.modulus
        out = [k % p]
        for e in range(1, 2 * k - 1):
            acc = sum(c[k - i] * out[e - i] for i in range(1, min(e, k + 1)))
            if e <= k:
                acc += e * c[k - e]
            out.append(-acc % p)
        return tuple(out)

    def trace(self, a):
        return sum(c * t for c, t in zip(a, self.traces())) % self.p

    def evaluate(self, poly, x):
        """Horner evaluation at x of a polynomial with coefficients in F_p."""
        acc = self.zero()
        for c in reversed(poly):
            acc = self.add(self.mul(acc, x), self.elem((c,)))
        return acc

    def mult_matrix(self, x):
        """Matrix of y -> x*y in the power basis; column j is x * s^j."""
        cols = [self.mul(x, tuple(int(i == j) for i in range(self.k)))
                for j in range(self.k)]
        return [[cols[j][i] for j in range(self.k)] for i in range(self.k)]


def field(p, degree):
    return FField(p, gfpoly.find_irreducible(p, degree))


def factorize(n):
    """Prime factorization by trial division; n stays desk-scale."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.cache
def multiplicative_generator(F):
    """Deterministic generator of F*: first element of full order."""
    order = F.size - 1
    primes = list(factorize(order))
    # scan elements in lexicographic coefficient order, skipping 0
    for idx in range(1, F.size):
        coeffs = []
        k = idx
        for _ in range(F.k):
            coeffs.append(k % F.p)
            k //= F.p
        cand = tuple(coeffs)
        if all(not F.is_zero(F.sub(F.pow(cand, order // q), F.one()))
               for q in primes):
            return cand
    raise AssertionError("no generator found")


@functools.cache
def primitive_poly(p, deg):
    """Least monic primitive polynomial of degree deg over F_p.

    Candidates are scanned in find_irreducible's order.  An irreducible f
    with f(0) != 0 is primitive when x has order p^deg - 1 mod f, that is
    when x^((p^deg - 1)/r) != 1 mod f for each prime r | p^deg - 1; its
    roots then generate the multiplicative group of F_{p^deg}.  Each
    (p, deg) is searched once per process.
    """
    order = p ** deg - 1
    primes = list(factorize(order))
    for idx in range(p ** deg):
        cand = tuple(idx // p ** i % p for i in range(deg)) + (1,)
        if cand[0] and gfpoly.is_irreducible(cand, p) and all(
                gfpoly.powmod(gfpoly.X, order // r, cand, p) != (1,)
                for r in primes):
            return cand
    raise AssertionError("F_p^deg has a primitive element")


@functools.cache
def root_log(F, poly):
    """The least e with g^e a root of poly, g = multiplicative_generator(F).

    poly is monic irreducible over F_p of a degree deg dividing k, with a
    nonzero constant term, so its roots lie in the subfield of order p^deg,
    whose nonzero elements are the g^e with e a multiple of
    (size - 1)/(p^deg - 1); they are scanned in order of e.  Found once per
    field and polynomial.
    """
    deg = len(poly) - 1
    if F.k % deg:
        raise ValueError("no subfield of that degree")
    step = (F.size - 1) // (F.p ** deg - 1)
    gs = F.pow(multiplicative_generator(F), step)
    x = F.one()
    for j in range(F.p ** deg - 1):
        if F.is_zero(F.evaluate(poly, x)):
            return j * step
        x = F.mul(x, gs)
    raise AssertionError("irreducible polynomial has no root in its splitting field")


def discrete_log(F, base, order, x):
    """The j in [0, order) with base^j = x, for base of multiplicative order
    `order`; None for x = 0, ValueError when x is no power of base.

    Baby steps and giant steps: a table of base^j for j < M =
    ceil(sqrt(order)), then x base^(-M i) for i = 0, 1, ... until one is in
    it, at i < M since order <= M^2.  So at most 2M field products (F.mul)
    and one inversion, where a walk over the powers of base takes order.
    """
    if F.is_zero(x):
        return None
    M = isqrt(order - 1) + 1
    baby, y = {}, F.one()
    for j in range(M):
        baby[y] = j
        y = F.mul(y, base)
    giant, y = F.inv(y), x  # base^(-M)
    for i in range(M):
        if y in baby:
            return i * M + baby[y]
        y = F.mul(y, giant)
    raise ValueError(f"{x} is not a power of {base}")
