"""Small finite fields F_{p^k} = F_p[s]/(h) and the embeddings between them.

Elements are coefficient tuples of length k (ascending powers of s).  Fields
here stay desk-scale: multiplicative generators are found by factoring the
group order with trial division, and subfield embeddings go through a root
of the subfield's defining polynomial, located by scanning the cyclic
subgroup of the right order.

Each fact about a field has one rule.  Traces come from the power sums
Tr(s^e) of the modulus by Newton's identities (FField.traces), polynomials
over F_p are evaluated by one Horner rule (FField.evaluate), and inverses
are powers.  A field is hashable by (p, modulus), so its traces and its
generator are derived once per process.
"""

import functools
from dataclasses import dataclass

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


def find_root(F, poly):
    """A root in F of an irreducible monic poly over F_p whose degree divides k.

    Roots lie in the subfield of order p^deg; its elements are the powers
    g^(j * (size-1)/(p^deg - 1)), scanned in order of j (plus zero for the
    degree-1 polynomial x).
    """
    poly = gfpoly.trim(poly)
    deg = len(poly) - 1
    if F.k % deg:
        raise ValueError("no subfield of that degree")
    if deg == 1:
        return F.elem(((-poly[0]) % F.p,))
    g = multiplicative_generator(F)
    step = (F.size - 1) // (F.p ** deg - 1)
    x = F.one()
    gs = F.pow(g, step)
    for _ in range(F.p ** deg - 1):
        if F.is_zero(F.evaluate(poly, x)):
            return x
        x = F.mul(x, gs)
    raise AssertionError("irreducible polynomial has no root in its splitting field")


def subfield_coordinates(F, rho, x, deg):
    """Coordinates of x in the basis 1, rho, ..., rho^(deg-1) over F_p."""
    basis = []
    r = F.one()
    for _ in range(deg):
        basis.append(r)
        r = F.mul(r, rho)
    # solve sum c_j basis[j] = x over F_p
    rows = [[basis[j][i] for j in range(deg)] + [x[i]] for i in range(F.k)]
    p = F.p
    pivots = []
    rank = 0
    for col in range(deg):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(rows)):
        if rows[i][deg] % p:
            raise ValueError("element is not in the subfield")
    sol = [0] * deg
    for r_, col in enumerate(pivots):
        sol[col] = rows[r_][deg]
    return tuple(sol)
