"""Polynomial arithmetic over GF(p).

Polynomials are tuples of coefficients in ascending degree, entries reduced
mod p, no trailing zeros (the zero polynomial is the empty tuple).  Only the
handful of operations needed for field construction live here: product,
division with remainder, gcd, modular powering, irreducibility testing and the
deterministic search for the lexicographically least irreducible polynomial
of a given degree.
"""

import functools

from .errors import ReduciblePolynomial

X = (0, 1)  # the monomial x


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def add(a, b, p):
    n = max(len(a), len(b))
    return trim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                for i in range(n))


def mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return trim(out)


def rem(a, b, p):
    """Remainder of a modulo b; b need not be monic."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(trim(a))
    db = len(b) - 1
    inv_lb = pow(b[-1], -1, p)
    while len(r) > db:
        f = (r[-1] * inv_lb) % p
        if f:
            sh = len(r) - 1 - db
            for i in range(db + 1):
                r[sh + i] = (r[sh + i] - f * b[i]) % p
        r.pop()
    return trim(r)


def gcd(a, b, p):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, rem(a, b, p)
    if a:  # make monic for canonical output
        inv = pow(a[-1], -1, p)
        a = tuple((c * inv) % p for c in a)
    return a


def mulmod(a, b, mod, p):
    return rem(mul(a, b, p), mod, p)


def powmod(a, e, mod, p):
    result = (1,)
    a = rem(a, mod, p)
    while e:
        if e & 1:
            result = mulmod(result, a, mod, p)
        a = mulmod(a, a, mod, p)
        e >>= 1
    return result


def is_irreducible(f, p):
    """Irreducibility over GF(p): f has no factor of degree <= deg(f)/2."""
    f = trim(f)
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    # x^(p^k) mod f, k = 1..d//2; a factor of degree k exists iff
    # gcd(x^(p^k) - x, f) != 1.
    xq = rem(X, f, p)
    for _ in range(d // 2):
        xq = powmod(xq, p, f, p)
        g = gcd(add(xq, tuple((-c) % p for c in X), p), f, p)
        if g != (1,):
            return False
    return True


@functools.cache
def find_irreducible(p, degree):
    """Lexicographically least monic irreducible of given degree over GF(p).

    Candidates are ordered by the coefficient tuple (c_0, ..., c_{degree-1});
    for degree 1 this returns x itself.  Each (p, degree) is searched once
    per process.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    for idx in range(p ** degree):
        coeffs = []
        k = idx
        for _ in range(degree):
            coeffs.append(k % p)
            k //= p
        cand = tuple(coeffs) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise ReduciblePolynomial(f"no irreducible of degree {degree} over GF({p})")
