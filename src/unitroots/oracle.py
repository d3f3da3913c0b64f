"""Exact brute-force exponential sums over torus points.

For each extension degree l the sum S_l is tallied as counts N_c of torus
points whose absolute trace of f equals c, an exact element of Z[zeta_p]
stored as an integer count vector.  Embedding zeta_p into the working ring
turns consecutive ratios S_{l+1}/S_l into p-adic approximations of the unit
root.  Enumeration walks a multiplicative generator per coordinate with
precomputed trace tables; the point count is guarded.
"""

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
    g = getattr(spec, "field_poly", None)
    if g is None:
        g = gfpoly.find_irreducible(spec.p, spec.m)
    return gfpoly.trim(c % spec.p for c in g)


@dataclass
class CycloInt:
    """Element of Z[zeta_p] as a count vector, normalized so the last entry is 0."""
    p: int
    counts: tuple

    @classmethod
    def from_counts(cls, p, counts):
        shift = counts[p - 1]
        return cls(p, tuple(int(c - shift) for c in counts))

    @classmethod
    def from_int(cls, p, n):
        return cls.from_counts(p, (n,) + (0,) * (p - 1))

    def __add__(self, other):
        return CycloInt.from_counts(self.p, tuple(a + b for a, b in
                                                  zip(self.counts, other.counts)))

    def __sub__(self, other):
        return CycloInt.from_counts(self.p, tuple(a - b for a, b in
                                                  zip(self.counts, other.counts)))

    def __eq__(self, other):
        return isinstance(other, CycloInt) and (self.p, self.counts) == (other.p, other.counts)

    def is_zero(self):
        return all(c == 0 for c in self.counts)

    def to_ring(self, ring):
        return horner(self.counts, zeta_p(ring))


@dataclass
class CharSumRow:
    l: int
    field_degree: int       # degree over F_p of the enumerated field
    counts: tuple           # raw trace-value counts, sum = (p^deg - 1)^n
    S: CycloInt


@dataclass
class CharSumTable:
    spec: object
    d: int                  # orbit degree of the coefficients
    rows: list = field(default_factory=list)


class FqTower:
    """Per-extension enumeration data above the field generated by lambda-bar.

    The coefficients, given in F_{p^m}, generate F_{p^(epsilon*d)}; the sum
    for level l runs over the torus of F_{p^(epsilon*d*l)}.  Each level is
    built as an independent F_p[s]/(h) model with the coefficients embedded
    through a root of the standard subfield polynomial, which is chosen once
    in the presentation field and once per level; any root gives the same
    sums because they differ by a power Frobenius.
    """

    def __init__(self, spec):
        self.spec = spec
        self.p = spec.p
        self.d = orbit_degree(spec)
        self.base_degree = spec.epsilon * self.d
        pres = ffield.FField(spec.p, _presentation_modulus(spec))
        self.sub_poly = gfpoly.find_irreducible(spec.p, self.base_degree)
        if self.base_degree == 1:
            # coefficients are scalars of the prime field
            self.sub_coords = tuple(
                (self._prime_value(pres, c),) for c in spec.coeffs)
        else:
            rho = ffield.find_root(pres, self.sub_poly)
            self.sub_coords = tuple(
                ffield.subfield_coordinates(pres, rho, pres.elem(c), self.base_degree)
                for c in spec.coeffs)
        self._levels = {}

    @staticmethod
    def _prime_value(pres, coeff):
        x = pres.elem(coeff)
        if any(x[1:]):
            raise AssertionError("orbit degree 1 forces prime-field coefficients")
        return x[0]

    def level(self, l):
        """(field, embedded coefficient list) for the degree-l extension."""
        if l not in self._levels:
            deg = self.base_degree * l
            F = ffield.FField(self.p, gfpoly.find_irreducible(self.p, deg))
            if self.base_degree == 1:
                lams = [F.elem((c[0],)) for c in self.sub_coords]
            else:
                rho = ffield.find_root(F, self.sub_poly)
                lams = []
                for coords in self.sub_coords:
                    acc = F.zero()
                    rpow = F.one()
                    for c in coords:
                        acc = F.add(acc, F.mul(F.elem((c,)), rpow))
                        rpow = F.mul(rpow, rho)
                    lams.append(acc)
            self._levels[l] = (F, lams)
        return self._levels[l]


def char_sum(spec, l, tower=None, guard=ENUMERATION_GUARD, override=False):
    """Exact trace-value counts over the torus of the degree-l extension."""
    tower = tower or FqTower(spec)
    F, lams = tower.level(l)
    n = spec.A.n
    p = spec.p
    R = F.size - 1
    points = R ** n
    if points > guard and not override:
        raise TooLarge(f"{points} torus points exceeds the guard {guard}")

    vecs = spec.A.vectors
    if n > 2:
        counts = _char_sum_slow(F, lams, vecs, R, p)
    else:
        if R * (F.k + 2) > (1 << 26):
            raise TooLarge("trace tables for this field exceed the memory guard")
        g = ffield.multiplicative_generator(F)
        tr_vec = np.array(F.trace_vector(), dtype=np.int64)
        # trace tables: t_a[j] = Tr(lambda_a * g^j); skipped for zero coefficients
        tables = []
        power_table = _generator_power_table(F, g, R)
        for lam in lams:
            if F.is_zero(lam):
                tables.append(None)
                continue
            mm = np.array(F.mult_matrix(lam), dtype=np.int64)
            w = (mm.T @ tr_vec) % p
            tables.append((power_table @ w % p).astype(np.int16))
        counts = np.zeros(p, dtype=np.int64)
        if n == 1:
            idx = np.arange(R, dtype=np.int64)
            c = np.zeros(R, dtype=np.int64)
            for a, t in enumerate(tables):
                if t is None:
                    continue
                c += t[(idx * vecs[a][0]) % R]
            counts += np.bincount(c % p, minlength=p)
        else:
            chunk = max(1, min(R, (1 << 22) // max(R, 1)))
            k2 = np.arange(R, dtype=np.int64)
            for start in range(0, R, chunk):
                k1 = np.arange(start, min(start + chunk, R), dtype=np.int64)
                c = np.zeros((len(k1), R), dtype=np.int64)
                for a, t in enumerate(tables):
                    if t is None:
                        continue
                    idx = (k1[:, None] * vecs[a][0] + k2[None, :] * vecs[a][1]) % R
                    c += t[idx]
                counts += np.bincount((c % p).ravel(), minlength=p)
    total = int(counts.sum())
    assert total == points, "lost or double-counted torus points"
    return CharSumRow(l, F.k, tuple(int(x) for x in counts),
                      CycloInt.from_counts(p, tuple(int(x) for x in counts)))


def _char_sum_slow(F, lams, vecs, R, p):
    """Reference path for n >= 3 (and used in tests as the oracle's oracle)."""
    import itertools
    n = len(vecs[0])
    g = ffield.multiplicative_generator(F)
    counts = [0] * p
    powers = [F.one()]
    for _ in range(R - 1):
        powers.append(F.mul(powers[-1], g))
    for ks in itertools.product(range(R), repeat=n):
        val = F.zero()
        for a, lam in enumerate(lams):
            if F.is_zero(lam):
                continue
            e = sum(k * v for k, v in zip(ks, vecs[a])) % R
            val = F.add(val, F.mul(lam, powers[e]))
        counts[F.trace(val)] += 1
    return np.array(counts, dtype=np.int64)


def _generator_power_table(F, g, R):
    """(R x k) array of the coefficient vectors of g^j, built by doubling."""
    k = F.k
    p = F.p
    table = np.zeros((R, k), dtype=np.int64)
    table[0] = np.array(F.one(), dtype=np.int64)
    filled = 1
    while filled < R:
        step = F.pow(g, filled)
        mm = np.array(F.mult_matrix(step), dtype=np.int64)
        take = min(filled, R - filled)
        table[filled:filled + take] = (table[:take] @ mm.T) % p
        filled += take
    return table


def char_sum_table(spec, lmax, guard=ENUMERATION_GUARD, override=False):
    tower = FqTower(spec)
    table = CharSumTable(spec, tower.d)
    for l in range(1, lmax + 1):
        table.rows.append(char_sum(spec, l, tower, guard, override))
    return table


@dataclass
class OracleEstimates:
    ratios: list            # u_l = S_{l+1}/S_l as ring elements
    ratio_diff_orders: list  # ord(u_{l+1} - u_l), None when >= N
    s_valuations: list      # ord(S_l); all zero for unit sums


def embed_and_estimate(table, ring):
    """Ratio estimates of the unit root from consecutive sums."""
    elems = [row.S.to_ring(ring) for row in table.rows]
    vals = [e.valuation() for e in elems]
    ratios = []
    for a, b in zip(elems, elems[1:]):
        ratios.append(b * a.inverse())
    diffs = [(v - u).valuation() for u, v in zip(ratios, ratios[1:])]
    return OracleEstimates(ratios, diffs, vals)
