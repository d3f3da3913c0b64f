"""Exact rational polytope machinery for the weight function.

Given a finite spanning set A of Z^n, the polytope is the convex hull of
A together with the origin and the cone C is generated by A.  The weight of
a lattice point nu in C is the least c >= 0 with nu in c*polytope; it is
computed as the maximum of the facet forms normalized to 1 on the facets
missing the origin.  Cone membership uses the facets through the origin.
The integer Hermite form (_hnf_transform) alone reduces the lattice: the
rank of A, each hyperplane through n points (a saturated, so primitive,
kernel), the lineality and the relation lattices, and the nonnegative
solutions nu of sum_a nu_a a = mu (lattice_solutions), from the echelon
form each ExponentSet keeps.  Fractions appear only in the views
facet_forms and weight and in weight_definitional's reference solver.
Dimensions are small: facet search scans the point subsets.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import NotSpanning, OutsideCone


@dataclass(frozen=True)
class ExponentSet:
    n: int
    vectors: tuple
    # (H, U): U @ (the vectors as columns) = H, row echelon, positive pivots
    echelon: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vecs = tuple(tuple(int(c) for c in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if any(len(v) != self.n for v in vecs):
            raise ValueError("exponent vectors have inconsistent dimension")
        if len(set(vecs)) != len(vecs):
            raise ValueError("duplicate exponent vectors")
        H, U = _hnf_transform([[v[i] for v in vecs] for i in range(self.n)])
        if not all(map(any, H)):
            raise NotSpanning(f"exponents do not span R^{self.n}")
        object.__setattr__(self, "echelon", (tuple(map(tuple, H)), tuple(map(tuple, U))))


@dataclass(frozen=True)
class WeightData:
    A: ExponentSet
    facet_forms: tuple      # Fraction row vectors; 1 on facets missing 0
    cone_facets: tuple      # integer row vectors g with C = {g.x <= 0}
    D: int                  # weights lie in (1/D) Z
    lineality_basis: tuple  # lattice basis of C cap (-C) cap Z^n


def _rref(rows, ncols):
    """Reduced row echelon form over Q: (matrix, pivot columns), for the
    definitional reference's solver, _solve_nonneg."""
    mat = [[Fraction(c) for c in r] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [a / inv for a in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
    return mat, pivots


def _hnf_transform(mat):
    """Row HNF of an integer matrix with unimodular transform U (U@mat = H)."""
    nrows = len(mat)
    H = [list(r) for r in mat]
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    row = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if H[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        H[row], H[piv] = H[piv], H[row]
        U[row], U[piv] = U[piv], U[row]
        # euclidean elimination below the pivot
        while True:
            done = True
            for i in range(row + 1, nrows):
                if H[i][col] != 0:
                    done = False
                    q = H[i][col] // H[row][col]
                    H[i] = [a - q * b for a, b in zip(H[i], H[row])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[row])]
                    if H[i][col] != 0 and abs(H[i][col]) < abs(H[row][col]):
                        H[row], H[i] = H[i], H[row]
                        U[row], U[i] = U[i], U[row]
            if done:
                break
        if H[row][col] < 0:
            H[row] = [-a for a in H[row]]
            U[row] = [-a for a in U[row]]
        row += 1
    return H, U


def lattice_solutions(A, mu, bound):
    """Every nu >= 0 with sum_a nu_a a = mu and |nu| <= bound, each once,
    as tuples in no fixed order.

    sum_a nu_a a = mu is H nu = U mu, (H, U) = A.echelon, and H's pivot
    columns are n independent vectors of A (never a zero vector).  The other
    k - n coordinates run over every point with their sum at most bound,
    as one int64 array, and the pivot coordinates follow by back
    substitution in integers, each division exact or the point dropped.
    """
    H, U = A.echelon
    if bound < 0:
        return []
    pivots = [next(c for c, h in enumerate(row) if h) for row in H]
    nu = np.zeros((1, len(A.vectors)), dtype=np.int64)
    for c in sorted(set(range(len(A.vectors))) - set(pivots)):
        reps = bound + 1 - nu.sum(axis=1)
        nu = np.repeat(nu, reps, axis=0)
        nu[:, c] = np.arange(len(nu)) - np.repeat(np.cumsum(reps) - reps, reps)
    rhs = np.array(U, dtype=np.int64) @ np.array(mu, dtype=np.int64)
    exact = np.ones(len(nu), dtype=bool)
    for i in reversed(range(A.n)):
        r = rhs[i] - nu @ np.array(H[i], dtype=np.int64)
        exact &= r % H[i][pivots[i]] == 0
        nu[:, pivots[i]] = r // H[i][pivots[i]]
    keep = exact & (nu >= 0).all(axis=1) & (nu.sum(axis=1) <= bound)
    return list(map(tuple, nu[keep].tolist()))


def _integer_kernel(rows, ncols):
    """Saturated lattice basis of {x in Z^ncols : rows @ x = 0}."""
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    # left kernel of rows^T equals the kernel of rows
    at = [[rows[r][c] for r in range(len(rows))] for c in range(ncols)]
    H, U = _hnf_transform(at)
    basis = [tuple(U[i]) for i in range(ncols) if all(h == 0 for h in H[i])]
    return basis


def build_weight_data(A):
    """Facet forms, weight denominator, cone facets and lineality lattice."""
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    n = A.n
    pts = list(A.vectors)
    origin = tuple([0] * n)
    if origin not in pts:
        pts = pts + [origin]
    facet_forms = []
    cone_facets = []
    seen = set()
    for subset in itertools.combinations(pts, n):
        # hyperplane g.x = c through the subset: the kernel of [x | -1],
        # saturated, so (g, c) is primitive
        sol = _integer_kernel([list(x) + [-1] for x in subset], n + 1)
        if len(sol) != 1:
            continue
        g, c = sol[0][:n], sol[0][n]
        vals = [sum(gi * xi for gi, xi in zip(g, x)) for x in pts]
        if all(v <= c for v in vals):
            pass
        elif all(v >= c for v in vals):
            g, c = [-a for a in g], -c
        else:
            continue
        key = (tuple(g), c)
        if key in seen:
            continue
        seen.add(key)
        # origin inside the hull forces c >= 0
        assert c >= 0
        if c == 0:
            cone_facets.append(tuple(g))
        else:
            facet_forms.append(tuple(Fraction(gi, c) for gi in g))
    assert facet_forms, "bounded polytope must have a facet missing the origin"
    D = lcm(*(f.denominator for form in facet_forms for f in form))
    lineality = _integer_kernel([list(g) for g in cone_facets], n)
    return WeightData(A, tuple(sorted(facet_forms)), tuple(sorted(cone_facets)),
                      D, tuple(sorted(lineality)))


def in_cone(W, nu):
    return all(sum(gi * xi for gi, xi in zip(g, nu)) <= 0 for g in W.cone_facets)


def weight(W, nu):
    """max of the facet forms; raises OutsideCone off the cone."""
    nu = tuple(int(c) for c in nu)
    if not in_cone(W, nu):
        raise OutsideCone(f"{nu} is outside the cone")
    w = max(sum(fi * xi for fi, xi in zip(form, nu)) for form in W.facet_forms)
    return max(w, Fraction(0))


def weight_definitional(A, nu):
    """Independent oracle: least c with nu in c*polytope.

    Equals min{sum s_a : s >= 0, sum s_a a = nu}; the optimum of this little
    program sits on a basic solution, so scanning linearly independent
    subsets of A of size <= n and solving exactly is a complete search.
    """
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    nu = tuple(int(c) for c in nu)
    n = A.n
    if all(c == 0 for c in nu):
        return Fraction(0)
    best = None
    for r in range(1, n + 1):
        for subset in itertools.combinations(A.vectors, r):
            sol = _solve_nonneg(subset, nu)
            if sol is None:
                continue
            total = sum(sol, Fraction(0))
            if best is None or total < best:
                best = total
    if best is None:
        raise OutsideCone(f"{nu} is outside the cone")
    return best


def _solve_nonneg(cols, target):
    """Unique solution of sum s_i cols[i] = target with all s_i >= 0, if any."""
    ncols = len(cols)
    mat, pivots = _rref([[c[i] for c in cols] + [t] for i, t in enumerate(target)],
                        ncols + 1)
    if ncols in pivots:
        return None  # a pivot on the target column: inconsistent
    if len(pivots) < ncols:
        return None  # dependent columns; a smaller subset covers this case
    sol = [mat[r][ncols] for r in range(ncols)]
    if any(s < 0 for s in sol):
        return None
    return sol


def enumerate_weighted_monomials(W, wmax):
    """All mu in M with weight(mu) <= wmax, ordered by (weight, lex).

    D times a facet form is an integer vector, so each candidate is
    compared in integers, max(0, max_f D*form . mu) <= floor(D * wmax).
    The box's points are one int64 meshgrid in lex order; the cone mask and
    the scaled weights are one matrix product each, and a stable sort by
    weight keeps lex order among equal weights.
    """
    wmax = Fraction(wmax)
    if wmax < 0:
        raise ValueError("wmax must be nonnegative")
    n = W.A.n
    pts = list(W.A.vectors) + [tuple([0] * n)]
    axes = [np.arange(math.floor(min(Fraction(x[i]) * wmax for x in pts)),
                      math.ceil(max(Fraction(x[i]) * wmax for x in pts)) + 1)
            for i in range(n)]
    mus = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    facets = np.array(W.cone_facets, dtype=np.int64).reshape(-1, n)
    mus = mus[(mus @ facets.T <= 0).all(axis=1)]
    w = scaled_weights(W, mus)
    keep = w <= math.floor(W.D * wmax)
    mus, w = mus[keep], w[keep]
    return list(map(tuple, mus[np.argsort(w, kind="stable")].tolist()))


def scaled_weights(W, points):
    """D * weight(mu) as an int64 array, for each mu of `points` in the
    cone: D times a facet form is an integer vector."""
    forms = np.array([[int(W.D * c) for c in form] for form in W.facet_forms],
                     dtype=np.int64)
    mus = np.asarray(points, dtype=np.int64).reshape(-1, W.A.n)
    return (mus @ forms.T).max(axis=1, initial=0)


def relation_lattice_basis(A):
    """Lattice basis of {ell in Z^|A| : sum ell_a a = 0}."""
    if not isinstance(A, ExponentSet):
        A = ExponentSet(len(A[0]), tuple(A))
    rows = [[v[i] for v in A.vectors] for i in range(A.n)]
    return _integer_kernel(rows, len(A.vectors))
