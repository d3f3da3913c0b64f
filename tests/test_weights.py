"""Polytope weights: facet forms, cone membership, enumeration, properties."""

import itertools
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from unitroots.battery import EXPONENT_SETS
from unitroots.errors import NotSpanning, OutsideCone
from unitroots.hyperg import _solutions_all
from unitroots.weights import (ExponentSet, _integer_kernel, _rref,
                               build_weight_data, enumerate_weighted_monomials,
                               lattice_solutions, relation_lattice_basis,
                               scaled_weights, weight, weight_definitional)

KLOOSTERMAN = ((1,), (-1,))
SKEW = ((2,), (-1,))
TRIANGLE = ((1, 0), (0, 1), (-1, -1))
EDGE = ((0, 1), (1, 0), (2, -1))


def test_kloosterman_facets():
    W = build_weight_data(ExponentSet(1, KLOOSTERMAN))
    assert set(W.facet_forms) == {(F(1),), (F(-1),)}
    assert W.D == 1
    assert W.cone_facets == ()
    assert W.lineality_basis == ((1,),)


def test_single_ray():
    W = build_weight_data(ExponentSet(1, ((1,),)))
    assert set(W.facet_forms) == {(F(1),)}
    assert W.D == 1
    assert W.lineality_basis == ()


def test_triangle_facets():
    W = build_weight_data(ExponentSet(2, TRIANGLE))
    assert set(W.facet_forms) == {(F(1), F(1)), (F(-2), F(1)), (F(1), F(-2))}
    assert W.D == 1
    assert len(W.lineality_basis) == 2


def test_skew_has_denominator_two():
    W = build_weight_data(ExponentSet(1, SKEW))
    assert set(W.facet_forms) == {(F(1, 2),), (F(-1),)}
    assert W.D == 2
    assert weight(W, (1,)) == F(1, 2)
    assert weight(W, (3,)) == F(3, 2)


def test_edge_case_is_pointed():
    W = build_weight_data(ExponentSet(2, EDGE))
    assert set(W.facet_forms) == {(F(1), F(1))}
    assert W.lineality_basis == ()
    assert len(W.cone_facets) == 2


def test_not_spanning():
    with pytest.raises(NotSpanning):
        ExponentSet(2, ((1, 0),))


def test_weight_examples():
    Wk = build_weight_data(ExponentSet(1, KLOOSTERMAN))
    assert weight(Wk, (0,)) == 0
    assert weight(Wk, (-3,)) == 3
    Wt = build_weight_data(ExponentSet(2, TRIANGLE))
    assert weight(Wt, (1, 1)) == 2
    W1 = build_weight_data(ExponentSet(1, ((1,),)))
    with pytest.raises(OutsideCone):
        weight(W1, (-1,))


def test_enumeration_order_and_content():
    Wk = build_weight_data(ExponentSet(1, KLOOSTERMAN))
    assert enumerate_weighted_monomials(Wk, 2) == \
        [(0,), (-1,), (1,), (-2,), (2,)]
    W1 = build_weight_data(ExponentSet(1, ((1,),)))
    assert enumerate_weighted_monomials(W1, 3) == [(0,), (1,), (2,), (3,)]
    assert enumerate_weighted_monomials(Wk, 0) == [(0,)]
    Ws = build_weight_data(ExponentSet(1, SKEW))
    pts = enumerate_weighted_monomials(Ws, F(3, 2))
    # weights: 0, 1/2, 1, 1, 3/2 -> (0,), (1,), then (-1,) before (2,) by lex
    assert pts == [(0,), (1,), (-1,), (2,), (3,)]


@pytest.mark.parametrize("vecs", [KLOOSTERMAN, SKEW, TRIANGLE, EDGE])
def test_weight_properties(vecs, rng):
    A = ExponentSet(len(vecs[0]), vecs)
    W = build_weight_data(A)
    n = A.n
    points = []
    for _ in range(250):
        cs = [rng.randrange(9) for _ in vecs]
        nu = tuple(sum(c * v[i] for c, v in zip(cs, vecs)) for i in range(n))
        points.append(nu)
        w = weight(W, nu)
        assert w >= 0 and (w == 0) == (not any(nu))
        c = rng.randrange(5)
        assert weight(W, tuple(c * x for x in nu)) == c * w
        cs2 = [rng.randrange(9) for _ in vecs]
        mu = tuple(sum(c * v[i] for c, v in zip(cs2, vecs)) for i in range(n))
        assert weight(W, tuple(a + b for a, b in zip(nu, mu))) \
            <= w + weight(W, mu)
        assert (W.D * w).denominator == 1
    # the integer weights the hot paths use are D times the Fraction ones
    assert scaled_weights(W, points).tolist() == [W.D * weight(W, nu) for nu in points]
    assert scaled_weights(W, []).tolist() == []


@pytest.mark.parametrize("vecs", [KLOOSTERMAN, SKEW, TRIANGLE, EDGE])
def test_weight_against_definitional_oracle(vecs, rng):
    A = ExponentSet(len(vecs[0]), vecs)
    W = build_weight_data(A)
    n = A.n
    for _ in range(120):
        cs = [rng.randrange(10) for _ in vecs]
        nu = tuple(sum(c * v[i] for c, v in zip(cs, vecs)) for i in range(n))
        assert weight(W, nu) == weight_definitional(A, nu)


def test_cofacial_equality_cases():
    # same ray: always cofacial
    Wk = build_weight_data(ExponentSet(1, KLOOSTERMAN))
    assert weight(Wk, (5,)) == weight(Wk, (2,)) + weight(Wk, (3,))
    # opposite rays are not cofacial: strict inequality
    assert weight(Wk, (0,)) < weight(Wk, (1,)) + weight(Wk, (-1,))
    Wt = build_weight_data(ExponentSet(2, TRIANGLE))
    # (0,1) and (-1,-1) share the facet -2x + y = 1: equality
    assert weight(Wt, (-1, 0)) == weight(Wt, (0, 1)) + weight(Wt, (-1, -1))
    # (1,0) against the interior of the opposite facet cone: strict
    nu, mu = (1, 0), (-2, 1)
    assert weight(Wt, (-1, 1)) < weight(Wt, nu) + weight(Wt, mu)


def test_relation_lattices():
    assert relation_lattice_basis(KLOOSTERMAN) in ([(1, 1)], [(-1, -1)])
    basis = relation_lattice_basis(SKEW)
    assert len(basis) == 1 and tuple(abs(c) for c in basis[0]) == (1, 2)
    basis = relation_lattice_basis(TRIANGLE)
    assert len(basis) == 1 and tuple(abs(c) for c in basis[0]) == (1, 1, 1)
    assert relation_lattice_basis(((1,),)) == []


SIMPLEX = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
SQUARE = ((1, 0), (0, 1), (-1, 0), (0, -1))
ZERO_LAST = (((1,), (0,)), ((1, 0), (0, 1), (0, 0)))


@pytest.mark.parametrize("vecs", [*EXPONENT_SETS.values(), SQUARE, SIMPLEX, *ZERO_LAST])
def test_lattice_solutions_match_the_product_enumeration(vecs):
    # every u >= 0 with sum u_a a = mu and |u| <= bound, each once, against
    # the exhaustive product enumeration, on a box of targets that holds
    # points outside the cone and points no |u| <= 8 reaches
    A = ExponentSet(len(vecs[0]), vecs)
    by_mu = {}
    for u in _solutions_all(A, 8):
        mu = tuple(sum(x * a[j] for x, a in zip(u, vecs)) for j in range(A.n))
        by_mu.setdefault(mu, []).append(u)
    reach = {1: 10, 2: 5, 3: 3}[A.n]
    for mu in itertools.product(range(-reach, reach + 1), repeat=A.n):
        for bound in range(9):
            got = lattice_solutions(A, mu, bound)
            assert len(got) == len(set(got)), (mu, bound)
            assert sorted(got) == [u for u in sorted(by_mu.get(mu, []))
                                   if sum(u) <= bound], (mu, bound)


def test_lattice_solutions_edge_cases():
    # a zero vector that comes last takes any exponent the bound leaves
    zero_last = ExponentSet(1, ZERO_LAST[0])
    assert sorted(lattice_solutions(zero_last, (1,), 3)) == [(1, 0), (1, 1), (1, 2)]
    # outside the cone, off the lattice of A, or below any bound: nothing
    assert lattice_solutions(zero_last, (-1,), 8) == []
    assert lattice_solutions(ExponentSet(2, EDGE), (-1, 0), 8) == []
    assert lattice_solutions(ExponentSet(1, ((2,), (-2,))), (3,), 8) == []
    assert lattice_solutions(ExponentSet(2, TRIANGLE), (1, 0), -1) == []
    # bound 0 reaches the zero target alone, by nu = 0
    for vecs in [*EXPONENT_SETS.values(), SQUARE, SIMPLEX, *ZERO_LAST]:
        A = ExponentSet(len(vecs[0]), vecs)
        assert lattice_solutions(A, (0,) * A.n, 0) == [(0,) * len(vecs)]
        assert lattice_solutions(A, vecs[0], 0) == []


def lattice_sets():
    """The battery's exponent sets, the simplex, and 50 seeded draws of
    distinct vectors in [-3, 3]^n, n <= 3: every fifth draw in the
    hyperplane x_n = 0, so it spans only at n = 1 (and not at all there,
    being {0}); the others spanning or not, dependent or not, as drawn."""
    sets = list(EXPONENT_SETS.values()) + [SIMPLEX]
    rng = random.Random(20261019)
    for i in range(50):
        n = rng.randint(1, 3)
        vecs = {tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, n + 3))}
        if i % 5 == 0:
            vecs = {v[:-1] + (0,) for v in vecs}
        sets.append(tuple(sorted(vecs)))
    return sets


def _nullspace_1d(rows, ncols):
    """One primitive integer basis vector of the nullspace, by Fraction row
    reduction, if it is 1-dimensional."""
    mat, pivots = _rref(rows, ncols)
    if ncols - len(pivots) != 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    vec = [F(0)] * ncols
    vec[free] = F(1)
    for r, col in enumerate(pivots):
        vec[col] = -mat[r][free]
    den = lcm(*(f.denominator for f in vec))
    ints = [int(f * den) for f in vec]
    g = gcd(*(abs(c) for c in ints))
    return [c // g for c in ints]


def reference_weight_data(A):
    """(facet_forms, cone_facets, D, lineality_basis) with each hyperplane
    through n points found by Fraction row reduction; the lineality lattice
    is the cone facets' integer kernel, as in build_weight_data."""
    n = A.n
    pts = sorted(set(A.vectors) | {(0,) * n})
    forms, cone = set(), set()
    for subset in itertools.combinations(pts, n):
        sol = _nullspace_1d([list(x) + [-1] for x in subset], n + 1)
        if sol is None:
            continue
        g, c = sol[:n], sol[n]
        vals = [sum(a * b for a, b in zip(g, x)) for x in pts]
        if all(v >= c for v in vals):
            g, c = [-a for a in g], -c
        elif not all(v <= c for v in vals):
            continue
        if c == 0:
            cone.add(tuple(g))
        else:
            forms.add(tuple(F(a, c) for a in g))
    D = lcm(*(f.denominator for form in forms for f in form))
    lineality = _integer_kernel([list(g) for g in cone], n)
    return tuple(sorted(forms)), tuple(sorted(cone)), D, tuple(sorted(lineality))


def test_lattice_sets_cover_the_cases():
    # the draws hold spanning sets with more vectors than n (dependent ones),
    # and non-spanning sets both shorter than n and of n or more vectors
    rank = {vecs: len(_rref(vecs, len(vecs[0]))[1]) for vecs in lattice_sets()}
    n = {vecs: len(vecs[0]) for vecs in rank}
    assert any(rank[v] == n[v] < len(v) for v in rank)
    assert any(rank[v] < n[v] <= len(v) for v in rank)
    assert any(len(v) < n[v] for v in rank)
    assert {n[v] for v in rank} == {1, 2, 3}


@pytest.mark.parametrize("vecs", lattice_sets())
def test_hermite_form_matches_fraction_reduction(vecs):
    # ExponentSet refuses exactly the sets of Fraction rank below n, and on
    # the others build_weight_data's hyperplanes, read off saturated integer
    # kernels, are those of Fraction row reduction
    n = len(vecs[0])
    if len(_rref(vecs, n)[1]) < n:
        with pytest.raises(NotSpanning):
            ExponentSet(n, vecs)
        return
    A = ExponentSet(n, vecs)
    W = build_weight_data(A)
    assert (W.facet_forms, W.cone_facets, W.D, W.lineality_basis) == \
        reference_weight_data(A)
