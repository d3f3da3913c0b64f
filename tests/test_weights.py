"""Polytope weights: facet forms, cone membership, enumeration, properties."""

from fractions import Fraction as F

import pytest

from unitroots.errors import NotSpanning, OutsideCone
from unitroots.weights import (ExponentSet, build_weight_data,
                               enumerate_weighted_monomials,
                               relation_lattice_basis, scaled_weights,
                               weight, weight_definitional)

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
    assert scaled_weights(W, points) == [W.D * weight(W, nu) for nu in points]
    assert scaled_weights(W, []) == []


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
