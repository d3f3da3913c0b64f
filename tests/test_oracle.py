"""Character-sum oracle: exact counts, embeddings, towers, invariance."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitroots

from unitroots.errors import TooLarge
from unitroots.ffield import field, find_root, multiplicative_generator
from unitroots.gfpoly import X, find_irreducible, rem
from unitroots.hyperg import LaurentSpec
from unitroots.oracle import (FqTower, _char_sum_slow, _trace_tables, char_sum,
                              char_sum_table, embed_and_estimate, orbit_degree)
from unitroots.padic import horner, zeta_p
from unitroots.weights import ExponentSet

KLOOSTERMAN = ExponentSet(1, ((1,), (-1,)))
SINGLE = ExponentSet(1, ((1,),))
TRIANGLE = ExponentSet(2, ((1, 0), (0, 1), (-1, -1)))
EDGE = ExponentSet(2, ((0, 1), (1, 0), (2, -1)))
SIMPLEX3 = ExponentSet(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))


def as_integer(counts):
    """n with sum_c counts[c] zeta_p^c = n, else None: since
    1 + zeta + ... + zeta^(p-1) = 0, the sum is an integer exactly when
    counts[1:] are all equal, and then it is counts[0] - counts[1]."""
    return counts[0] - counts[1] if len(set(counts[1:])) == 1 else None


def test_find_irreducible_examples():
    assert find_irreducible(2, 1) == (0, 1)          # t itself
    assert find_irreducible(3, 2) == (1, 0, 1)       # t^2 + 1
    assert find_irreducible(2, 2) == (1, 1, 1)       # t^2 + t + 1
    assert find_irreducible(5, 1) == (0, 1)


def test_orbit_degree():
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (2,)))
    assert orbit_degree(spec) == 1
    spec = LaurentSpec(KLOOSTERMAN, 3, 2, 1, ((0, 1), (1,)))
    assert orbit_degree(spec) == 2
    spec = LaurentSpec(KLOOSTERMAN, 3, 2, 1, ((1,), (2,)))
    assert orbit_degree(spec) == 1  # prime-field values in a quadratic presentation
    spec = LaurentSpec(SINGLE, 3, 1, 1, ((0,),))
    assert orbit_degree(spec) == 1  # zero vector


def test_char_sum_single_f3():
    spec = LaurentSpec(SINGLE, 3, 1, 1, ((1,),))
    row = char_sum(spec, 1)
    assert row.counts == (0, 1, 1)
    assert as_integer(row.counts) == -1
    table = char_sum_table(spec, 4)
    assert all(as_integer(r.counts) == -1 for r in table.rows)


def test_char_sum_kloosterman_f3():
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    row = char_sum(spec, 1)
    assert row.counts == (0, 1, 1)  # x=1 -> 2, x=2 -> 1
    assert as_integer(row.counts) == -1
    assert row.method == "enumeration"


def test_kloosterman_p2_sums_match_quadratic():
    # frozen by hand from the L-polynomial z^2 + z + 2: S_l = -(a^l + b^l)
    spec = LaurentSpec(KLOOSTERMAN, 2, 1, 1, ((1,), (1,)))
    table = char_sum_table(spec, 6)
    ints = [as_integer(r.counts) for r in table.rows]
    assert ints == [1, 3, -5, -1, 11, -9]


def test_count_conservation():
    spec = LaurentSpec(TRIANGLE, 2, 1, 1, ((1,), (1,), (1,)))
    table = char_sum_table(spec, 4)
    for row in table.rows:
        assert sum(row.counts) == (2 ** row.field_degree - 1) ** 2


def test_frobenius_invariance():
    # replacing lambda-bar by its q-power leaves every sum unchanged
    s1 = LaurentSpec(KLOOSTERMAN, 3, 2, 1, ((0, 1), (1,)))
    s2 = LaurentSpec(KLOOSTERMAN, 3, 2, 1, ((0, 2), (1,)))  # t -> t^3 = 2t
    t1 = char_sum_table(s1, 4)
    t2 = char_sum_table(s2, 4)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.counts == r2.counts


def test_embed_and_estimate_single(ring3):
    spec = LaurentSpec(SINGLE, 3, 1, 1, ((1,),))
    est = embed_and_estimate(char_sum_table(spec, 5), ring3)
    assert all(v == 0 for v in est.s_valuations)
    assert all(u == ring3.one() for u in est.ratios)
    # counts embed as they are: 4 + zeta + zeta^2 = 3
    assert horner((4, 1, 1), zeta_p(ring3)) == ring3.from_int(3)


def test_embed_and_estimate_kloosterman(ring3):
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (1,)))
    est = embed_and_estimate(char_sum_table(spec, 6), ring3)
    assert all(v == 0 for v in est.s_valuations)
    # strictly increasing difference orders, then indistinguishable
    seen_none = False
    prev = None
    for v in est.ratio_diff_orders:
        if v is None:
            seen_none = True
            continue
        assert not seen_none
        if prev is not None:
            assert v > prev
        prev = v
    assert est.ratios[-1].rows == ((16,), (0,))


def test_fast_path_matches_slow_path():
    cases = [
        (TRIANGLE, 2, ((1,), (1,), (1,)), 1, 2, "convolution"),
        (TRIANGLE, 3, ((1,), (2,), (1,)), 1, 2, "convolution"),
        (TRIANGLE, 5, ((1,), (1,), (1,)), 1, 2, "convolution"),
        (TRIANGLE, 2, ((0, 1), (1,), (1, 1)), 2, 2, "convolution"),
        (TRIANGLE, 3, ((1,), (0,), (2,)), 1, 2, "convolution"),  # zero coefficient
        (EDGE, 3, ((1,), (2,), (1,)), 1, 2, "convolution"),
        (EDGE, 5, ((1,), (2,), (1,)), 1, 2, "convolution"),
        # alpha = 2 is never a unit mod the even R: exercises the pushforward
        (ExponentSet(2, ((1, 0), (0, 1), (2, 1))), 3, ((1,), (2,), (1,)), 1, 3,
         "convolution"),
        # beta = 5 is a unit mod R = 26 whose inverse 21 differs from it
        (ExponentSet(2, ((1, 0), (0, 1), (2, 5))), 3, ((1,), (1,), (1,)), 1, 3,
         "convolution"),
        # the only unimodular pair leaves beta = 2: no convolution plan
        (ExponentSet(2, ((1, 0), (0, 1), (2, 2))), 3, ((1,), (1,), (2,)), 1, 2,
         "enumeration"),
        # one and three variables run the same enumerator
        (KLOOSTERMAN, 3, ((1,), (2,)), 1, 3, "enumeration"),
        (SIMPLEX3, 2, ((1,), (1,), (1,), (1,)), 1, 2, "enumeration"),
        (SIMPLEX3, 3, ((1,), (2,), (1,), (2,)), 1, 1, "enumeration"),
    ]
    for A, p, coeffs, m, l, method in cases:
        spec = LaurentSpec(A, p, m, 1, coeffs)
        tower = FqTower(spec)
        row = char_sum(spec, l, tower)
        F, lams = tower.level(l)
        slow = _char_sum_slow(F, lams, A.vectors, F.size - 1, p)
        assert tuple(int(x) for x in slow) == row.counts, (A.vectors, p, l)
        assert row.method == method, (A.vectors, p, l)


def test_trace_tables_match_direct_traces():
    for p, k in ((2, 1), (3, 1), (2, 4), (3, 3), (5, 2)):
        F = field(p, k)
        R = F.size - 1
        g = multiplicative_generator(F)
        lams = [F.zero(), F.one(), tuple(range(1, k + 1)), (p - 1,) * k]
        lams = [F.elem(tuple(c % p for c in lam)) for lam in lams]
        for lam, t in zip(lams, _trace_tables(F, lams, R)):
            assert t.tolist() == [F.trace(F.mul(lam, F.pow(g, j)))
                                  for j in range(R)], (p, k, lam)


def test_traces_are_conjugate_sums():
    # Newton's identities against Tr(x) = sum_{i<k} x^(p^i) for x = s^e
    for p in (2, 3, 5):
        for k in range(1, 7):
            F = field(p, k)
            s = F.elem(rem(X, F.modulus, p))
            for e, t in enumerate(F.traces()):
                x = F.pow(s, e)
                conj = F.zero()
                for i in range(k):
                    conj = F.add(conj, F.pow(x, p ** i))
                assert conj == F.elem((t,)), (p, k, e)
            assert len(F.traces()) == 2 * k - 1


def test_import_leaves_scipy_out():
    # scipy costs about half a second to import; the oracle uses numpy.fft
    env = {**os.environ, "PYTHONPATH": str(Path(unitroots.__file__).parents[1])}
    code = "import sys, unitroots.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_zero_coefficient_contributes_trace_zero():
    spec = LaurentSpec(KLOOSTERMAN, 3, 1, 1, ((1,), (0,)))
    row = char_sum(spec, 1)
    # f = x over the torus of F_3
    assert as_integer(row.counts) == -1


def test_enumeration_guard():
    spec = LaurentSpec(TRIANGLE, 5, 1, 1, ((1,), (1,), (1,)))
    with pytest.raises(TooLarge):
        char_sum(spec, 6, guard=10 ** 6)


def test_tower_levels():
    spec = LaurentSpec(KLOOSTERMAN, 2, 2, 1, ((0, 1), (1,)))
    tower = FqTower(spec)
    assert tower.d == 2 and tower.base_degree == 2
    F, lams = tower.level(3)
    assert F.k == 6
    # the embedded coefficient satisfies the subfield polynomial
    acc = F.zero()
    for c in reversed(tower.sub_poly):
        acc = F.mul(acc, lams[0])
        acc = F.add(acc, F.elem((c,)))
    assert F.is_zero(acc)


def test_ffield_basics():
    F4 = field(2, 2)
    g = multiplicative_generator(F4)
    assert F4.pow(g, 3) == F4.one() and F4.pow(g, 1) != F4.one()
    F9 = field(3, 2)
    # trace of t in F9 with t^2 = -1: t + t^3 = t + 2t = 0
    assert F9.trace((0, 1)) == 0
    assert F9.trace((1, 0)) == 2
    root = find_root(F9, find_irreducible(3, 2))
    acc = F9.zero()
    for c in reversed(find_irreducible(3, 2)):
        acc = F9.mul(acc, root)
        acc = F9.add(acc, F9.elem((c,)))
    assert F9.is_zero(acc)


def test_guard_override():
    spec = LaurentSpec(KLOOSTERMAN, 2, 1, 1, ((1,), (1,)))
    row = char_sum(spec, 3, guard=5, override=True)
    assert sum(row.counts) == 7
