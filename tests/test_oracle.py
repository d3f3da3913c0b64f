"""Character-sum oracle: exact counts, embeddings, towers, invariance."""

import collections
import functools
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import unitroots

from unitroots.errors import TooLarge
from unitroots.ffield import (FField, discrete_log, field, multiplicative_generator,
                              primitive_poly, root_log)
from unitroots.gfpoly import X, find_irreducible, rem
from unitroots.hyperg import LaurentSpec
from unitroots import oracle
from unitroots.battery import BATTERY, DEGENERATE_BATTERY
from unitroots.oracle import (FqTower, _char_sum_slow, _trace_table, char_sum,
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
    assert est.ratios[-1].digits() == [[16], [0]]


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
        F, offsets = tower.level(l)
        slow = _char_sum_slow(F, offsets, A.vectors, F.size - 1, p)
        assert tuple(int(x) for x in slow) == row.counts, (A.vectors, p, l)
        assert row.method == method, (A.vectors, p, l)


def test_enumeration_past_one_chunk_equals_convolution():
    # at R = 4095 a chunk of 2^22 points holds 1024 of the 4095 first
    # coordinates, so the enumerator runs four chunks; the convolution
    # counts the same sum independently
    tower = FqTower(LaurentSpec(TRIANGLE, 2, 2, 1, ((0, 1), (1,), (1, 1))))
    F, offsets = tower.level(6)
    t = _trace_table(F)
    plan = oracle._convolution_plan(TRIANGLE.vectors, len(t))
    enumerated = oracle._enumerated_counts(t, offsets, TRIANGLE.vectors, 2)
    assert len(t) == 4095 and sum(enumerated) == 4095 ** 2
    assert enumerated.tolist() == oracle._convolved_counts(t, offsets, 2, *plan).tolist()


def test_trace_tables_match_direct_traces():
    # the field's one table read at an offset e gives the traces of
    # lambda = g^e: Tr(lambda g^j) = t[(j + e) mod R] for all j < R
    def check(F, e):
        R = F.size - 1
        g = multiplicative_generator(F)
        direct, y = [], F.pow(g, e)
        for _ in range(R):
            direct.append(F.trace(y))
            y = F.mul(y, g)
        t = _trace_table(F)
        assert [int(t[(j + e) % R]) for j in range(R)] == direct, (F, e)

    for p, k in ((2, 1), (3, 1), (2, 4), (3, 3), (5, 2)):
        F = field(p, k)
        R = F.size - 1
        for e in sorted({0, 1, R // 2, R - 1}):
            check(F, e)
    for p in (2, 3):
        # (0, 1) generates F_{p^2}; (1,) lies in F_p and embeds as g^0
        tower = FqTower(LaurentSpec(KLOOSTERMAN, p, 2, 1, ((0, 1), (1,))))
        F, (gen, one) = tower.level(3)
        assert F.k == 6 and tower.base_degree == 2 and one == 0
        check(F, gen)
        g = multiplicative_generator(F)
        assert F.is_zero(F.evaluate(find_irreducible(p, 2), F.pow(g, gen)))


def test_each_field_table_built_once(monkeypatch):
    # two coefficient choices over the same six fields build each field's
    # table once: count the memo's misses, the builder's runs, per field
    memo = oracle._trace_table
    memo.cache_clear()
    builds = collections.Counter()

    def counted(F):
        misses = memo.cache_info().misses
        t = memo(F)
        builds[F] += memo.cache_info().misses - misses
        return t
    monkeypatch.setattr(oracle, "_trace_table", counted)
    cases = {c["id"]: c for c in BATTERY}
    tables = []
    for cid in ("p3-kloosterman-f9", "p3-skew-f9"):
        case = cases[cid]
        A = ExponentSet(len(case["A"][0]), case["A"])
        spec = LaurentSpec(A, 3, case["field_degree"], 1, case["coeffs"])
        tables.append(char_sum_table(spec, 6))
    assert sorted(F.k for F in builds) == [2, 4, 6, 8, 10, 12]
    assert set(builds.values()) == {1}
    assert tables[0].rows != tables[1].rows
    assert not memo(field(3, 12)).flags.writeable


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
    # each row is charged the cells its own method touches.  The set
    # ((1, 0), (0, 1), (2, 2)) has no convolution plan, so at p = 3, l = 4
    # (R = 80) its enumeration walks 80^2 points; the p = 5 triangle at
    # l = 6 (R = 15624) convolves (5, R) arrays, 78 120 cells
    spec = LaurentSpec(ExponentSet(2, ((1, 0), (0, 1), (2, 2))), 3, 1, 1,
                       ((1,), (1,), (1,)))
    assert char_sum(spec, 4, guard=80 ** 2).method == "enumeration"
    with pytest.raises(TooLarge, match="the enumeration touches 6400 cells"):
        char_sum(spec, 4, guard=80 ** 2 - 1)
    spec = LaurentSpec(TRIANGLE, 5, 1, 1, ((1,), (1,), (1,)))
    with pytest.raises(TooLarge, match="the convolution touches 78120 cells"):
        char_sum(spec, 6, guard=5 * 15624 - 1)


def test_refused_level_builds_no_field(monkeypatch):
    # both guards read only the level's degree and R, so a refused level
    # never reaches FqTower.level, which searches the field's generator and
    # h's root log (at base degree 12, level 2 spent 18.6 s building
    # F_{3^24} on a 2-core Intel Xeon before its guard refused it)
    def never(self, l):
        raise AssertionError(f"level {l} was built before its guard refused it")

    enum = LaurentSpec(ExponentSet(2, ((1, 0), (0, 1), (2, 2))), 3, 1, 1,
                       ((1,), (1,), (1,)))
    kloo = LaurentSpec(KLOOSTERMAN, 2, 1, 1, ((1,), (1,)))
    towers = FqTower(enum), FqTower(kloo)
    monkeypatch.setattr(FqTower, "level", never)
    with pytest.raises(TooLarge, match="the enumeration touches 6400 cells"):
        char_sum(enum, 4, towers[0], guard=80 ** 2 - 1)
    # at p = 2, l = 22 the convolution's 2 R = 8.4e6 cells pass the guard,
    # but the trace table's R (k + 2) = 1.0e8 entries do not
    with pytest.raises(TooLarge) as refused:
        char_sum(kloo, 22, towers[1])
    assert str(refused.value) == (
        "level 22, field degree k = 22: the trace tables' R (k + 2) = "
        f"{(2 ** 22 - 1) * 24} entries pass the memory guard 2^26 = 67108864")


def test_table_guards_every_level_before_building_any(monkeypatch):
    # p = 5 triangle over F_25 (epsilon = 2): levels 1-4 pass both guards,
    # level 5's trace tables (R (k + 2) = 1.2e8) do not, so char_sum_table
    # refuses at once, naming level 5, and builds no level before it
    spec = LaurentSpec(TRIANGLE, 5, 2, 2, ((0, 1), (1,), (1,)))

    def never(self, l):
        raise AssertionError(f"level {l} was built before level 5 was refused")
    monkeypatch.setattr(FqTower, "level", never)
    with pytest.raises(TooLarge) as refused:
        char_sum_table(spec, 6)
    assert str(refused.value) == (
        "level 5, field degree k = 10: the trace tables' R (k + 2) = "
        f"{(5 ** 10 - 1) * 12} entries pass the memory guard 2^26 = 67108864")
    monkeypatch.undo()
    assert len(char_sum_table(spec, 2).rows) == 2


def test_convolution_rows_are_charged_their_fft_cells():
    # the battery's p = 5 triangle and edge rows at l = 6 run under the
    # default guard, though their R^2 = 2.4e8 torus points pass it
    for A, coeffs in ((TRIANGLE, ((1,), (1,), (1,))), (EDGE, ((1,), (2,), (1,)))):
        row = char_sum(LaurentSpec(A, 5, 1, 1, coeffs), 6)
        assert row.method == "convolution" and sum(row.counts) == 15624 ** 2
    # at p = 1009, l = 2 the trace table would fit (R (k + 2) = 4.1e6 <
    # 2^26), but the FFT arrays would hold p R = 1.03e9 cells, about 8 GB
    spec = LaurentSpec(TRIANGLE, 1009, 1, 1, ((1,), (1,), (1,)))
    assert char_sum(spec, 1).method == "convolution"
    with pytest.raises(TooLarge, match="the convolution touches 1027242720 cells"):
        char_sum(spec, 2)


def test_tower_levels():
    spec = LaurentSpec(KLOOSTERMAN, 2, 2, 1, ((0, 1), (1,)))
    tower = FqTower(spec)
    assert tower.d == 2 and tower.base_degree == 2
    F, offsets = tower.level(3)
    assert F.k == 6 and tower.h == primitive_poly(2, 2)
    # the embedded generator t is a root of the presentation modulus
    # t^2 + t + 1, and 1 = rho^0 embeds as g^0
    g = multiplicative_generator(F)
    assert F.is_zero(F.evaluate(find_irreducible(2, 2), F.pow(g, offsets[0])))
    assert offsets[1] == 0
    assert tower.level(3)[1] is offsets  # built once per level


def test_ffield_basics():
    F4 = field(2, 2)
    g = multiplicative_generator(F4)
    assert F4.pow(g, 3) == F4.one() and F4.pow(g, 1) != F4.one()
    F9 = field(3, 2)
    # trace of t in F9 with t^2 = -1: t + t^3 = t + 2t = 0
    assert F9.trace((0, 1)) == 0
    assert F9.trace((1, 0)) == 2
    # x^2 + 1 has roots of order 4 only; x^2 + x + 2 is the least primitive
    h = primitive_poly(3, 2)
    assert h == (2, 1, 1)
    e = root_log(F9, h)
    g = multiplicative_generator(F9)
    assert F9.is_zero(F9.evaluate(h, F9.pow(g, e)))
    assert not any(F9.is_zero(F9.evaluate(h, F9.pow(g, j))) for j in range(e))
    # in F_{3^4} the roots lie in the subfield of order 9: e is a multiple of 10
    F81 = field(3, 4)
    e = root_log(F81, h)
    assert e % 10 == 0
    assert F81.is_zero(F81.evaluate(h, F81.pow(multiplicative_generator(F81), e)))


def test_primitive_poly_root_has_full_order():
    # in F_p[s]/(h) the powers s^0, ..., s^(R-1) are distinct and s^R = 1,
    # R = p^deg - 1: the units number R, so h is irreducible and s generates
    for p, deg in itertools.product((2, 3, 5), (1, 2, 3, 4)):
        h = primitive_poly(p, deg)
        assert len(h) == deg + 1 and h[-1] == 1
        F = FField(p, h)
        s = F.elem((-h[0],)) if deg == 1 else F.elem((0, 1))
        R = F.size - 1
        seen, x = set(), F.one()
        for _ in range(R):
            seen.add(x)
            x = F.mul(x, s)
        assert x == F.one() and len(seen) == R, (p, deg)


def _walked_logs(spec, tower):
    """The logs of spec's coefficients to base rho, the tower's root of h in
    the presentation field, by a walk over all powers of rho."""
    pres = FField(spec.p, oracle._presentation_modulus(spec))
    rho = pres.pow(multiplicative_generator(pres), root_log(pres, tower.h))
    walk, x = {}, pres.one()
    for j in range(spec.p ** tower.base_degree - 1):
        walk[x] = j
        x = pres.mul(x, rho)
    return tuple(walk.get(pres.elem(c)) for c in spec.coeffs)


def test_tower_logs_match_a_walk():
    # every battery case, and base degrees up to 6: the generator t of
    # F_{p^m}, a seeded element of it and a zero coefficient
    rng = random.Random(31)
    specs = [LaurentSpec(ExponentSet(len(c["A"][0]), c["A"]), c["p"],
                         c["field_degree"], c["epsilon"], c["coeffs"])
             for c in BATTERY + DEGENERATE_BATTERY]
    for p, m in itertools.product((2, 3, 5), range(1, 7)):
        if p ** m < 5000:
            elem = tuple(rng.randrange(p) for _ in range(m))
            specs.append(LaurentSpec(TRIANGLE, p, m, 1, ((0, 1)[:m], elem, (0,))))
    for spec in specs:
        tower = FqTower(spec)
        assert tower.logs == _walked_logs(spec, tower), (spec.p, spec.m, spec.coeffs)
    assert tower.base_degree == 5 and tower.logs[2] is None


def test_discrete_log_product_bound(monkeypatch):
    # at most 2 ceil(sqrt(R)) + 1 field products per log (F.mul, and F.pow
    # for the one inversion), counted on the elements of F_{3^6}, R = 728
    F = field(3, 6)
    R, g = F.size - 1, multiplicative_generator(F)
    M = math.isqrt(R - 1) + 1
    # R - 1 takes the last giant step, i = M - 1
    exps = [0, 1, M - 1, M, R - 1] + random.Random(6).sample(range(R), 60)
    targets = [(j, F.pow(g, j)) for j in exps]
    # a base of smaller order: the generator of F_9^* inside F_{3^6}
    rho = F.pow(g, R // 8)
    products = collections.Counter()
    for name in ("mul", "pow"):
        def counted(self, *args, _f=getattr(FField, name)):
            products["all"] += 1
            return _f(self, *args)
        monkeypatch.setattr(FField, name, counted)
    for j, x in targets:
        products.clear()
        assert discrete_log(F, g, R, x) == j
        assert products["all"] <= 2 * M + 1, j
    assert discrete_log(F, g, R, F.zero()) is None
    assert discrete_log(F, rho, 8, F.pow(rho, 5)) == 5
    with pytest.raises(ValueError):
        discrete_log(F, rho, 8, g)


def test_embedding_is_additive():
    # every element of F_{p^m} as a coefficient: its offset e(x) at level 2
    # places it as g^e(x), 0 for e(x) None, and the placement is additive,
    # g^e(x) + g^e(y) = g^e(x + y), over all pairs of F_{p^m} or a seeded
    # sample of 400 where there are more than 64^2
    rng = random.Random(26)
    for p, m in itertools.product((2, 3, 5), (1, 2, 3, 4)):
        elems = [tuple(i // p ** j % p for j in range(m)) for i in range(p ** m)]
        A = ExponentSet(1, tuple((i + 1,) for i in range(len(elems))))
        tower = FqTower(LaurentSpec(A, p, m, 1, elems))
        assert tower.base_degree == m
        F, offsets = tower.level(2)
        g = multiplicative_generator(F)

        @functools.cache
        def place(i):
            return F.zero() if offsets[i] is None else F.pow(g, offsets[i])

        def index_of_sum(x, y):
            return sum((a + b) % p * p ** j for j, (a, b) in enumerate(zip(x, y)))

        pairs = list(itertools.product(range(len(elems)), repeat=2))
        if len(pairs) > 64 ** 2:
            pairs = rng.sample(pairs, 400)
        assert offsets[0] is None and len(set(offsets)) == len(elems)
        for i, j in pairs:
            k = index_of_sum(elems[i], elems[j])
            assert F.add(place(i), place(j)) == place(k), (p, m, elems[i], elems[j])


def test_guard_override():
    spec = LaurentSpec(KLOOSTERMAN, 2, 1, 1, ((1,), (1,)))
    row = char_sum(spec, 3, guard=5, override=True)
    assert sum(row.counts) == 7
