"""Layer microbenchmarks, timed through public functions.

Each figure is the median of REPEATS timings on fixed, seeded inputs:

  micro.ring_mul.p{p}m{m}.us   one RingElem product at N = 8 (microseconds)
  micro.kernel_table.s         OperatorData.kernel_table, p5-triangle, N = 8
  micro.kernel_cache.{store,load}.s, micro.kernel_cache.bytes
                               KernelCache.store / KernelCache.load of that
                               table, and the size of the stored file
  micro.matmul.d{dim}.{f64,i64}.s
                               RingMatrix.matmul at dim 100 and 400, p = 3:
                               N = 8 takes the float64 path, N = 15 the int64
                               path (dim * (3^N - 1)^2 >= 2^52)
  micro.calF_series.s          calF_series, skew exponents, p = 5, N = 4,
                               degree 10000
  micro.char_sum.s             char_sum, p5-triangle, l = 5 (9.8e6 points)
"""

import random
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from unitroots import dwork, hyperg, oracle, runner, weights
from unitroots.battery import EXPONENT_SETS
from unitroots.padic import RingElem, make_ring

REPEATS = 3
RING_MULS = 2000


def _median_time(fn, setup=lambda: (), repeats=REPEATS):
    """Median time of fn(*setup()), with setup left out of the timing."""
    times = []
    for _ in range(repeats):
        args = setup()
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _random_elem(ring, rng):
    return RingElem(ring, tuple(tuple(rng.randrange(ring.pN) for _ in range(ring.m))
                                for _ in range(ring.npi)))


def _p5_triangle():
    A = weights.ExponentSet(2, EXPONENT_SETS["triangle"])
    return hyperg.LaurentSpec(A, 5, 1, 1, ((1,), (1,), (1,)))


def ring_mul(p, m):
    rng = random.Random(p * 10 + m)
    ring = make_ring(p, m, None, 8)
    pairs = [(_random_elem(ring, rng), _random_elem(ring, rng))
             for _ in range(RING_MULS)]

    def body():
        for a, b in pairs:
            a * b
    return 1e6 * _median_time(body) / RING_MULS


def _triangle_operator():
    spec, ring = _p5_triangle(), make_ring(5, 1, None, 8)
    W = weights.build_weight_data(spec.A)
    return lambda: dwork.OperatorData(spec, W, ring, runner.default_wmax(ring, W.D))


def kernel_table():
    operator = _triangle_operator()
    return _median_time(lambda odata: odata.kernel_table(0),
                        lambda: (operator(),))


def kernel_cache(root):
    """(store s, load s, file bytes) of the p5-triangle table in a fresh cache."""
    operator = _triangle_operator()
    odata = operator()
    odata.kernel_table(0)
    shutil.rmtree(root, ignore_errors=True)
    try:
        cache = runner.KernelCache(root)
        store = _median_time(lambda: cache.store(odata, 0))
        load = _median_time(lambda od: cache.load(od, 0), lambda: (operator(),))
        size = sum(f.stat().st_size for f in Path(root).iterdir())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return store, load, size


def matmul(dim, N):
    ring = make_ring(3, 1, None, N)
    rng = np.random.default_rng(dim + N)
    shape = (dim, dim, ring.npi, ring.m)
    a = dwork.RingMatrix(ring, None, None,
                         rng.integers(0, ring.pN, size=shape, dtype=np.int64))
    b = dwork.RingMatrix(ring, None, None,
                         rng.integers(0, ring.pN, size=shape, dtype=np.int64))
    return _median_time(lambda: a.matmul(b))


def calF_series():
    A = weights.ExponentSet(1, EXPONENT_SETS["skew"])
    ring = make_ring(5, 1, None, 4)
    return _median_time(lambda: hyperg.calF_series(A, 10000, ring))


def char_sum():
    spec = _p5_triangle()
    tower = oracle.FqTower(spec)
    tower.level(5)
    return _median_time(lambda: oracle.char_sum(spec, 5, tower, override=True))


def run_all(cache_root):
    """Every microbenchmark; cache_root is a scratch directory it removes."""
    out = {}
    for p in (2, 3, 5):
        for m in (1, 2):
            out[f"micro.ring_mul.p{p}m{m}.us"] = ring_mul(p, m)
    out["micro.kernel_table.s"] = kernel_table()
    (out["micro.kernel_cache.store.s"], out["micro.kernel_cache.load.s"],
     out["micro.kernel_cache.bytes"]) = kernel_cache(cache_root)
    for dim in (100, 400):
        out[f"micro.matmul.d{dim}.f64.s"] = matmul(dim, 8)
        out[f"micro.matmul.d{dim}.i64.s"] = matmul(dim, 15)
    out["micro.calF_series.s"] = calF_series()
    out["micro.char_sum.s"] = char_sum()
    return out
