"""Compare the reports of two source trees, timing aside.

    python tools/compare_reports.py ROOT_A ROOT_B

Runs one subprocess per tree, with that tree's `src` first on the path, over
one job set:
- every job of both benchmark workloads (`perfbench/workloads.py`) at seeds
  0, 3 and 7;
- routes B and C at N = 8 on all 26 battery cases;
- routes B, C and the oracle at N = 4 on the battery's quick cases;
- routes B and C past the int64 rule, on p5-kloosterman at N = 14 and on
  p2-kloosterman at N = 70, where a residue no longer fits int64.

Each tree lists its own jobs and runs their configs, so a change to the
config schema runs too; jobs are paired by name, and a name that one tree
lists and the other does not is a difference.  A job matches when
`Report.without_timing()` is equal and the `timing` block has the same
keys; a job that raises records its exception.

Route A reaches no series code, so the same subprocess also dumps a fixed
series grid (`series_entries`): `calF_series` digits over the prime field
and F_(p^2), at degrees that include those where the inverse's Newton
iteration takes one more step, `route_a_once` digits, and the results of
`check_annihilators` and `generating_identity_check`.  The oracle, the
one caller of `zeta_p`, runs only at N = 4 here, so it also dumps a padic
grid (`padic_entries`): `zeta_p` digits up to N = 20.  The jobs reach the oracle only on battery
coefficients at N = 4, so it also dumps an oracle grid (`oracle_entries`):
`char_sum` counts and method past them.  The jobs run route A only at
N = 4, so it also dumps a route-A grid (`route_a_entries`): the full route-A
record, or its error, at N = 6 and 8 on six cases (`p5-skew` at N = 8 is
route A's refusal, its last step below its first), and a digit grid
(`digit_entries`): `digit_solutions` as sorted lists on a fixed grid of
targets.  Only the GKZ checks and the kernel references solve
sum u_a a = i exactly, so it also dumps a solution grid
(`solution_entries`), from public API alone: the exact series
`hyperg_coefficient_series(A, i, degmax)` as sorted [u, numerator,
denominator] and the slots of `dwork.bigF_coefficient` at p in {3, 5},
N = 4, on every target i with |i|_inf <= 2 of the battery's sets, the
square, the three-variable simplex and two sets whose zero vector comes
last.  Route C's windows shrink most at high precision, which the jobs
reach only at N = 8, so it also dumps a route-C grid (`route_c_entries`):
routes B and C at N = 12 on the triangle and edge cases and on
p2-triangle-f4 (the orbit-composite path), and at N = 4 on p31-triangle and
p31-edge (the large-p kernel sweep), the route-C record without
`gemm_madds` and route B's unit root.  The jobs reach the scalar
ring (`RingElem`) only at N = 4, 8 and 12, so it also dumps a ring grid
(`ring_entries`): seeded elements' digits, orders, sums, differences,
products, powers and inverses, with `teichmueller`, `reduce_to`,
`divide_exact_p` and `newton_root`, at p in {2, 3, 5}, m in {1, 2} and
N in {1, 4, 8, 20}, from public API alone, so that a tree that stores
elements another way runs it too.  The jobs multiply ring arrays only on
their own operands, so it also dumps a ring-array grid
(`ring_array_entries`): seeded `ring_array_mul`, `law_product` and
`_pair_products` outcomes at p in {2, 3, 5, 7}, m in {1, 2}, N in {4, 8},
with zero slots and broadcast shapes, and at the int64 rule's last moduli
with every slot p^N - 1 and one digit past them, so that a change to how
products are reduced is compared digit by digit; within the rule it also
dumps `regular_representation` matrices, the GEMM right operand's entries
as stored, so that a change of representative shows.  The jobs' windowed
products split into few GEMMs and limbs, so it also dumps a windowed-product
grid (`window_entries`): seeded `_pair_products` of a `left_limbs` cut by a
`WindowPlan`, route C's first-return step, at p in {2, 3, 5}, m in {1, 2},
N = 4 and the int64 rule's last N, on dims 9, 40 and 70, with
non-increasing bands, empty windows and dead rows, each row on its kept
columns alone, so that how rows share a GEMM does not show.  The jobs sweep
kernel tables only up to N = 12, so it also dumps a kernel grid
(`kernel_entries`), from public API alone: `OperatorData.kernel_table`
points and coefficients at every orbit point on the triangle and edge sets
at the int64 rule's last moduli 2^31 (m = 2), 3^19 and 5^13 (m in {1, 2}),
where the gamma contraction reduces between chunks; the m = 2 coefficients
generate F_{p^2}.  Dwork's sweep plans and route A's shells are kept per
process and shared by every coefficient choice, so it also dumps a family
grid (`family_entries`), each family back to back in the one process: the
route-A record on all 16 coefficient pairs of p5-kloosterman at N = 4, and
the route-C record and route B's unit root on four coefficient choices of
p3-triangle and of p5-triangle at N = 8, so that a table leaking from one
choice into the next shows.  The jobs reach few of the product kernel's limb
thresholds, so it also dumps a limb-layout grid (`limb_entries`): at p in
{2, 3, 5, 7, 31} and every N under the int64 rule, the runs of
contractions K in [1, 2^15] of one limb width with that width and limb
count, `slot_group` for 1 to 12 slots on dims 1, 9, 40, 361 and 1500, and
the int64 room `unreduced_terms`, each read from `padic` where the tree
defines it there and from `dwork` otherwise.  The jobs reach
`weights` only through the battery's five exponent sets, so it also dumps
a weight grid (`weight_entries`), from public API alone: on the battery's sets, the
three-variable simplex and 50 seeded random sets in [-3, 3]^n, n <= 3 (the
lattice tests' sets), `build_weight_data`'s facet forms, cone facets, `D`
and lineality basis, `relation_lattice_basis`, and the basis at
wmax in {0, 1/2, 3/2, 4, 7}, or the `NotSpanning` or `ValueError` the set
raises.  Prints each report, series, padic, oracle, route-A, digit,
solution, route-C, ring, ring-array, windowed-product, kernel, family,
limb-layout or weight entry that differs, with the
dotted key paths that were added (`+`), removed (`-`) or changed (`~`) in
it (a list is one value), then how many entries each path moved in, then
the matches per kind; exits 1 if any entry differs, else 0.

Each job, with its `Report.without_timing()`, runs with the cyclic
collector off, and `gc.collect()` is read right after it: for each tree
the script also prints how many jobs left cyclic garbage and how many
objects in all.  That line does not change the exit code.
"""

import collections
import dataclasses
import gc
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (0, 3, 7)


def list_jobs():
    """[name, config] for every job of the set, from the tree on the path."""
    import workloads
    from unitroots.battery import BATTERY, DEGENERATE_BATTERY, QUICK_IDS, job_dict
    golden = workloads.load_golden()
    jobs = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            jobs += [[f"{name}:{seed}:{i}:{job['case']}", job["config"]]
                     for i, job in enumerate(workloads.generate(name, seed, golden))]
    cases = {c["id"]: c for c in BATTERY + DEGENERATE_BATTERY}
    jobs += [[f"bc-n8:{cid}", job_dict(case, precision=8, routes=("B", "C"))]
             for cid, case in cases.items()]
    jobs += [[f"bc-oracle-n4:{cid}",
              job_dict(cases[cid], precision=4, routes=("B", "C", "oracle"))]
             for cid in QUICK_IDS]
    jobs += [[f"bc-past-int64:{cid}:N{N}",
              job_dict(cases[cid], precision=N, routes=("B", "C"))]
             for cid, N in (("p5-kloosterman", 14), ("p2-kloosterman", 70))]
    return jobs


def outcome(fn):
    """fn()'s value, or the exception it raises: that is an outcome too."""
    try:
        return fn()
    except Exception as exc:
        return {"raised": f"{type(exc).__name__}: {exc}"}


def report_outcome(config):
    """(the job's outcome, the objects gc.collect() finds right after it),
    the job and its Report.without_timing() run with the cyclic collector
    off."""
    from unitroots import runner
    gc.collect()
    gc.disable()
    try:
        rep = outcome(lambda: runner.run(config))
        if isinstance(rep, runner.Report):
            rep = {"report": rep.without_timing(),
                   "timing_keys": sorted(rep.data["timing"])}
        garbage = gc.collect()
    finally:
        gc.enable()
    return rep, garbage


def series_entries():
    """{name: outcome} for the series grid, from the tree on the path:
    - calF_series digits on every battery exponent set, over the prime
      field at p in {2, 3, 5} and over F_(p^2) (default modulus) at
      p in {2, 3}, N in {2, 4, 6}, degree in {8, 15, 16, 20, 31, 32, 40}
      (at p = 2, 15, 16, 31 and 32 put the inverse's degree on either side
      of 8 and 16, where its Newton iteration takes one more step);
    - route_a_once digits on the prime-field Kloosterman and skew battery
      cases at N = 4 and degree 40;
    - check_annihilators at degree 8 on the zero relation and on every
      relation-basis vector times 1, 2 and -1, at i = 0 and i = (1, 0, ...),
      p in {2, 3, 5};
    - generating_identity_check(A, 2, 6) on every battery exponent set.
    """
    from unitroots import hyperg, oracle
    from unitroots.battery import BATTERY, EXPONENT_SETS
    from unitroots.padic import make_ring
    from unitroots.weights import ExponentSet, relation_lattice_basis

    def digits(series):
        return {str(u): c.digits() for u, c in series.terms.items()}

    sets = {name: ExponentSet(len(vecs[0]), vecs) for name, vecs in EXPONENT_SETS.items()}
    out = {}
    fields = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]
    for (name, A), (p, m), N, degree in itertools.product(
            sets.items(), fields, (2, 4, 6), (8, 15, 16, 20, 31, 32, 40)):
        ring = make_ring(p, m, None, N)
        out[f"calF:{name}:p{p}:m{m}:N{N}:d{degree}"] = outcome(
            lambda: digits(hyperg.calF_series(A, degree, ring)))
    for case in BATTERY:
        if case["A_name"] in ("kloosterman", "skew") and case["field_degree"] == 1:
            spec = hyperg.LaurentSpec(sets[case["A_name"]], case["p"], 1, 1,
                                      case["coeffs"])
            ring = make_ring(case["p"], 1, None, 4)
            out[f"route_a_once:{case['id']}:N4:d40"] = outcome(
                lambda: hyperg.route_a_once(spec, 40, ring,
                                            oracle.orbit_degree(spec)).digits())
    for name, A in sets.items():
        k = len(A.vectors)
        ells = [(0,) * k] + [tuple(m * x for x in ell)
                             for ell in relation_lattice_basis(A) for m in (1, 2, -1)]
        for ell, i, p in itertools.product(
                ells, [(0,) * A.n, (1,) + (0,) * (A.n - 1)], (2, 3, 5)):
            out[f"annihilators:{name}:{ell}:i{i}:p{p}"] = outcome(
                lambda: hyperg.check_annihilators(A, i, ell, 8, p))
        out[f"generating_identity:{name}"] = outcome(
            lambda: hyperg.generating_identity_check(A, 2, 6))
    return out


def padic_entries():
    """{name: outcome} for the padic grid, from the tree on the path:
    zeta_p digits for p in {2, 3, 5, 7}, m in {1, 2} and
    N in {1, 2, 3, 4, 6, 8, 10, 12, 13, 16, 20} with N(p - 1) >= 2, and at
    p = 2, m = 1, N = 1, where it raises PrecisionTooLow."""
    from unitroots.padic import make_ring, zeta_p
    grid = [(2, 1, 1)] + [
        (p, m, N) for p, m, N in itertools.product(
            (2, 3, 5, 7), (1, 2), (1, 2, 3, 4, 6, 8, 10, 12, 13, 16, 20))
        if N * (p - 1) >= 2]
    return {f"zeta_p:p{p}:m{m}:N{N}": outcome(
        lambda: zeta_p(make_ring(p, m, None, N)).digits()) for p, m, N in grid}


def oracle_entries():
    """{name: outcome} for the oracle grid, from the tree on the path:
    char_sum rows (counts, method) at p in {2, 3, 5} and every l with
    R^n <= 10^6, on every battery exponent set, the three-variable simplex
    and ((1, 0), (0, 1), (2, 2)), which has no convolution plan, each with
    four coefficient choices: all 1; the first 0; F_p values in F_{p^2},
    the last p - 1; the first the generator (0, 1) of F_{p^2}.  Past base
    degree 2, the Kloosterman and triangle sets also run with the first
    coefficient the generator (0, 1) of F_{2^3}, F_{2^4} and F_{3^3}, the
    rest 1."""
    from unitroots import hyperg, oracle
    from unitroots.battery import EXPONENT_SETS
    from unitroots.weights import ExponentSet
    sets = dict(EXPONENT_SETS, fallback=((1, 0), (0, 1), (2, 2)),
                simplex3=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))
    out = {}

    def rows(key, A, p, m, coeffs):
        spec = hyperg.LaurentSpec(A, p, m, 1, coeffs)
        tower = oracle.FqTower(spec)
        l = 1
        while (p ** (tower.base_degree * l) - 1) ** A.n <= 10 ** 6:
            out[f"{key}:l{l}"] = outcome(
                lambda: dataclasses.asdict(oracle.char_sum(spec, l, tower)))
            l += 1

    for (name, vecs), p in itertools.product(sets.items(), (2, 3, 5)):
        A = ExponentSet(len(vecs[0]), vecs)
        ones = ((1,),) * len(vecs)
        choices = {"ones": (1, ones), "zero": (1, ((0,),) + ones[1:]),
                   "fp-in-fp2": (2, ones[:-1] + ((p - 1,),)),
                   "gen-fp2": (2, ((0, 1),) + ones[1:])}
        for choice, (m, coeffs) in choices.items():
            rows(f"{name}:{choice}:p{p}", A, p, m, coeffs)
    for name, (p, m) in itertools.product(("kloosterman", "triangle"),
                                          ((2, 3), (2, 4), (3, 3))):
        vecs = sets[name]
        rows(f"{name}:gen-f{p}^{m}:p{p}", ExponentSet(len(vecs[0]), vecs), p, m,
             ((0, 1),) + ((1,),) * (len(vecs) - 1))
    return out


ROUTE_A_CASES = ("p2-skew", "p3-kloosterman", "p3-kloosterman-f9", "p3-triangle",
                 "p5-kloosterman", "p5-skew")


def route_a_record(case, N):
    """The report's route-A record and route A's error (None when it has
    none) for route A alone on one battery case at precision N."""
    from unitroots import runner
    from unitroots.battery import job_dict
    data = runner.run(job_dict(case, precision=N, routes=("A",))).data
    return {"route": data["routes"].get("A"), "error": data["errors"].get("A")}


def route_a_entries():
    """{name: outcome} for the route-A grid, from the tree on the path:
    route_a_record (unit root digits, steps, stop_step, degmax_used, terms
    and the rest) on ROUTE_A_CASES at N in {6, 8}."""
    from unitroots.battery import BATTERY
    cases = {c["id"]: c for c in BATTERY}
    return {f"{cid}:N{N}": outcome(lambda: route_a_record(cases[cid], N))
            for cid, N in itertools.product(ROUTE_A_CASES, (6, 8))}


def digit_entries():
    """{name: outcome} for the digit grid, from the tree on the path:
    sorted digit_solutions(A, i, degmax, p, N(p - 1)) on every battery
    exponent set, p in {2, 3, 5, 7}, N in {2, 4}, degmax in {12, 40} and
    every target i with |i|_inf <= 2."""
    from unitroots import hyperg
    from unitroots.battery import EXPONENT_SETS
    from unitroots.weights import ExponentSet
    out = {}
    for (name, vecs), p, N, degmax in itertools.product(
            EXPONENT_SETS.items(), (2, 3, 5, 7), (2, 4), (12, 40)):
        A = ExponentSet(len(vecs[0]), vecs)
        for i in itertools.product(range(-2, 3), repeat=A.n):
            out[f"{name}:p{p}:N{N}:d{degmax}:i{i}"] = outcome(
                lambda: sorted(map(list, hyperg.digit_solutions(
                    A, i, degmax, p, N * (p - 1)))))
    return out


ROUTE_C_CASES = ("p2-triangle", "p3-triangle", "p5-triangle", "p3-edge-degenerate",
                 "p5-edge-degenerate")
# (case, N) beside them: the orbit-composite path at N = 12, and the
# large-p kernel sweep, every coefficient 1, at N = 4
ROUTE_C_EXTRA = (("p2-triangle-f4", 12), ("p31-triangle", 4), ("p31-edge", 4))


SOLUTION_SETS = {"square": ((1, 0), (0, 1), (-1, 0), (0, -1)),
                 "simplex3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
                 "zero-last1": ((1,), (0,)), "zero-last2": ((1, 0), (0, 1), (0, 0))}


def solution_entries():
    """{name: outcome} for the solution grid, from the tree on the path, on
    every battery exponent set and SOLUTION_SETS, at every target i with
    |i|_inf <= 2: the exact series hyperg_coefficient_series(A, i, degmax),
    no ring, as sorted [u, numerator, denominator] at degmax in {6, 12};
    and the slots of dwork.bigF_coefficient at p in {3, 5}, N = 4, its
    default cutoff, lambda_a the Teichmueller lift of 1 + a mod (p - 1)."""
    from unitroots import dwork, hyperg
    from unitroots.battery import EXPONENT_SETS
    from unitroots.padic import kernel_cut, make_ring, splitting_coefficients, teichmueller
    from unitroots.weights import ExponentSet, build_weight_data
    out = {}
    for name, vecs in {**EXPONENT_SETS, **SOLUTION_SETS}.items():
        A = ExponentSet(len(vecs[0]), vecs)
        W, targets = build_weight_data(A), list(itertools.product(range(-2, 3), repeat=A.n))
        for degmax, i in itertools.product((6, 12), targets):
            out[f"{name}:series:d{degmax}:i{i}"] = outcome(lambda: sorted(
                [list(u), c.numerator, c.denominator]
                for u, c in hyperg.hyperg_coefficient_series(A, i, degmax).terms.items()))
        for p in (3, 5):
            ring = make_ring(p, 1, None, 4)
            sc = splitting_coefficients(ring, kernel_cut(ring))
            lam = tuple(teichmueller(ring, (1 + a % (p - 1),)) for a in range(len(vecs)))
            for i in targets:
                out[f"{name}:bigF:p{p}:i{i}"] = outcome(
                    lambda: list(dwork.bigF_coefficient(lam, i, W, ring, sc).slots))
    return out


def route_c_record(case, N):
    """Routes B and C on one case at precision N: the report's route-C
    record without gemm_madds, which counts work and not digits, route B's
    unit root, and the errors."""
    from unitroots import runner
    from unitroots.battery import job_dict
    data = runner.run(job_dict(case, precision=N, routes=("B", "C"))).data
    route = data["routes"].get("C")
    if route is not None:
        route = {k: v for k, v in route.items() if k != "gemm_madds"}
    return {"route": route, "B_unit_root": data["routes"].get("B", {}).get("unit_root"),
            "errors": data["errors"]}


def route_c_entries():
    """{name: outcome} for the route-C grid, from the tree on the path:
    route_c_record on ROUTE_C_CASES at N = 12 and on ROUTE_C_EXTRA."""
    from unitroots.battery import BATTERY, DEGENERATE_BATTERY, EXPONENT_SETS
    cases = {c["id"]: c for c in BATTERY + DEGENERATE_BATTERY}
    for aname in ("triangle", "edge"):
        A = EXPONENT_SETS[aname]
        cases[f"p31-{aname}"] = {"p": 31, "A": A, "coeffs": ((1,),) * len(A),
                                 "epsilon": 1, "field_degree": 1}
    jobs = [(cid, 12) for cid in ROUTE_C_CASES] + list(ROUTE_C_EXTRA)
    return {f"{cid}:N{N}": outcome(lambda: route_c_record(cases[cid], N))
            for cid, N in jobs}


def ring_entries():
    """{name: outcome} for the ring grid, from the tree on the path: at
    p in {2, 3, 5}, m in {1, 2} and N in {1, 4, 8, 20}, seeded units times
    pi^0, pi^0, pi^1, pi^(p-1) and pi^(N(p-1) - 1), then p times the first
    and 0.  For each element x, with y the next one: the digits of x, -x,
    x + y, x - y, x y, x^5, x's inverse, (p x) / p (divide_exact_p) and x
    at precision ceil(N/2) (reduce_to), x's order, valuation and is_unit,
    each an outcome of its own; and per ring the Teichmueller lifts of
    every residue of F_p and of t, and the root of z^(p^m) - z that
    newton_root lifts from the first element."""
    import random
    from unitroots.padic import RingElem, make_ring, newton_root, teichmueller
    out = {}
    for p, m, N in itertools.product((2, 3, 5), (1, 2), (1, 4, 8, 20)):
        ring, rng = make_ring(p, m, None, N), random.Random(100 * p + 10 * m + N)
        low = make_ring(p, m, None, -(-N // 2))

        def unit():
            digits = [[rng.randrange(ring.pN) for _ in range(m)]
                      for _ in range(ring.npi)]
            digits[0][0] += rng.randrange(1, p) - digits[0][0] % p
            return RingElem(ring, digits)

        xs = [unit() * ring.pi() ** k
              for k in (0, 0, 1, p - 1, N * (p - 1) - 1)]
        xs += [xs[0] * p, ring.zero()]
        for i, (x, y) in enumerate(zip(xs, xs[1:] + xs[:1])):
            ops = {"x": x.digits, "neg": lambda: (-x).digits(),
                   "add": lambda: (x + y).digits(), "sub": lambda: (x - y).digits(),
                   "mul": lambda: (x * y).digits(), "pow5": lambda: (x ** 5).digits(),
                   "inverse": lambda: x.inverse().digits(),
                   "divide_exact_p": lambda: (x * p).divide_exact_p(1).digits(),
                   "reduce_to": lambda: x.reduce_to(low).digits(),
                   "order": x.order, "valuation": lambda: str(x.valuation()),
                   "is_unit": x.is_unit}
            out[f"p{p}:m{m}:N{N}:x{i}"] = {k: outcome(f) for k, f in ops.items()}
        residues = [(a,) for a in range(p)] + [(0, 1)[:m]]
        out[f"p{p}:m{m}:N{N}:teichmueller"] = [
            outcome(lambda: teichmueller(ring, r).digits()) for r in residues]
        q = p ** m
        out[f"p{p}:m{m}:N{N}:newton_root"] = outcome(
            lambda: newton_root([0, -1] + [0] * (q - 2) + [1], xs[0]).digits())
    return out


def ring_array_entries():
    """{name: outcome} for the ring-array grid, from the tree on the path:
    at p in {2, 3, 5, 7}, m in {1, 2} and N in {4, 8}, seeded residues
    with about a third of the slots 0; at the int64 rule's last moduli
    2^31, 3^19 and 5^13, m in {1, 2, 3}, every slot p^N - 1; and one digit
    past each, m = 1.  Per ring: X of shape (3, 4) times Y at (3, 4), (4,),
    (3, 1) and () and times zero (dwork.ring_array_mul), the same on
    pi-row 0 (padic.law_product), a (3, 4) by (4, 2) matrix product
    (dwork._pair_products), and on the rings within the int64 rule (it is
    never called past it) the regular representation of a (3, 4) matrix on
    every slot (dwork.regular_representation: its matrix as ints, and
    kept), each an outcome of its own.  Products alone cannot show which
    representative the right operand holds; the representation shows it."""
    import numpy as np
    from unitroots import dwork
    from unitroots.padic import law_product, make_ring

    def representation(ring, B):
        rep = dwork.regular_representation(ring, B, np.arange(ring.npi * ring.m))
        return {"matrix": rep.matrix.astype(np.int64).tolist(), "kept": rep.kept.tolist()}
    grid = [(p, m, N, False) for p, m, N in itertools.product((2, 3, 5, 7), (1, 2), (4, 8))]
    grid += [(p, m, N + d, True) for p, N in ((2, 31), (3, 19), (5, 13))
             for m, d in ((1, 0), (2, 0), (3, 0), (1, 1))]
    out = {}
    for p, m, N, full in grid:
        ring = make_ring(p, m, None, N)
        rng = np.random.default_rng(1000 * p + 100 * m + N)

        def draw(batch):
            if full:
                return np.full(batch + (ring.npi, m), ring.pN - 1, dtype=np.int64)
            X = rng.integers(0, ring.pN, batch + (ring.npi, m))
            X[..., rng.random((ring.npi, m)) < 1 / 3] = 0
            return X
        X = draw((3, 4))
        Ys = {"same": draw((3, 4)), "row": draw((4,)), "column": draw((3, 1)),
              "scalar": draw(()), "zero": np.zeros((3, 4, ring.npi, m), dtype=np.int64)}
        name = f"p{p}:m{m}:N{N}"
        for key, Y in Ys.items():
            out[f"{name}:ring_array_mul:{key}"] = outcome(
                lambda: dwork.ring_array_mul(ring, X, Y).tolist())
            out[f"{name}:law_product:{key}"] = outcome(
                lambda: law_product(ring, X[..., 0, :], Y[..., 0, :]).tolist())
        out[f"{name}:pair_products"] = outcome(
            lambda: dwork._pair_products(ring, X, draw((4, 2))).tolist())
        if (ring.pN - 1) ** 2 + ring.pN < 2 ** 63:  # never called past the rule
            B = draw((3, 4))
            out[f"{name}:regular_representation"] = outcome(lambda: representation(ring, B))
    return out


def window_entries():
    """{name: outcome} for the windowed-product grid, from the tree on the
    path: dwork._pair_products(ring, dwork.left_limbs(ring, A,
    dwork.WindowPlan(band, out, alive)), B), route C's first-return product
    step, at p in {2, 3, 5}, m in {1, 2}, N = 4 and the int64 rule's last N
    (31, 19, 13), on dims 9, 40 and 70, where rows split into several GEMMs
    and the contraction into several blocks and limbs.  Each draws a
    non-increasing band whose last rows' windows are empty, an out that is
    the next such band or 0 (the last product), and dead rows (alive
    False), zero over their windows in A as route C's are.  Only the kept
    entries are dumped, row a on the columns a <= c < max(out[a], a + 1),
    as lists by row: the others depend on how rows share a GEMM."""
    import numpy as np
    from unitroots import dwork
    from unitroots.padic import make_ring

    def product(ring, A, B, band, out, alive):
        left = dwork.left_limbs(ring, A, dwork.WindowPlan(band, out, alive))
        Z = dwork._pair_products(ring, left, B)
        top = np.maximum(out, np.arange(len(band)) + 1)
        return [Z[a, a:top[a]].tolist() for a in range(len(band))]
    out = {}
    for p, m, N, dim in itertools.product((2, 3, 5), (1, 2), (4, None), (9, 40, 70)):
        N = N or {2: 31, 3: 19, 5: 13}[p]
        ring = make_ring(p, m, None, N)
        rng = np.random.default_rng(10 ** 4 * p + 1000 * m + 10 * N + dim)
        A, B = (rng.integers(0, ring.pN, (dim, dim, ring.npi, m)) for _ in range(2))
        rows = np.arange(dim)
        band = np.sort(rng.integers(2 * dim // 3, dim + 1, dim))[::-1].copy()
        band[rng.integers(3 * dim // 4, dim):] = 0
        alive = rng.random(dim) > 0.1
        A[~alive] *= ((rows <= rows[:, None]) | (rows >= band[:, None]))[~alive, :, None, None]
        nxt = np.minimum(band, np.sort(rng.integers(0, dim + 1, dim))[::-1])
        for kind, cut in (("next", nxt), ("last", np.zeros(dim, dtype=np.int64))):
            out[f"p{p}:m{m}:N{N}:dim{dim}:{kind}"] = outcome(
                lambda: product(ring, A, B, band, cut, alive))
    return out


# (p, m, N) of the kernel grid: the int64 rule's last moduli 2^31, 3^19 and
# 5^13, where the gamma contraction reduces between chunks
KERNEL_RINGS = ((2, 2, 31), (3, 2, 19), (3, 1, 19), (5, 2, 13), (5, 1, 13))


def kernel_entries():
    """{name: outcome} for the kernel grid, from the tree on the path:
    OperatorData(...).kernel_table(oi) points and coefficients, as ints, for
    every orbit point oi, on the triangle and edge sets at each (p, m, N)
    of KERNEL_RINGS.  At m = 1 the coefficients are 1, 2, 1; at m = 2 they
    are (0, 1), 1, (1, 1), as on the battery's p2-triangle-f4, so they
    generate F_{p^2} and the orbit has two points."""
    from unitroots import dwork, hyperg
    from unitroots.battery import EXPONENT_SETS
    from unitroots.padic import make_ring
    from unitroots.weights import ExponentSet, build_weight_data

    def tables(spec, W, ring):
        odata = dwork.OperatorData(spec, W, ring, 0)
        return [{"points": odata.kernel_table(oi).points.tolist(),
                 "coeffs": odata.kernel_table(oi).coeffs.tolist()}
                for oi in range(odata.orbit_len)]
    out = {}
    for name, (p, m, N) in itertools.product(("triangle", "edge"), KERNEL_RINGS):
        A = ExponentSet(2, EXPONENT_SETS[name])
        coeffs = ((1,), (2,), (1,)) if m == 1 else ((0, 1), (1,), (1, 1))
        spec = hyperg.LaurentSpec(A, p, m, 1, coeffs)
        out[f"{name}:p{p}:m{m}:N{N}"] = outcome(
            lambda: tables(spec, build_weight_data(A), make_ring(p, m, None, N)))
    return out


# The family grid's coefficient choices, each family run back to back: four
# lambda-bar of each triangle case for routes B and C at N = 8
FAMILY_TRIANGLES = {"p3-triangle": ((1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 1, 2)),
                    "p5-triangle": ((1, 1, 1), (2, 1, 3), (4, 3, 1), (3, 3, 2))}


def family_entries():
    """{name: outcome} for the family grid, from the tree on the path, each
    family run back to back in this one process, so that a table kept from
    one coefficient choice and read by the next shows: route_a_record on
    all 16 coefficient pairs of p5-kloosterman at N = 4, then
    route_c_record on the four coefficient choices of each case of
    FAMILY_TRIANGLES at N = 8."""
    from unitroots.battery import BATTERY
    cases = {c["id"]: c for c in BATTERY}
    out = {}
    for c1, c2 in itertools.product(range(1, 5), repeat=2):
        case = dict(cases["p5-kloosterman"], coeffs=((c1,), (c2,)))
        out[f"p5-kloosterman:{c1},{c2}:N4"] = outcome(lambda: route_a_record(case, 4))
    for cid, choices in FAMILY_TRIANGLES.items():
        for coeffs in choices:
            case = dict(cases[cid], coeffs=tuple((c,) for c in coeffs))
            out[f"{cid}:{coeffs}:N8"] = outcome(lambda: route_c_record(case, 8))
    return out


LIMB_PRIMES = (2, 3, 5, 7, 31)
LIMB_DIMS = (1, 9, 40, 361, 1500)
LIMB_TOP = 2 ** 15


def limb_entries():
    """{name: outcome} for the limb-layout grid, from the tree on the path:
    for p in LIMB_PRIMES and every N whose p^N the int64 rule accepts, the
    runs of K in [1, LIMB_TOP] of one limb width as [first K, last K,
    limb_digits, product_limbs], each run's end found by bisection (the
    width does not grow with K); slot_group(dim, S, p, N) on LIMB_DIMS for
    each slot count S in 1..12; and the int64 room unreduced_terms(p^N).
    Each function is read from padic where the tree defines it there, and
    from dwork otherwise."""
    from unitroots import dwork, padic

    limb_digits, product_limbs, slot_group, int64_exact, unreduced_terms = (
        getattr(padic, name, None) or getattr(dwork, name)
        for name in ("limb_digits", "product_limbs", "slot_group", "int64_exact",
                     "unreduced_terms"))

    def runs(p, N):
        out, K = [], 1
        while K <= LIMB_TOP:
            e, lo, hi = limb_digits(K, p, N), K, LIMB_TOP
            while lo < hi:
                mid = (lo + hi + 1) // 2
                lo, hi = (mid, hi) if limb_digits(mid, p, N) == e else (lo, mid - 1)
            out.append([K, lo, e, product_limbs(K, p, N)])
            K = lo + 1
        return out
    out = {}
    for p in LIMB_PRIMES:
        N = 1
        while int64_exact(p ** N):
            name = f"p{p}:N{N}"
            out[f"{name}:runs"] = outcome(lambda: runs(p, N))
            out[f"{name}:room"] = outcome(lambda: unreduced_terms(p ** N))
            for S in range(1, 13):
                out[f"{name}:S{S}:slot_group"] = outcome(
                    lambda: [slot_group(dim, S, p, N) for dim in LIMB_DIMS])
            N += 1
    return out


def lattice_sets():
    """The exponent sets of the lattice tests (tests/test_weights.py): the
    battery's, the simplex ((1,0,0),(0,1,0),(0,0,1),(-1,-1,-1)), and 50
    seeded draws of distinct vectors in [-3, 3]^n, n <= 3, every fifth in
    the hyperplane x_n = 0."""
    import random
    from unitroots.battery import EXPONENT_SETS
    sets = list(EXPONENT_SETS.values()) + [((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                             (-1, -1, -1))]
    rng = random.Random(20261019)
    for i in range(50):
        n = rng.randint(1, 3)
        vecs = {tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, n + 3))}
        if i % 5 == 0:
            vecs = {v[:-1] + (0,) for v in vecs}
        sets.append(tuple(sorted(vecs)))
    return sets


WEIGHT_WMAX = ("0", "1/2", "3/2", "4", "7")


def weight_record(vecs):
    """build_weight_data's facet_forms (as strings), cone_facets, D and
    lineality_basis, relation_lattice_basis, and the basis at each wmax of
    WEIGHT_WMAX, for one exponent set."""
    from fractions import Fraction
    from unitroots.weights import (ExponentSet, build_weight_data,
                                   enumerate_weighted_monomials,
                                   relation_lattice_basis)
    A = ExponentSet(len(vecs[0]), vecs)
    W = build_weight_data(A)
    rec = {"facet_forms": [list(map(str, form)) for form in W.facet_forms],
           "cone_facets": W.cone_facets, "D": W.D,
           "lineality_basis": W.lineality_basis,
           "relation_lattice_basis": relation_lattice_basis(A)}
    for wmax in WEIGHT_WMAX:
        rec[f"basis:{wmax}"] = enumerate_weighted_monomials(W, Fraction(wmax))
    return rec


def weight_entries():
    """{name: outcome} for the weight grid, from the tree on the path:
    weight_record on every set of lattice_sets(), or the NotSpanning or
    ValueError the set raises."""
    return {f"{i}:{vecs}": outcome(lambda: weight_record(vecs))
            for i, vecs in enumerate(lattice_sets())}


def dump(jobs):
    """{"entries": {name: outcome}, "garbage": {job name: objects}} for the
    jobs and the series, padic, oracle, route-A, digit, solution, route-C,
    ring, ring-array, windowed-product, kernel, family, limb-layout and
    weight grids, run by the tree on the path."""
    out, garbage = {}, {}
    for name, config in jobs:
        out[name], garbage[name] = report_outcome(config)
    out.update((f"series:{name}", value) for name, value in series_entries().items())
    out.update((f"padic:{name}", value) for name, value in padic_entries().items())
    out.update((f"oracle:{name}", value) for name, value in oracle_entries().items())
    out.update((f"route_a:{name}", value) for name, value in route_a_entries().items())
    out.update((f"digits:{name}", value) for name, value in digit_entries().items())
    out.update((f"solutions:{name}", value) for name, value in solution_entries().items())
    out.update((f"route_c:{name}", value) for name, value in route_c_entries().items())
    out.update((f"ring:{name}", value) for name, value in ring_entries().items())
    out.update((f"ring_array:{name}", value)
               for name, value in ring_array_entries().items())
    out.update((f"window:{name}", value) for name, value in window_entries().items())
    out.update((f"kernel:{name}", value) for name, value in kernel_entries().items())
    out.update((f"family:{name}", value) for name, value in family_entries().items())
    out.update((f"limbs:{name}", value) for name, value in limb_entries().items())
    out.update((f"weights:{name}", value) for name, value in weight_entries().items())
    return {"entries": out, "garbage": garbage}


def key_changes(a, b, path=""):
    """[(mark, dotted path)] of the keys added (+), removed (-) or whose
    value changed (~) from a to b, descending into dicts only."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [("~", path)]
    out = []
    for key in sorted(a.keys() | b.keys()):
        sub = f"{path}.{key}" if path else key
        if key not in b:
            out.append(("-", sub))
        elif key not in a:
            out.append(("+", sub))
        else:
            out += key_changes(a[key], b[key], sub)
    return out


def in_tree(root, mode, stdin=None):
    """Run this script in `mode` with root's sources first on the path."""
    root = Path(root).resolve()
    path = [str(root / "src"), str(root / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    script = str(Path(__file__).resolve())
    done = subprocess.run([sys.executable, script, mode], env=env, input=stdin,
                          capture_output=True, text=True, cwd=root)
    if done.returncode:
        sys.exit(f"{mode} failed in {root}:\n{done.stderr}")
    return done.stdout


def main(argv):
    if argv in (["--list"], ["--dump"]):
        import unitroots
        here = Path(unitroots.__file__).resolve()
        if not here.is_relative_to(Path.cwd() / "src"):
            sys.exit(f"imported unitroots from {here}, not from {Path.cwd()}")
    if argv == ["--list"]:
        print(json.dumps(list_jobs()))
        return 0
    if argv == ["--dump"]:
        print(json.dumps(dump(json.load(sys.stdin)), sort_keys=True))
        return 0
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(in_tree(root, "--dump", in_tree(root, "--list")))
            for root in argv)
    for root, side in zip(argv, (a, b)):
        left = [k for k in side["garbage"].values() if k]
        print(f"{root}: {len(left)} of {len(side['garbage'])} jobs left cyclic "
              f"garbage, {sum(left)} objects")
    a, b = a["entries"], b["entries"]
    names = sorted(a.keys() | b.keys())
    differ = [name for name in names if a.get(name) != b.get(name)]
    tally = collections.Counter()
    for name in differ:
        if name not in a or name not in b:
            print(f"differs: {name} (only in {argv[name in b]})")
            continue
        print(f"differs: {name}")
        for mark, path in key_changes(a[name], b[name]):
            print(f"  {mark} {path}")
            tally[mark, path] += 1
    for (mark, path), count in sorted(tally.items(), key=lambda kv: kv[0][::-1]):
        print(f"{mark} {path}: {count} entries")
    kinds = {"series": "series entries", "padic": "padic entries",
             "oracle": "oracle entries", "route_a": "route-A entries",
             "digits": "digit_solutions entries", "solutions": "solution entries",
             "route_c": "route-C entries",
             "ring": "ring entries", "ring_array": "ring-array entries",
             "window": "windowed-product entries",
             "kernel": "kernel entries", "family": "family entries",
             "limbs": "limb-layout entries",
             "weights": "weight entries"}
    for kind in ("reports", *kinds.values()):
        total = [n for n in names if kinds.get(n.split(":")[0], "reports") == kind]
        same = [n for n in total if n not in differ]
        print(f"{len(same)} of {len(total)} {kind} match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
