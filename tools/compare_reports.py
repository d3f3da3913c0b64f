"""Compare the reports of two source trees, timing aside.

    python tools/compare_reports.py ROOT_A ROOT_B

Runs one subprocess per tree, with that tree's `src` first on the path, over
one job set:
- every job of both benchmark workloads (`perfbench/workloads.py`) at seeds
  0, 3 and 7;
- routes B and C at N = 8 on all 26 battery cases;
- routes B, C and the oracle at N = 4 on the battery's quick cases.

The job list is built once, from ROOT_A, and both trees run the same
configs.  A job matches when `Report.without_timing()` is equal and the
`timing` block has the same keys; a job that raises records its exception.

Route A reaches no series code, so the same subprocess also dumps a fixed
series grid (`series_entries`): `calF_series` digits, `route_a_once`
digits, and the results of `check_annihilators` and
`generating_identity_check`.  The oracle, the one caller of `zeta_p`, runs
only at N = 4 here, so it also dumps a padic grid (`padic_entries`):
`zeta_p` digits up to N = 20.  The jobs reach the oracle only on battery
coefficients at N = 4, so it also dumps an oracle grid (`oracle_entries`):
`char_sum` counts and method past them.  Prints each report, series, padic
or oracle entry that differs and exits 1 if any does, else 0.

Each job runs with the cyclic collector off, and `gc.collect()` is read
right after it: for each tree the script also prints how many jobs left
cyclic garbage and how many objects in all.  That line does not change the
exit code.
"""

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
    return jobs


def outcome(fn):
    """fn()'s value, or the exception it raises: that is an outcome too."""
    try:
        return fn()
    except Exception as exc:
        return {"raised": f"{type(exc).__name__}: {exc}"}


def report_outcome(config):
    """(the job's outcome, the objects gc.collect() finds right after it),
    the job run with the cyclic collector off.  Only runner.run is inside
    that window: Report.to_json's indenting encoder leaves a cycle of its
    own."""
    from unitroots import runner
    gc.collect()
    gc.disable()
    try:
        rep = outcome(lambda: runner.run(config))
        garbage = gc.collect()
    finally:
        gc.enable()
    if isinstance(rep, runner.Report):
        rep = {"report": rep.without_timing(),
               "timing_keys": sorted(rep.data["timing"])}
    return rep, garbage


def series_entries():
    """{name: outcome} for the series grid, from the tree on the path:
    - calF_series digits on every battery exponent set, p in {2, 3, 5},
      N in {2, 4, 6}, degree in {8, 20, 40};
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
    for (name, A), p, N, degree in itertools.product(
            sets.items(), (2, 3, 5), (2, 4, 6), (8, 20, 40)):
        ring = make_ring(p, 1, None, N)
        out[f"calF:{name}:p{p}:N{N}:d{degree}"] = outcome(
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
    the last p - 1; the first the generator (0, 1) of F_{p^2}."""
    from unitroots import hyperg, oracle
    from unitroots.battery import EXPONENT_SETS
    from unitroots.weights import ExponentSet
    sets = dict(EXPONENT_SETS, fallback=((1, 0), (0, 1), (2, 2)),
                simplex3=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))
    out = {}
    for (name, vecs), p in itertools.product(sets.items(), (2, 3, 5)):
        A = ExponentSet(len(vecs[0]), vecs)
        ones = ((1,),) * len(vecs)
        choices = {"ones": (1, ones), "zero": (1, ((0,),) + ones[1:]),
                   "fp-in-fp2": (2, ones[:-1] + ((p - 1,),)),
                   "gen-fp2": (2, ((0, 1),) + ones[1:])}
        for choice, (m, coeffs) in choices.items():
            spec = hyperg.LaurentSpec(A, p, m, 1, coeffs)
            tower = oracle.FqTower(spec)
            l = 1
            while (p ** (tower.base_degree * l) - 1) ** A.n <= 10 ** 6:
                out[f"{name}:{choice}:p{p}:l{l}"] = outcome(
                    lambda: dataclasses.asdict(oracle.char_sum(spec, l, tower)))
                l += 1
    return out


def dump(jobs):
    """{"entries": {name: outcome}, "garbage": {job name: objects}} for the
    jobs and the series, padic and oracle grids, run by the tree on the
    path."""
    out, garbage = {}, {}
    for name, config in jobs:
        out[name], garbage[name] = report_outcome(config)
    out.update((f"series:{name}", value) for name, value in series_entries().items())
    out.update((f"padic:{name}", value) for name, value in padic_entries().items())
    out.update((f"oracle:{name}", value) for name, value in oracle_entries().items())
    return {"entries": out, "garbage": garbage}


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
    jobs = in_tree(argv[0], "--list")
    a, b = (json.loads(in_tree(root, "--dump", jobs)) for root in argv)
    for root, side in zip(argv, (a, b)):
        left = [k for k in side["garbage"].values() if k]
        print(f"{root}: {len(left)} of {len(side['garbage'])} jobs left cyclic "
              f"garbage, {sum(left)} objects")
    a, b = a["entries"], b["entries"]
    names = sorted(a.keys() | b.keys())
    differ = [name for name in names if a.get(name) != b.get(name)]
    for name in differ:
        print(f"differs: {name}")
    kinds = {"series": "series entries", "padic": "padic entries",
             "oracle": "oracle entries"}
    for kind in ("reports", *kinds.values()):
        total = [n for n in names if kinds.get(n.split(":")[0], "reports") == kind]
        same = [n for n in total if n not in differ]
        print(f"{len(same)} of {len(total)} {kind} match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
