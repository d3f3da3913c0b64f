"""Regenerate perfbench/golden.json: redraw pools and golden records.

    python3 perfbench/make_golden.py

For every workload case this computes the golden record of the battery
coefficients, then tries deterministic candidate redraws in a fixed order
and keeps up to POOL_EXTRA of them.  A candidate is kept only when its
job passes (exit code 0, every route agreeing on all digits) and its cost
drivers equal the battery case's: orbit degree, route-A degree cap, route-B
cycle count, basis size and Fredholm cap.  Run it only when the program's
digits are meant to change; it takes several minutes.
"""

import itertools
import json
import random
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from unitroots import run  # noqa: E402
from unitroots.hyperg import LaurentSpec  # noqa: E402
from unitroots.oracle import orbit_degree  # noqa: E402
from unitroots.weights import ExponentSet  # noqa: E402

import workloads as wl  # noqa: E402

POOL_EXTRA = 2
MAX_CANDIDATES = 6


def cost_drivers(report):
    d = report.data
    return {
        "orbit": d["orbit"]["length"],
        "basis": d["truncation"]["basis_size"],
        "cap": d["truncation"]["charpoly_degree_cap"],
        "degmax_used": d["routes"].get("A", {}).get("degmax_used"),
        "cycles": d["routes"].get("B", {}).get("cycles"),
    }


def candidates(case):
    """Coefficient tuples with the case's orbit degree, in a seeded order."""
    p, m = case["p"], case["field_degree"]
    A = ExponentSet(len(case["A"][0]), case["A"])
    elems = [e for e in itertools.product(range(p), repeat=m) if any(e)]
    combos = list(itertools.product(elems, repeat=len(case["A"])))
    random.Random(zlib.crc32(case["id"].encode())).shuffle(combos)
    want = case["expected_d"]
    for coeffs in combos:
        spec = LaurentSpec(A, p, m, 1, coeffs)
        if orbit_degree(spec) == want and coeffs != tuple(
                tuple(c) + (0,) * (m - len(c)) for c in case["coeffs"]):
            yield tuple(tuple(c) for c in coeffs)


def build(workload, golden):
    spec = wl.WORKLOADS[workload]
    pools = golden["pools"].setdefault(workload, {})
    for cid in spec["cases"]:
        case = wl.CASES[cid]
        base = wl.make_job(cid, spec)
        report = run(base["config"])
        assert report.exit_code == 0, (cid, report.data["errors"])
        golden["jobs"][base["key"]] = wl.golden_record(report)
        want = cost_drivers(report)
        pool = [[list(c) for c in case["coeffs"]]]
        if cid not in wl.FIXED_COEFFS:
            for coeffs in itertools.islice(candidates(case), MAX_CANDIDATES):
                job = wl.make_job(cid, spec, coeffs)
                rep = run(job["config"])
                if rep.exit_code == 0 and cost_drivers(rep) == want:
                    golden["jobs"][job["key"]] = wl.golden_record(rep)
                    pool.append([list(c) for c in coeffs])
                if len(pool) > POOL_EXTRA:
                    break
        pools[cid] = pool
        print(workload, cid, f"pool {len(pool)}", want, flush=True)


def main():
    golden = {"pools": {}, "jobs": {}}
    for workload in sorted(wl.WORKLOADS):
        build(workload, golden)
        wl.GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":"))
                        + "\n")


if __name__ == "__main__":
    main()
