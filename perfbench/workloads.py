"""Workload definitions, seeded job generation and the golden-output check.

A workload is a list of battery cases run at one precision through a fixed
set of routes.  Seed 0 runs the cases in battery order with the battery's
own coefficients.  Any other seed shuffles the order and redraws each
case's coefficients from a small pool stored in `golden.json`; every pool
member has the same prime, exponent set, field degree and orbit degree as
the battery case, and the same route-A degree cap, route-B cycle count and
Fredholm cap, so a redraw changes digits but not the amount of work.
Every pool member has stored golden digits, so every job on every seed is
checked exactly.
"""

import json
import random
from pathlib import Path

from unitroots.battery import BATTERY, DEGENERATE_BATTERY, job_dict

GOLDEN_PATH = Path(__file__).with_name("golden.json")

CASES = {c["id"]: c for c in BATTERY + DEGENERATE_BATTERY}

# The two degenerate cases are defined by their coefficients (a double root
# of the edge polynomial), so they are never redrawn.
FIXED_COEFFS = {c["id"] for c in DEGENERATE_BATTERY}

WORKLOADS = {
    "battery-n4": {
        "cases": list(CASES),
        "precision": 4,
        "routes": ("A", "B", "C", "oracle"),
        "lmax": 6,
        "job_limit_s": 60.0,
    },
    "operators-n8": {
        "cases": ["p3-triangle", "p5-triangle", "p5-triangle-f25",
                  "p3-edge-degenerate", "p5-edge-degenerate"],
        "precision": 8,
        "routes": ("B", "C"),
        "lmax": 6,
        "job_limit_s": 60.0,
    },
}

# Reach probes: jobs beyond today's precision ceiling (routes B/C raise at
# N = 12 from the exact-matmul guard).  They run after the timed passes of
# operators-n8 and are reported on their own, never in the timings.
PROBES = {
    "operators-n8": {
        "cases": ["p2-kloosterman", "p3-kloosterman", "p5-kloosterman"],
        "precision": 12,
        "routes": ("B", "C"),
        "lmax": 6,
        "job_limit_s": 30.0,
    },
}


def job_key(case_id, spec, coeffs):
    """Golden-store key of one job: case, precision, routes, coefficients."""
    return "|".join([case_id, f"N{spec['precision']}", ",".join(spec["routes"]),
                     json.dumps([list(c) for c in coeffs])])


def make_job(case_id, spec, coeffs=None):
    case = CASES[case_id]
    if coeffs is not None:
        case = dict(case, coeffs=tuple(tuple(c) for c in coeffs))
    cfg = job_dict(case, precision=spec["precision"], routes=spec["routes"],
                   lmax=spec["lmax"])
    return {"case": case_id, "key": job_key(case_id, spec, case["coeffs"]),
            "config": cfg}


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def generate(workload, seed, golden):
    """The ordered job list of one workload pass for a seed."""
    spec = WORKLOADS[workload]
    cases = list(spec["cases"])
    if seed == 0:
        return [make_job(c, spec) for c in cases]
    rng = random.Random(f"{workload}:{seed}")
    pools = golden["pools"][workload]
    jobs = []
    for c in cases:
        coeffs = None if c in FIXED_COEFFS else rng.choice(pools[c])
        jobs.append(make_job(c, spec, coeffs))
    rng.shuffle(jobs)
    return jobs


def probes(workload):
    spec = PROBES[workload]
    return [make_job(c, spec) for c in spec["cases"]]


def golden_record(report):
    """The checked part of a report: unit-root digits and oracle counts."""
    data = report.data
    rec = {name: route["unit_root"] for name, route in data["routes"].items()}
    if "oracle" in data:
        rec["oracle"] = [row["counts"] for row in data["oracle"]["rows"]]
    return rec


def check(report, expected, precision):
    """Reasons the report fails the gate; empty when it passes.

    The gate: exit code 0, every requested route agreeing on at least
    `precision` digits, and unit-root digit matrices and oracle count rows
    equal to the stored golden record.
    """
    problems = []
    data = report.data
    if report.exit_code != 0:
        problems.append(f"exit_code {report.exit_code}: {data.get('errors')}")
    digits = data.get("agreement", {}).get("digits")
    if digits is not None and digits < precision:
        problems.append(f"routes agree on {digits} < {precision} digits")
    if expected is None:
        problems.append("no golden record for this job")
        return problems
    got = golden_record(report)
    for name in sorted(set(expected) | set(got)):
        if expected.get(name) != got.get(name):
            problems.append(f"{name} differs from the golden record")
    return problems
