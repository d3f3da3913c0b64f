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
Prints each job that differs and exits 1 if any does, else 0.
"""

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


def dump(jobs):
    """{name: outcome} for the jobs, run by the tree on the path."""
    from unitroots import runner
    out = {}
    for name, config in jobs:
        try:
            rep = runner.run(config)
            out[name] = {"report": rep.without_timing(),
                         "timing_keys": sorted(rep.data["timing"])}
        except Exception as exc:  # a raise is an outcome to compare too
            out[name] = {"raised": f"{type(exc).__name__}: {exc}"}
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
    jobs = in_tree(argv[0], "--list")
    a, b = (json.loads(in_tree(root, "--dump", jobs)) for root in argv)
    differ = [name for name, _ in json.loads(jobs) if a[name] != b[name]]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(a) - len(differ)} of {len(a)} jobs match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
