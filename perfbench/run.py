"""Closed-loop benchmark of `unitroots.runner.run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  One process sends one job at a time and starts the next only when
the previous one returns, the same traffic as `unitroots check`.  It runs
whole workload passes until S seconds have gone by (at least one pass) and
checks every job against perfbench/golden.json.

--trace 0 prints the end-to-end metrics: wall_s (seconds per pass, the sum
over jobs of each job's median time over the passes; a failed or over-limit
job counts at the per-job limit), ok_frac (jobs that passed every check /
jobs attempted), setup_s (median, over several fresh processes, of the time
from process start until the first timed job is ready) and peak_rss_mb.
--trace 1 runs the same passes with spans and counters installed and prints
the per-layer metrics and the layer microbenchmarks; when an untraced run of
the same source, workload and seed is recorded in .perfbench/, it also
prints the tracing overhead.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

import os

# One BLAS thread: the float64 products are small and a shared two-core
# machine makes a threaded BLAS noisy.  Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
RESULTS = WORK / "results.jsonl"
SETUP_SAMPLES = 15
WARMUP_CASE = "p3-kloosterman"


def plain_call(tag, cfg):
    return runner.run(cfg)


# --- set-up ----------------------------------------------------------------

def prepare(workload, seed):
    """Golden store, job list and warm-up: the set-up that setup_s times."""
    spec = workloads.WORKLOADS[workload]
    golden = workloads.load_golden()
    jobs = workloads.generate(workload, seed, golden)
    warm = workloads.make_job(WARMUP_CASE, dict(spec, precision=2, lmax=2))
    if runner.run(warm["config"]).exit_code != 0:
        raise SystemExit("warm-up job failed")
    return golden, jobs


def setup_probe(args):
    """Child process: set up, report the monotonic clock when ready, exit."""
    prepare(args.workload, args.seed)
    print(json.dumps({"ready": time.monotonic()}), flush=True)


def setup_samples(args, n):
    """Set-up times of n fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=120, check=True)
        # CLOCK_MONOTONIC is shared by every process on the machine
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - t0)
    return samples


# --- metadata and records ----------------------------------------------------

def metadata():
    sha = ""
    if (ROOT / ".git").exists():   # a plain source checkout has no SHA
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 text=True, capture_output=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unitroots").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "git_sha": sha or None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "loadavg": os.getloadavg(),
    }


def record(meta, workload, seed, wall):
    """Append an untraced wall_s, keyed on the source, workload and seed."""
    with RESULTS.open("a") as fh:
        fh.write(json.dumps({"src_sha256": meta["src_sha256"], "workload": workload,
                             "seed": seed, "wall_s": wall}) + "\n")


def recorded_walls(meta, workload, seed):
    """Untraced wall_s of earlier runs of this source, workload and seed."""
    if not RESULTS.exists():
        return []
    key = (meta["src_sha256"], workload, seed)
    return [r["wall_s"] for r in map(json.loads, RESULTS.read_text().splitlines())
            if (r["src_sha256"], r["workload"], r["seed"]) == key]


def run_probes(workload):
    """Reach probes: (passed, failed).

    No golden digits exist beyond the precision ceiling, so a probe passes
    on exit code 0 and full route agreement alone.
    """
    spec = workloads.PROBES[workload]
    passed = failed = 0
    for job in workloads.probes(workload):
        _, problems, _ = loop.run_job(job, spec, runner.run,
                                      workloads.golden_record)
        if problems:
            failed += 1
            print(f"probe {job['key']}: {'; '.join(problems)}", file=sys.stderr)
        else:
            passed += 1
    return passed, failed


def with_computed(row, computed):
    """The traced row plus the computed kernel counts.

    The computed counts rest on the computed product count, so a count that
    differs from the measured dwork.matmul.calls stops the run instead of
    publishing them.
    """
    computed = dict(computed)
    calls = computed.pop("computed.matmul.calls")
    if calls != row["dwork.matmul.calls"]:
        raise SystemExit(f"computed product count {calls} differs from "
                         f"dwork.matmul.calls {row['dwork.matmul.calls']}: "
                         f"computed_counts in tracing.py no longer models "
                         f"the program")
    return {**row, **computed}


# --- modes -------------------------------------------------------------------

def untraced(args, spec, meta):
    # Half the set-up samples are taken before the timed passes and half
    # after, so that their median spans the run and not only its first
    # seconds: the speed of a shared machine drifts over tens of seconds.
    samples = setup_samples(args, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    golden, jobs = prepare(args.workload, args.seed)
    times, walls, attempted, failed, _ = loop.run_passes(
        jobs, golden, spec, args.seconds, plain_call)
    samples += setup_samples(args, SETUP_SAMPLES // 2)
    wall = sum(times)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record(meta, args.workload, args.seed, wall)
    print(f"passes {len(walls)}  wall_s per pass {[round(w, 3) for w in walls]}")
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    return attempted, failed, {
        "wall_s": wall,
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(samples),
        "peak_rss_mb": peak,
    }


def traced(args, spec, meta):
    import micro
    from tracing import Tracer, computed_counts

    golden, jobs = prepare(args.workload, args.seed)
    tracer = Tracer()
    marks = []

    def call(tag, cfg):
        if tag.endswith(":0"):
            marks.append(tracer.mark())
        return tracer.run_job(tag, runner.run, cfg)
    tracer.install()
    try:
        times, _, attempted, failed, per_pass = loop.run_passes(
            jobs, golden, spec, args.seconds, call)
        marks.append(tracer.mark())
    finally:
        tracer.uninstall()

    rows = []
    for i, reports in enumerate(per_pass):
        row = tracer.aggregate(marks[i], marks[i + 1])
        rows.append(with_computed(row, computed_counts(reports)))
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    char_sum_s = metrics["oracle.char_sum.s"]
    metrics["oracle.points_per_s"] = \
        metrics["oracle.points"] / char_sum_s if char_sum_s else 0.0
    metrics["trace.wall_s"] = sum(times)
    metrics.update(micro.run_all(WORK / f"micro-cache-{os.getpid()}"))
    passed, bad = run_probes(args.workload) \
        if args.workload in workloads.PROBES else (0, 0)
    metrics["reach.n12.ok"] = passed
    metrics["reach.n12.failed"] = bad
    walls = recorded_walls(meta, args.workload, args.seed)
    if walls:
        print(f"trace overhead_s {sum(times) - statistics.median(walls):.6g} s "
              f"(traced wall_s minus the median untraced wall_s of {len(walls)} "
              f"recorded runs of this source, workload and seed)")
    else:
        print("trace overhead_s: no untraced run of this source, workload and "
              "seed is recorded in .perfbench/; run with --trace 0 first")
    tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json", meta)
    return attempted, failed, metrics


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "unitroots" / "__init__.py").is_file():
        print("run from the root of a unitroots checkout (no src/unitroots here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    global loop, runner, workloads
    import loop
    import workloads
    from unitroots import runner
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0

    spec = workloads.WORKLOADS[args.workload]
    meta = metadata()
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        attempted, failed, metrics = traced(args, spec, meta)
    else:
        attempted, failed, metrics = untraced(args, spec, meta)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
