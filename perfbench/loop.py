"""The closed loop: one checked job at a time, whole passes, time limits.

A job that raises, returns a non-zero exit code, misses its golden record or
runs past its time limit is a failed job and is charged at the limit, never
as fast.  No job starts later than HARD_DEADLINE_S after the process
started, so a run always ends in time to report.
"""

import signal
import statistics
import sys
import time
from contextlib import contextmanager

import workloads

HARD_DEADLINE_S = 165.0
STARTED = time.monotonic()


class JobTimeout(BaseException):
    """Raised inside a job that exceeds its time limit.

    A BaseException, so that no `except Exception` in the program can
    swallow it.
    """


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise JobTimeout()
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_job(job, spec, call, expected):
    """(charged seconds, problems, report or None) of one checked job.

    expected(report) gives the record the report must match.
    """
    remaining = HARD_DEADLINE_S - (time.monotonic() - STARTED)
    limit = spec["job_limit_s"]
    if remaining <= 1.0:
        return limit, ["not started: run deadline reached"], None
    report = None
    t0 = time.perf_counter()
    try:
        with time_limit(min(limit, remaining)):
            report = call(job["config"])
    except JobTimeout:
        problems = [f"exceeded {min(limit, remaining):.0f} s"]
    except Exception as exc:  # any failure of the program is a failed job
        problems = [f"raised {type(exc).__name__}: {exc}"]
    else:
        problems = workloads.check(report, expected(report), spec["precision"])
    elapsed = time.perf_counter() - t0
    return (limit if problems else elapsed), problems, report


def run_pass(jobs, golden, spec, call, tag):
    """One closed-loop pass: (charged seconds per job, failures, reports)."""
    times, failures, reports = [], 0, []
    for i, job in enumerate(jobs):
        charged, problems, report = run_job(
            job, spec, lambda cfg: call(f"{tag}:{i}", cfg),
            lambda report: golden["jobs"].get(job["key"]))
        times.append(charged)
        if problems:
            failures += 1
            print(f"FAILED {job['key']}: {'; '.join(problems)}", file=sys.stderr)
        else:
            reports.append(report.data)
    return times, failures, reports


def run_passes(jobs, golden, spec, seconds, call):
    """Whole passes until `seconds` have elapsed; at least one.

    Returns (each job's median time over the passes, pass walls,
    attempted, failed, passing reports per pass).  wall_s sums the job
    medians, so a burst of machine noise in one pass moves it less than it
    moves a median of pass sums.
    """
    per_job, walls, per_pass = [[] for _ in jobs], [], []
    attempted = failed = 0
    t0 = time.monotonic()
    while True:
        times, failures, reports = run_pass(jobs, golden, spec, call,
                                            f"pass{len(walls)}")
        for acc, t in zip(per_job, times):
            acc.append(t)
        walls.append(sum(times))
        attempted += len(jobs)
        failed += failures
        per_pass.append(reports)
        elapsed = time.monotonic() - t0
        left = HARD_DEADLINE_S - (time.monotonic() - STARTED)
        if elapsed >= seconds or left < 2 * elapsed / len(walls):
            medians = [statistics.median(ts) for ts in per_job]
            return medians, walls, attempted, failed, per_pass
