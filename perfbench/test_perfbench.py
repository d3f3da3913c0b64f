"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py
"""

import copy
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import loop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, computed_counts  # noqa: E402
from unitroots import dwork, padic, runner  # noqa: E402
from unitroots.battery import BATTERY, DEGENERATE_BATTERY  # noqa: E402

GOLDEN = workloads.load_golden()
SPEC = workloads.WORKLOADS["battery-n4"]


def _plain(tag, cfg):
    return runner.run(cfg)


def test_flipped_golden_digit_is_a_failed_job():
    job = workloads.make_job("p3-kloosterman", SPEC)
    times, failures, _ = loop.run_pass([job], GOLDEN, SPEC, _plain, "t")
    assert failures == 0

    flipped = copy.deepcopy(GOLDEN)
    digits = flipped["jobs"][job["key"]]["C"]
    digits[0][0] = (digits[0][0] + 1) % 3 ** SPEC["precision"]
    times, failures, _ = loop.run_pass([job], flipped, SPEC, _plain, "t")
    assert failures == 1
    assert times == [SPEC["job_limit_s"]]   # charged at the limit


def test_job_over_its_limit_is_a_failed_job():
    spec = dict(SPEC, job_limit_s=0.2)
    job = workloads.make_job("p3-kloosterman", spec)
    times, failures, _ = loop.run_pass(
        [job], GOLDEN, spec, lambda tag, cfg: time.sleep(5), "t")
    assert failures == 1
    assert times == [0.2]


def test_seed_zero_is_the_battery_in_order():
    jobs = workloads.generate("battery-n4", 0, GOLDEN)
    cases = BATTERY + DEGENERATE_BATTERY
    assert [j["case"] for j in jobs] == [c["id"] for c in cases]
    assert [j["config"]["coeffs"] for j in jobs] == \
        [[list(x) for x in c["coeffs"]] for c in cases]


def test_every_seed_is_deterministic_and_fully_golden():
    for name in workloads.WORKLOADS:
        for seed in range(12):
            jobs = workloads.generate(name, seed, GOLDEN)
            assert jobs == workloads.generate(name, seed, GOLDEN)
            assert all(j["key"] in GOLDEN["jobs"] for j in jobs), (name, seed)
            assert sorted(j["case"] for j in jobs) == \
                sorted(workloads.WORKLOADS[name]["cases"])


def test_computed_products_match_traced_kernel_calls():
    tracer = Tracer()
    jobs = [workloads.make_job(c, SPEC) for c in ("p3-kloosterman-f9", "p2-skew")]
    tracer.install()
    try:
        start = tracer.mark()
        reports = [tracer.run_job(str(i), runner.run, j["config"]).data
                   for i, j in enumerate(jobs)]
        row = tracer.aggregate(start, tracer.mark())
    finally:
        tracer.uninstall()
    computed = computed_counts(reports)
    assert computed["computed.matmul.calls"] == row["dwork.matmul.calls"] > 0
    assert row["padic.mul.calls"] > 0
    assert row["runner.route_b.s"] > 0 and row["runner.route_c.s"] > 0


def test_computed_counts_are_refused_when_the_product_count_differs():
    row = {"dwork.matmul.calls": 4}
    computed = {"computed.matmul.calls": 4, "dwork.matmul.macs": 100}
    assert run.with_computed(row, computed) == \
        {"dwork.matmul.calls": 4, "dwork.matmul.macs": 100}
    with pytest.raises(SystemExit):
        run.with_computed(row, dict(computed, **{"computed.matmul.calls": 5}))


def test_uninstall_restores_every_patched_name():
    before = (dwork._pair_products, dwork.OperatorData.kernel_table,
              padic.RingElem.__mul__, runner._reduced_operator)
    tracer = Tracer()
    tracer.install()
    assert dwork._pair_products is not before[0]
    tracer.uninstall()
    assert (dwork._pair_products, dwork.OperatorData.kernel_table,
            padic.RingElem.__mul__, runner._reduced_operator) == before
