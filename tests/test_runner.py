"""Orchestration: config validation, reports, determinism, cache, CLI."""

import gc
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitroots import dwork, hyperg, oracle, runner
from unitroots.battery import (BATTERY, DEGENERATE_BATTERY, EXPONENT_SETS,
                               QUICK_IDS, job_dict)
from unitroots.cli import main
from unitroots.errors import (CacheUnwritable, CompositeP, ConfigInvalid,
                              NonUnitDivision, NotSpanning)
from unitroots.hyperg import hyperg_coefficient_series
from unitroots.padic import RingSpec, make_ring
from unitroots.runner import JobConfig, run
from unitroots.weights import (ExponentSet, build_weight_data,
                               relation_lattice_basis)

CASES = {c["id"]: c for c in BATTERY + DEGENERATE_BATTERY}

KLOOSTER3 = {
    "p": 3, "A": [[1], [-1]], "coeffs": [[1], [1]],
    "precision": 4, "routes": ["A", "B", "C", "oracle"], "lmax": 6,
}


@pytest.fixture(scope="module")
def klooster_report():
    return run(dict(KLOOSTER3))


def test_config_validation_errors():
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({"p": 3})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "routes": ["X"]})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "coeffs": [[1]]})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "epsilon": 2})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "unknown_key": 1})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "n": 2})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "epsilon": 0})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "field_degree": 0})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "coeffs": [[1, 1], [1]]})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "A": [], "coeffs": []})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "field_degree": 2,
                             "field_poly": [1, 0, 2]})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "field_degree": 2,
                             "field_poly": [1, 1]})
    with pytest.raises(ConfigInvalid):
        run({**KLOOSTER3, "wmax": -1, "routes": ["B"]})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "lmax": 0, "routes": ["B"]})
    with pytest.raises(ConfigInvalid):
        JobConfig.from_dict({**KLOOSTER3, "lmax": 1})  # one sum, no ratio
    JobConfig.from_dict({**KLOOSTER3, "lmax": 1, "routes": ["B"]})
    # malformed values are ConfigInvalid, never a bare error or a silent cast
    for key in ("precision", "lmax", "degmax", "epsilon", "field_degree", "n"):
        with pytest.raises(ConfigInvalid):
            JobConfig.from_dict({**KLOOSTER3, key: "x"})
    for key, value in (("field_poly", "ab"), ("wmax", [1, 0]), ("wmax", "abc"),
                       ("wmax", [1, 2, 3]), ("wmax", 1.5), ("routes", 5),
                       ("routes", "BC"), ("precision", 4.7), ("precision", True),
                       ("override_enumeration_guard", "no"), ("output", True),
                       ("cache_dir", 5)):
        with pytest.raises(ConfigInvalid):
            JobConfig.from_dict({**KLOOSTER3, key: value})
    assert JobConfig.from_dict({**KLOOSTER3, "wmax": [9, 2]}).wmax == Fraction(9, 2)
    # a zero cap made route A compare the constant term with itself
    for degmax in (0, -5):
        with pytest.raises(ConfigInvalid):
            run({**KLOOSTER3, "routes": ["A"], "degmax": degmax})
    # p = 0 is not prime: the ring says so before the spec reduces mod p
    with pytest.raises(CompositeP):
        run({**KLOOSTER3, "p": 0})
    # below Dwork's bound N p^2/(p-1)^2, 9 here, routes B and C share a
    # truncated operator and agreed on wrong digits ([[34], [0]] at wmax 0,
    # [[43], [0]] at 1 and 2); 3 happens to be right but is not covered
    for wmax, routes in ((0, ["B", "C"]), (1, ["B", "C"]), (2, ["B", "C"]),
                         (3, ["B", "C"]), (3, ["B"]), (3, ["C"]), ([17, 2], ["C"])):
        with pytest.raises(ConfigInvalid, match="Dwork's bound"):
            run({**KLOOSTER3, "wmax": wmax, "routes": routes})


def test_unknown_route_on_a_built_config():
    """validate() rejects an unknown route however the config was built;
    a directly built JobConfig with one ran as an empty job."""
    with pytest.raises(ConfigInvalid, match="unknown routes"):
        run(JobConfig(p=3, A=((1,), (-1,)), coeffs=((1,), (1,)), routes=("X",)))


def test_job_leaves_no_ring_in_a_cycle():
    """With the cyclic collector off, a full A/B/C/oracle job leaves no
    RingSpec of its own alive: reference counting frees every ring it made,
    with its factorial memo."""
    def rings():
        return sum(isinstance(o, RingSpec) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = rings()  # the session's ring fixtures, if made
        rep = run(job_dict(CASES["p5-kloosterman"], precision=4, lmax=3))
        assert set(rep.data["routes"]) == {"A", "B", "C"} and "oracle" in rep.data
        assert not rep.data["errors"]
        assert rings() == before
    finally:
        gc.enable()


def _cyclic_garbage(fn):
    """The objects gc.collect() finds after fn() runs with the collector off."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


def test_jobs_leave_no_cyclic_garbage():
    """Reference counting frees all a job makes, route A's term lists
    included: its enumerators return without a closure cycle."""
    triangle = ExponentSet(2, EXPONENT_SETS["triangle"])
    ell = relation_lattice_basis(triangle)[0]
    assert _cyclic_garbage(
        lambda: run(job_dict(CASES["p5-skew"], precision=4, lmax=3))) == 0
    assert _cyclic_garbage(lambda: run(job_dict(
        CASES["p3-kloosterman"], precision=8, routes=("A",)))) == 0
    assert _cyclic_garbage(
        lambda: hyperg.check_annihilators(triangle, (0, 0), ell, 8, 3)) == 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4), max_leaves=10)
CONFIG_KEYS = sorted(set(JobConfig.__dataclass_fields__) | {"n", "bogus"})


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=4))
def test_from_dict_accepts_or_raises_config_invalid(overrides):
    # any JSON value under any key is either a valid config, which survives
    # a round trip through canonical(), or ConfigInvalid; never another error
    try:
        cfg = JobConfig.from_dict({**KLOOSTER3, **overrides})
    except ConfigInvalid:
        return
    canon = cfg.canonical()
    assert json.loads(json.dumps(canon)) == canon
    assert JobConfig.from_dict(canon).canonical() == canon
    for key in ("p", "epsilon", "field_degree", "precision", "lmax"):
        assert type(getattr(cfg, key)) is int
    assert cfg.degmax is None or (type(cfg.degmax) is int and cfg.degmax >= 1)
    assert cfg.precision >= 1 and cfg.lmax >= 1


def test_not_spanning_rejected():
    cfg = {"p": 3, "A": [[1, 0]], "coeffs": [[1]], "precision": 2}
    with pytest.raises((ConfigInvalid, NotSpanning)):
        run(cfg)


def test_report_fields(klooster_report):
    data = klooster_report.data
    assert data["schema_version"] == 1
    assert data["exit_code"] == 0
    assert data["agreement"]["digits"] >= 4
    assert set(data["routes"]) == {"A", "B", "C"}
    assert data["weights"]["D"] == 1
    assert data["orbit"] == {"d": 1, "epsilon": 1, "length": 1}
    assert data["routes"]["A"]["unit_root"] == [[16], [0]]
    assert data["routes"]["C"]["slope_zero_length"] == 1
    assert len(data["oracle"]["rows"]) == 6
    assert all(isinstance(ms, int) for ms in data["timing"].values())


def test_route_a_stopping_record(klooster_report):
    # Kloosterman has D = 1: one step per digit, compared with the step before
    route = klooster_report.data["routes"]["A"]
    assert route["weight_denominator"] == klooster_report.data["weights"]["D"] == 1
    assert route["stop_step"] == 4
    assert route["steps"][0] is None and len(route["steps"]) == 5
    assert route["steps"][-1] == route["stability_digits"] == 4
    assert route["degmax_used"] == 3 ** 5 - 1
    f0 = hyperg_coefficient_series(ExponentSet(1, ((1,), (-1,))), (0,),
                                   route["degmax_used"], make_ring(3, 1, None, 4))
    assert route["terms"] == len(f0.terms)


def test_route_a_steps_compare_d_apart():
    # skew has D = 2: the first comparison is at s = 2, the stop at s = 2N
    rep = run(job_dict(CASES["p3-skew"], routes=("A",)))
    route = rep.data["routes"]["A"]
    assert route["weight_denominator"] == 2
    assert route["stop_step"] == 8 and route["degmax_used"] == 3 ** 9 - 1
    assert route["steps"][:2] == [None, None]
    assert all(isinstance(d, int) for d in route["steps"][2:])
    assert route["steps"][-1] == 4


def test_report_is_deterministic(klooster_report):
    rep2 = run(dict(KLOOSTER3))
    assert klooster_report.without_timing() == rep2.without_timing()


def test_report_json_has_no_floats(klooster_report):
    def walk(obj):
        if isinstance(obj, float):
            raise AssertionError("float in report")
        if isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        if isinstance(obj, list):
            for v in obj:
                walk(v)
    walk(json.loads(klooster_report.to_json()))


def test_oracle_only_run():
    cfg = {**KLOOSTER3, "routes": ["oracle"], "lmax": 4}
    rep = run(cfg)
    assert rep.exit_code == 0
    assert "oracle" in rep.data and not rep.data["routes"]
    assert rep.data["agreement"]["digits"] is None
    assert "consensus_orders" not in rep.data["oracle"]


def test_output_written(tmp_path):
    out = tmp_path / "report.json"
    cfg = {**KLOOSTER3, "routes": ["B"], "output": str(out)}
    rep = run(cfg)
    assert json.loads(out.read_text()) == rep.data


def _operator(case_id):
    """A fresh OperatorData for the battery case at N = 4, as run() builds it."""
    cfg = JobConfig.from_dict(job_dict(CASES[case_id], routes=("B", "C")))
    ring = make_ring(cfg.p, cfg.field_degree, cfg.field_poly, cfg.precision)
    spec = cfg.laurent_spec()
    W = build_weight_data(spec.A)
    return dwork.OperatorData(spec, W, ring, runner.default_wmax(ring, W.D))


def _table(odata, oi):
    return dict(odata.kernel_table(oi).items())


# no job reads or writes the kernel cache; perfbench/micro.py times it


def test_cache_roundtrip(tmp_path):
    # p3-kloosterman-f9 has orbit length 2, so the cache holds two tables
    cache, cold = runner.KernelCache(tmp_path), _operator("p3-kloosterman-f9")
    for oi in range(2):
        cache.store(cold, oi)
    files = sorted(tmp_path.glob("kernel-*.json"))
    assert len(files) == 2
    warm = _operator("p3-kloosterman-f9")
    assert cache.load(warm, 0) and cache.load(warm, 1)
    assert [_table(warm, oi) for oi in range(2)] == [_table(cold, oi) for oi in range(2)]
    # a truncated file and a flipped digit are both misses: recomputed, rewritten
    files[0].write_text(files[0].read_text()[:100])
    text = files[1].read_text()
    i = text.index("[[", text.index('"table"')) + 2
    flipped = "8" if text[i] == "9" else str(int(text[i]) + 1)
    files[1].write_text(text[:i] + flipped + text[i + 1:])
    missed = _operator("p3-kloosterman-f9")
    assert not cache.load(missed, 0) and not cache.load(missed, 1)
    for oi in range(2):
        cache.store(missed, oi)
    assert sorted(tmp_path.iterdir()) == files
    warm = _operator("p3-kloosterman-f9")
    assert cache.load(warm, 0) and cache.load(warm, 1)
    assert [_table(warm, oi) for oi in range(2)] == [_table(cold, oi) for oi in range(2)]


def test_cache_entry_of_another_dimension_is_a_miss(tmp_path):
    # a well-formed entry with a valid checksum whose points have one
    # coordinate too many is a miss too: recomputed and rewritten, not a
    # broadcasting error in the gather
    cache = runner.KernelCache(tmp_path)
    cache.store(_operator("p3-kloosterman"), 0)
    [path] = tmp_path.glob("kernel-*.json")
    payload = {mu + ",0": rows
               for mu, rows in json.loads(path.read_text())["table"].items()}
    path.write_text(json.dumps({"table": payload,
                                "sha256": runner._digest(payload)}))
    odata = _operator("p3-kloosterman")
    assert not cache.load(odata, 0)
    cache.store(odata, 0)
    assert ",0" not in path.read_text()
    assert cache.load(_operator("p3-kloosterman"), 0)


def test_cache_dir_that_is_a_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    with pytest.raises(ConfigInvalid, match="cache_dir .*taken"):
        runner.KernelCache(path)


def test_cache_entry_that_is_a_directory(tmp_path):
    # the entry cannot be read, so it is a miss; it cannot be replaced
    # either, so storing the recomputed table fails naming the entry
    cache = runner.KernelCache(tmp_path)
    cache.store(_operator("p3-kloosterman"), 0)
    (entry,) = tmp_path.glob("kernel-*.json")
    entry.unlink()
    entry.mkdir()
    odata = _operator("p3-kloosterman")
    assert not cache.load(odata, 0)
    with pytest.raises(CacheUnwritable, match=entry.name):
        cache.store(odata, 0)
    assert sorted(tmp_path.iterdir()) == [entry]


def test_no_cache_option(tmp_path, capsys):
    # tables always come from the sweep: the config key and the flag are gone
    with pytest.raises(ConfigInvalid, match="unknown config keys.*cache_dir"):
        JobConfig.from_dict({**KLOOSTER3, "cache_dir": str(tmp_path)})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(KLOOSTER3))
    for argv in (["unit-root", "--config", str(cfg)], ["check", "--quick"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err
    assert not list(tmp_path.glob("kernel-*"))


def test_check_json_records(tmp_path, capsys):
    out = tmp_path / "check.json"
    assert main(["check", "--quick", "--lmax", "2", "--json", str(out)]) == 0
    records = json.loads(out.read_text())
    assert [r["id"] for r in records] == [c["id"] for c in BATTERY
                                          if c["id"] in QUICK_IDS]
    for r in records:
        assert set(r) == {"id", "exit_code", "agreement_digits", "errors", "timing"}
        assert (r["exit_code"], r["agreement_digits"], r["errors"]) == (0, 4, {})
        assert set(r["timing"]) == {"operator_tables_ms", "route_a_ms",
                                    "route_b_ms", "route_c_ms", "oracle_ms"}
    assert "6/6 battery cases passed" in capsys.readouterr().out


def test_check_prints_progress_to_stderr(capsys, monkeypatch):
    # one "[i/n] <case id>" line on stderr before each case, none on stdout
    ids = [c["id"] for c in BATTERY if c["id"] in QUICK_IDS]
    ran = []

    def fake_run(cfg):
        assert capsys.readouterr().err == f"[{len(ran) + 1}/6] {ids[len(ran)]}\n"
        ran.append(cfg)
        raise ConfigInvalid("not run")
    monkeypatch.setattr(runner, "run", fake_run)
    assert main(["check", "--quick", "--lmax", "2"]) == 1
    assert len(ran) == 6
    out = capsys.readouterr()
    assert out.err == "" and "[" not in out.out
    assert "0/6 battery cases passed" in out.out


def test_unwritable_report_path(tmp_path, capsys, monkeypatch):
    # a report path in a missing directory, or one that is a directory, is
    # ConfigInvalid (exit 2) naming the path, found before any table is
    # built or any route runs; check finds it before its first case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(KLOOSTER3))
    out = tmp_path / "missing" / "out.json"

    def too_early(*args, **kwargs):
        raise AssertionError("work began before the report path was checked")
    with monkeypatch.context() as patch:
        for name in ("OperatorData", "power_iteration_unit_root"):
            patch.setattr(dwork, name, too_early)
        patch.setattr(hyperg, "unit_root_route_A_detailed", too_early)
        patch.setattr(oracle, "char_sum_table", too_early)
        for path in (out, tmp_path):
            with pytest.raises(ConfigInvalid, match=re.escape(str(path))):
                run({**KLOOSTER3, "output": str(path)})
        # a writable path is only checked: a job that then raises leaves no file
        good = tmp_path / "rep.json"
        with pytest.raises(AssertionError, match="work began"):
            run({**KLOOSTER3, "output": str(good)})
        assert not good.exists()
    assert main(["unit-root", "--config", str(cfg), "--route", "b",
                 "--json", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConfigInvalid" in err and str(out) in err
    assert main(["check", "--quick", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert "ConfigInvalid" in captured.err and str(out) in captured.err
    assert captured.out == ""  # no case ran
    assert not out.parent.exists()


def test_matmul_limit_is_a_route_error():
    # route C divides by nothing, so it works at 5^12 beside route B, inside
    # the product kernel's int64 rule
    rep = run(job_dict(CASES["p5-triangle"], precision=12, routes=("B", "C")))
    assert rep.data["errors"] == {}
    assert rep.data["agreement"]["pairs"] == {"B-C": 12}
    assert rep.exit_code == 0
    # past 2^63 both routes fail the int64 rule: the runner records their
    # PrecisionTooLow before it builds any operator table
    rep = run(job_dict(CASES["p2-kloosterman"], precision=40, routes=("B", "C")))
    assert sorted(rep.data["errors"]) == ["B", "C"]
    assert all(e.startswith("PrecisionTooLow: p^N = ")
               for e in rep.data["errors"].values())


def test_routes_b_c_do_not_depend_on_the_route_set():
    # orbit length 2: route C composes both one-step matrices before route
    # B's dual cycles drop them, so each route reports the same whether it
    # runs alone, beside the other or beside route A and the oracle
    sets = [("B",), ("C",), ("B", "C"), ("A", "B", "C", "oracle")]
    reports = [run(job_dict(CASES["p3-kloosterman-f9"], routes=s)).data
               for s in sets]
    assert reports[2]["orbit"]["length"] == 2
    routes = [data["routes"] for data in reports]
    assert routes[2]["B"] == routes[0]["B"] == routes[3]["B"]
    assert routes[2]["C"] == routes[1]["C"] == routes[3]["C"]


def test_route_a_error_is_reported(monkeypatch):
    # any UnitRootError inside route A is recorded, not only
    # PrecisionUnstable, and the other routes still report
    def refuse(*args):
        raise NonUnitDivision("refused")
    monkeypatch.setattr(hyperg, "unit_root_route_A_detailed", refuse)
    rep = run(dict(KLOOSTER3))
    assert rep.data["errors"] == {"A": "NonUnitDivision: refused"}
    assert set(rep.data["routes"]) == {"B", "C"}
    assert "consensus_orders" in rep.data["oracle"]
    assert rep.exit_code == 1


@pytest.mark.parametrize("cid", ["p2-kloosterman", "p3-kloosterman"])
def test_routes_b_c_at_twelve_digits(cid):
    # both routes work at 2^12 and 3^12: route C needs no precision boost
    rep = run(job_dict(CASES[cid], precision=12, routes=("B", "C")))
    assert rep.data["truncation"]["charpoly_precision_boost"] == 0
    assert rep.data["errors"] == {}
    assert rep.data["agreement"]["pairs"] == {"B-C": 12}
    assert rep.exit_code == 0


def test_p5_kloosterman_at_twelve_digits():
    # the product of first-return series divides by nothing, where Newton's
    # identities over its eight traces lost v_5(8!) = 1 digit
    rep = run(job_dict(CASES["p5-kloosterman"], precision=12, routes=("B", "C")))
    assert rep.data["truncation"]["charpoly_precision_boost"] == 0
    assert rep.data["errors"] == {}
    assert rep.data["agreement"]["pairs"] == {"B-C": 12}
    assert rep.exit_code == 0


@pytest.mark.parametrize("cid", ["p5-edge-degenerate", "p5-skew"])
def test_p5_reach_at_twelve_digits(cid):
    # past the old ceiling: route C at 5^(12 + boost) raised PrecisionTooLow
    rep = run(job_dict(CASES[cid], precision=12, routes=("B", "C")))
    assert rep.data["errors"] == {}
    assert rep.data["agreement"]["pairs"] == {"B-C": 12}
    assert rep.exit_code == 0


def test_route_c_counters(klooster_report):
    # orbit length - 1 products compose the operator, Fredholm cap - 1 form
    # the first-return series; the limb count follows the kernel's float
    # rule; K(0) factors are formed, and their GEMMs' multiply-adds counted
    def counters(data):
        c = data["routes"]["C"]
        return c["matrix_products"], c["product_limbs"]

    def first_return(data):
        c = data["routes"]["C"]
        return c["first_return_factors"], c["gemm_madds"]
    cap = klooster_report.data["truncation"]["charpoly_degree_cap"]
    assert counters(klooster_report.data) == (cap - 1, 1)
    factors, madds = first_return(klooster_report.data)
    assert 0 < factors < klooster_report.data["truncation"]["basis_size"]
    assert madds > 0
    f9 = run(job_dict(CASES["p3-kloosterman-f9"], routes=("B", "C")))
    cap = f9.data["truncation"]["charpoly_degree_cap"]
    assert f9.data["orbit"]["length"] == 2
    assert counters(f9.data) == (1 + cap - 1, 1)
    # at N = 12 the products work at 3^12, in one limb, and B and C agree
    n12 = run({**KLOOSTER3, "precision": 12, "routes": ["B", "C"]})
    cap = n12.data["truncation"]["charpoly_degree_cap"]
    assert n12.exit_code == 0
    assert counters(n12.data) == (cap - 1, 1)
    assert first_return(n12.data) == first_return(
        run({**KLOOSTER3, "precision": 12, "routes": ["C"]}).data)


def test_battery_definitions_are_wellformed():
    ids = [c["id"] for c in BATTERY]
    assert len(ids) == len(set(ids)) == 24
    d2 = [c for c in BATTERY if c["expected_d"] == 2]
    assert len(d2) >= 2
    assert all(len(c["coeffs"]) == len(c["A"]) for c in BATTERY)
    assert len(DEGENERATE_BATTERY) == 2


def test_battery_job_dict_runs():
    rep = run(job_dict(BATTERY[1], routes=("B",), lmax=2))
    assert "B" in rep.data["routes"]


def test_cli_unit_root(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(KLOOSTER3))
    out = tmp_path / "rep.json"
    code = main(["unit-root", "--config", str(cfg), "--json", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "agreement: 4 digits" in captured
    assert json.loads(out.read_text())["exit_code"] == 0


def test_cli_weights(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(KLOOSTER3))
    assert main(["weights", "--config", str(cfg)]) == 0
    assert "weight denominator D: 1" in capsys.readouterr().out


def test_cli_oracle(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**KLOOSTER3, "lmax": 3}))
    assert main(["oracle", "--config", str(cfg)]) == 0
    assert "l=1" in capsys.readouterr().out


def test_cli_lfunction(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2, "A": [[1]], "coeffs": [[1]],
                               "precision": 4}))
    assert main(["lfunction", "--config", str(cfg)]) == 0
    assert "unit root preserved: True" in capsys.readouterr().out


def test_wmax_at_dwork_bound(klooster_report):
    # the bound itself is accepted and gives the default's digits; route A
    # alone takes any wmax
    rep = run({**KLOOSTER3, "wmax": 9, "routes": ["B", "C"]})
    assert rep.exit_code == 0
    for route in ("B", "C"):
        assert (rep.data["routes"][route]["unit_root"]
                == klooster_report.data["routes"][route]["unit_root"] == [[16], [0]])
    assert run({**KLOOSTER3, "wmax": 0, "routes": ["A"]}).exit_code == 0


def test_cli_bad_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(KLOOSTER3))
    assert main(["unit-root", "--config", str(cfg), "--wmax", "1"]) == 2
    assert "Dwork's bound" in capsys.readouterr().err
    for text in (json.dumps({"p": 3}), json.dumps({**KLOOSTER3, "epsilon": 0}),
                 '{"p": 3, "A": [[1], [-1]]', "[1, 2]",
                 json.dumps({**KLOOSTER3, "precision": "x"}),
                 json.dumps({**KLOOSTER3, "p": 0})):
        cfg.write_text(text)
        assert main(["unit-root", "--config", str(cfg)]) == 2
    for path in (tmp_path / "missing.json", tmp_path):
        assert main(["unit-root", "--config", str(path)]) == 2
    capsys.readouterr()
    # check --lmax 0 and 1 leave the oracle no ratio: one ConfigInvalid,
    # exit 2, and no case runs

    def too_early(*args, **kwargs):
        raise AssertionError("a case ran before --lmax was checked")
    monkeypatch.setattr(runner, "run", too_early)
    for lmax in ("0", "1"):
        assert main(["check", "--lmax", lmax]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("ConfigInvalid") == 1


def test_route_subset_and_precision_override():
    cfg = {**KLOOSTER3, "routes": ["A", "B"], "precision": 3}
    rep = run(cfg)
    assert set(rep.data["routes"]) == {"A", "B"}
    assert rep.data["agreement"]["requested_digits"] == 3
    assert rep.exit_code == 0


def test_epsilon_two_matches_orbit_two():
    # q = p^2 with coefficients generating F_4 (d = 1) must reproduce the
    # q = p presentation where the same coefficients have orbit degree 2
    base = {"p": 2, "A": [[1], [-1]], "coeffs": [[0, 1], [1]],
            "field_degree": 2, "precision": 4, "lmax": 4}
    rep_eps2 = run({**base, "epsilon": 2})
    rep_eps1 = run({**base, "epsilon": 1})
    assert rep_eps2.data["orbit"] == {"d": 1, "epsilon": 2, "length": 2}
    assert rep_eps1.data["orbit"] == {"d": 2, "epsilon": 1, "length": 2}
    for route in ("A", "B", "C"):
        assert rep_eps2.data["routes"][route]["unit_root"] == \
            rep_eps1.data["routes"][route]["unit_root"]
    assert rep_eps2.data["oracle"]["rows"] == rep_eps1.data["oracle"]["rows"]
    assert rep_eps2.data["routes"]["A"]["unit_root"][0] == [13, 0]


def test_zero_coefficients_give_unit_root_one():
    # f == 0: every sum is (q^l - 1)^n, still a unit, and the root is 1
    cfg = {"p": 3, "A": [[1], [-1]], "coeffs": [[0], [0]],
           "precision": 4, "lmax": 4}
    rep = run(cfg)
    assert rep.exit_code == 0
    for route in ("A", "B", "C"):
        assert rep.data["routes"][route]["unit_root"] == [[1], [0]]
    for row in rep.data["oracle"]["rows"]:
        assert row["counts"][0] == 3 ** row["field_degree"] - 1
        assert all(c == 0 for c in row["counts"][1:])


@pytest.mark.parametrize("vectors, rank", [
    (((0, 1), (1, 0), (2, -1)), 0),  # pointed: the facets span
    (((1,), (-1,)), 1),              # Kloosterman: no facets
    (((1, 0), (-1, 0), (0, 1)), 1),  # half-plane with a lineality line
], ids=["pointed", "kloosterman", "half-plane"])
def test_lineality_points_are_the_lineality_span(vectors, rank):
    # the facet rule alone picks the support points in the span of
    # W.lineality_basis, mu = 0 alone when that basis is empty
    n = len(vectors[0])
    W = build_weight_data(ExponentSet(n, vectors))
    assert len(W.lineality_basis) == rank
    box = list(itertools.product(range(-3, 4), repeat=n))
    xs = dwork.XSeries({mu: None for mu in box}, Fraction(0))
    basis = np.array(W.lineality_basis, dtype=np.int64).reshape(rank, n)
    want = [mu for mu in box
            if np.linalg.matrix_rank(np.vstack([basis, mu])) == rank]
    assert runner._lineality_points(W, xs) == want
    assert (0,) * n in want and len(want) == 7 ** rank
