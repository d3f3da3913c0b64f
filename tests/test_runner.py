"""Orchestration: config validation, reports, determinism, cache, CLI."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitroots.battery import BATTERY, DEGENERATE_BATTERY, QUICK_IDS, job_dict
from unitroots.cli import main
from unitroots.errors import CacheUnwritable, ConfigInvalid, NotSpanning
from unitroots.hyperg import hyperg_coefficient_series
from unitroots.padic import make_ring
from unitroots.runner import JobConfig, run
from unitroots.weights import ExponentSet

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


def test_cache_roundtrip(tmp_path):
    # p3-kloosterman-f9 has orbit length 2, so the cache holds two tables
    cfg = {**job_dict(CASES["p3-kloosterman-f9"], routes=("B", "C")),
           "cache_dir": str(tmp_path)}
    cold = run(cfg)
    files = sorted(tmp_path.glob("kernel-*.json"))
    assert len(files) == 2
    warm = run(cfg)
    assert cold.without_timing() == warm.without_timing()
    # a truncated file and a flipped digit are both misses: recomputed, rewritten
    files[0].write_text(files[0].read_text()[:100])
    text = files[1].read_text()
    i = text.index("[[", text.index('"table"')) + 2
    flipped = "8" if text[i] == "9" else str(int(text[i]) + 1)
    files[1].write_text(text[:i] + flipped + text[i + 1:])
    assert run(cfg).without_timing() == cold.without_timing()
    assert sorted(tmp_path.iterdir()) == files
    assert run(cfg).without_timing() == cold.without_timing()


def test_cache_dir_that_is_a_file(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    with pytest.raises(ConfigInvalid, match="cache_dir .*taken"):
        run({**KLOOSTER3, "routes": ["B"], "cache_dir": str(path)})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(KLOOSTER3))
    assert main(["unit-root", "--config", str(cfg), "--cache-dir", str(path)]) == 2
    assert main(["check", "--quick", "--cache-dir", str(path)]) == 2
    assert "ConfigInvalid" in capsys.readouterr().err


def test_cache_entry_that_is_a_directory(tmp_path):
    # the entry cannot be read, so it is a miss; it cannot be replaced
    # either, so storing the recomputed table fails naming the entry
    cfg = {**KLOOSTER3, "routes": ["B"], "cache_dir": str(tmp_path)}
    run(cfg)
    (entry,) = tmp_path.glob("kernel-*.json")
    entry.unlink()
    entry.mkdir()
    with pytest.raises(CacheUnwritable, match=entry.name):
        run(cfg)
    assert sorted(tmp_path.iterdir()) == [entry]


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


def test_matmul_limit_is_a_route_error():
    # route C forms its trace powers at the boosted precision, 5^(12 + 2),
    # past the product kernel's int64 rule; route B works at 5^12
    rep = run(job_dict(CASES["p5-triangle"], precision=12, routes=("B", "C")))
    assert rep.exit_code == 1
    assert rep.data["errors"]["C"] == (
        f"PrecisionTooLow: p^N = {5 ** 14} has (p^N - 1)^2 + p^N >= 2^63, "
        "beyond exact int64 reduction")
    assert "B" in rep.data["routes"]
    # past 2^63 both routes fail the int64 rule: the runner records their
    # PrecisionTooLow before it builds any operator table
    rep = run(job_dict(CASES["p2-kloosterman"], precision=40, routes=("B", "C")))
    assert sorted(rep.data["errors"]) == ["B", "C"]
    assert all(e.startswith("PrecisionTooLow: p^N = ")
               for e in rep.data["errors"].values())


@pytest.mark.parametrize("cid", ["p2-kloosterman", "p3-kloosterman"])
def test_routes_b_c_at_twelve_digits(cid):
    # the boosted precisions, 2^22 and 3^16, are inside the int64 rule
    rep = run(job_dict(CASES[cid], precision=12, routes=("B", "C")))
    boost = {"p2-kloosterman": 10, "p3-kloosterman": 4}[cid]
    assert rep.data["truncation"]["charpoly_precision_boost"] == boost
    assert rep.data["errors"] == {}
    assert rep.data["agreement"]["pairs"] == {"B-C": 12}
    assert rep.exit_code == 0


def test_p5_kloosterman_at_twelve_digits():
    # Newton's identities over its eight traces lose v_5(8!) = 1 digit, so
    # route C works at 5^13, the last precision inside the int64 rule
    rep = run(job_dict(CASES["p5-kloosterman"], precision=12, routes=("B", "C")))
    assert rep.data["truncation"]["charpoly_precision_boost"] == 1
    assert rep.data["errors"] == {}
    assert rep.data["agreement"]["pairs"] == {"B-C": 12}
    assert rep.exit_code == 0


def test_route_c_counters(klooster_report):
    # orbit length - 1 products compose the operator, Fredholm cap - 1 form
    # the trace powers; the limb count follows the kernel's float rule
    def counters(data):
        c = data["routes"]["C"]
        return c["matrix_products"], c["product_limbs"]
    cap = klooster_report.data["truncation"]["charpoly_degree_cap"]
    assert counters(klooster_report.data) == (cap - 1, 1)
    f9 = run(job_dict(CASES["p3-kloosterman-f9"], routes=("B", "C")))
    cap = f9.data["truncation"]["charpoly_degree_cap"]
    assert f9.data["orbit"]["length"] == 2
    assert counters(f9.data) == (1 + cap - 1, 1)
    # at N = 12 the boosted products need two limbs, and B and C still agree
    n12 = run({**KLOOSTER3, "precision": 12, "routes": ["B", "C"]})
    cap = n12.data["truncation"]["charpoly_degree_cap"]
    assert n12.exit_code == 0
    assert counters(n12.data) == (cap - 1, 2)


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


def test_cli_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text in (json.dumps({"p": 3}), json.dumps({**KLOOSTER3, "epsilon": 0}),
                 '{"p": 3, "A": [[1], [-1]]', "[1, 2]",
                 json.dumps({**KLOOSTER3, "precision": "x"})):
        cfg.write_text(text)
        assert main(["unit-root", "--config", str(cfg)]) == 2
    for path in (tmp_path / "missing.json", tmp_path):
        assert main(["unit-root", "--config", str(path)]) == 2


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
