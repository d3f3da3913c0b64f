"""Command-line interface.

Subcommands: unit-root (analytic routes), oracle (character sums), weights
(polytope report), lfunction (Fredholm data), check (cross-validation
battery), selftest (module invariant suites).  Configurations are JSON; see
the README for the schema.  Exit code 0 means every requested cross-check
passed at the requested precision.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from . import battery as battery_mod
from . import runner, selftest
from .errors import ConfigInvalid, UnitRootError


def _load_config(args, default_routes=None):
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {args.config}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{args.config} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    if getattr(args, "route", None):
        routes = {"a": "A", "b": "B", "c": "C", "oracle": "oracle"}
        if args.route == "all":
            raw["routes"] = ["A", "B", "C", "oracle"]
        else:
            raw["routes"] = [routes[args.route]]
    elif default_routes is not None and raw.get("routes") is None:
        raw["routes"] = list(default_routes)
    for key in ("precision", "wmax", "degmax", "lmax", "cache_dir"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            raw[key] = val
    if getattr(args, "json_out", None):
        raw["output"] = args.json_out
    if getattr(args, "override_enumeration_guard", False):
        raw["override_enumeration_guard"] = True
    return runner.JobConfig.from_dict(raw)


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a JSON job config")
    sub.add_argument("--precision", type=int, default=None)
    sub.add_argument("--wmax", type=int, default=None)
    sub.add_argument("--degmax", type=int, default=None)
    sub.add_argument("--lmax", type=int, default=None)
    sub.add_argument("--cache-dir", dest="cache_dir", default=None)
    sub.add_argument("--json", dest="json_out", default=None,
                     help="write the full JSON report here")
    sub.add_argument("--override-enumeration-guard", action="store_true")


def _print_unit_root_summary(report):
    data = report.data
    for name in ("A", "B", "C"):
        route = data["routes"].get(name)
        if route:
            print(f"route {name}: unit root digits {route['unit_root']}")
    for name, msg in data.get("errors", {}).items():
        print(f"route {name} FAILED: {msg}")
    agree = data.get("agreement", {})
    if agree.get("digits") is not None:
        print(f"agreement: {agree['digits']} digits "
              f"(requested {agree['requested_digits']})")
    print("ok" if data.get("exit_code") == 0 else "MISMATCH")


def cmd_unit_root(args):
    config = _load_config(args, default_routes=("A", "B", "C"))
    report = runner.run(config)
    _print_unit_root_summary(report)
    return report.exit_code


def cmd_oracle(args):
    config = _load_config(args, default_routes=("oracle",))
    report = runner.run(config)
    data = report.data.get("oracle", {})
    for row in data.get("rows", []):
        print(f"l={row['l']} field degree {row['field_degree']} "
              f"counts {row['counts']} ({row['method']})")
    print("ratio digits:", data.get("ratios"))
    print("ratio difference orders:", data.get("ratio_diff_orders"))
    if report.data.get("errors"):
        print("errors:", report.data["errors"])
        return 1
    return 0


def cmd_weights(args):
    config = _load_config(args, default_routes=())
    report = runner.run(config)
    w = report.data["weights"]
    print("facet forms:", w["facet_forms"])
    print("cone facets:", w["cone_facets"])
    print("weight denominator D:", w["D"])
    print("lineality basis:", w["lineality_basis"])
    return 0


def cmd_lfunction(args):
    config = _load_config(args, default_routes=("C",))
    report = runner.run(config)
    route = report.data["routes"].get("C")
    if route is None:
        print("errors:", report.data.get("errors"))
        return 1
    print("fredholm coefficients:", route["fredholm"])
    print("newton polygon:", route["newton_polygon"])
    print("unit root:", route["unit_root"])
    print("processed L numerator:", route["lfunction"]["numerator"])
    print("processed L denominator:", route["lfunction"]["denominator"])
    print("unit root preserved:", route["lfunction"]["unit_root_matches"])
    return 0


def cmd_check(args):
    cases = battery_mod.BATTERY + battery_mod.DEGENERATE_BATTERY
    if args.quick:
        cases = [c for c in battery_mod.BATTERY
                 if c["id"] in battery_mod.QUICK_IDS]
    if args.cache_dir:
        runner.KernelCache(args.cache_dir)  # an unusable directory stops here
    records = []
    for case in cases:
        cfg = battery_mod.job_dict(case, lmax=args.lmax or 6)
        if args.cache_dir:
            cfg["cache_dir"] = args.cache_dir
        t0 = time.perf_counter()
        try:
            report = runner.run(cfg)
            agree = report.data["agreement"]
            status = "ok" if report.exit_code == 0 else "FAIL"
            print(f"{case['id']:28s} {status}  agreement {agree['digits']} "
                  f"digits  ({time.perf_counter() - t0:.1f}s)")
            records.append({"id": case["id"], "exit_code": report.exit_code,
                            "agreement_digits": agree["digits"],
                            "errors": report.data["errors"],
                            "timing": report.data["timing"]})
        except UnitRootError as exc:
            print(f"{case['id']:28s} ERROR  {type(exc).__name__}: {exc}")
            records.append({"id": case["id"], "exit_code": 2,
                            "agreement_digits": None,
                            "errors": {"run": f"{type(exc).__name__}: {exc}"},
                            "timing": {}})
    failures = sum(r["exit_code"] != 0 for r in records)
    print(f"{len(cases) - failures}/{len(cases)} battery cases passed")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(records, sort_keys=True, indent=1))
    return 0 if failures == 0 else 1


def cmd_selftest(args):
    results = selftest.run_selftest()
    bad = 0
    for name, ok, detail in results:
        print(f"{name:16s} {'ok ' if ok else 'FAIL'}  {detail}")
        bad += not ok
    return 0 if bad == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="unitroots",
        description="p-adic unit roots of toric exponential sums, three ways")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("unit-root", help="run the analytic routes")
    _add_common(sub)
    sub.add_argument("--route", choices=["a", "b", "c", "oracle", "all"])
    sub.set_defaults(fn=cmd_unit_root)

    sub = subs.add_parser("oracle", help="exact character-sum table")
    _add_common(sub)
    sub.set_defaults(fn=cmd_oracle)

    sub = subs.add_parser("weights", help="polytope and weight report")
    _add_common(sub)
    sub.set_defaults(fn=cmd_weights)

    sub = subs.add_parser("lfunction", help="Fredholm determinant report")
    _add_common(sub)
    sub.set_defaults(fn=cmd_lfunction)

    sub = subs.add_parser("check", help="cross-validation battery")
    sub.add_argument("--quick", action="store_true",
                     help="six representative cases only")
    sub.add_argument("--lmax", type=int, default=None)
    sub.add_argument("--cache-dir", dest="cache_dir", default=None)
    sub.add_argument("--json", dest="json_out", default=None,
                     help="write one JSON record per case here")
    sub.set_defaults(fn=cmd_check)

    sub = subs.add_parser("selftest", help="module invariant suites")
    sub.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UnitRootError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
