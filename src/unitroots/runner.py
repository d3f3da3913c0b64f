"""Job orchestration: configuration, route execution, reporting.

A job names a prime power, an exponent set, residue-field coefficients and a
precision, then runs any subset of the three analytic routes plus the exact
character-sum oracle and cross-checks the results digit by digit.  Reports
are deterministic JSON with integers only (timings are milliseconds).  Every
kernel table comes from the sweep: no job reads or writes a cache.
"""

import contextlib
import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import dwork, hyperg, oracle, weights
from .errors import (CacheUnwritable, ConfigInvalid, PrecisionTooLow,
                     UnitRootError)
from .padic import RingElem, make_ring

SCHEMA_VERSION = 1
ROUTES = ("A", "B", "C", "oracle")


@dataclass
class JobConfig:
    p: int
    A: tuple
    coeffs: tuple
    epsilon: int = 1
    field_degree: int = 1
    field_poly: tuple = None
    precision: int = 4
    routes: tuple = ROUTES
    degmax: int = None
    wmax: Fraction = None
    lmax: int = 6
    override_enumeration_guard: bool = False
    output: str = None

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigInvalid("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known - {"n"}
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        missing = [key for key in ("p", "A", "coeffs") if key not in raw]
        if missing:
            raise ConfigInvalid(f"p, A and coeffs are required; missing {missing}")
        p = _int("p", raw["p"])
        A = tuple(_ints("A", v) for v in _list("A", raw["A"]))
        coeffs = tuple(_ints("coeffs", v) for v in _list("coeffs", raw["coeffs"]))
        if raw.get("n") is not None:
            n = _int("n", raw["n"])
            if any(len(v) != n for v in A):
                raise ConfigInvalid("exponent vectors do not match the declared n")
        kw = {}
        for key in ("epsilon", "field_degree", "precision", "lmax", "degmax"):
            if raw.get(key) is not None:
                kw[key] = _int(key, raw[key])
        if raw.get("field_poly") is not None:
            kw["field_poly"] = _ints("field_poly", raw["field_poly"])
        if raw.get("routes") is not None:
            kw["routes"] = _list("routes", raw["routes"])
        if raw.get("wmax") is not None:
            kw["wmax"] = _wmax(raw["wmax"])
        if raw.get("output") is not None:
            if not isinstance(raw["output"], str):
                raise ConfigInvalid(f"output must be a path string, not {raw['output']!r}")
            kw["output"] = raw["output"]
        if raw.get("override_enumeration_guard") is not None:
            guard = raw["override_enumeration_guard"]
            if not isinstance(guard, bool):
                raise ConfigInvalid(
                    f"override_enumeration_guard must be true or false, not {guard!r}")
            kw["override_enumeration_guard"] = guard
        cfg = cls(p=p, A=A, coeffs=coeffs, **kw)
        cfg.validate()
        return cfg

    def validate(self):
        if self.epsilon < 1 or self.field_degree < 1:
            raise ConfigInvalid("epsilon and field_degree must be at least 1")
        if self.field_degree % self.epsilon:
            raise ConfigInvalid("epsilon must divide field_degree")
        if len(self.coeffs) != len(self.A):
            raise ConfigInvalid("need exactly one coefficient per exponent")
        if any(len(c) > self.field_degree for c in self.coeffs):
            raise ConfigInvalid("a coefficient has more entries than field_degree")
        if self.field_poly is not None and (
                len(self.field_poly) != self.field_degree + 1
                or self.field_poly[-1] != 1):
            raise ConfigInvalid("field_poly must be monic of degree field_degree")
        if self.precision < 1:
            raise ConfigInvalid("precision must be at least 1")
        if self.degmax is not None and self.degmax < 1:
            raise ConfigInvalid("degmax must be at least 1")
        if self.wmax is not None and self.wmax < 0:
            raise ConfigInvalid("wmax must be nonnegative")
        bad = [r for r in self.routes if r not in ROUTES]
        if bad:
            raise ConfigInvalid(f"unknown routes: {bad}")
        if self.lmax < 1:
            raise ConfigInvalid("lmax must be at least 1")
        if "oracle" in self.routes and self.lmax < 2:
            raise ConfigInvalid("the oracle needs lmax >= 2: one sum gives no ratio")
        if not self.A or not all(self.A):
            raise ConfigInvalid("A must be a nonempty list of nonempty vectors")

    def laurent_spec(self):
        try:
            A = weights.ExponentSet(len(self.A[0]), self.A)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None
        return hyperg.LaurentSpec(A, self.p, self.field_degree, self.epsilon,
                                  self.coeffs, self.field_poly)

    def canonical(self):
        return {
            "p": self.p,
            "n": len(self.A[0]),
            "A": [list(v) for v in self.A],
            "coeffs": [list(c) for c in self.coeffs],
            "epsilon": self.epsilon,
            "field_degree": self.field_degree,
            "field_poly": list(self.field_poly) if self.field_poly else None,
            "precision": self.precision,
            "routes": list(self.routes),
            "degmax": self.degmax,
            "wmax": _frac(self.wmax) if self.wmax is not None else None,
            "lmax": self.lmax,
            "override_enumeration_guard": self.override_enumeration_guard,
        }


def _int(key, value):
    """A JSON integer (not a bool), else ConfigInvalid."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{key} must be an integer, not {value!r}")
    return value


def _list(key, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigInvalid(f"{key} must be a list, not {value!r}")
    return tuple(value)


def _ints(key, value):
    return tuple(_int(key, c) for c in _list(key, value))


def _wmax(value):
    """An integer, or a [numerator, denominator] pair with denominator > 0."""
    if not isinstance(value, (list, tuple)):
        return Fraction(_int("wmax", value))
    num, den = _ints("wmax", value) if len(value) == 2 else (0, 0)
    if den <= 0:
        raise ConfigInvalid("wmax must be an integer or a [num, den] pair "
                            f"with den > 0, not {value!r}")
    return Fraction(num, den)


def _frac(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _ord_field(v):
    return None if v is None else _frac(v)


def ring_meta(ring):
    return {"p": ring.p, "m": ring.m, "modulus": list(ring.g),
            "precision": ring.N}


def default_wmax(ring, D):
    bound = max(4, Fraction(ring.N * ring.p ** 2, (ring.p - 1) ** 2))
    return Fraction(math.ceil(bound * D), D)


class KernelCache:
    """Content-addressed store for kernel coefficient tables.

    No job uses it, since a hit costs more than the sweep it skips; it is
    kept only because perfbench/micro.py times its store and load.

    Each file holds one table and the SHA-256 of its JSON payload.  An
    entry that cannot be read, does not parse, has the wrong shape or fails
    its checksum is a miss, so the table is recomputed and the file
    rewritten.  Files are written under a temporary name in the same
    directory and renamed into place, so no reader sees a partly written
    file.  A root that is not a usable directory is ConfigInvalid; an entry
    that cannot be replaced is CacheUnwritable.
    """

    def __init__(self, root):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid(
                f"cache_dir {root} is not a usable directory: {exc.strerror}") from None

    def key(self, odata, oi):
        lam = odata.lam_orbit[oi]
        payload = json.dumps({
            "ring": ring_meta(odata.ring),
            "A": [list(v) for v in odata.W.A.vectors],
            "lam": [x.digits() for x in lam],
            "s_cut": odata.s_cut,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, odata, oi):
        return self.root / f"kernel-{self.key(odata, oi)}.json"

    def load(self, odata, oi):
        """Install the stored table for orbit point oi; False on a miss."""
        try:
            data = json.loads(self._path(odata, oi).read_text())
            payload = data["table"]
            if data["sha256"] != _digest(payload):
                return False
            table = dwork.KernelTable.of_elements(
                odata.ring, [[int(c) for c in mu.split(",")] for mu in payload],
                [RingElem(odata.ring, rows) for rows in payload.values()])
        except (OSError, ValueError, TypeError, KeyError, AttributeError):
            return False  # unreadable, unparseable or wrongly shaped
        if table.points.shape[1] != odata.W.A.n:
            return False
        odata._btables[oi] = table
        return True

    def store(self, odata, oi):
        payload = {",".join(str(c) for c in mu): v.digits()
                   for mu, v in sorted(odata.kernel_table(oi).items())}
        text = json.dumps({"table": payload, "sha256": _digest(payload)},
                          sort_keys=True)
        path = self._path(odata, oi)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix="kernel-", suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    f.write(text)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise CacheUnwritable(f"cannot store a kernel table at {path}: "
                                  f"{exc.strerror}") from None


def _digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class Report:
    data: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        return self.data.get("exit_code", 1)

    def to_json(self):
        return json.dumps(self.data, sort_keys=True, indent=1)

    def without_timing(self):
        clone = json.loads(self.to_json())
        clone.pop("timing", None)
        return clone


def run(config):
    """Execute the requested routes and assemble the cross-checked report."""
    if isinstance(config, dict):
        config = JobConfig.from_dict(config)
    config.validate()
    if config.output:
        check_report_path(config.output)
    # the ring first: it raises CompositeP on a p (0 among them) that
    # laurent_spec cannot reduce by
    ring = make_ring(config.p, config.field_degree, config.field_poly,
                     config.precision)
    bound = Fraction(ring.N * ring.p ** 2, (ring.p - 1) ** 2)  # as in default_wmax
    if config.wmax is not None and config.wmax < bound and {"B", "C"} & set(config.routes):
        raise ConfigInvalid(f"wmax = {config.wmax} is below N p^2/(p-1)^2 = {bound}, "
                            "Dwork's bound that routes B and C need")
    spec = config.laurent_spec()
    W = weights.build_weight_data(spec.A)
    d = oracle.orbit_degree(spec)
    orbit_len = config.epsilon * d
    timing = {}
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.canonical(),
        "field": ring_meta(ring),
        "weights": {
            "facet_forms": [[_frac(c) for c in form] for form in W.facet_forms],
            "cone_facets": [list(g) for g in W.cone_facets],
            "D": W.D,
            "lineality_basis": [list(v) for v in W.lineality_basis],
            "lineality_rank": len(W.lineality_basis),
        },
        "orbit": {"d": d, "epsilon": config.epsilon, "length": orbit_len},
        "routes": {},
        "errors": {},
    }
    unit_roots = {}

    wmax = config.wmax if config.wmax is not None else default_wmax(ring, W.D)
    degmax = config.degmax if config.degmax is not None \
        else dwork.default_s_cut(ring)
    basis = weights.enumerate_weighted_monomials(W, wmax)
    report["truncation"] = {
        "wmax": _frac(wmax),
        "degmax_initial": degmax,
        "basis_size": len(basis),
        "s_cut": dwork.default_s_cut(ring),
        "charpoly_degree_cap": dwork.fredholm_cap(W, basis, ring.p, ring.N),
        # route C divides by nothing, so it needs no digits beyond N
        "charpoly_precision_boost": 0,
        "power_iteration_budget": dwork.power_iteration_budget(ring, W.D),
    }

    # routes B and C share one operator at N; past the product kernel's
    # int64 rule both fail before any table is built
    tensor_routes = [r for r in ("B", "C") if r in config.routes]
    if tensor_routes:
        try:
            dwork.check_product_precision(ring.pN)
        except PrecisionTooLow as exc:
            for route in tensor_routes:
                report["errors"][route] = f"PrecisionTooLow: {exc}"
            tensor_routes = []
    if tensor_routes:
        t0 = time.perf_counter()
        odata = dwork.OperatorData(spec, W, ring, wmax, basis=basis)
        timing["operator_tables_ms"] = int(1000 * (time.perf_counter() - t0))

    @contextlib.contextmanager
    def attempt(name, key):
        """The one rule for every route: its time goes to timing[key], and a
        UnitRootError it raises is recorded as errors[name], not raised."""
        t0 = time.perf_counter()
        try:
            yield
        except UnitRootError as exc:
            report["errors"][name] = f"{type(exc).__name__}: {exc}"
        timing[key] = int(1000 * (time.perf_counter() - t0))

    if "A" in config.routes:
        with attempt("A", "route_a_ms"):
            res = hyperg.unit_root_route_A_detailed(spec, degmax, ring, orbit_len)
            unit_roots["A"] = res.u
            report["routes"]["A"] = {
                "unit_root": res.u.digits(),
                "stability_digits": res.stability_digits,
                "degmax_used": res.degmax_used,
                "steps": list(res.steps),
                "stop_step": res.stop_step,
                "weight_denominator": res.weight_denominator,
                "terms": res.terms,
            }

    # route C composes the orbit before route B's dual cycles drop the
    # one-step matrices
    if "C" in tensor_routes:
        with attempt("C", "route_c_ms"):
            P, u = dwork.fredholm_unit_root(odata.full_matrix())
            unit_roots["C"] = u
            poly = dwork.newton_polygon(P)
            lf = dwork.lfunction_from_fredholm(P, spec.A.n, orbit_len, u)
            report["routes"]["C"] = {
                "unit_root": u.digits(),
                "fredholm": [c.digits() for c in P.coeffs],
                "newton_polygon": [[_frac(s), ln] for s, ln in poly.segments],
                "slope_zero_length": poly.slope_zero_length(),
                "lfunction": {
                    "numerator": [c.digits() for c in lf.numerator],
                    "denominator": [c.digits() for c in lf.denominator],
                    "series": [c.digits() for c in lf.series],
                    "unit_root_matches": lf.unit_root_matches,
                },
                "matrix_products": P.products,
                "product_limbs": P.limbs,
                "first_return_factors": P.factors,
                "gemm_madds": P.madds,
            }

    if "B" in tensor_routes:
        with attempt("B", "route_b_ms"):
            res = dwork.power_iteration_unit_root(odata)
            unit_roots["B"] = res.u
            lin = set(map(tuple, _lineality_points(W, res.eigenvector)))
            off = [c for mu, c in res.eigenvector.support.items()
                   if mu not in lin]
            off_ord = None
            for c in off:
                v = c.valuation()
                if v is not None and (off_ord is None or v < off_ord):
                    off_ord = v
            report["routes"]["B"] = {
                "unit_root": res.u.digits(),
                "cycles": res.cycles,
                "budget": res.budget,
                "normalizer_diff_orders": [_ord_field(v)
                                           for v in res.normalizer_diff_orders],
                "eigenvector_support_size": len(res.eigenvector.support),
                "off_lineality_min_order": _ord_field(off_ord),
            }
    odata = None  # routes B and C are done: their tables go before the oracle

    if "oracle" in config.routes:
        with attempt("oracle", "oracle_ms"):
            table = oracle.char_sum_table(
                spec, config.lmax,
                override=config.override_enumeration_guard)
            est = oracle.embed_and_estimate(table, ring)
            report["oracle"] = {
                "d": table.d,
                "rows": [{"l": r.l, "field_degree": r.field_degree,
                          "counts": list(r.counts), "method": r.method}
                         for r in table.rows],
                "ratios": [u.digits() for u in est.ratios],
                "ratio_diff_orders": [_ord_field(v)
                                      for v in est.ratio_diff_orders],
                "s_valuations": [_ord_field(v) for v in est.s_valuations],
            }
            if unit_roots:
                # the first of A, B and C present, whatever order they ran in
                consensus = next(unit_roots[r] for r in ROUTES if r in unit_roots)
                report["oracle"]["consensus_orders"] = [
                    _ord_field((u - consensus).valuation()) for u in est.ratios]

    # pairwise agreement of the analytic routes
    pairs = {}
    names = sorted(unit_roots)
    digits = None
    for i, r1 in enumerate(names):
        for r2 in names[i + 1:]:
            v = (unit_roots[r1] - unit_roots[r2]).valuation()
            agree = ring.N if v is None else int(v)
            pairs[f"{r1}-{r2}"] = agree
            digits = agree if digits is None else min(digits, agree)
    requested = [r for r in config.routes if r != "oracle"]
    ok = (not report["errors"]
          and (len(names) < 2 or digits >= config.precision)
          and set(requested) == set(names))
    report["agreement"] = {
        "pairs": pairs,
        "digits": digits,
        "requested_digits": config.precision,
        "ok": bool(ok),
    }
    if digits is not None and digits < config.precision and len(names) >= 2:
        report["agreement"]["diff_digits"] = {
            name: u.digits() for name, u in sorted(unit_roots.items())}
    report["timing"] = timing
    report["exit_code"] = 0 if ok else 1
    rep = Report(report)
    if config.output:
        with open_report(config.output) as f:
            f.write(rep.to_json())
    return rep


def check_report_path(path):
    """ConfigInvalid unless path is in a writable directory and is not one;
    creates nothing, so a job that fails later leaves no file behind."""
    folder = os.path.dirname(os.path.abspath(path))
    problem = ("No such directory" if not os.path.isdir(folder) else
               "Is a directory" if os.path.isdir(path) else
               None if os.access(folder, os.W_OK | os.X_OK) else "Permission denied")
    if problem:
        raise ConfigInvalid(f"cannot write a report to {path}: {problem}")


def open_report(path):
    """path opened for writing a report; ConfigInvalid if it cannot be."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigInvalid(f"cannot write a report to {path}: {exc.strerror}") from None


def _reduced_operator(odata, ring):
    """odata: routes B and C share one operator at N.  Nothing calls it; the
    name stays because perfbench/tracing.py patches it."""
    return odata


def _lineality_points(W, xseries):
    """Support points lying in the lineality lattice: those on which every
    cone facet vanishes (only mu = 0 when the facets span)."""
    return [mu for mu in xseries.support
            if all(sum(g * x for g, x in zip(row, mu)) == 0 for row in W.cone_facets)]
