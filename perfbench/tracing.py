"""Spans and counters for the traced run, recorded from outside the package.

`Tracer.install()` replaces each traced name with a wrapper at the place its
caller looks it up (a module global or a class attribute), so a name bound
separately in two modules is patched in both; `Tracer.uninstall()` restores
the originals.  A wrapped call records a span (name, start, end, parent span,
job id) in memory; hot scalar ring operations only bump counters.  Spans are
written out once, when the run ends.

Per-layer metrics are aggregated per workload pass.  Times are inclusive span
durations in seconds.  A span whose parent is the job span (`runner.run`) is a
route entry call and is charged to that route.  Kernel sizes (multiply-adds,
bytes, int64 share) and torus points are computed from report fields and the
exact-matmul path rule, not measured, and are named as computed in the
benchmark's README.
"""

import functools
import json
import time

from unitroots import dwork, hyperg, oracle, padic, runner, weights

# (owner, attribute, span name)
SPANS = [
    (runner, "_reduced_operator", "runner.reduce_operator"),
    (runner, "_lineality_points", "runner.lineality_points"),
    (hyperg, "unit_root_route_A_detailed", "hyperg.route_a"),
    (hyperg, "route_a_once", "hyperg.route_a_once"),
    (hyperg.MultiSeries, "mul", "hyperg.mul"),
    (hyperg.MultiSeries, "inverse", "hyperg.inverse"),
    (hyperg, "teichmueller", "padic.teichmueller"),
    (dwork, "teichmueller", "padic.teichmueller"),
    (dwork.OperatorData, "__init__", "dwork.operator_data"),
    (dwork, "splitting_coefficients", "dwork.splitting_coefficients"),
    (dwork.OperatorData, "one_step_matrix", "dwork.one_step_matrix"),
    (dwork.OperatorData, "full_matrix", "dwork.full_matrix"),
    (dwork.OperatorData, "dual_cycle", "dwork.dual_cycle"),
    (dwork, "_pair_products", "dwork.matmul"),
    (dwork, "power_iteration_unit_root", "dwork.power_iteration"),
    (dwork, "fredholm_unit_root", "dwork.fredholm_unit_root"),
    (dwork, "fredholm_coefficients", "dwork.fredholm_coefficients"),
    (dwork, "newton_polygon", "dwork.newton_polygon"),
    (dwork, "lfunction_from_fredholm", "dwork.lfunction"),
    (weights, "build_weight_data", "weights.build_weight_data"),
    (weights, "enumerate_weighted_monomials", "weights.enumerate"),
    (dwork, "enumerate_weighted_monomials", "weights.enumerate"),
    (oracle, "char_sum_table", "oracle.char_sum_table"),
    (oracle, "char_sum", "oracle.char_sum"),
    (oracle.FqTower, "__init__", "oracle.tower"),
    (oracle.FqTower, "level", "oracle.tower"),
    (oracle, "embed_and_estimate", "oracle.embed"),
]

# (owner, attribute, counter name)
COUNTERS = [
    (padic.RingElem, "__mul__", "padic.mul.calls"),
    (padic.RingElem, "__rmul__", "padic.mul.calls"),
    (padic.RingElem, "inverse", "padic.inverse.calls"),
    (padic.RingElem, "__pow__", "padic.pow.calls"),
]

# Route of each span that runner.run calls directly.
ROUTE_OF = {
    "dwork.operator_data": "tables",
    "hyperg.route_a": "route_a",
    "runner.reduce_operator": "route_b",
    "dwork.power_iteration": "route_b",
    "runner.lineality_points": "route_b",
    "dwork.full_matrix": "route_c",
    "dwork.fredholm_unit_root": "route_c",
    "dwork.newton_polygon": "route_c",
    "dwork.lfunction": "route_c",
    "oracle.char_sum_table": "oracle",
    "oracle.embed": "oracle",
}
ROUTES = ("tables", "route_a", "route_b", "route_c", "oracle")

# Span names whose total time and call count are reported.
TIMED = {
    "hyperg.calF_series": ("s", "calls"),
    "hyperg.inverse": ("s",),
    "hyperg.mul": ("s",),
    "hyperg.route_a_once": ("s",),
    "dwork.splitting_coefficients": ("s",),
    "dwork.kernel_table": ("s",),
    "dwork.one_step_matrix": ("s",),
    "dwork.matmul": ("s", "calls"),
    "dwork.dual_cycle": ("s", "calls"),
    "dwork.fredholm_coefficients": ("s",),
    "padic.teichmueller": ("s",),
    "weights.build_weight_data": ("s",),
    "weights.enumerate": ("s",),
    "oracle.char_sum": ("s",),
    "oracle.tower": ("s",),
    "oracle.embed": ("s",),
}

# Counters reported as 0 when nothing bumped them.
COUNTS = ("padic.mul.calls", "padic.inverse.calls", "padic.pow.calls",
          "hyperg.series_terms", "dwork.kernel_table.entries")

EXACT_FLOAT_LIMIT = 2 ** 52  # dwork._pair_products takes float64 below this


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job id]
        self.stack = []
        self.counts = {}
        self.job = None
        self._saved = []

    # --- recording -------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def bump(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def run_job(self, job_id, fn, *args):
        """Call fn inside a job span (`runner.run`) tagged with job_id."""
        self.job = job_id
        self.begin("runner.run")
        try:
            return fn(*args)
        finally:
            self.end()
            self.job = None

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)
        return counted

    # --- patching --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        for owner, attr, key in COUNTERS:
            self._patch(owner, attr, self._counted(owner.__dict__[attr], key))

        def series_terms(args, series):
            self.bump("hyperg.series_terms", len(series.terms))
        self._patch(hyperg, "calF_series",
                    self._wrap(hyperg.calF_series, "hyperg.calF_series",
                               series_terms))

        table = dwork.OperatorData.kernel_table
        traced_table = self._wrap(table, "dwork.kernel_table")

        @functools.wraps(table)
        def kernel_table(odata, oi):
            fresh = oi not in odata._btables
            result = traced_table(odata, oi)
            if fresh:
                self.bump("dwork.kernel_table.entries", len(result))
            return result
        self._patch(dwork.OperatorData, "kernel_table", kernel_table)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # --- aggregation -----------------------------------------------------

    def mark(self):
        """Position for aggregate(): (span count, counter snapshot)."""
        return len(self.spans), dict(self.counts)

    def aggregate(self, start, end):
        """Per-layer times, calls and counters recorded between two marks."""
        (first, counts0), (last, counts1) = start, end
        spans = self.spans[first:last]
        out = {f"runner.{r}.s": 0.0 for r in ROUTES}
        for name, kinds in TIMED.items():
            for kind in kinds:
                out[f"{name}.{kind}"] = 0.0 if kind == "s" else 0
        job_total = 0.0
        for name, t0, t1, parent, _ in spans:
            dur = t1 - t0
            if name == "runner.run":
                job_total += dur
                continue
            if parent is not None and self.spans[parent][0] == "runner.run":
                route = ROUTE_OF.get(name)
                if route:
                    out[f"runner.{route}.s"] += dur
            kinds = TIMED.get(name, ())
            if "s" in kinds:
                out[f"{name}.s"] += dur
            if "calls" in kinds:
                out[f"{name}.calls"] += 1
        for key in COUNTS:
            out[key] = counts1.get(key, 0) - counts0.get(key, 0)
        route_total = sum(out[f"runner.{r}.s"] for r in ROUTES)
        out["trace.route_share"] = route_total / job_total if job_total else 0.0
        return out

    def dump(self, path, meta):
        """Write every span and the final counters as one JSON document."""
        doc = {"meta": meta,
               "fields": ["name", "start", "end", "parent", "job"],
               "spans": self.spans, "counts": self.counts}
        path.write_text(json.dumps(doc))


def kernel_products(data):
    """Computed tensor products of one job: (cols, precision) per product.

    Route C composes the orbit (orbit length - 1 products) and forms the
    trace powers (Fredholm cap - 1 products) at the boosted precision; each
    route-B cycle applies one matrix-vector product per orbit point at the
    report precision.
    """
    t, routes = data["truncation"], data["routes"]
    N, dim, L = data["field"]["precision"], t["basis_size"], data["orbit"]["length"]
    out = []
    if "C" in routes:
        n = (L - 1) + (t["charpoly_degree_cap"] - 1)
        out += [(dim, N + t["charpoly_precision_boost"])] * n
    if "B" in routes:
        out += [(1, N)] * (routes["B"]["cycles"] * L)
    return out


def computed_counts(reports):
    """Kernel and oracle sizes computed from report fields, summed over jobs.

    A product of a (dim x dim) ring matrix by a (dim x cols) one takes one
    integer product per pair of (pi, t)-slots, (p-1)^2 m^2 in all (dense,
    zero slots not skipped); bytes are 8-byte operands read plus result
    written per slot pair.  A product is on the int64 path when
    dim * (p^N' - 1)^2 >= 2^52 at its precision N'.
    """
    out = {"dwork.matmul.macs": 0, "dwork.matmul.bytes": 0,
           "computed.matmul.calls": 0, "oracle.points": 0,
           "dwork.power_iteration.cycles": 0, "hyperg.degmax_used": 0,
           "weights.basis_size": 0}
    int64 = 0
    for data in reports:
        f, t = data["field"], data["truncation"]
        p, dim = f["p"], t["basis_size"]
        slots = ((p - 1) * f["m"]) ** 2
        for cols, prec in kernel_products(data):
            out["computed.matmul.calls"] += 1
            out["dwork.matmul.macs"] += slots * dim * dim * cols
            out["dwork.matmul.bytes"] += slots * 8 * (dim * dim + 2 * dim * cols)
            int64 += dim * (p ** prec - 1) ** 2 >= EXACT_FLOAT_LIMIT
        n = data["config"]["n"]
        for row in data.get("oracle", {}).get("rows", []):
            out["oracle.points"] += (p ** row["field_degree"] - 1) ** n
        out["dwork.power_iteration.cycles"] += data["routes"].get("B", {}).get("cycles", 0)
        out["hyperg.degmax_used"] += data["routes"].get("A", {}).get("degmax_used", 0)
        out["weights.basis_size"] += dim
    calls = out["computed.matmul.calls"]
    out["dwork.matmul.int64_frac"] = int64 / calls if calls else 0.0
    return out
