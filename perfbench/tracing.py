"""Timing shims around the public functions of every monosplit module.

``Tracer.install`` replaces each public function, method and property of
the ten modules with a wrapper that records a span (name, start, end,
parent) in memory. ``from .x import f`` copies a binding into the
importing module, so every module's binding of a wrapped function is
replaced, not only the defining one. Operators are seen through their
call sites: the resolvent of every ``MonotoneOp`` built after install is
one span name (``operators.resolvent``) and every ``CocoerciveMap`` call is
another (``operators.B``). A few spans also carry counts read from their
arguments or results (rows replayed, bytes written, steps).

``analyse`` turns the spans into per-layer metrics: a span's self time is
its duration minus the time its direct children cover, and a layer's self
time is the sum over the spans of its module. Nothing under ``src/`` is
changed; the shims live in this process only.
"""

import dataclasses
import inspect
import os
import time
from array import array

import numpy as np

from workloads import steps_performed

LAYERS = ("crifba", "operators", "metriclin", "checks", "gcrifba", "cripda",
          "baselines", "problems", "harness", "cli")

ORACLES = {"step_identities": "check_step_identities",
           "drift_telescoping": "check_estimg2",
           "residual_ratio": "check_residual_ratio",
           "ystar_bound": "check_ystar_bound",
           "graph_inclusion": "check_graph_inclusion",
           "energy_decrease": "check_energy_decrease",
           "rilo": "check_rilo"}

BASELINE_KINDS = ("ppa", "fba", "fbf", "dr", "moudafi_oliny", "lorenz_pock",
                  "attouch_cabot", "chambolle_dossal")

# name -> unit of every metric ``analyse`` returns, in report order
UNITS = {
    "crifba.step_us": "us", "crifba.residual_us": "us",
    "crifba.run_self_us_per_step": "us", "crifba.validate_ms": "ms",
    "crifba.diagnostics_us_per_row": "us", "crifba.history_bytes": "bytes",
    "operators.resolvent_us": "us", "operators.resolvent_calls_per_step": "calls/step",
    "operators.B_us": "us", "operators.B_calls_per_step": "calls/step",
    "metriclin.as_vector_calls_per_step": "calls/step",
    "metriclin.spdmap_builds_per_step": "calls/step",
    "metriclin.spdmap_builds_per_step_block": "calls/step",
    "metriclin.spdmap_build_us": "us",
    "metriclin.norm2_calls_per_step": "calls/step",
}
UNITS.update({"checks.%s.us_per_row" % k: "us" for k in ORACLES})
UNITS.update({"checks.resolvent_calls_per_row": "calls/row",
              "checks.B_calls_per_row": "calls/row",
              "gcrifba.step_us": "us", "gcrifba.apply_T_us": "us",
              "cripda.step_us": "us", "cripda.residual_us": "us"})
UNITS.update({"baselines.%s.us_per_step" % k: "us" for k in BASELINE_KINDS})
UNITS.update({"problems.get_ms": "ms", "problems.get_calls_per_run": "calls/run",
              "problems.certify_ms": "ms",
              "harness.validate_config_ms": "ms", "harness.write_trace_csv_ms": "ms",
              "harness.run_config_self_ms": "ms", "harness.fit_slope_ms": "ms",
              "harness.check_history_self_ms": "ms", "harness.csv_bytes": "bytes",
              "harness.history_bytes": "bytes", "cli.main_self_ms": "ms"})
UNITS.update({"%s.self_ms" % layer: "ms" for layer in LAYERS})
UNITS["trace.spans"] = "count"


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


class Tracer:
    """Spans in flat arrays: name id, parent index, start and end in ns."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = {}
        self.tags = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, hook=None):
        nid = self._id(name)
        ids, par, st, en, stack = (self.name_id, self.parent, self.start,
                                   self.end, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            par.append(stack[-1])
            en.append(0)
            stack.append(i)
            st.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                en[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, i, fn, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # --- installation -----------------------------------------------------

    def install(self):
        import monosplit
        from monosplit import (baselines, checks, cli, crifba, cripda, gcrifba,
                               harness, metriclin, operators, problems)
        modules = (crifba, operators, metriclin, checks, gcrifba, cripda,
                   baselines, problems, harness, cli)
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = "%s.%s" % (layer, attr)
                    replaced[obj] = self.wrap(name, obj, HOOKS.get(name))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in modules + (monosplit,):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, layer, cls):
        prefix = "%s.%s" % (layer, cls.__name__)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s" % (prefix, attr)
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self.wrap(name, obj.fget)))
        if dataclasses.is_dataclass(cls):
            return      # plain records; their constructors are not work
        if cls.__name__ == "MonotoneOp":
            self._wrap_operator_init(cls)
        elif cls.__name__ == "CocoerciveMap":
            cls.__call__ = self.wrap("operators.B", vars(cls)["__call__"])
        elif cls.__name__ in ("SpdMap", "ProductVector"):
            cls.__init__ = self.wrap(prefix, vars(cls)["__init__"])

    def _wrap_operator_init(self, cls):
        tracer = self
        init = cls.__init__

        def __init__(op, *args, **kwargs):
            init(op, *args, **kwargs)
            for attr in ("resolvent", "gen_resolvent"):
                fn = getattr(op, attr)
                if fn is not None:
                    setattr(op, attr, tracer.wrap("operators.resolvent", fn))

        cls.__init__ = __init__

    # --- output -----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.int64).copy(),
                np.frombuffer(self.end, dtype=np.int64).copy())

    def dump(self, path):
        """Write every span: names table plus one row per span."""
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start_ns=start, end_ns=end)

    def analyse(self, runs):
        """Per-layer metrics of the recorded spans; ``runs`` is the number of
        workload runs (solves or configs) the pass issued."""
        name_id, parent, start, end = self.arrays()
        spans = Spans(self.names, name_id, parent, start, end)
        m = {}
        c = self.counts
        core = spans.nearest("crifba.run")
        core_steps = spans.mask("crifba.crifba_step") & (core >= 0)
        in_ident = np.isin(core, [i for i, t in self.tags.items() if t == "identity"])
        in_block = np.isin(core, [i for i, t in self.tags.items() if t == "block"])
        n_ident = int(np.sum(core_steps & in_ident))
        n_block = int(np.sum(core_steps & in_block))

        def per(count, base):
            return float(count) / base if base else 0.0

        m["crifba.step_us"] = spans.mean_us("crifba.crifba_step")
        m["crifba.residual_us"] = spans.mean_us("crifba.residual_G")
        m["crifba.run_self_us_per_step"] = per(
            spans.total_ns("crifba.run", self_time=True) / 1e3, int(core_steps.sum()))
        validators = ("crifba.validate", "crifba.validate_core", "crifba.validate_metric")
        m["crifba.validate_ms"] = spans.outermost_mean_us(validators) / 1e3
        m["crifba.diagnostics_us_per_row"] = per(
            spans.total_ns("crifba.diagnostics") / 1e3, c.get("crifba.diagnostics.rows", 0))
        m["crifba.history_bytes"] = per(c.get("crifba.history_bytes", 0),
                                        c.get("crifba.runs", 0))
        m["operators.resolvent_us"] = spans.mean_us("operators.resolvent")
        m["operators.resolvent_calls_per_step"] = per(
            spans.count("operators.resolvent", in_ident), n_ident)
        m["operators.B_us"] = spans.mean_us("operators.B")
        m["operators.B_calls_per_step"] = per(spans.count("operators.B", in_ident), n_ident)
        m["metriclin.as_vector_calls_per_step"] = per(
            spans.count("metriclin.as_vector", in_ident), n_ident)
        m["metriclin.spdmap_builds_per_step"] = per(
            spans.count("metriclin.SpdMap", in_ident), n_ident)
        m["metriclin.spdmap_builds_per_step_block"] = per(
            spans.count("metriclin.SpdMap", in_block), n_block)
        m["metriclin.spdmap_build_us"] = spans.mean_us("metriclin.SpdMap")
        m["metriclin.norm2_calls_per_step"] = per(
            spans.count("metriclin.SpdMap.norm2", in_ident), n_ident)
        for oracle, fn in ORACLES.items():
            name = "checks." + fn
            m["checks.%s.us_per_row" % oracle] = per(
                spans.total_ns(name) / 1e3, c.get(name + ".rows", 0))
        suite = spans.nearest("checks.standard_suite") >= 0
        suite_rows = c.get("checks.standard_suite.rows", 0)
        m["checks.resolvent_calls_per_row"] = per(spans.count("operators.resolvent", suite),
                                                  suite_rows)
        m["checks.B_calls_per_row"] = per(spans.count("operators.B", suite), suite_rows)
        m["gcrifba.step_us"] = spans.mean_us("gcrifba.gcrifba_step")
        m["gcrifba.apply_T_us"] = spans.mean_us("gcrifba.apply_T")
        m["cripda.step_us"] = spans.mean_us("cripda.cripda_step")
        m["cripda.residual_us"] = spans.mean_us("cripda.fixed_point_residual")
        for kind in BASELINE_KINDS:
            runs_k = np.array([i for i, t in self.tags.items() if t == "baseline:" + kind],
                              dtype=np.int64)
            m["baselines.%s.us_per_step" % kind] = per(
                float((end[runs_k] - start[runs_k]).sum()) / 1e3 if len(runs_k) else 0.0,
                c.get("baselines.%s.steps" % kind, 0))
        m["problems.get_ms"] = spans.mean_us("problems.get") / 1e3
        m["problems.get_calls_per_run"] = per(spans.count("problems.get"), runs)
        m["problems.certify_ms"] = spans.mean_us("problems.certify") / 1e3
        m["harness.validate_config_ms"] = spans.mean_us("harness.validate_config") / 1e3
        m["harness.write_trace_csv_ms"] = spans.mean_us("harness.write_trace_csv") / 1e3
        m["harness.run_config_self_ms"] = spans.mean_us("harness.run_config",
                                                        self_time=True) / 1e3
        m["harness.fit_slope_ms"] = spans.mean_us("harness.fit_slope") / 1e3
        m["harness.check_history_self_ms"] = spans.mean_us("harness.check_history",
                                                           self_time=True) / 1e3
        m["harness.csv_bytes"] = per(c.get("harness.csv_bytes", 0),
                                     spans.count("harness.write_trace_csv"))
        m["harness.history_bytes"] = per(c.get("harness.history_bytes", 0),
                                         c.get("harness.history_files", 0))
        m["cli.main_self_ms"] = spans.mean_us("cli.main", self_time=True) / 1e3
        for layer in LAYERS:
            m["%s.self_ms" % layer] = spans.layer_self_ns(layer) / 1e6
        m["trace.spans"] = len(name_id)
        return m


class Spans:
    """Read-only queries over recorded spans."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = name_id
        self.parent = parent
        self.dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(name_id)).astype(np.int64) \
            if len(name_id) else np.zeros(0, dtype=np.int64)
        self.self_ns = self.dur - covered

    @classmethod
    def load(cls, path):
        with np.load(path) as z:
            return cls(z["names"].tolist(), z["name_id"], z["parent"],
                       z["start_ns"], z["end_ns"])

    def mask(self, name):
        nid = self.ids.get(name, -1)
        return self.name_id == nid

    def nearest(self, *names):
        """Index of the nearest ancestor-or-self span with one of the names,
        or -1, for every span."""
        hit = np.zeros(len(self.name_id), dtype=bool)
        for n in names:
            hit |= self.mask(n)
        idx = np.arange(len(self.name_id))
        anc = np.where(hit, idx, self.parent)
        while True:
            open_ = (anc >= 0) & ~hit[np.maximum(anc, 0)]
            if not open_.any():
                return anc
            anc[open_] = anc[anc[open_]]

    def count(self, name, within=None):
        sel = self.mask(name)
        if within is not None:
            sel &= within
        return int(sel.sum())

    def total_ns(self, name, self_time=False):
        arr = self.self_ns if self_time else self.dur
        return float(arr[self.mask(name)].sum())

    def mean_us(self, name, self_time=False):
        n = self.count(name)
        return self.total_ns(name, self_time) / n / 1e3 if n else 0.0

    def outermost_mean_us(self, names):
        """Mean duration of spans of ``names`` not nested in one another."""
        hit = np.zeros(len(self.name_id), dtype=bool)
        for n in names:
            hit |= self.mask(n)
        anc = self.nearest(*names)
        up = np.where(self.parent >= 0, anc[np.maximum(self.parent, 0)], -1)
        outer = hit & (up < 0)
        n = int(outer.sum())
        return float(self.dur[outer].sum()) / n / 1e3 if n else 0.0

    def layer_self_ns(self, layer):
        ids = [i for n, i in self.ids.items() if n.split(".", 1)[0] == layer]
        return float(self.self_ns[np.isin(self.name_id, ids)].sum())


# --- counts read from arguments and results -------------------------------

def _core_run(tracer, i, fn, args, kwargs, out):
    params = _bound(fn, args, kwargs)["params"]
    tracer.tags[i] = "identity" if params.M is None else "block"
    tracer.add("crifba.runs", 1)
    tracer.add("crifba.history_bytes",
               out.X.nbytes + out.Z.nbytes + out.V.nbytes + out.res2.nbytes)


def _rows(key):
    def hook(tracer, i, fn, args, kwargs, out):
        tracer.add(key, int(_bound(fn, args, kwargs)["result"].Z.shape[0]))
    return hook


def _diagnostics(tracer, i, fn, args, kwargs, out):
    tracer.add("crifba.diagnostics.rows", len(out))


def _baseline_run(tracer, i, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    if a["max_iter"] == 0:
        return      # feasibility probe from the harness validator
    tracer.tags[i] = "baseline:" + a["kind"]
    tracer.add("baselines.%s.steps" % a["kind"],
               steps_performed(a["kind"], out, a["max_iter"]))


def _csv_written(tracer, i, fn, args, kwargs, out):
    tracer.add("harness.csv_bytes", os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _run_config(tracer, i, fn, args, kwargs, out):
    _, paths = out
    if "history" in paths:
        tracer.add("harness.history_bytes", os.path.getsize(paths["history"]))
        tracer.add("harness.history_files", 1)


HOOKS = {"crifba.run": _core_run, "crifba.diagnostics": _diagnostics,
         "checks.standard_suite": _rows("checks.standard_suite.rows"),
         "baselines.run_baseline": _baseline_run,
         "harness.write_trace_csv": _csv_written,
         "harness.run_config": _run_config}
HOOKS.update({"checks." + fn: _rows("checks.%s.rows" % fn) for fn in ORACLES.values()})
