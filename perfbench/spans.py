"""Span recording around the calls into each gjekit layer.

The traced run wraps the public functions of the gjekit modules from the
outside: every module binding a caller uses (``solver.kernels.piece_mass``,
``structure.exp_target``, ``cli.cmd_solve`` ...) is replaced by a wrapper
that records one span per call.  The library source is not edited, and the
timed runs never install the wrappers.

A span is (name, start, end, parent span, operation id, raised).  Spans are
kept in flat arrays in memory and written out once when the run ends.  A
layer is the first dotted component of a span name; a layer's self time is
the time its spans cover minus the part covered by their child spans.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

# gjekit modules whose public module-level functions are wrapped
FUNCTION_LAYERS = ("solver", "kernels", "gconvex", "optics", "estimates",
                   "structure", "expmaps", "cli")
GENFUN_DERIVATIVES = ("d_x", "d_xbar", "g_z", "g_zz", "d_x_xbar", "d_x_z",
                      "d_xbar_z", "d2_x", "d2_xbar")
# layers whose self time is reported; "bench" is the time inside benchmark
# operations that no wrapped call covers
LAYERS = ("solver", "kernels", "gconvex", "optics", "estimates", "structure",
          "expmaps", "genfun", "charts", "cli", "bench")
# metric name of each structure check, keyed by span name
STRUCTURE_CHECKS = {
    "structure.check_unif_lip": "unif_lip", "structure.check_twist": "twist",
    "structure.check_nondeg": "nondeg", "structure.check_domconv": "domconv",
    "structure.g3w_sweep": "g3w", "structure.g3w_sweep.dual": "g3w_dual",
    "structure.check_qqconv": "qqconv",
    "structure.check_qqconv.dual": "qqconv_dual",
    "structure.crosscheck_g3w_implies_qqconv": "crosscheck",
}


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}         # counter name -> int, filled by the hooks
        self._stack = [-1]
        self._op = -1
        self._patches = []

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name):
        k = self._name_ids.get(name)
        if k is None:
            k = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return k

    def _open(self, name):
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid, raised=False):
        self.end[sid] = time.perf_counter()
        self.raised[sid] = raised
        self._stack.pop()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def operation(self, name, fn, *args):
        """Run one benchmark operation as a root span with its own id."""
        self._op += 1
        sid = self._open("bench." + name)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def wrap(self, name, fn, work=None, on_result=None, on_error=None):
        """Wrapper recording a span per call.

        ``name`` is a span name or a callable (args, kwargs) -> name.
        ``work(args, kwargs)`` returns counter increments measured from the
        arguments; ``on_result(recorder, result)`` and
        ``on_error(recorder, exc)`` update counters after the call.
        """
        name_of = name if callable(name) else (lambda a, k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_of(args, kwargs)
            if work is not None:
                for key, n in work(args, kwargs).items():
                    self.count(key, n)
            sid = self._open(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, raised=True)
                if on_error is not None:
                    on_error(self, exc)
                raise
            self._close(sid)
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    # -- installation --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of every layer at every module binding."""
        import scipy.optimize
        import scipy.spatial

        from gjekit import builtins, charts, gconvex, genfun
        layer_mods = [importlib.import_module("gjekit." + layer)
                      for layer in FUNCTION_LAYERS]
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "gjekit" or k.startswith("gjekit.")]
        for layer, mod in zip(FUNCTION_LAYERS, layer_mods):
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                span = f"{layer}.{attr}"
                wrapped = self.wrap(_DUAL_NAMES.get(span, span), fn,
                                    **_HOOKS.get(span, {}))
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            self._set(m, k, wrapped)
        env_cls = gconvex.Envelope
        for attr, fn in sorted(vars(env_cls).items()):
            span = f"gconvex.Envelope.{attr}"
            if attr.startswith("_"):
                continue
            if isinstance(fn, staticmethod):
                self._set(env_cls, attr, staticmethod(self.wrap(span, fn.__func__)))
            elif inspect.isfunction(fn):
                self._set(env_cls, attr, self.wrap(span, fn, **_HOOKS.get(span, {})))
        gf_classes = [genfun.GenFun] + [
            c for c in vars(builtins).values()
            if inspect.isclass(c) and issubclass(c, genfun.GenFun)
            and c is not genfun.GenFun]
        for cls in gf_classes:
            for attr in ("value", "inverse") + GENFUN_DERIVATIVES:
                if attr in vars(cls):
                    span = "genfun." + (attr if attr in ("value", "inverse")
                                        else "derivative")
                    self._set(cls, attr, self.wrap(span, vars(cls)[attr],
                                                   **_HOOKS.get(span, {})))
        for cls in (charts.BoxChart, charts.PlaneChart, charts.SphereChart):
            if "jacobian" in vars(cls):
                self._set(cls, "jacobian",
                          self.wrap("charts.jacobian", vars(cls)["jacobian"]))
        # scipy geometry imported inside the estimates functions at call time;
        # only calls made from gjekit.estimates get a span
        for owner, attr, span in (
                (scipy.spatial, "ConvexHull", "estimates.convex_hull"),
                (scipy.spatial, "Delaunay", "estimates.delaunay"),
                (scipy.optimize, "linprog", "estimates.linprog")):
            self._set(owner, attr, self._caller_gated(span, getattr(owner, attr)))

    def _caller_gated(self, span, target):
        traced = self.wrap(span, target)

        def call(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "gjekit.estimates":
                return traced(*args, **kwargs)
            return target(*args, **kwargs)

        return call

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------------

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "raised": np.frombuffer(self.raised, dtype=np.int8).astype(bool),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def write(self, path):
        """Write every span and the name table to an ``.npz`` file."""
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(json.dumps(self.names)),
                            **self.arrays())


# -- counters measured at the wrapped boundaries ------------------------------------


def _dual_span(base):
    return lambda args, kwargs: base + ".dual" if kwargs.get("dual") else base


_DUAL_NAMES = {s: _dual_span(s) for s in ("structure.g3w_sweep",
                                          "structure.check_qqconv")}


def _rows(span, arg_index, kw):
    """Counter of the rows in the batched argument at ``arg_index``."""
    def work(args, kwargs):
        a = args[arg_index] if len(args) > arg_index else kwargs[kw]
        return {span + ".rows": np.atleast_2d(a).shape[0]}
    return work


def _scan_work(args, kwargs):
    xs, xbars = np.shape(args[1]), np.shape(args[2])
    cells = xbars[0] * xs[0]
    # one pass over the grid points per piece plus one value per cell
    return {"kernels.envelope_scan.piece_cells": cells,
            "kernels.envelope_scan.bytes_computed": cells * (xs[1] + 1) * 8}


def _inverse_rows(args, kwargs):
    x, xbar, u = args[1:4]
    rows = max(np.atleast_2d(x).shape[0], np.atleast_2d(xbar).shape[0], np.size(u))
    return {"genfun.inverse.rows": rows}


def _solver_result(rec, out):
    _, state = out
    rec.count("solver.sweeps", state.sweeps)
    rec.count("solver.outer_rounds", state.outer_rounds)


def _trace_result(rec, report):
    rec.count("optics.rays", report.n_rays)
    rec.count("optics.escapes", report.escapes)


def _report_result(rec, report):
    rec.count("structure.samples", report.n_samples)
    rec.count("structure.skipped", report.skipped)


def _aleksandrov_error(rec, exc):
    from gjekit.errors import HypothesisError, NicenessError
    if isinstance(exc, (HypothesisError, NicenessError)):
        rec.count("estimates.aleksandrov.hypothesis_skipped")


_HOOKS = {
    "solver.solve": {"on_result": _solver_result},
    "kernels.envelope_scan": {"work": _scan_work},
    "kernels.piece_values": {"work": lambda a, k: {
        "kernels.piece_values.cells": np.shape(a[1])[0]}},
    "gconvex.Envelope.eval": {"work": lambda a, k: {
        "gconvex.Envelope.eval.pieces": a[0].n_pieces}},
    "optics.trace_ensemble": {"on_result": _trace_result},
    "expmaps.exp_target": {"work": _rows("expmaps.exp_target", 3, "pbar")},
    "expmaps.exp_source": {"work": _rows("expmaps.exp_source", 3, "p")},
    "expmaps.g_segment": {"on_result": lambda rec, seg: rec.count(
        "expmaps.g_segment.ill_defined", not seg.well_defined)},
    "genfun.inverse": {"work": _inverse_rows},
    "estimates.engulfing_check": {"on_result": lambda rec, out: rec.count(
        "estimates.engulfing.pairs_used",
        sum(v["n_pairs"] for v in out["per_height"].values()))},
    "estimates.aleksandrov_check": {
        "on_result": lambda rec, out: rec.count("estimates.aleksandrov.evaluated"),
        "on_error": _aleksandrov_error},
}
for _name in ("check_unif_lip", "check_twist", "check_nondeg", "check_domconv",
              "g3w_sweep", "check_qqconv"):
    _HOOKS["structure." + _name] = {"on_result": _report_result}


# -- per-layer metrics ---------------------------------------------------------------

# (name, unit, better) of every metric the traced run reports
PER_LAYER = (
    [("kernels.piece_mass.calls", "count", "lower"),
     ("kernels.piece_mass.s", "s", "lower"),
     ("kernels.piece_mass.p50_us", "us", "lower"),
     ("kernels.piece_mass.p99_us", "us", "lower"),
     ("kernels.piece_values.calls", "count", "lower"),
     ("kernels.piece_values.s", "s", "lower"),
     ("kernels.piece_values.cells", "count", "lower"),
     ("kernels.envelope_scan.calls", "count", "lower"),
     ("kernels.envelope_scan.s", "s", "lower"),
     ("kernels.envelope_scan.piece_cells", "count", "lower"),
     ("kernels.envelope_scan.piece_cells_per_s", "1/s", "higher"),
     ("kernels.envelope_scan.bytes_computed", "B", "lower"),
     ("solver.sweeps", "count", "lower"),
     ("solver.outer_rounds", "count", "lower"),
     ("solver.oracle_calls", "count", "lower"),
     ("solver.oracle_calls_per_sweep", "count", "lower"),
     ("gconvex.Envelope.eval.calls", "count", "lower"),
     ("gconvex.Envelope.eval.s", "s", "lower"),
     ("gconvex.Envelope.eval.pieces", "count", "lower"),
     ("gconvex.Envelope.section.calls", "count", "lower"),
     ("gconvex.Envelope.section.s", "s", "lower"),
     ("gconvex.Envelope.cell_masses.calls", "count", "lower"),
     ("gconvex.Envelope.cell_masses.s", "s", "lower"),
     ("optics.trace_ensemble.calls", "count", "lower"),
     ("optics.trace_ensemble.s", "s", "lower"),
     ("optics.rays", "count", "higher"),
     ("optics.escapes", "count", "lower"),
     ("optics.rays_per_s", "1/s", "higher")]
    + [(f"expmaps.{f}.{k}", u, "lower")
       for f in ("exp_target", "exp_source")
       for k, u in (("calls", "count"), ("rows", "count"), ("s", "s"),
                    ("errors", "count"), ("p50_us", "us"), ("p99_us", "us"))]
    + [("expmaps.g_segment.calls", "count", "lower"),
       ("expmaps.g_segment.s", "s", "lower"),
       ("expmaps.g_segment.ill_defined", "count", "lower"),
       ("expmaps.rows_per_call", "count", "higher"),
       ("genfun.inverse.calls", "count", "lower"),
       ("genfun.inverse.rows", "count", "lower"),
       ("genfun.inverse.s", "s", "lower"),
       ("genfun.inverse.errors", "count", "lower"),
       ("genfun.derivative.calls", "count", "lower"),
       ("genfun.derivative.s", "s", "lower"),
       ("charts.jacobian.calls", "count", "lower"),
       ("charts.jacobian.s", "s", "lower")]
    + [(f"structure.{c}.s", "s", "lower") for c in STRUCTURE_CHECKS.values()]
    + [("structure.samples", "count", "higher"),
       ("structure.skipped", "count", "lower"),
       ("structure.skip_frac", "ratio", "lower")]
    + [(f"estimates.{f}.{k}", u, "lower")
       for f in ("engulfing_check", "aleksandrov_check")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("estimates.engulfing.pairs_used", "count", "higher"),
       ("estimates.aleksandrov.evaluated", "count", "higher"),
       ("estimates.aleksandrov.hypothesis_skipped", "count", "lower")]
    + [(f"estimates.{f}.{k}", u, "lower")
       for f in ("convex_hull", "delaunay", "linprog")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [(f"cli.{c}.s", "s", "lower")
       for c in ("cmd_solve", "cmd_raytrace", "cmd_estimate", "cmd_check")]
    + [("cli.bytes_written", "B", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.spans", "count", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.untraced_wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)
# metrics that are not timings and must repeat exactly across runs at a seed;
# cli.bytes_written is left out because convergence.csv records wall times
COUNTERS = tuple(n for n, u, _ in PER_LAYER
                 if u in ("count", "B", "ratio") and n != "cli.bytes_written")


def _ancestor_has(name, parent, targets):
    """Per span: does some strict ancestor carry a name id in ``targets``?"""
    has = np.zeros(name.shape[0], dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        valid = anc >= 0
        has[valid] |= np.isin(name[anc[valid]], targets)
        anc = np.where(valid, parent[np.maximum(anc, 0)], -1)
    return has


def _same_name_ancestor(name, parent):
    has = np.zeros(name.shape[0], dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        valid = anc >= 0
        has[valid] |= name[anc[valid]] == name[valid]
        anc = np.where(valid, parent[np.maximum(anc, 0)], -1)
    return has


def layer_metrics(rec, traced_wall, untraced_wall, bytes_written):
    """Every PER_LAYER metric from the recorded spans and counters."""
    a = rec.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    n = dur.shape[0]
    child = parent >= 0
    children_s = np.bincount(parent[child], weights=dur[child], minlength=n)
    self_s = dur - children_s
    outer = ~_same_name_ancestor(name, parent)
    ids = {nm: i for i, nm in enumerate(rec.names)}

    def sel(span):
        return name == ids.get(span, -1)

    def calls(span):
        return int(np.sum(sel(span)))

    def incl(span):
        return float(np.sum(dur[sel(span) & outer]))

    def pct_us(span, q):
        d = dur[sel(span)]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    counts = rec.counts
    m = {}
    for fn in ("piece_mass", "piece_values", "envelope_scan"):
        m[f"kernels.{fn}.calls"] = calls(f"kernels.{fn}")
        m[f"kernels.{fn}.s"] = incl(f"kernels.{fn}")
    m["kernels.piece_mass.p50_us"] = pct_us("kernels.piece_mass", 50)
    m["kernels.piece_mass.p99_us"] = pct_us("kernels.piece_mass", 99)
    m["kernels.piece_values.cells"] = counts.get("kernels.piece_values.cells", 0)
    for k in ("piece_cells", "bytes_computed"):
        m[f"kernels.envelope_scan.{k}"] = counts.get(f"kernels.envelope_scan.{k}", 0)
    scan_s = m["kernels.envelope_scan.s"]
    m["kernels.envelope_scan.piece_cells_per_s"] = (
        m["kernels.envelope_scan.piece_cells"] / scan_s if scan_s > 0 else 0.0)

    m["solver.sweeps"] = counts.get("solver.sweeps", 0)
    m["solver.outer_rounds"] = counts.get("solver.outer_rounds", 0)
    in_solve = _ancestor_has(name, parent, [ids.get("solver.solve", -1)])
    m["solver.oracle_calls"] = int(np.sum(sel("kernels.piece_mass") & in_solve))
    m["solver.oracle_calls_per_sweep"] = (
        m["solver.oracle_calls"] / m["solver.sweeps"] if m["solver.sweeps"] else 0.0)

    for meth in ("eval", "section", "cell_masses"):
        m[f"gconvex.Envelope.{meth}.calls"] = calls(f"gconvex.Envelope.{meth}")
        m[f"gconvex.Envelope.{meth}.s"] = incl(f"gconvex.Envelope.{meth}")
    m["gconvex.Envelope.eval.pieces"] = counts.get("gconvex.Envelope.eval.pieces", 0)

    m["optics.trace_ensemble.calls"] = calls("optics.trace_ensemble")
    m["optics.trace_ensemble.s"] = incl("optics.trace_ensemble")
    m["optics.rays"] = counts.get("optics.rays", 0)
    m["optics.escapes"] = counts.get("optics.escapes", 0)
    m["optics.rays_per_s"] = (m["optics.rays"] / m["optics.trace_ensemble.s"]
                              if m["optics.trace_ensemble.s"] > 0 else 0.0)

    for fn in ("exp_target", "exp_source"):
        span = "expmaps." + fn
        m[span + ".calls"] = calls(span)
        m[span + ".rows"] = counts.get(span + ".rows", 0)
        m[span + ".s"] = incl(span)
        m[span + ".errors"] = int(np.sum(sel(span) & a["raised"]))
        m[span + ".p50_us"] = pct_us(span, 50)
        m[span + ".p99_us"] = pct_us(span, 99)
    m["expmaps.g_segment.calls"] = calls("expmaps.g_segment")
    m["expmaps.g_segment.s"] = incl("expmaps.g_segment")
    m["expmaps.g_segment.ill_defined"] = counts.get("expmaps.g_segment.ill_defined", 0)
    exp_calls = m["expmaps.exp_target.calls"] + m["expmaps.exp_source.calls"]
    m["expmaps.rows_per_call"] = (
        (m["expmaps.exp_target.rows"] + m["expmaps.exp_source.rows"]) / exp_calls
        if exp_calls else 0.0)

    m["genfun.inverse.calls"] = calls("genfun.inverse")
    m["genfun.inverse.rows"] = counts.get("genfun.inverse.rows", 0)
    m["genfun.inverse.s"] = incl("genfun.inverse")
    m["genfun.inverse.errors"] = int(np.sum(sel("genfun.inverse") & a["raised"]))
    m["genfun.derivative.calls"] = calls("genfun.derivative")
    m["genfun.derivative.s"] = incl("genfun.derivative")
    m["charts.jacobian.calls"] = calls("charts.jacobian")
    m["charts.jacobian.s"] = incl("charts.jacobian")

    for span, short in STRUCTURE_CHECKS.items():
        m[f"structure.{short}.s"] = incl(span)
    m["structure.samples"] = counts.get("structure.samples", 0)
    m["structure.skipped"] = counts.get("structure.skipped", 0)
    tried = m["structure.samples"] + m["structure.skipped"]
    m["structure.skip_frac"] = m["structure.skipped"] / tried if tried else 0.0

    for fn in ("engulfing_check", "aleksandrov_check", "convex_hull",
               "delaunay", "linprog"):
        m[f"estimates.{fn}.calls"] = calls("estimates." + fn)
        m[f"estimates.{fn}.s"] = incl("estimates." + fn)
    for k in ("engulfing.pairs_used", "aleksandrov.evaluated",
              "aleksandrov.hypothesis_skipped"):
        m["estimates." + k] = counts.get("estimates." + k, 0)

    for c in ("cmd_solve", "cmd_raytrace", "cmd_estimate", "cmd_check"):
        m[f"cli.{c}.s"] = incl("cli." + c)
    m["cli.bytes_written"] = int(bytes_written)

    layer_of = np.array([LAYERS.index(nm.split(".")[0]) for nm in rec.names],
                        dtype=np.int64)
    per_layer = (np.bincount(layer_of[name], weights=self_s, minlength=len(LAYERS))
                 if n else np.zeros(len(LAYERS)))
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.self_s"] = float(per_layer[i])

    m["trace.spans"] = n
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m
