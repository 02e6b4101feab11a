"""The three seeded workloads and their correctness gates.

Each workload is a closed loop with one caller: an operation starts when the
previous one returns.  Constructing a workload object is its set-up: it
generates every input from the seed (problems, config files, envelope
inputs, section parameters).  ``run_pass`` then runs one pass of operations
and checks each result; the program only ever sees the generated inputs.

Seed 0 reproduces the shipped demos and acceptance configurations; the
deviations forced by the run-time budget are listed in the README.

gjekit functions are always called through their module (``cli.main``,
``estimates.engulfing_check``) so the traced run's wrappers see the calls.
"""

import json
import os
import time

import numpy as np

from gjekit import cli, demos, estimates
from gjekit.config import DEFAULT_TOLS
from gjekit.errors import HypothesisError, NicenessError
from gjekit.gconvex import Envelope, GAffine

N_RAYS = 100_000
N_ENSEMBLES = 10
# pooled energy bound for the ten ensembles of one reflector: 4 sigma of
# 1e6 rays is 1.26 sigma of one 1e5-ray ensemble, so it is stricter than the
# per-ensemble 3 sigma of acceptance criterion 7, with a false-alarm rate
# of about 5e-4 per pass over eight targets instead of about 0.2
POOLED_SIGMA = 4.0
ENGULFING_HEIGHTS = [0.01, 0.005, 0.0025]


class Pass:
    """One pass through a workload: operation times, stage sums, failures."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.op_s = 0.0
        self.stage_s = {}
        self.attempted = 0
        self.failures = []
        self.bytes_written = 0
        self.notes = {}
        self._failed_ops = set()

    @property
    def failed(self):
        return len(self._failed_ops)

    def run(self, stage, name, fn, *args):
        """Time one operation; an unexpected exception fails it."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.recorder is not None:
                out = self.recorder.operation(name, fn, *args)
            else:
                out = fn(*args)
        except Exception as exc:  # counted as a failed operation, pass goes on
            out = None
            self.fail(name, f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        self.op_s += dt
        self.stage_s[stage] = self.stage_s.get(stage, 0.0) + dt
        return out

    def fail(self, name, reason):
        """Mark the latest operation failed."""
        self._failed_ops.add(self.attempted)
        self.failures.append(f"{name}: {reason}")

    def require(self, ok, name, reason):
        if not ok:
            self.fail(name, reason)

    def cli(self, stage, name, argv, out_dir, report):
        """Run one in-process CLI command; return its exit code and the JSON
        report it wrote (None when it wrote none), counting the bytes written."""
        path = os.path.join(out_dir, report)
        if os.path.exists(path):
            os.remove(path)
        before = _snapshot(out_dir)
        rc = self.run(stage, name, cli.main, argv)
        after = _snapshot(out_dir)
        self.bytes_written += sum(size for p, (size, mtime) in after.items()
                                  if before.get(p) != (size, mtime))
        if rc is None:
            return None, None
        if not os.path.exists(path):
            self.fail(name, f"exit {rc} without writing {report}")
            return rc, None
        with open(path) as fh:
            return rc, json.load(fh)


def _snapshot(d):
    out = {}
    for entry in os.scandir(d):
        st = entry.stat()
        out[entry.path] = (st.st_size, st.st_mtime_ns)
    return out


def _write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# solve-demos
# ---------------------------------------------------------------------------


# (demo, resolution, genfun block of its config, traced with ray ensembles)
DEMOS = (
    ("point-source-8", 256, {"kind": "point_source"}, True),
    ("parallel-beam-5", 128, {"kind": "parallel_beam", "params": {
        "source_box": [[-0.4, -0.4], [0.4, 0.4]],
        "target_box": [[-0.35, -0.35], [0.35, 0.35]]}}, True),
    ("classical-MA", 96, {"kind": "quasilinear", "params": {
        "source_box": [[-1.0, -1.0], [1.0, 1.0]],
        "target_box": [[-1.0, -1.0], [1.0, 1.0]]}}, False),
)


def solve_config(label, resolution, genfun):
    """Config for the shipped demo problem as explicit targets, masses and
    anchor, so the solver sees only the prescribed data."""
    problem, _ = demos.demo_problem(label, resolution)
    cfg = {"genfun": genfun, "resolution": resolution,
           "targets": [{"point": t.tolist(), "mass": float(m)}
                       for t, m in zip(problem.targets, problem.masses)],
           "anchor": {"x": problem.anchor_x.tolist(), "u": float(problem.anchor_u)}}
    return cfg, problem.masses


class SolveDemos:
    """The three demo pipelines through the CLI: solve, raytrace, estimate.

    The problems are the shipped demos for every seed; the seed draws the
    ray ensembles and the estimate sections.
    """

    name = "solve-demos"
    stages = ("solve_s", "raytrace_s", "estimate_s")

    def __init__(self, seed, work_dir):
        self.demos = []
        for label, resolution, genfun, reflector in DEMOS:
            out = os.path.join(work_dir, label)
            os.makedirs(out, exist_ok=True)
            cfg, masses = solve_config(label, resolution, genfun)
            cfg.update(seed=seed, output_dir=out)
            paths = {"solve": os.path.join(out, "solve.json"),
                     "estimate": os.path.join(out, "estimate.json"),
                     "raytrace": []}
            _write_config(paths["solve"], cfg)
            _write_config(paths["estimate"], dict(cfg, counts={"n_sections": 10}))
            for k in range(N_ENSEMBLES if reflector else 0):
                path = os.path.join(out, f"raytrace{k}.json")
                _write_config(path, dict(cfg, seed=N_ENSEMBLES * seed + k,
                                         counts={"n_rays": N_RAYS}))
                paths["raytrace"].append(path)
            self.demos.append((label, out, paths, masses))

    def run_pass(self, p):
        for label, out, paths, masses in self.demos:
            total = float(np.sum(masses))
            op = f"solve {label}"
            rc, rep = p.cli("solve_s", op, ["solve", "--config", paths["solve"]],
                            out, "solve_report.json")
            if rep is None:
                continue
            p.require(rc == 0 and rep["converged"], op, "did not converge")
            p.require(rep["residual_inf"] <= DEFAULT_TOLS.mass_rel * total, op,
                      f"residual {rep['residual_inf']:.3e}")
            p.require(rep["conservation_gap"] <= 1e-12 * total, op,
                      f"conservation gap {rep['conservation_gap']:.3e}")
            hits = np.zeros(len(masses))
            for k, path in enumerate(paths["raytrace"]):
                op = f"raytrace {label} #{k}"
                rc, rep = p.cli("raytrace_s", op, ["raytrace", "--config", path],
                                out, "trace_report.json")
                if rep is None:
                    continue
                p.require(rc == 0 and rep["n_rays"] == N_RAYS, op, f"exit {rc}")
                p.require(rep["max_miss"] <= 1e-9, op, f"miss {rep['max_miss']:.1e}")
                p.require(rep["max_reflection_residual"] <= 1e-12, op,
                          f"reflection residual {rep['max_reflection_residual']:.1e}")
                hits += rep["hits"]
            if paths["raytrace"]:
                z = _pooled_deviation(hits, masses)
                p.notes[f"{label} pooled energy max |z|"] = round(z, 2)
                if label == "point-source-8":
                    p.require(z <= POOLED_SIGMA, op,
                              f"pooled energy deviation {z:.2f} sigma")
            op = f"estimate {label}"
            rc, summary = p.cli("estimate_s", op,
                                ["estimate", "--config", paths["estimate"]],
                                out, "estimate_summary.json")
            if summary is None:
                continue
            p.require(rc == 0, op, "non-finite section constant")
            p.notes[f"{label} sections evaluated"] = summary["sections_evaluated"]


def _pooled_deviation(hits, masses):
    """Largest per-target deviation of the pooled hits, in binomial sigmas."""
    n = float(np.sum(hits))
    share = masses / np.sum(masses)
    sigma = np.sqrt(share * (1 - share) * n)
    return float(np.max(np.abs(hits - n * share) / sigma))


# ---------------------------------------------------------------------------
# check-conditions
# ---------------------------------------------------------------------------


class CheckConditions:
    """The sampled structural-condition verifiers through the CLI."""

    name = "check-conditions"
    stages = ("check_s",)
    kinds = ("far_field", "violator")

    def __init__(self, seed, work_dir):
        self.runs = []
        for kind in self.kinds:
            out = os.path.join(work_dir, kind)
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, "check.json")
            _write_config(path, {"genfun": {"kind": kind}, "seed": seed,
                                 "counts": {"n_samples": 200}, "output_dir": out})
            self.runs.append((kind, out, path))

    def run_pass(self, p):
        for kind, out, path in self.runs:
            op = f"check {kind}"
            rc, rep = p.cli("check_s", op, ["check", "--config", path], out,
                            "check_report.json")
            if rep is None:
                continue
            reports = rep["reports"]
            p.notes[f"{kind} skipped samples"] = sum(r["skipped"] for r in reports.values())
            if kind == "far_field":
                failing = sorted(k for k, r in reports.items() if not r["passed"])
                p.require(rc == 0 and len(reports) == 8 and not failing, op,
                          f"exit {rc}, failing {failing}")
                p.require(rep["crosscheck"]["implication_holds"], op,
                          "crosscheck implication fails")
            else:
                g3w = reports["g3w"]
                p.require(rc == 1 and not g3w["passed"] and bool(g3w["witness"]),
                          op, f"exit {rc}; g3w must fail with a witness")
                # not gated: 16 qqconv samples at n_samples 200 miss the
                # violation for some seeds (see README)
                p.notes["violator qqconv witness"] = bool(reports["qqconv"]["witness"])


# ---------------------------------------------------------------------------
# dense-envelopes
# ---------------------------------------------------------------------------


def thinned_violator():
    """Every other focus of demos.violator_envelope() along each axis:
    5,625 of its 22,201 cubic pieces, on the shipped 150x150 grid."""
    full = demos.violator_envelope()
    lattice = np.rint(full.xbars * 75).astype(np.int64)
    keep = np.all(lattice % 2 == 0, axis=1)
    return Envelope(full.gf, (full.xbars[keep], full.zs[keep]), full.grid)


def _scan(template):
    """Build an envelope from the template's inputs and partition its grid."""
    env = Envelope(template.gf, (template.xbars, template.zs), template.grid)
    if hasattr(template, "focus_cell_volume"):
        env.focus_cell_volume = template.focus_cell_volume
    return env, env.grid_values(), env.cell_indices()


def _section(env, m, x0, omega):
    try:
        return estimates.aleksandrov_check(env, m, x0, omega, diam_cap=0.5)
    except (HypothesisError, NicenessError):
        return None


class DenseEnvelopes:
    """Dense tangent-field envelopes: one scan each, then the estimates."""

    name = "dense-envelopes"
    stages = ("envelope_s", "estimate_s")

    def __init__(self, seed, work_dir):
        self.engulfing = demos.engulfing_envelope()
        self.violator = thinned_violator()
        self.ball = demos.ball_measure_envelope()
        self.engulfing_seed = 3 + seed
        self.check_cells = np.random.default_rng(seed).integers(0, 2**31, size=3)
        rng = np.random.default_rng(9 + seed)
        self.sections = []
        gf = self.ball.gf
        for _ in range(100):
            xb = rng.uniform(-0.3, 0.3, 2)
            hp = float(rng.uniform(0.002, 0.008))
            m = GAffine(gf, xb, float(xb @ xb / 2 - hp))
            omega = rng.normal(size=2)
            omega /= np.linalg.norm(omega)
            self.sections.append((m, xb, omega))

    def _scan_op(self, p, label, template, cell_seed):
        op = f"scan {label}"
        out = p.run("envelope_s", op, _scan, template)
        if out is None:
            return None
        env, values, idx = out
        p.require(_scan_matches(env, values, idx, cell_seed), op,
                  "scan disagrees with direct evaluation")
        return env

    def run_pass(self, p):
        env = self._scan_op(p, "engulfing", self.engulfing, self.check_cells[0])
        if env is not None:
            op = "engulfing_check engulfing"
            res = p.run("estimate_s", op, estimates.engulfing_check, env,
                        ENGULFING_HEIGHTS, 30, self.engulfing_seed)
            if res is not None:
                p.notes["engulfing lambda"] = np.round(res["lambda_values"], 3).tolist()
                p.require(res["stable_within_20pct"], op, "classical envelope unstable")
        env = self._scan_op(p, "violator", self.violator, self.check_cells[1])
        if env is not None:
            op = "engulfing_check violator"
            res = p.run("estimate_s", op, estimates.engulfing_check, env,
                        ENGULFING_HEIGHTS, 120, self.engulfing_seed)
            if res is not None:
                lams = res["lambda_values"]
                p.notes["violator lambda"] = np.round(lams, 3).tolist()
                p.require(not res["stable_within_20pct"] and lams[0] > 1.25 * lams[-1],
                          op, f"violator verdict not unstable: {lams}")
        env = self._scan_op(p, "ball-measure", self.ball, self.check_cells[2])
        if env is None:
            return
        evaluated = 0
        for k, (m, xb, omega) in enumerate(self.sections):
            op = f"aleksandrov_check #{k}"
            rec = p.run("estimate_s", op, _section, env, m, xb, omega)
            if rec is not None:
                evaluated += 1
                c = rec.implied_constant
                p.require(np.isfinite(c) and c > 0, op, f"implied constant {c}")
        p.notes["aleksandrov sections evaluated"] = evaluated
        p.require(evaluated >= 50, op, f"only {evaluated} of 100 sections evaluated")


def _scan_matches(env, values, idx, cell_seed, n_cells=16):
    """Check the scan at sampled cells against every piece evaluated with the
    generating function's own formula: the cell value is the max over the
    pieces, and the winning piece attains it, both within the tie tolerance."""
    gf, tie = env.gf, env.tols.tie
    cells = np.random.default_rng(cell_seed).choice(env.grid.n_cells, n_cells,
                                                    replace=False)
    n = env.n_pieces
    for k in cells:
        x = np.broadcast_to(env.grid.points[k], (n, env.grid.points.shape[1]))
        ok = gf._in_domain(x, env.xbars, env.zs)
        v = np.full(n, -np.inf)
        v[ok] = gf._value(x[ok], env.xbars[ok], env.zs[ok])
        best = np.max(v)
        if abs(values[k] - best) > tie or abs(v[idx[k]] - best) > tie:
            return False
    return True


WORKLOADS = {w.name: w for w in (SolveDemos, CheckConditions, DenseEnvelopes)}
