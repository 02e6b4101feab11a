"""Command-line front end.

One JSON config file per run, read by ``config.read_json`` against the
shipped ``gjekit/schema.json`` (the same reader checks a saved envelope
against ``gjekit/envelope.schema.json``); what a schema cannot state, such
as an ``interval`` inside the generating function's nice interval or target
masses that add up to the source mass, is checked where the run is built.
Flags only select the command, config path and verbosity.
Commands write JSON reports and CSV ledgers into the config's output
directory and exit 0 on success, 1 on a failed check, 2 on config errors.
Reports carry the config hash, the seed, and the toolkit version; outputs
are byte-identical across reruns of the same config and seed, except for
the wall-time column of the solver convergence log.
"""

import argparse
import csv
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .builtins import make_builtin
from .charts import BoxChart
from .config import read_json
from .demos import (TEST_INTERVALS, demo_problem, far_field_genfun,
                    folded_twist_genfun, violator_genfun)
from .errors import ConfigError, GjekitError
from .gconvex import Envelope
from .grids import DomainGrid
from .solver import SemiDiscreteProblem, solve
from .structure import _jsonable, check_conditions

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

# the dyadic section heights of the engulfing check in ``estimate``
ENGULFING_HEIGHTS = (0.01, 0.005, 0.0025)


def _load_config(path):
    """The run config at ``path``, checked against ``schema.json``."""
    return read_json(path, "config")


def _config_hash(cfg):
    """Hash of the run a config describes; where its outputs go is not part of it."""
    run = {k: v for k, v in cfg.items() if k != "output_dir"}
    blob = json.dumps(run, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _provenance(cfg):
    return {"config_hash": _config_hash(cfg), "seed": int(cfg.get("seed", 0)),
            "version": __version__}


def _genfun_from_config(cfg):
    spec = cfg.get("genfun")
    if spec is None:
        raise ConfigError("this command needs a 'genfun' block")
    kind = spec["kind"]
    params = dict(spec.get("params", {}))
    try:
        if kind == "far_field":
            gf = far_field_genfun(**params)
        elif kind == "violator":
            gf = violator_genfun(**params)
        elif kind == "folded_twist":
            gf = folded_twist_genfun(**params)
        else:
            # these take Python objects, which a config cannot hold
            for key in ("srange", "tols", "source_chart", "target_chart"):
                if key in params:
                    raise ValueError(f"{key!r} cannot be set from a config")
            for box_key in ("source_box", "target_box"):
                if box_key in params:
                    box = params.pop(box_key)
                    if not (isinstance(box, (list, tuple)) and len(box) == 2):
                        raise ValueError(f"{box_key!r} must be a pair [lo, hi]")
                    params[box_key.replace("_box", "_chart")] = BoxChart(*box)
            gf = make_builtin(kind, **params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"malformed parameters for {kind!r}: {e}") from e
    interval = tuple(cfg.get("interval", TEST_INTERVALS.get(kind, (-0.5, 0.5))))
    sr = gf.srange
    if not sr.nice_lower < interval[0] < interval[1] < sr.nice_upper:
        raise ConfigError(f"interval must be [low, high] with low < high inside the nice "
                          f"interval ({sr.nice_lower:g}, {sr.nice_upper:g}) of {gf.name}")
    return gf, interval


def _out_dir(cfg):
    out = cfg.get("output_dir", "gjekit-out")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make output directory {out!r}: {e}") from e
    return out


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_check(cfg, verbose=False):
    gf, interval = _genfun_from_config(cfg)
    seed = int(cfg.get("seed", 0))
    n = int(cfg.get("counts", {}).get("n_samples", 400))
    out = _out_dir(cfg)
    reports, cross = check_conditions(gf, interval, n_samples=n, seed=seed)
    payload = {"provenance": _provenance(cfg), "genfun": gf.name,
               "interval": list(interval),
               "reports": {k: r.to_dict() for k, r in reports.items()},
               "crosscheck": _jsonable(cross)}
    _write_json(os.path.join(out, "check_report.json"), payload)
    all_pass = all(r.passed for r in reports.values()) and cross["implication_holds"]
    if verbose:
        for k, r in reports.items():
            print(f"{k}: {'pass' if r.passed else 'FAIL'} {r.constants}")
        print(f"crosscheck: g3w_min={cross['g3w_min']:.3e} M={cross['fitted_M']}")
    return EXIT_OK if all_pass else EXIT_FAIL


def _problem_from_config(cfg):
    if "demo" in cfg:
        problem, _ = demo_problem(cfg["demo"], cfg.get("resolution"))
        return problem
    gf, _ = _genfun_from_config(cfg)
    if "targets" not in cfg:
        raise ConfigError("custom solve needs a 'targets' list")
    grid = DomainGrid(gf.source_chart, int(cfg.get("resolution", 96)))
    pts = [t["point"] for t in cfg["targets"]]
    masses = [t["mass"] for t in cfg["targets"]]
    anchor = cfg.get("anchor", {})
    ax = np.asarray(anchor["x"], dtype=float) if "x" in anchor else None
    au = float(anchor["u"]) if "u" in anchor else None
    return SemiDiscreteProblem(gf, grid, pts, masses, anchor_x=ax, anchor_u=au)


def cmd_solve(cfg, verbose=False):
    out = _out_dir(cfg)
    problem = _problem_from_config(cfg)
    env, state = solve(problem)
    env.save(os.path.join(out, "envelope.json"))
    with open(os.path.join(out, "convergence.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sweep", "residual_inf", "wall_time_s"])
        for row in state.history:
            w.writerow([row[0], f"{row[1]:.16e}", f"{row[2]:.6f}"])
    _write_json(os.path.join(out, "solve_report.json"), {
        "provenance": _provenance(cfg),
        "converged": state.converged,
        "sweeps": state.sweeps,
        "outer_rounds": state.outer_rounds,
        "residual_inf": float(np.max(np.abs(state.residual))),
        "conservation_gap": state.conservation_gap,
        "heights": state.heights.tolist(),
        "oracle_calls": state.oracle_calls,
        "oracle_builds": state.oracle_builds,
    })
    if verbose:
        print(f"solved: residual {np.max(np.abs(state.residual)):.3e} "
              f"in {state.sweeps} sweeps")
    return EXIT_OK if state.converged else EXIT_FAIL


def _load_envelope(cfg):
    out = _out_dir(cfg)
    path = cfg.get("envelope", os.path.join(out, "envelope.json"))
    if not os.path.exists(path):
        raise ConfigError(f"no envelope file at {path}; run 'gjekit solve' first")
    return Envelope.load(path)


def cmd_raytrace(cfg, verbose=False):
    from .optics import ReflectorSurface, trace_ensemble
    out = _out_dir(cfg)
    env = _load_envelope(cfg)
    surface = ReflectorSurface(env)
    n_rays = int(cfg.get("counts", {}).get("n_rays", 20_000))
    seed = int(cfg.get("seed", 0))
    report = trace_ensemble(surface, n_rays, seed=seed)
    payload = {"provenance": _provenance(cfg), **report.to_dict()}
    _write_json(os.path.join(out, "trace_report.json"), payload)
    if verbose:
        print(f"traced {n_rays} rays: chi2 {report.chi_square:.2f}, "
              f"escapes {report.escapes}, max miss {report.max_miss:.2e}")
    ok = (report.max_reflection_residual <= env.gf.tols.reflect * 10
          and report.escapes <= max(1, n_rays // 1000))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_estimate(cfg, verbose=False):
    from .estimates import _raised_piece, aleksandrov_check, engulfing_check
    out = _out_dir(cfg)
    env = _load_envelope(cfg)
    gf = env.gf
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    n_sections = int(cfg.get("counts", {}).get("n_sections", 20))
    rows = []
    for k in range(n_sections):
        x_ref = env.grid.points[int(rng.integers(0, env.grid.n_cells))]
        h = float(rng.uniform(0.002, 0.01))
        try:
            m, _ = _raised_piece(env, x_ref, h)
            omega = rng.normal(size=gf.dim)
            omega /= np.linalg.norm(omega)
            rec = aleksandrov_check(env, m, x_ref, omega)
            rows.append({"kind": "aleksandrov", "ok": 1, **rec.to_row()})
        except GjekitError as e:
            rows.append({"kind": "aleksandrov", "ok": 0, "reason": str(e)[:120]})
    eng = engulfing_check(env, ENGULFING_HEIGHTS, n_pairs=24, seed=seed)
    with open(os.path.join(out, "estimate_ledger.csv"), "w", newline="") as fh:
        fieldnames = sorted({k for r in rows for k in r})
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        w.writerows(rows)
    n_ok = sum(r.get("ok", 0) for r in rows)
    payload = {"provenance": _provenance(cfg),
               "sections_evaluated": n_ok,
               "sections_skipped": len(rows) - n_ok,
               "engulfing": _jsonable(eng)}
    _write_json(os.path.join(out, "estimate_summary.json"), payload)
    if verbose:
        print(f"estimates: {n_ok}/{len(rows)} sections, "
              f"engulfing stable: {eng['stable_within_20pct']}")
    finite = all(np.isfinite(r.get("implied_constant", 1.0))
                 for r in rows if r.get("ok"))
    return EXIT_OK if finite else EXIT_FAIL


def cmd_demo(name, verbose=False, resolution=None, output_dir=None):
    """End-to-end pipeline: solve, then raytrace (optics demos)."""
    cfg = {"demo": name, "seed": 0, "output_dir": output_dir or f"gjekit-demo-{name}"}
    if resolution:
        cfg["resolution"] = resolution
    rc = cmd_solve(cfg, verbose=verbose)
    if rc == EXIT_OK and name in ("point-source-8", "parallel-beam-5"):
        rc = cmd_raytrace(cfg, verbose=verbose)
    return rc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gjekit",
        description="Numerical toolkit for generated Jacobian equations")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "solve", "raytrace", "estimate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
    pd = sub.add_parser("demo")
    pd.add_argument("name", choices=["classical-MA", "point-source-8", "parallel-beam-5"])
    pd.add_argument("--resolution", type=int, default=None)
    pd.add_argument("--output-dir", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "demo":
            return cmd_demo(args.name, verbose=args.verbose,
                            resolution=args.resolution, output_dir=args.output_dir)
        cfg = _load_config(args.config)
        handler = {"check": cmd_check, "solve": cmd_solve,
                   "raytrace": cmd_raytrace, "estimate": cmd_estimate}[args.command]
        return handler(cfg, verbose=args.verbose)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GjekitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
