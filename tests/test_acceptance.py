"""Acceptance suite.

One test per acceptance criterion, at the stated sample sizes, tolerances,
and runtime budgets; each prints a single PASS/FAIL line.  Heavy sampling
paths run batched (same formulas as the scalar API, verified against it in
the unit suites).
"""

import time
from collections import Counter

import numpy as np
import pytest

from gjekit.builtins import make_builtin
from gjekit.charts import BoxChart
from gjekit.demos import (TEST_INTERVALS, far_field_genfun, point_source_8_problem,
                          violator_genfun)
from gjekit.errors import GjekitError, RowStatus
from gjekit.expmaps import e_matrix, exp_source, exp_target
from gjekit.gconvex import Envelope, GAffine
from gjekit.estimates import aleksandrov_check, engulfing_check, sharp_growth_check
from gjekit.solver import solve
from gjekit.structure import check_qqconv, g3w_batch, g3w_sweep

BUILTINS = ["quasilinear", "point_source", "parallel_beam", "minkowski"]


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _sample_batch(gf, interval, n, seed=0):
    """Vectorized rejection sampler for admissible (x, xbar, u, z) tuples."""
    rng = np.random.default_rng(seed)
    xs_l, xbs_l, us_l, zs_l = [], [], [], []
    got = 0
    tries = 0
    while got < n and tries < 40:
        tries += 1
        m = 2 * (n - got)
        xs = gf.source_chart.sample(m, rng)
        xbs = gf.target_chart.sample(m, rng)
        us = rng.uniform(interval[0], interval[1], m)
        if gf.name == "minkowski":
            keep0 = np.sum(xs * xbs, axis=1) > 0.05
            xs, xbs, us = xs[keep0], xbs[keep0], us[keep0]
            if xs.shape[0] == 0:
                continue
        try:
            zs = gf.inverse(xs, xbs, us)
        except GjekitError:
            continue
        keep = gf._in_domain(xs, xbs, zs)
        xs_l.append(xs[keep])
        xbs_l.append(xbs[keep])
        us_l.append(us[keep])
        zs_l.append(zs[keep])
        got += int(np.sum(keep))
    xs = np.concatenate(xs_l)[:n]
    xbs = np.concatenate(xbs_l)[:n]
    us = np.concatenate(us_l)[:n]
    zs = np.concatenate(zs_l)[:n]
    assert xs.shape[0] == n, f"sampler exhausted at {xs.shape[0]}/{n}"
    return xs, xbs, us, zs


# -- criterion 1 --------------------------------------------------------------------


def test_criterion_1_roundtrips():
    t0 = time.perf_counter()
    worst_dual = 0.0
    worst_src = 0.0
    worst_tgt = 0.0
    for name in BUILTINS:
        gf = make_builtin(name)
        iv = TEST_INTERVALS[name]
        xs, xbs, us, zs = _sample_batch(gf, iv, 10_000, seed=1)
        u_back = gf.value(xs, xbs, zs, check=False)
        z_back = gf.inverse(xs, xbs, u_back)
        dual = np.max(np.abs(gf.value(xs, xbs, z_back, check=False) - u_back))
        worst_dual = max(worst_dual, float(dual))
        p = -gf.d_xbar(xs, xbs, zs) / gf.g_z(xs, xbs, zs)[:, None]
        xr = exp_source(gf, xbs, zs, p)
        worst_src = max(worst_src, float(np.max(np.abs(xr - xs))))
        pb = gf.d_x(xs, xbs, zs)
        xbr, zr = exp_target(gf, xs, us, pb)
        worst_tgt = max(worst_tgt, float(np.max(np.abs(xbr - xbs))),
                        float(np.max(np.abs(zr - zs))))
    dt = time.perf_counter() - t0
    ok = worst_dual <= 1e-9 and worst_src <= 1e-8 and worst_tgt <= 1e-8 and dt <= 30
    _report("criterion 1: dual/exponential roundtrips",
            ok, f"dual {worst_dual:.2e}, src {worst_src:.2e}, "
                f"tgt {worst_tgt:.2e}, {dt:.1f}s")


# -- criterion 2 --------------------------------------------------------------------


def _source_velocity_batch(gf, xs0, xs1, xbs, zs, s0):
    p0 = -gf.d_xbar(xs0, xbs, zs) / gf.g_z(xs0, xbs, zs)[:, None]
    p1 = -gf.d_xbar(xs1, xbs, zs) / gf.g_z(xs1, xbs, zs)[:, None]
    ps = (1 - s0) * p0 + s0 * p1
    x_s = exp_source(gf, xbs, zs, ps, x_guess=xs0)
    Et = np.swapaxes(e_matrix(gf, x_s, xbs, zs), 1, 2)
    gz = gf.g_z(x_s, xbs, zs)
    v = -gz[:, None] * np.linalg.solve(Et, (p1 - p0)[:, :, None])[:, :, 0]
    h = 1e-5
    xp = exp_source(gf, xbs, zs, (1 - s0 - h) * p0 + (s0 + h) * p1, x_guess=x_s)
    xm = exp_source(gf, xbs, zs, (1 - s0 + h) * p0 + (s0 - h) * p1, x_guess=x_s)
    fd = (gf.source_chart.coords(xp) - gf.source_chart.coords(xm)) / (2 * h)
    return v, fd


def _target_velocity_batch(gf, xs0, xbs0, xbs1, us, t0v):
    pb0 = gf.d_x(xs0, xbs0, gf.inverse(xs0, xbs0, us))
    pb1 = gf.d_x(xs0, xbs1, gf.inverse(xs0, xbs1, us))
    pbt = (1 - t0v) * pb0 + t0v * pb1
    xbt, zt = exp_target(gf, xs0, us, pbt, xbar_guess=xbs0)
    E = e_matrix(gf, xs0, xbt, zt)
    vb = np.linalg.solve(E, (pb1 - pb0)[:, :, None])[:, :, 0]
    p_here = -gf.d_xbar(xs0, xbt, zt) / gf.g_z(xs0, xbt, zt)[:, None]
    vz = np.sum(p_here * vb, axis=1)
    h = 1e-5
    xbp, zp = exp_target(gf, xs0, us, (1 - t0v - h) * pb0 + (t0v + h) * pb1,
                         xbar_guess=xbt, z_guess=zt)
    xbm, zm = exp_target(gf, xs0, us, (1 - t0v + h) * pb0 + (t0v - h) * pb1,
                         xbar_guess=xbt, z_guess=zt)
    fdb = (gf.target_chart.coords(xbp) - gf.target_chart.coords(xbm)) / (2 * h)
    fdz = (zp - zm) / (2 * h)
    return vb, vz, fdb, fdz


def test_criterion_2_velocity_formulas():
    t0 = time.perf_counter()
    worst = 0.0
    for name in BUILTINS:
        gf = make_builtin(name)
        iv = TEST_INTERVALS[name]
        xs, xbs, us, zs = _sample_batch(gf, iv, 2_000, seed=2)
        xs0, xs1 = xs[:1000], xs[1000:]
        xbs0, us0, zs0 = xbs[:1000], us[:1000], zs[:1000]
        ok = gf._in_domain(xs1, xbs0, zs0)
        v, fd = _source_velocity_batch(gf, xs0[ok], xs1[ok], xbs0[ok],
                                       zs0[ok], 0.41)
        rel = np.max(np.abs(v - fd), axis=1) / np.maximum(
            1.0, np.max(np.abs(fd), axis=1))
        worst = max(worst, float(np.max(rel)))
        xbs1 = xbs[1000:]
        vb, vz, fdb, fdz = _target_velocity_batch(gf, xs0, xbs0, xbs1, us0, 0.41)
        relb = np.max(np.abs(vb - fdb), axis=1) / np.maximum(
            1.0, np.max(np.abs(fdb), axis=1))
        relz = np.abs(vz - fdz) / np.maximum(1.0, np.abs(fdz))
        worst = max(worst, float(np.max(relb)), float(np.max(relz)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt <= 60
    _report("criterion 2: segment velocity formulas", ok,
            f"worst rel dev {worst:.2e}, {dt:.1f}s")


# -- criterion 3 --------------------------------------------------------------------


def _ortho_dirs(n, dim, rng):
    V = rng.normal(size=(n, dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    eta = rng.normal(size=(n, dim))
    eta -= np.sum(eta * V, axis=1, keepdims=True) * V
    eta /= np.linalg.norm(eta, axis=1, keepdims=True)
    return V, eta


def _skip_reasons(status):
    return dict(Counter(RowStatus(int(c)).name.lower() for c in status[status != 0]))


def test_criterion_3_g3w_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    # quasilinear quadratic: identically zero
    ql = make_builtin("quasilinear")
    xs, xbs, us, zs = _sample_batch(ql, TEST_INTERVALS["quasilinear"], 10_000, seed=3)
    pbars = ql.d_x(xs, xbs, zs)
    V, eta = _ortho_dirs(10_000, 2, rng)
    vals, st_ql = g3w_batch(ql, xs, pbars, us, V, eta, xbar_guess=xbs)
    vals = vals[st_ql == 0]
    ql_max = float(np.max(np.abs(vals)))
    # far-field log cost: nonnegative
    ff = far_field_genfun()
    xs, xbs, us, zs = _sample_batch(ff, TEST_INTERVALS["far_field"], 10_000, seed=4)
    pbars = ff.d_x(xs, xbs, zs)
    V, eta = _ortho_dirs(10_000, 2, rng)
    vals_ff, st_ff = g3w_batch(ff, xs, pbars, us, V, eta, xbar_guess=xbs)
    vals_ff = vals_ff[st_ff == 0]
    ff_min = float(np.min(vals_ff))
    dt = time.perf_counter() - t0
    ok = (ql_max <= 1e-6 and ff_min >= -1e-8 and dt <= 120
          and vals.size >= 9_500 and vals_ff.size >= 9_500)
    _report("criterion 3: tensor calibration", ok,
            f"quasilinear |max| {ql_max:.2e} (skipped {_skip_reasons(st_ql)}), "
            f"far-field min {ff_min:.3e} (skipped {_skip_reasons(st_ff)}), {dt:.1f}s")


# -- criterion 4 --------------------------------------------------------------------


def test_criterion_4_qqconv_calibration():
    t0 = time.perf_counter()
    ql = check_qqconv(make_builtin("quasilinear"), TEST_INTERVALS["quasilinear"],
                      n_samples=40, seed=4)
    m_ql = ql.constants["fitted_M"]
    viol = check_qqconv(violator_genfun(), TEST_INTERVALS["violator"],
                        n_samples=25, seed=2)
    dt = time.perf_counter() - t0
    ok = (abs(m_ql - 1.0) <= 1e-6 and not viol.passed and bool(viol.witness)
          and dt <= 120)
    _report("criterion 4: quasiconvexity calibration", ok,
            f"quasilinear M = 1 {m_ql - 1.0:+.1e}, violator witness "
            f"{bool(viol.witness)}, {dt:.1f}s")


# -- criterion 5 --------------------------------------------------------------------


def test_criterion_5_tensor_implies_finite_m():
    cases = []
    for gf, iv in ([(make_builtin(n), TEST_INTERVALS[n]) for n in BUILTINS]
                   + [(far_field_genfun(), TEST_INTERVALS["far_field"])]):
        tensor = g3w_sweep(gf, iv, n_base=24, n_pairs=8, seed=5)
        qq = check_qqconv(gf, iv, n_samples=20, seed=5)
        g3w_min = tensor.constants["min_value"]
        m_fit = qq.constants["fitted_M"]
        holds = (g3w_min < -1e-8) or np.isfinite(m_fit)
        cases.append((gf.name, g3w_min, m_fit, holds))
    ok = all(c[3] for c in cases)
    detail = "; ".join(f"{n}: min {g:.1e}, M {m}" for n, g, m, _ in cases)
    _report("criterion 5: tensor nonnegativity implies finite M", ok, detail)


# -- criteria 6 and 7 ---------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_full_demo():
    problem, z_true = point_source_8_problem(resolution=256)
    t0 = time.perf_counter()
    env, state = solve(problem)
    dt = time.perf_counter() - t0
    return problem, env, state, dt


def test_criterion_6_solver(solved_full_demo):
    problem, env, state, dt = solved_full_demo
    tol = problem.gf.tols.mass_rel * problem.total_mass
    res = float(np.max(np.abs(state.residual)))
    conserved = state.conservation_gap <= 1e-12 * problem.total_mass
    env2, state2 = solve(problem)
    deterministic = np.array_equal(state.heights, state2.heights)
    ok = res <= tol and dt <= 60 and conserved and deterministic
    _report("criterion 6: semi-discrete solver", ok,
            f"residual {res:.2e} (tol {tol:.2e}), {dt:.1f}s, "
            f"conservation gap {state.conservation_gap:.1e}, "
            f"deterministic {deterministic}")


def test_criterion_7_ray_tracing(solved_full_demo):
    from gjekit.optics import ReflectorSurface, trace_ensemble
    problem, env, state, _ = solved_full_demo
    surface = ReflectorSurface(env)
    rep = trace_ensemble(surface, 100_000, seed=7)
    p = problem.masses / problem.total_mass
    sig = np.sqrt(p * (1 - p) * rep.n_rays)
    dev = np.max(np.abs(rep.hits - rep.n_rays * p) / sig)
    ok = (dev <= 3.0 and rep.max_miss <= 1e-9
          and rep.max_reflection_residual <= 1e-12)
    _report("criterion 7: ray-traced energies", ok,
            f"max dev {dev:.2f} sigma, miss {rep.max_miss:.1e}, "
            f"reflection {rep.max_reflection_residual:.1e}, "
            f"escapes {rep.escapes}")


# -- criterion 8 --------------------------------------------------------------------


def test_criterion_8_classical_estimates(calibration_envelope):
    env = calibration_envelope
    gf = env.gf
    Ca, Cg = [], []
    for h in (0.01, 0.02, 0.04):
        m = GAffine(gf, np.zeros(2), -h)
        rec = aleksandrov_check(env, m, np.zeros(2), np.array([1.0, 0.0]),
                                diam_cap=0.62)
        Ca.append(rec.implied_constant)
        rA = np.sqrt(2 * h) / 2.0 / 1.1
        recg = sharp_growth_check(env, m, env.grid.ball_mask(np.zeros(2), rA))
        Cg.append(recg.implied_constant)
    Ca, Cg = np.array(Ca), np.array(Cg)
    spread_a = float((Ca.max() - Ca.min()) / Ca.mean())
    spread_g = float((Cg.max() - Cg.min()) / Cg.mean())
    # 100 random nice sections: no violations (every implied constant finite)
    rng = np.random.default_rng(8)
    n_ok = 0
    violations = 0
    for _ in range(100):
        xb = rng.uniform(-0.25, 0.25, 2)
        hp = rng.uniform(0.004, 0.01)
        m = GAffine(gf, xb, float(xb @ xb / 2 - hp))
        omega = rng.normal(size=2)
        omega /= np.linalg.norm(omega)
        try:
            rec = aleksandrov_check(env, m, xb, omega, diam_cap=0.62)
        except GjekitError:
            continue
        n_ok += 1
        if not np.isfinite(rec.implied_constant) or rec.implied_constant <= 0:
            violations += 1
    ok = spread_a <= 0.05 and spread_g <= 0.05 and violations == 0 and n_ok >= 90
    _report("criterion 8: classical estimate constants", ok,
            f"aleksandrov spread {100 * spread_a:.2f}%, growth spread "
            f"{100 * spread_g:.2f}%, sections {n_ok}/100 evaluated, "
            f"{violations} violations")


def test_criterion_8b_demo_envelope_sections(solved_point_source_small,
                                             solved_parallel_beam_small,
                                             solved_classical_ma_small, ball_env):
    """Random sections of the solved demo envelopes: no violations among the
    sections whose hypotheses hold (coarse envelopes mostly fail the
    diameter/containment gates, which is expected and counted)."""
    total_eval = 0
    violations = 0
    skipped = 0
    for problem, env, state, _ in (solved_point_source_small,
                                   solved_parallel_beam_small,
                                   solved_classical_ma_small):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(0, env.grid.n_cells))
            x = env.grid.points[k]
            h = float(rng.uniform(0.001, 0.01))
            omega = rng.normal(size=2)
            omega /= np.linalg.norm(omega)
            try:
                u0, active = env.eval(x)
                xbar = env.xbars[active[0]]
                z_h = env.gf.inverse(x, xbar, u0 + h)
                m = GAffine(env.gf, xbar, float(z_h))
                rec = aleksandrov_check(env, m, x, omega)
            except GjekitError:
                skipped += 1
                continue
            total_eval += 1
            if not np.isfinite(rec.implied_constant) or rec.implied_constant < 0:
                violations += 1
    # the dense measure-calibration envelope admits theorem-shaped sections,
    # so the criterion is exercised non-vacuously
    env = ball_env
    rng = np.random.default_rng(9)
    for _ in range(100):
        xb = rng.uniform(-0.3, 0.3, 2)
        hp = float(rng.uniform(0.002, 0.008))
        m = GAffine(env.gf, xb, float(xb @ xb / 2 - hp))
        omega = rng.normal(size=2)
        omega /= np.linalg.norm(omega)
        try:
            rec = aleksandrov_check(env, m, xb, omega, diam_cap=0.5)
        except GjekitError:
            skipped += 1
            continue
        total_eval += 1
        if not np.isfinite(rec.implied_constant) or rec.implied_constant < 0:
            violations += 1
    ok = violations == 0 and total_eval >= 50
    _report("criterion 8b: demo envelope sections", ok,
            f"{total_eval} sections evaluated, {skipped} hypothesis-skipped, "
            f"{violations} violations")


# -- criterion 9 --------------------------------------------------------------------


def test_criterion_9_section_convexity(calibration_envelope,
                                       solved_point_source_small,
                                       solved_parallel_beam_small):
    results = []
    # which built-ins pass the quasiconvexity check decides the roster
    roster = []
    for name, solved in (("quasilinear", None),
                         ("point_source", solved_point_source_small),
                         ("parallel_beam", solved_parallel_beam_small)):
        gf = make_builtin(name)
        rep = check_qqconv(gf, TEST_INTERVALS[name], n_samples=15, seed=9)
        if rep.passed and np.isfinite(rep.constants["fitted_M"]):
            roster.append((name, solved))
    assert any(n == "quasilinear" for n, _ in roster)
    worst = 0.0
    env = calibration_envelope
    rng = np.random.default_rng(10)
    for _ in range(8):
        xb = rng.uniform(-0.2, 0.2, 2)
        hp = rng.uniform(0.004, 0.012)
        m = GAffine(env.gf, xb, float(xb @ xb / 2 - hp))
        sec = env.section(m)
        score = sec.convexity_score(seed=1)
        worst = max(worst, score["ratio"])
        results.append(("quasilinear-dense", score["ratio"]))
    from gjekit.estimates import section_at_height
    for name, solved in roster:
        if solved is None:
            continue
        problem, envd, state, _ = solved
        inner = envd.grid.coords
        margin = 4 * envd.grid.width()
        keep = np.flatnonzero(
            np.all((inner >= np.asarray(envd.grid.chart.lo) + margin)
                   & (inner <= np.asarray(envd.grid.chart.hi) - margin), axis=1))
        for k in keep[:: max(1, len(keep) // 5)][:5]:
            try:
                sec = section_at_height(envd, envd.grid.points[int(k)], 0.003)
                if np.sum(sec.mask) < 24:
                    continue
                score = sec.convexity_score(seed=2)
            except GjekitError:
                continue
            worst = max(worst, score["ratio"])
            results.append((name, score["ratio"]))
    ok = worst <= 2.0 and len(results) >= 10
    _report("criterion 9: section convexity", ok,
            f"worst hull-fill ratio {worst:.2f} over {len(results)} sections")


# -- criterion 10 -------------------------------------------------------------------


def test_criterion_10_engulfing(engulfing_env, violator_env):
    heights = [0.01, 0.005, 0.0025]
    stable = engulfing_check(engulfing_env, heights, n_pairs=30, seed=3)
    bad = engulfing_check(violator_env, heights, n_pairs=40, seed=3)
    lams = bad["lambda_values"]
    ok = (stable["stable_within_20pct"]
          and not bad["stable_within_20pct"]
          and lams[0] > 1.25 * lams[-1])
    _report("criterion 10: engulfing stability contrast", ok,
            f"classical factors {np.round(stable['lambda_values'], 3).tolist()}, "
            f"violator factors {np.round(lams, 2).tolist()}")
