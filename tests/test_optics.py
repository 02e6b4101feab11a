import numpy as np
import pytest

from gjekit import optics
from gjekit.builtins import make_builtin
from gjekit.charts import BoxChart
from gjekit.errors import ConfigError
from gjekit.gconvex import Envelope
from gjekit.grids import DomainGrid
from gjekit.optics import (Ray, ReflectorSurface, consistency_with_exp_target,
                           trace_ensemble, trace_ray)


def test_single_ellipsoid_focal_property():
    gf = make_builtin("point_source")
    grid = DomainGrid(gf.source_chart, 32)
    rng = np.random.default_rng(0)
    xb = gf.target_chart.sample(1, rng)[0]
    z = gf.inverse(gf.source_chart.embed(np.zeros((1, 2)))[0], xb, 0.6)
    env = Envelope(gf, (xb[None, :], np.array([z])), grid)
    surf = ReflectorSurface(env)
    for d in gf.source_chart.sample(50, rng):
        P, out, tgt, miss = trace_ray(surf, Ray(np.zeros(3), d))
        assert tgt == 0
        assert miss <= 1e-9
        # exact quadric membership of the hit point
        assert abs(surf.quadric_residual(P, 0)) <= 1e-9


def test_normal_incidence_point_source():
    # ray along the axis of the rotationally symmetric piece reflects back
    # through the origin and continues to the axis target
    gf = make_builtin("point_source",
                      target_chart=__import__("gjekit.charts", fromlist=["x"])
                      .PlaneChart((-0.6, -0.6), (0.6, 0.6), height=-1.0))
    grid = DomainGrid(gf.source_chart, 16)
    xb = np.array([0.0, 0.0, -1.0])
    z = 0.8
    env = Envelope(gf, (xb[None, :], np.array([z])), grid)
    surf = ReflectorSurface(env)
    d_axis = np.array([0.0, 0.0, 1.0])  # along the symmetry axis, within cap
    P, out, tgt, miss = trace_ray(surf, Ray(np.zeros(3), d_axis))
    assert np.allclose(out.direction, [0.0, 0.0, -1.0], atol=1e-12)
    assert tgt == 0 and miss <= 1e-12


def test_parallel_beam_normal_incidence():
    pb = make_builtin("parallel_beam",
                      source_chart=BoxChart((-0.4, -0.4), (0.4, 0.4)),
                      target_chart=BoxChart((-0.35, -0.35), (0.35, 0.35)))
    grid = DomainGrid(pb.source_chart, 32)
    xb = np.array([0.2, -0.1])
    env = Envelope(pb, (xb[None, :], np.array([0.7])), grid)
    surf = ReflectorSurface(env)
    # vertical ray striking the sheet right above its focus reflects
    # straight down onto the target point below
    ray = Ray(np.array([0.2, -0.1, -10.0]), np.array([0.0, 0.0, 1.0]))
    P, out, tgt, miss = trace_ray(surf, ray)
    assert np.allclose(out.direction, [0.0, 0.0, -1.0], atol=1e-12)
    assert tgt == 0 and miss <= 1e-12


def test_reflector_surface_kinds():
    gf = make_builtin("quasilinear")
    grid = DomainGrid(gf.source_chart, 8)
    env = Envelope(gf, (np.zeros((1, 2)), np.array([0.0])), grid)
    with pytest.raises(ConfigError):
        ReflectorSurface(env)


def test_ensemble_energies_and_laws(solved_point_source_small):
    problem, env, state, _ = solved_point_source_small
    surf = ReflectorSurface(env)
    rep = trace_ensemble(surf, 40_000, seed=11)
    # energy conservation is exact
    assert rep.hits.sum() + rep.escapes == rep.n_rays
    assert rep.escapes <= rep.n_rays * 1e-3
    assert rep.max_reflection_residual <= 1e-12
    assert rep.max_miss <= 1e-9
    p = problem.masses / problem.total_mass
    sig = np.sqrt(p * (1 - p) * rep.n_rays)
    assert np.all(np.abs(rep.hits - rep.n_rays * p) <= 3.5 * sig)


def test_ensemble_deterministic(solved_parallel_beam_small):
    problem, env, state, _ = solved_parallel_beam_small
    surf = ReflectorSurface(env)
    r1 = trace_ensemble(surf, 5000, seed=3)
    r2 = trace_ensemble(surf, 5000, seed=3)
    assert np.array_equal(r1.hits, r2.hits)
    assert r1.chi_square == r2.chi_square


def test_perturbed_heights_degrade_chi_square(solved_point_source_small):
    problem, env, state, _ = solved_point_source_small
    surf = ReflectorSurface(env)
    n = 300_000  # the correct solution's chi-square stays at O(dof) while a
    # systematic shift grows linearly in the ray count
    base = trace_ensemble(surf, n, seed=5)
    env_bad = Envelope(env.gf, (env.xbars, env.zs * 1.01), env.grid)
    rep_bad = trace_ensemble(ReflectorSurface(env_bad), n, seed=5)
    p = problem.masses / problem.total_mass
    chi_bad = np.sum((rep_bad.hits - n * p) ** 2 / (n * p))
    chi_base = np.sum((base.hits - n * p) ** 2 / (n * p))
    assert chi_bad > 10 * max(chi_base, 1.0)


def test_consistency_semi_discrete_identity(solved_point_source_small):
    problem, env, state, _ = solved_point_source_small
    surf = ReflectorSurface(env)
    rng = np.random.default_rng(4)
    xs = env.grid.points[rng.integers(0, env.grid.n_cells, 40)]
    # traced target equals the active focus by construction; the reflected
    # ray passes through it to focal accuracy
    for x in xs[:10]:
        ray = Ray(np.zeros(3), x / np.linalg.norm(x))
        P, out, tgt, miss = trace_ray(surf, ray)
        _, i = env.representative(ray.direction)
        assert tgt == i
        assert miss <= 1e-9


def test_consistency_dense_quasilinear_1d():
    # dense tangent-piece envelope of x^2/2 in one dimension: the active
    # focus approximates the continuum target map to well under 1e-3
    gf = make_builtin("quasilinear",
                      source_chart=BoxChart((-1.0,), (1.0,)),
                      target_chart=BoxChart((-1.1,), (1.1,)))
    grid = DomainGrid(gf.source_chart, (2000,))
    foci = np.linspace(-1.05, 1.05, 40_000)[:, None]
    env = Envelope(gf, (foci, 0.5 * foci[:, 0] ** 2), grid)
    rng = np.random.default_rng(6)
    xs = rng.uniform(-0.8, 0.8, (200, 1))
    rep = consistency_with_exp_target(env, xs, tol_chart=1e-4)
    assert rep["max_deviation"] <= 1e-3


def test_trace_csv(tmp_path, solved_parallel_beam_small):
    problem, env, state, _ = solved_parallel_beam_small
    surf = ReflectorSurface(env)
    path = tmp_path / "rays.csv"
    rep = trace_ensemble(surf, 500, seed=1, csv_path=path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape[0] == 500
    assert rep.hits.sum() == np.sum(data["target"] >= 0)


def _report_bits(rep):
    return {k: [float(x).hex() for x in np.ravel(v)] if isinstance(v, (float, np.ndarray))
            else v for k, v in vars(rep).items()}


@pytest.mark.parametrize("fixture", ["solved_point_source_small",
                                     "solved_parallel_beam_small"])
def test_ensemble_bits_do_not_depend_on_the_block(tmp_path, monkeypatch, request,
                                                  fixture):
    env = request.getfixturevalue(fixture)[1]
    surf = ReflectorSurface(env)
    runs = []
    for block in (optics._RAY_BLOCK, 7, 1000):
        monkeypatch.setattr(optics, "_RAY_BLOCK", block)
        path = tmp_path / f"rays{block}.csv"
        rep = trace_ensemble(surf, 5000, seed=2, csv_path=path)
        runs.append((_report_bits(rep), path.read_bytes()))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("fixture", ["solved_point_source_small",
                                     "solved_parallel_beam_small"])
def test_trace_ray_is_the_one_row_ensemble(tmp_path, request, fixture):
    # trace_ray on the ensemble's own sampled points: the per-ray targets
    # and printed misses of the CSV, and the largest miss bit for bit
    env = request.getfixturevalue(fixture)[1]
    surf = ReflectorSurface(env)
    n, seed = 300, 4
    path = tmp_path / "rays.csv"
    rep = trace_ensemble(surf, n, seed=seed, csv_path=path)
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = optics._sample_source(env, n, rng)
    rows = path.read_text().splitlines()[1:]
    misses = []
    for k, p in enumerate(pts):
        if surf.kind == "point_source":
            ray = Ray(np.zeros(3), p)
        else:
            ray = Ray(np.array([p[0], p[1], -1.0]), np.array([0.0, 0.0, 1.0]))
        _, _, tgt, miss = trace_ray(surf, ray)
        assert rows[k] == f"{k},{-1 if tgt is None else tgt},{miss:.12e}"
        misses.append(miss)
    assert max(misses).hex() == rep.max_miss.hex()
