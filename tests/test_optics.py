import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gjekit import optics
from gjekit.builtins import make_builtin
from gjekit.charts import BoxChart, _dot3
from gjekit.errors import ConfigError
from gjekit.gconvex import Envelope
from gjekit.grids import DomainGrid
from gjekit.optics import ReflectorSurface, trace_ensemble


def _trace_one(surf, pt):
    """One ray through the ensemble's geometry and nearest target: a unit
    direction from the origin (point source) or the chart point under an
    ascending vertical ray (parallel beam).  Returns (hit point, reflected
    direction, target index or None beyond the snap distance, miss)."""
    pts = np.asarray(pt, dtype=float)[None, :]
    _, P, _, d_out = optics._reflector_geometry(surf, pts,
                                                optics._active_pieces(surf.env, pts))
    j, miss = optics._nearest_target(surf.targets_3d, P, d_out)
    target = int(j[0]) if miss[0] <= surf.env.tols.snap else None
    return P[0], d_out[0], target, float(miss[0])


def test_single_ellipsoid_focal_property():
    gf = make_builtin("point_source")
    grid = DomainGrid(gf.source_chart, 32)
    rng = np.random.default_rng(0)
    xb = gf.target_chart.sample(1, rng)[0]
    z = gf.inverse(gf.source_chart.embed(np.zeros((1, 2)))[0], xb, 0.6)
    env = Envelope(gf, (xb[None, :], np.array([z])), grid)
    surf = ReflectorSurface(env)
    for d in gf.source_chart.sample(50, rng):
        P, out, tgt, miss = _trace_one(surf, d)
        assert tgt == 0
        assert miss <= 1e-9
        # exact quadric membership of the hit point: |P| + |P - xbar| = 2a
        assert abs(np.linalg.norm(P) + np.linalg.norm(P - xb) - 2.0 / z) <= 1e-9


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
    P, out, tgt, miss = _trace_one(surf, d_axis)
    assert np.allclose(out, [0.0, 0.0, -1.0], atol=1e-12)
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
    P, out, tgt, miss = _trace_one(surf, xb)
    assert np.allclose(out, [0.0, 0.0, -1.0], atol=1e-12)
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
        d = x / np.linalg.norm(x)
        P, out, tgt, miss = _trace_one(surf, d)
        _, i = env.representative(d)
        assert tgt == i
        assert miss <= 1e-9


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
    # one row at a time on the ensemble's own sampled points: the per-ray
    # targets and printed misses of the CSV, and the largest miss bit for bit
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
        _, _, tgt, miss = _trace_one(surf, p)
        assert rows[k] == f"{k},{-1 if tgt is None else tgt},{miss:.12e}"
        misses.append(miss)
    assert max(misses).hex() == rep.max_miss.hex()


def _philox(key):
    return np.random.Generator(np.random.Philox(key=key))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 400),
       n=st.integers(0, 3000), weights=st.sampled_from(["uniform", "wide", "dominant"]))
@example(seed=0, n_cells=1, n=500, weights="uniform")
def test_choice_replays_generator_choice(seed, n_cells, n, weights):
    # the same indices as Generator.choice(p=) and the same stream after it
    rng = np.random.default_rng(seed)
    if weights == "uniform":
        w = rng.uniform(1e-3, 1.0, n_cells)
    elif weights == "wide":
        w = np.exp(rng.normal(0.0, 4.0, n_cells))
    else:
        w = rng.uniform(1e-6, 1e-5, n_cells)
        w[rng.integers(n_cells)] = 1.0
    p = w / w.sum()
    ref, new = _philox(seed), _philox(seed)
    expect = ref.choice(n_cells, size=n, p=p)
    assert np.array_equal(optics._choice(p, n, new), expect)
    assert repr(new.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(new.random(4), ref.random(4))


def test_choice_draw_on_a_cdf_entry_goes_right():
    # a draw equal to a cdf entry takes the next cell, as
    # searchsorted(side="right") in Generator.choice does
    p = np.array([0.25, 0.25, 0.0, 0.125, 0.375])
    cdf = np.cumsum(p)
    u = np.concatenate(([0.0], cdf[:-1], cdf[:-1] - 2.0 ** -53))
    rng = type("Draws", (), {"random": lambda self, n: u.copy()})()
    expect = np.searchsorted(cdf, u, side="right")
    assert np.array_equal(optics._choice(p, u.size, rng), expect)


def test_choice_keeps_the_checks_of_generator_choice():
    rng = _philox(0)
    for p in ([0.5, 0.6, -0.1], [0.5, np.nan, 0.5], [0.5, 0.4, 0.0], [[0.5, 0.5]]):
        with pytest.raises(ValueError):
            rng.choice(np.size(p), size=3, p=p)
        with pytest.raises(ValueError):
            optics._choice(np.array(p), 3, rng)


def _all_target_loop(targets, P, d_out):
    """The nearest target over every target, in ascending order with the
    strict < tie rule: the reference of optics._nearest_target."""
    for k, target in enumerate(targets):
        w = target - P
        t = np.einsum("md,md->m", w, d_out)
        np.clip(t, 0.0, None, out=t)
        res = w - t[:, None] * d_out
        miss = np.sqrt(_dot3(res, res))
        if k == 0:
            j, best = np.zeros(miss.shape[0], dtype=np.int64), miss
        else:
            closer = miss < best
            np.copyto(best, miss, where=closer)
            j[closer] = k
    return j, best


def _unit(v):
    return v / np.sqrt(_dot3(v, v))[:, None]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_t=st.integers(1, 12), m=st.integers(1, 300),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_nearest_target_is_the_all_target_loop(seed, n_t, m, scale):
    rng = np.random.default_rng(seed)
    targets = scale * rng.uniform(-1.0, 1.0, (n_t, 3))
    if n_t > 2:
        # an exact tie: a repeated target goes to its lower index
        targets[n_t - 1] = targets[rng.integers(n_t - 1)]
    P = scale * rng.uniform(-2.0, 2.0, (m, 3))
    own = rng.integers(n_t, size=m)
    # most rays pass through a target, as a reflected ray passes through
    # its piece's focus; the rest point anywhere, backward rays included
    d_out = _unit(np.where(rng.random(m)[:, None] < 0.7, targets[own] - P,
                           rng.normal(size=(m, 3))))
    kind = rng.integers(0, 4, size=m)
    if n_t > 1:
        # two targets on one ray: start behind target a on the line through b
        a, b = rng.choice(n_t - 1 if n_t > 2 else n_t, size=2, replace=False)
        two = kind == 0
        ab = targets[b] - targets[a]
        P[two] = targets[a] - rng.uniform(0.1, 2.0, (int(two.sum()), 1)) * ab
        d_out[two] = _unit(np.broadcast_to(ab, (int(two.sum()), 3)))
    # degenerate rows: a non-finite row keeps every target
    P[kind == 1] = np.nan
    j, best = optics._nearest_target(targets, P, d_out)
    j_ref, best_ref = _all_target_loop(targets, P, d_out)
    assert np.array_equal(j, j_ref)
    assert np.array_equal(best.view(np.int64), best_ref.view(np.int64))
    assert np.all(optics._candidates(targets, P, d_out)[:, kind == 1])
