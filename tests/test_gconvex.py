from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjekit import cli, estimates, kernels, solver
from gjekit.builtins import make_builtin
from gjekit.charts import BoxChart
from gjekit.config import DEFAULT_TOLS
from gjekit.demos import paraboloid_envelope
from gjekit.errors import EmptyEnvelopeError, NicenessError
from gjekit.gconvex import Envelope, GAffine
from gjekit.grids import DomainGrid


def _ql(res=40, half=1.0):
    gf = make_builtin("quasilinear",
                      source_chart=BoxChart((-half, -half), (half, half)),
                      target_chart=BoxChart((-half, -half), (half, half)))
    return gf, DomainGrid(gf.source_chart, res)


def test_single_piece_envelope():
    gf, grid = _ql()
    env = Envelope(gf, (np.array([[0.2, 0.1]]), np.array([0.05])), grid)
    x = np.array([0.3, -0.4])
    u, active = env.eval(x)
    assert np.isclose(u, gf.value(x, np.array([0.2, 0.1]), 0.05))
    assert list(active) == [0]
    assert env.cell_masses()[0] == pytest.approx(grid.weights.sum())


def test_quasilinear_envelope_is_lower_envelope_of_planes():
    gf, grid = _ql()
    rng = np.random.default_rng(0)
    foci = rng.uniform(-0.5, 0.5, size=(7, 2))
    zs = rng.uniform(-0.2, 0.2, size=7)
    env = Envelope(gf, (foci, zs), grid)
    for x in rng.uniform(-0.9, 0.9, size=(25, 2)):
        direct = np.max(foci @ x - zs)
        assert np.isclose(env.eval(x)[0], direct, atol=1e-12)


def test_point_source_three_piece_matches_direct(builtins_all):
    gf = builtins_all["point_source"]
    grid = DomainGrid(gf.source_chart, 24)
    rng = np.random.default_rng(1)
    tg = gf.target_chart.sample(3, rng)
    zs = gf.inverse(np.broadcast_to(grid.points[0], (3, 3)).copy(), tg,
                    np.array([0.6, 0.61, 0.59]))
    env = Envelope(gf, (tg, zs), grid)
    for k in range(0, grid.n_cells, 97):
        x = grid.points[k]
        vals = [gf.value(x, tg[i], zs[i], check=False) for i in range(3)]
        assert np.isclose(env.eval(x)[0], max(vals), atol=1e-12)


def test_envelope_owns_its_pieces():
    # the solver goes on mutating the heights it built an envelope from
    gf, grid = _ql(res=16)
    rng = np.random.default_rng(3)
    xbars = gf.target_chart.sample(12, rng)
    zs = rng.normal(size=12)
    x = grid.points[37]
    ref = Envelope(gf, (xbars.copy(), zs.copy()), grid)
    env = Envelope(gf, (xbars, zs), grid)
    u, active = env.eval(x)  # builds the pointwise cache
    zs[:] = -10.0
    xbars[:] = 0.0
    assert env.cell_indices().tolist() == ref.cell_indices().tolist()
    assert env.eval(x)[0] == ref.eval(x)[0] == u
    assert env.eval(x)[1].tolist() == active.tolist()


def test_empty_envelope_error():
    gf, grid = _ql()
    env = Envelope(gf, (np.array([[0.1, 0.1]]), np.array([0.0])), grid)
    mk = make_builtin("minkowski")
    # a minkowski piece is inadmissible where <x, xbar> <= 0
    gridm = DomainGrid(mk.source_chart, 16)
    xb_far = mk.target_chart.sample(1, np.random.default_rng(2))[0]
    envm = Envelope(mk, (xb_far[None, :], np.array([1.0])), gridm)
    # all cap points have positive inner product with a cap target: fine
    assert envm.eval(gridm.points[0])[0] > 0
    with pytest.raises(EmptyEnvelopeError):
        env.eval(np.array([5.0, 5.0]))  # outside the chart: no admissible piece


def test_subdiff_interior_and_ridge():
    gf, grid = _ql()
    foci = np.array([[0.4, 0.0], [-0.4, 0.0]])
    zs = np.zeros(2)
    env = Envelope(gf, (foci, zs), grid)
    # the G-subdifferential at x: the foci of the pieces active there
    assert np.allclose(env.xbars[env.eval(np.array([0.5, 0.2]))[1]], foci[:1])
    ridge = env.xbars[env.eval(np.array([0.0, 0.3]))[1]]  # tie locus <x, f0-f1> = 0
    assert ridge.shape[0] == 2


def test_subdiff_singleton_fraction(solved_point_source_small):
    problem, env, state, _ = solved_point_source_small
    idx = env.cell_indices()
    vals = env.grid_values()
    # count grid cells where the second-best piece comes within the tie tol
    n_multi = 0
    sample = np.arange(0, env.grid.n_cells, 7)
    for k in sample:
        v = env.piece_values_at(env.grid.points[k])
        if np.sum(v >= v.max() - env.tols.tie) > 1:
            n_multi += 1
    assert n_multi / len(sample) <= 1e-3


def test_cell_masses_partition_and_symmetry():
    gf, grid = _ql(res=64)
    foci = np.array([[0.3, 0.0], [-0.3, 0.0]])
    env = Envelope(gf, (foci, np.zeros(2)), grid)
    masses = env.cell_masses()
    assert np.isclose(masses.sum(), grid.weights.sum(), rtol=1e-12)
    assert abs(masses[0] - masses[1]) <= 1e-12 * masses.sum()


def test_cell_mass_grid_refinement_first_order():
    gf, _ = _ql()
    foci = np.array([[0.31, 0.17], [-0.12, -0.4], [0.05, 0.33]])
    zs = np.array([0.02, -0.06, 0.01])
    masses = {}
    for res in (32, 64, 256):
        grid = DomainGrid(gf.source_chart, res)
        masses[res] = Envelope(gf, (foci, zs), grid).cell_masses()
    ref = masses[256]
    e32 = np.max(np.abs(masses[32] - ref))
    e64 = np.max(np.abs(masses[64] - ref))
    assert e64 <= 0.75 * e32  # roughly first order in the cell width


def test_gma_measure_hit_conventions(solved_point_source_small):
    problem, env, state, _ = solved_point_source_small
    # the foci active on a set of cells: every target on the whole grid,
    # carrying the whole mass, and monotone under inclusion
    full = np.ones(env.grid.n_cells, dtype=bool)
    _, hit = estimates._subdiff_volume(env, full)
    assert hit.tolist() == list(range(problem.n_targets))
    assert np.isclose(problem.masses[hit].sum(), problem.total_mass, rtol=1e-12)
    half = env.grid.coords[:, 0] > 0
    _, hit_half = estimates._subdiff_volume(env, half)
    assert set(hit_half) <= set(hit)


def test_envelope_supports_from_below():
    gf, grid = _ql()
    rng = np.random.default_rng(3)
    foci = rng.uniform(-0.6, 0.6, (100, 2))
    zs = 0.5 * np.sum(foci ** 2, axis=1)
    env = Envelope(gf, (foci, zs), grid)
    u = env.grid_values()
    for i in rng.integers(0, 100, 20):
        piece_vals = GAffine(gf, foci[i], zs[i]).values_on(grid.points)
        assert np.all(piece_vals <= u + env.tols.tie)


# -- sections ---------------------------------------------------------------------


def test_section_disc_and_convexity_score(parab_env):
    env = parab_env
    gf = env.gf
    m = GAffine(gf, np.zeros(2), -0.02)  # constant reference value 0.02
    sec = env.section(m)
    r = np.sqrt(2 * 0.02)
    vol = sec.volume()
    assert abs(vol - np.pi * r * r) / (np.pi * r * r) < 0.02
    # the image under p is the same disc for the bilinear cost
    cloud = sec.coord_image()
    assert np.max(np.linalg.norm(cloud, axis=1)) <= r + 2 * env.grid.width()
    score = sec.convexity_score(seed=1)
    assert score["ratio"] <= 2.0


def test_section_niceness_error():
    gf, grid = _ql()
    foci = np.array([[0.0, 0.0]])
    env = Envelope(gf, (foci, np.array([0.0])), grid)
    sr = gf.srange
    bad = GAffine(gf, np.zeros(2), -2 * sr.nice_upper)  # constant above nice band
    with pytest.raises(NicenessError):
        env.section(bad)


def test_empty_section():
    gf, grid = _ql()
    env = Envelope(gf, (np.zeros((1, 2)), np.array([0.0])), grid)
    m = GAffine(gf, np.zeros(2), 0.5)  # m = -0.5 < u = 0 everywhere
    sec = env.section(m)
    assert sec.empty


def test_envelope_serialization_roundtrip(tmp_path):
    gf, grid = _ql(res=16)
    foci = np.array([[0.2, 0.1], [-0.3, 0.25]])
    zs = np.array([0.05, -0.02])
    env = Envelope(gf, (foci, zs), grid)
    path = tmp_path / "env.json"
    env.save(path)
    env2 = Envelope.load(path)
    assert np.allclose(env2.xbars, foci)
    assert np.allclose(env2.zs, zs)
    x = np.array([0.11, -0.07])
    assert np.isclose(env2.eval(x)[0], env.eval(x)[0])


def test_saved_lattice_envelope_keeps_its_focus_cell_volume(tmp_path):
    # the focus count, not the hull of the active foci, measures the
    # section {u <= 0.01} after a round trip too (0.06210, hull 0.05693);
    # an envelope without a lattice volume saves no key for it
    env = paraboloid_envelope(half=0.9, cell=0.015, focus_extent=0.62,
                              focus_spacing=0.015)
    m = GAffine(env.gf, np.zeros(2), -0.01)
    want = estimates._subdiff_volume(env, env.section(m).mask)[0]
    env.save(tmp_path / "lattice.json")
    back = Envelope.load(tmp_path / "lattice.json")
    assert back.focus_cell_volume == env.focus_cell_volume
    assert estimates._subdiff_volume(back, back.section(m).mask)[0] == want
    plain = Envelope(env.gf, (env.xbars[:3], env.zs[:3]), env.grid)
    plain.save(tmp_path / "plain.json")
    assert "focus_cell_volume" not in (tmp_path / "plain.json").read_text()
    assert Envelope.load(tmp_path / "plain.json").focus_cell_volume is None


@pytest.mark.parametrize("kind", ["far_field", "violator", "folded_twist", "minkowski",
                                  "point_source", "parallel_beam"])
def test_envelope_of_each_config_kind_reloads(tmp_path, kind):
    # every generating function a config builds (neg_log, cubic_perturbed
    # with its eps, folded_target, minkowski, point_source, flat
    # parallel_beam) comes back from its descriptor with the same cells
    gf, interval = cli._genfun_from_config({"genfun": {"kind": kind}})
    grid = DomainGrid(gf.source_chart, 8)
    xbars = gf.target_chart.sample(4, np.random.default_rng(0))
    center = gf.source_chart.embed(gf.source_chart.center[None])
    zs = gf.inverse(np.repeat(center, 4, axis=0), xbars, np.full(4, np.mean(interval)))
    env = Envelope(gf, (xbars, zs), grid)
    env.save(tmp_path / "env.json")
    env2 = Envelope.load(tmp_path / "env.json")
    assert env2.gf.descriptor() == gf.descriptor()
    assert np.array_equal(env2.cell_masses(), env.cell_masses())


_TIE_GF = make_builtin("quasilinear", tols=DEFAULT_TOLS.with_overrides(tie=1e-3))
_TIE_GRID = DomainGrid(_TIE_GF.source_chart, 8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 63),
       n_other=st.integers(0, 5), data=st.data())
def test_one_tie_rule_for_points_cells_and_masses(seed, k, n_other, data):
    # a near-tie chain planted at grid point k: values U, U + 0.6 tie and
    # U + 1.2 tie in index order.  Chained, the third piece wins; "lowest
    # index within tie of the max" would pick the second.
    gf, grid = _TIE_GF, _TIE_GRID
    tie = gf.tols.tie
    rng = np.random.default_rng(seed)
    n = n_other + 3
    planted = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=3,
                                        max_size=3, unique=True)))
    xbars = gf.target_chart.sample(n, rng)
    zs = rng.normal(size=n)
    x = grid.points[k]
    others = [j for j in range(n) if j not in planted]
    top = max((x @ xbars[j] - zs[j] for j in others), default=0.0) + 3 * tie
    for j, offset in zip(planted, (0.0, 0.6 * tie, 1.2 * tie)):
        zs[j] = x @ xbars[j] - (top + offset)
    env = Envelope(gf, (xbars, zs), grid)
    cells = env.cell_indices()
    assert cells[k] == planted[2]
    for c in range(grid.n_cells):
        assert env.representative(grid.points[c])[1] == cells[c]
    V = np.array([kernels.piece_values(gf, grid.points, xbars[j], zs[j])
                  for j in range(n)])
    problem = SimpleNamespace(gf=gf, grid=grid, cell_weights=grid.weights,
                              targets=xbars)
    masses = env.cell_masses()
    assert np.array_equal(solver._masses_from(V, problem), masses)
    # the solver's oracle: each piece against the others frozen (the cell
    # weights are dyadic, so every summation order gives the same mass)
    for i in range(n):
        assert solver._MassOracle(problem, V, i, None)(zs[i]) == masses[i]
