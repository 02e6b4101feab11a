import numpy as np
import pytest

from gjekit.demos import classical_ma_problem
from gjekit.errors import HypothesisError
from gjekit.gconvex import Envelope, GAffine
from gjekit.grids import DomainGrid
from gjekit.estimates import (aleksandrov_check, engulfing_check, max_segment_length,
                              section_at_height, sharp_growth_check,
                              supporting_plane_distance)


# -- hull geometry ----------------------------------------------------------------


def test_supporting_plane_examples():
    sq = np.array([[x, y] for x in np.linspace(0, 1, 9)
                   for y in np.linspace(0, 1, 9)])
    assert supporting_plane_distance(sq, np.array([0.5, 0.5]),
                                     np.array([1.0, 0.0])) == pytest.approx(0.5)
    diag = np.array([1.0, 1.0]) / np.sqrt(2)
    assert max_segment_length(sq, diag) == pytest.approx(np.sqrt(2), abs=1e-9)
    single = np.array([[0.3, 0.4]])
    assert supporting_plane_distance(single, single[0], np.array([1.0, 0])) == 0.0
    assert max_segment_length(single, np.array([1.0, 0])) == 0.0


def test_slab_width_identity():
    rng = np.random.default_rng(0)
    cloud = rng.normal(size=(60, 2))
    p0 = cloud[7]
    for _ in range(5):
        w = rng.normal(size=2)
        w /= np.linalg.norm(w)
        slab = (supporting_plane_distance(cloud, p0, w)
                + supporting_plane_distance(cloud, p0, -w))
        proj = cloud @ w
        assert abs(slab - (proj.max() - proj.min())) <= 1e-10


# -- pointwise checks on the calibration family -------------------------------------


def test_aleksandrov_boundary_point_degenerates(parab_env):
    env = parab_env
    gf = env.gf
    h = 0.005
    m = GAffine(gf, np.zeros(2), -h)
    r = np.sqrt(2 * h)
    x_edge = np.array([r * 0.999, 0.0])
    # omega points away from the near boundary so the plane-distance factor
    # stays bounded while the height gap collapses
    rec = aleksandrov_check(env, m, x_edge, np.array([-1.0, 0.0]), diam_cap=1.0)
    center = aleksandrov_check(env, m, np.zeros(2), np.array([1.0, 0.0]),
                               diam_cap=1.0)
    assert rec.lhs <= 0.05 * center.lhs
    assert rec.implied_constant <= 0.05 * center.implied_constant


def test_aleksandrov_hypothesis_errors(parab_env):
    env = parab_env
    gf = env.gf
    m = GAffine(gf, np.zeros(2), -0.005)
    with pytest.raises(HypothesisError) as err:
        aleksandrov_check(env, m, np.array([0.4, 0.4]), np.array([1.0, 0]))
    assert err.value.clause in ("x0_not_in_section", "section_too_large")
    with pytest.raises(HypothesisError) as err2:
        aleksandrov_check(env, m, np.zeros(2), np.array([1.0, 0]),
                          diam_cap=1e-4)
    assert err2.value.clause == "section_too_large"


def test_sharp_growth_single_cell_slack(parab_env):
    env = parab_env
    gf = env.gf
    m = GAffine(gf, np.zeros(2), -0.01)
    mask = np.zeros(env.grid.n_cells, dtype=bool)
    k = int(np.argmin(np.sum(env.grid.coords ** 2, axis=1)))
    mask[k] = True
    rec = sharp_growth_check(env, m, mask)
    # a single-cell set makes the inequality trivially slack
    assert rec.implied_constant > 10.0


def test_sharp_growth_hypothesis_error(parab_env):
    env = parab_env
    gf = env.gf
    m = GAffine(gf, np.zeros(2), -0.01)
    sec = env.section(m)
    with pytest.raises(HypothesisError) as err:
        sharp_growth_check(env, m, sec.mask)  # A = S: dilation fails
    assert err.value.clause == "dilation_containment"


def test_engulfing_reflexive_floor(engulfing_env):
    rep = engulfing_check(engulfing_env, [0.01], n_pairs=4, seed=0)
    assert rep["lambda_values"][0] >= 1.0


@pytest.mark.parametrize("resolution", [(2, 2), (1, 96)])
def test_engulfing_needs_an_interior_cell(resolution):
    # x0 is drawn among the cells two widths inside the chart on every axis
    problem, z_true = classical_ma_problem(8)
    env = Envelope(problem.gf, (problem.targets, z_true),
                   DomainGrid(problem.gf.source_chart, resolution))
    with pytest.raises(HypothesisError, match="no_interior_cells"):
        engulfing_check(env, [0.01], n_pairs=4, seed=0)


def test_engulfing_stability_contrast(engulfing_env, violator_env):
    stable = engulfing_check(engulfing_env, [0.01, 0.005, 0.0025],
                             n_pairs=30, seed=3)
    assert stable["stable_within_20pct"]
    unstable = engulfing_check(violator_env, [0.01, 0.005, 0.0025],
                               n_pairs=40, seed=3)
    assert not unstable["stable_within_20pct"]
    # blows up under refinement: the smallest height carries the largest factor
    lams = unstable["lambda_values"]
    assert lams[0] > 1.25 * lams[-1]


def test_section_at_height(solved_point_source_small):
    problem, env, state, _ = solved_point_source_small
    x = env.grid.points[env.grid.n_cells // 2]
    sec = section_at_height(env, x, 0.002)
    assert sec.contains(x)
    assert sec.volume() > 0
