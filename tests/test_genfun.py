import numpy as np
import pytest
from scipy.optimize import bisect

from conftest import sample_admissible
from gjekit.builtins import GridCost, GridSurface, make_builtin
from gjekit.charts import BoxChart, PlaneChart, SphereChart
from gjekit.errors import ConfigError, DomainError, RangeError, RowStatus
from gjekit.expmaps import exp_target
from gjekit.genfun import GenFun, ScalarRange, eval_G, eval_H, finite_diff_derivatives

E3 = np.array([0.0, 0.0, 1.0])


# -- evaluation examples ----------------------------------------------------------


def test_parallel_beam_value():
    pb = make_builtin("parallel_beam")
    x = np.array([0.3, -0.1])
    assert np.isclose(eval_G(pb, x, x, 2.0), 0.25)


def test_quasilinear_zero_cost_value():
    gf = make_builtin("quasilinear", cost=lambda x, xb: 0.0)
    assert np.isclose(eval_G(gf, np.zeros(2), np.zeros(2), 3.0), -3.0)


def test_point_source_axis_value():
    # target plane through (0,0,1): the ellipsoid graph evaluates to 3/2
    ps = make_builtin("point_source",
                      target_chart=PlaneChart((-0.6, -0.6), (0.6, 0.6), height=1.0))
    assert np.isclose(eval_G(ps, E3, E3, 1.0), 2.0 / 3.0)
    assert np.isclose(eval_H(ps, E3, E3, 2.0 / 3.0), 1.0)


def test_point_source_domain_predicate():
    ps = make_builtin("point_source",
                      target_chart=PlaneChart((-3, -3), (3, 3), height=1.0))
    far = np.array([2.0, 0.0, 1.0])  # |xbar| = sqrt(5), z = 1: z|xbar|/2 > 1
    assert not ps.in_domain(E3, far, 1.0)
    with pytest.raises(DomainError):
        eval_G(ps, E3, far, 1.0)


def test_minkowski_orientation_flag():
    mk = make_builtin("minkowski")
    assert mk.orientation == -1
    xb = np.array([0.1, 0.0, np.sqrt(0.99)])
    assert mk.g_z(E3, xb, 1.0) > 0  # natural formula grows in z
    assert np.isclose(eval_G(mk, E3, xb, 2.0), 2.0 * (E3 @ xb))


def test_make_builtin_config_errors():
    with pytest.raises(ConfigError):
        make_builtin("nope")
    with pytest.raises(ConfigError):
        make_builtin("quasilinear", cost="unknown-cost")
    with pytest.raises(ConfigError):
        make_builtin("parallel_beam", source_chart=BoxChart((-1,), (1,)))


# -- scalar inversion -------------------------------------------------------------


def test_inverse_quasilinear():
    gf = make_builtin("quasilinear", cost=lambda x, xb: 0.0)
    assert np.isclose(eval_H(gf, np.zeros(2), np.zeros(2), 5.0), -5.0)


def test_inverse_parallel_beam_against_bisection():
    pb = make_builtin("parallel_beam")
    x = np.array([0.0, 0.0])
    xb = np.array([1.0, 0.0])
    z = eval_H(pb, x, xb, 0.0)
    # independent oracle: bisect the formula itself on the monotone fiber
    z_ref = bisect(lambda t: 0.5 * (1.0 / t - t * 1.0), 0.2, 5.0, xtol=1e-14)
    assert np.isclose(z, 1.0, atol=1e-12)
    assert np.isclose(z, z_ref, atol=1e-10)


def test_inverse_range_errors():
    ps = make_builtin("point_source")
    xb = ps.target_chart.embed(np.array([[0.2, 0.1]]))[0]
    with pytest.raises(RangeError):
        eval_H(ps, E3, xb, -0.5)
    pb = make_builtin("parallel_beam")
    with pytest.raises(RangeError):
        # coincident points: the value stays above zero on the fiber
        eval_H(pb, np.array([0.1, 0.1]), np.array([0.1, 0.1]), -1.0)


@pytest.mark.parametrize("name", ["point_source", "parallel_beam", "minkowski"])
def test_closed_form_inverse_rows_fail_one_row(name):
    # row 1 has no admissible z (u <= 0; for parallel_beam also x = xbar):
    # only that row fails, and the others equal their one-row inverses
    gf = make_builtin(name)
    rng = np.random.default_rng(3)
    xs = gf.source_chart.sample(3, rng)
    xbs = gf.target_chart.sample(3, rng)
    if name == "parallel_beam":
        xs[1] = xbs[1]
    us = np.array([0.5, -0.2, 0.6])
    zs, status = gf.inverse_rows(xs, xbs, us)
    assert status.tolist() == [0, RowStatus.NO_ADMISSIBLE_Z, 0]
    assert np.isnan(zs[1])
    for i in (0, 2):
        assert zs[i] == gf.inverse(xs[i], xbs[i], us[i])
    with pytest.raises(RangeError):
        gf.inverse(xs, xbs, us)
    pbar = gf.d_x(xs[[0, 0, 2]], xbs[[0, 0, 2]], zs[[0, 0, 2]])
    _, _, status = exp_target(gf, xs, us, pbar, return_status=True)
    assert status[1] == RowStatus.NO_ADMISSIBLE_Z


class WigglyGF(GenFun):
    """Test-only instance without a closed-form inverse."""

    name = "wiggly"

    def __init__(self):
        super().__init__(BoxChart((-1, -1), (1, 1)), BoxChart((-1, -1), (1, 1)),
                         ScalarRange(-np.inf, np.inf, -50, 50))

    def _value(self, x, xb, z):
        return np.sum(x * xb, axis=1) - z - 0.1 * np.sin(z)

    def _in_domain(self, x, xb, z):
        return (self.source_chart.contains(x) & self.target_chart.contains(xb)
                & np.isfinite(z))


def test_inverse_root_finder_path():
    gf = WigglyGF()
    x = np.array([0.3, -0.2])
    xb = np.array([0.5, 0.4])
    for u in [-2.0, 0.0, 1.7]:
        z = gf.inverse(x, xb, u)
        assert abs(gf.value(x, xb, z) - u) <= 1e-10 * max(1, abs(u))


def test_inverse_monotone_in_u(builtins_all, intervals):
    # H decreasing in u for the standard orientation, increasing when flipped
    for name, gf in builtins_all.items():
        xs, xbs, us, zs = sample_admissible(gf, intervals[_key(name)], 20, seed=3)
        for i in range(min(10, len(xs))):
            du = 1e-3 * max(1.0, abs(us[i]))
            try:
                z2 = gf.inverse(xs[i], xbs[i], us[i] + du)
            except RangeError:
                continue
            assert np.sign(z2 - zs[i]) == -gf.orientation


def _key(name):
    return name if name != "far_field" else "quasilinear"


# -- derivatives ------------------------------------------------------------------


def test_fd_quasilinear_quadratic_identities():
    gf = make_builtin("quasilinear")
    x = np.array([0.2, -0.4])
    xb = np.array([0.1, 0.3])
    M = finite_diff_derivatives(gf, "d_x_xbar", x, xb, 0.5)
    assert np.allclose(M, np.eye(2), atol=1e-7)
    assert abs(finite_diff_derivatives(gf, "g_zz", x, xb, 0.5)) < 1e-7


def test_fd_parallel_beam_gz_hand_value():
    # full scalar range: the raw-formula domain z > 0, both branches
    pb = make_builtin("parallel_beam",
                      srange=ScalarRange(-np.inf, np.inf, 0.05, 20.0))
    x = np.array([0.0, 0.0])
    xb = np.array([1.0, 0.0])
    # d/dz [ (1/z - z |x-xb|^2) / 2 ] = -(1/z^2 + |x-xb|^2)/2 = -0.625 at z=2
    assert np.isclose(finite_diff_derivatives(pb, "g_z", x, xb, 2.0), -0.625,
                      rtol=1e-8)


def test_fd_stencil_domain_error():
    ps = make_builtin("point_source")
    xb = ps.target_chart.embed(np.array([[0.5, 0.5]]))[0]
    z_edge = 2.0 / np.linalg.norm(xb) * (1 - 1e-10)  # hugs the admissible edge
    with pytest.raises(DomainError):
        finite_diff_derivatives(ps, "g_z", E3, xb, z_edge)


ALL_DERIVS = ["d_x", "d_xbar", "g_z", "g_zz", "d_x_xbar", "d_x_z",
              "d_xbar_z", "d2_x", "d2_xbar"]


@pytest.mark.parametrize("name", ["quasilinear", "point_source",
                                  "parallel_beam", "minkowski"])
def test_analytic_vs_finite_difference(name, builtins_all, intervals):
    gf = builtins_all[name]
    assert gf.deriv_mode == "analytic"
    xs, xbs, us, zs = sample_admissible(gf, intervals[name], 12, seed=11)
    for i in range(min(6, len(xs))):
        for which in ALL_DERIVS:
            ana = np.asarray(getattr(gf, which)(xs[i], xbs[i], zs[i]))
            try:
                fd = np.asarray(finite_diff_derivatives(gf, which, xs[i], xbs[i], zs[i]))
            except DomainError:
                continue
            scale = max(np.max(np.abs(fd)), np.max(np.abs(ana)))
            # absolute floor covers derivatives that vanish identically
            assert np.max(np.abs(ana - fd)) <= 1e-5 * scale + 1e-7, (name, which, i)


# -- module invariants ------------------------------------------------------------


def _halton_tuples(gf, interval, n, seed=0):
    from scipy.stats import qmc
    eng = qmc.Halton(d=2 * gf.dim + 1, seed=seed)
    raw = eng.random(3 * n)
    sc, tc = gf.source_chart, gf.target_chart
    cx = qmc.scale(raw[:, :gf.dim], sc.lo, sc.hi)
    cb = qmc.scale(raw[:, gf.dim:2 * gf.dim], tc.lo, tc.hi)
    if sc.kind == "sphere":
        cx = sc.clip(cx * 0.99)
    if tc.kind == "sphere":
        cb = tc.clip(cb * 0.99)
    us = interval[0] + (interval[1] - interval[0]) * raw[:, -1]
    return sc.embed(cx), tc.embed(cb), us


@pytest.mark.parametrize("name", ["quasilinear", "point_source",
                                  "parallel_beam", "minkowski"])
def test_dual_roundtrip_and_sign(name, builtins_all, intervals):
    gf = builtins_all[name]
    xs, xbs, us = _halton_tuples(gf, intervals[name], 800, seed=5)
    zs, status = gf.inverse_rows(xs, xbs, us)
    ok = status == 0
    xs, xbs, us, zs = xs[ok], xbs[ok], us[ok], zs[ok]
    assert len(xs) > 200
    u_back = gf.value(xs, xbs, zs, check=False)
    z_back = gf.inverse(xs, xbs, u_back)
    v = gf.value(xs, xbs, z_back, check=False)
    assert np.max(np.abs(v - gf.value(xs, xbs, zs, check=False))) <= 1e-9
    # oriented scalar derivative strictly negative
    gz = gf.g_z(xs, xbs, zs)
    assert np.all(gf.orientation * gz < -1e-12)


# -- tabulated inputs -------------------------------------------------------------


def test_grid_cost_matches_table_source():
    xn = np.linspace(-1, 1, 21)
    bn = np.linspace(-1, 1, 21)
    table = np.outer(np.sin(xn), np.cos(bn))
    cost = GridCost(xn, bn, table)
    gf = make_builtin("quasilinear", cost=cost,
                      source_chart=BoxChart((-1,), (1,)),
                      target_chart=BoxChart((-1,), (1,)))
    x = np.array([0.37])
    xb = np.array([-0.21])
    expect = -(np.sin(0.37) * np.cos(-0.21)) - 0.4
    assert np.isclose(gf.value(x, xb, 0.4), expect, atol=5e-5)
    fd = finite_diff_derivatives(gf, "d_x", x, xb, 0.4)
    assert np.allclose(gf.d_x(x, xb, 0.4), fd, atol=1e-5)


def test_grid_surface_parallel_beam():
    xn = np.linspace(-1, 1, 25)
    table = 0.1 * np.add.outer(xn ** 2, xn ** 2)
    pb = make_builtin("parallel_beam", surface={"x_nodes": xn, "y_nodes": xn,
                                                "values": table})
    x = np.array([0.2, 0.1])
    xb = np.array([0.4, -0.3])
    expect = 0.5 * (1 / 0.8 - 0.8 * np.sum((x - xb) ** 2)) + 0.1 * (0.4 ** 2 + 0.3 ** 2)
    assert np.isclose(pb.value(x, xb, 0.8), expect, atol=1e-6)
