import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import bisect

from conftest import bent_cost, sample_admissible
from gjekit.builtins import GridSurface, make_builtin
from gjekit.charts import BoxChart, PlaneChart, SphereChart
from gjekit.demos import far_field_genfun
from gjekit.errors import ConfigError, DomainError, RangeError, RowStatus
from gjekit.expmaps import exp_target
from gjekit.genfun import GenFun, ScalarRange, finite_diff_derivatives

E3 = np.array([0.0, 0.0, 1.0])


# -- evaluation examples ----------------------------------------------------------


def test_parallel_beam_value():
    pb = make_builtin("parallel_beam")
    x = np.array([0.3, -0.1])
    assert np.isclose(pb.value(x, x, 2.0), 0.25)


def test_quasilinear_zero_cost_value():
    gf = make_builtin("quasilinear", cost=lambda x, xb: 0.0)
    assert np.isclose(gf.value(np.zeros(2), np.zeros(2), 3.0), -3.0)


def test_point_source_axis_value():
    # target plane through (0,0,1): the ellipsoid graph evaluates to 3/2
    ps = make_builtin("point_source",
                      target_chart=PlaneChart((-0.6, -0.6), (0.6, 0.6), height=1.0))
    assert np.isclose(ps.value(E3, E3, 1.0), 2.0 / 3.0)
    assert np.isclose(ps.inverse(E3, E3, 2.0 / 3.0), 1.0)


def test_point_source_domain_predicate():
    ps = make_builtin("point_source",
                      target_chart=PlaneChart((-3, -3), (3, 3), height=1.0))
    far = np.array([2.0, 0.0, 1.0])  # |xbar| = sqrt(5), z = 1: z|xbar|/2 > 1
    assert not ps.in_domain(E3, far, 1.0)
    with pytest.raises(DomainError):
        ps.value(E3, far, 1.0)


@pytest.mark.parametrize("name", ["quasilinear", "point_source",
                                  "parallel_beam", "minkowski"])
def test_z_limits_bound_the_focus_predicate(name, builtins_all):
    # heights 1e-12 inside each finite end of z_limits pass the class's
    # focus-and-height predicate, heights 1e-12 outside it fail
    gf = builtins_all[name]
    for xbar in gf.target_chart.sample(200, np.random.default_rng(7)):
        ends = [(e, s) for e, s in zip(gf.z_limits(xbar), (1.0, -1.0)) if np.isfinite(e)]
        inside = np.array([e + s * 1e-12 for e, s in ends] or [-1e6, 1e6])
        outside = np.array([e - s * 1e-12 for e, s in ends])
        assert gf._focus_ok(np.tile(xbar, (inside.size, 1)), inside).all()
        assert not gf._focus_ok(np.tile(xbar, (outside.size, 1)), outside).any()


def test_minkowski_orientation_flag():
    mk = make_builtin("minkowski")
    assert mk.orientation == -1
    xb = np.array([0.1, 0.0, np.sqrt(0.99)])
    assert mk.g_z(E3, xb, 1.0) > 0  # natural formula grows in z
    assert np.isclose(mk.value(E3, xb, 2.0), 2.0 * (E3 @ xb))


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
    assert np.isclose(gf.inverse(np.zeros(2), np.zeros(2), 5.0), -5.0)


def test_inverse_parallel_beam_against_bisection():
    pb = make_builtin("parallel_beam")
    x = np.array([0.0, 0.0])
    xb = np.array([1.0, 0.0])
    z = pb.inverse(x, xb, 0.0)
    # independent oracle: bisect the formula itself on the monotone fiber
    z_ref = bisect(lambda t: 0.5 * (1.0 / t - t * 1.0), 0.2, 5.0, xtol=1e-14)
    assert np.isclose(z, 1.0, atol=1e-12)
    assert np.isclose(z, z_ref, atol=1e-10)


def test_inverse_range_errors():
    ps = make_builtin("point_source")
    xb = ps.target_chart.embed(np.array([[0.2, 0.1]]))[0]
    with pytest.raises(RangeError):
        ps.inverse(E3, xb, -0.5)
    pb = make_builtin("parallel_beam")
    with pytest.raises(RangeError):
        # coincident points: the value stays above zero on the fiber
        pb.inverse(np.array([0.1, 0.1]), np.array([0.1, 0.1]), -1.0)


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


def test_fd_batch_equals_its_one_row_calls():
    # two admissible quasilinear rows: each batch row is its one-row result
    gf = make_builtin("quasilinear", cost=bent_cost)
    x = np.array([[0.2, -0.4], [-0.3, 0.1]])
    xb = np.array([[0.1, 0.3], [0.4, -0.2]])
    z = np.array([0.5, -0.25])
    for which in ["d_x", "g_z", "d_x_xbar", "d2_x"]:
        batch = finite_diff_derivatives(gf, which, x, xb, z)
        rows = [finite_diff_derivatives(gf, which, x[k], xb[k], z[k])
                for k in range(2)]
        assert np.array_equal(np.asarray(batch), np.array(rows)), which
    # one inadmissible row still fails the batch
    with pytest.raises(DomainError):
        finite_diff_derivatives(gf, "d_x", x, np.array([[0.1, 0.3], [1.5, 0.0]]), z)


ALL_DERIVS = ["d_x", "d_xbar", "g_z", "g_zz", "d_x_xbar", "d_x_z",
              "d_xbar_z", "d2_x", "d2_xbar"]


@pytest.mark.parametrize("name", ["quasilinear", "point_source",
                                  "parallel_beam", "minkowski"])
def test_analytic_vs_finite_difference(name, builtins_all, intervals):
    gf = builtins_all[name]
    # every derivative has its analytic hook: otherwise the comparison
    # would set finite differences against finite differences
    assert [w for w in ALL_DERIVS if getattr(gf, "_e" + w, None) is None] == []
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


# float.hex() of every finite-difference derivative, entries in row-major
# order, at two fixed triples (source chart coords, target chart coords, z)
# of the bent instance and of point_source (sphere source chart)
_FD_TRIPLES = {
    "bent": [([0.2, -0.3], [0.3, 0.3], 0.1), ([-0.7, 0.6], [0.5, -0.8], -0.4)],
    "point_source": [([0.1, -0.2], [0.3, 0.2], 0.5), ([0.3, 0.25], [-0.4, 0.1], 0.55)],
}
_FD_PINS = {
    ("bent", 0, "d_x"): "0x1.33333333396a1p-2 0x1.eb851eb8ed015p-6",
    ("bent", 0, "d_xbar"): "0x1.570a3d70afc35p-2 -0x1.33333333396a1p-2",
    ("bent", 0, "g_z"): "-0x1.0000000000b2ep+0",
    ("bent", 0, "g_zz"): "0x0.0p+0",
    ("bent", 0, "d_x_xbar"): "0x1.0000000500000p+0 0x0.0p+0 -0x1.ccccccd155555p-1 0x1.fffffff555555p-1",
    ("bent", 0, "d_x_z"): "0x0.0p+0 0x0.0p+0",
    ("bent", 0, "d_xbar_z"): "0x0.0p+0 0x0.0p+0",
    ("bent", 0, "d2_x"): "0x1.5555555555555p-32 -0x1.6aaaaaaaaaaabp-30 -0x1.6aaaaaaaaaaabp-30 0x1.cccccc9000000p-1",
    ("bent", 0, "d2_xbar"): "0x1.5555555555555p-32 0x0.0p+0 0x0.0p+0 -0x1.5555555555555p-32",
    ("bent", 1, "d_x"): "0x1.ffffffff77a57p-2 0x1.9999999982870p-4",
    ("bent", 1, "d_xbar"): "-0x1.47ae147aef137p-3 0x1.333333331474dp-1",
    ("bent", 1, "g_z"): "-0x1.0000000009191p+0",
    ("bent", 1, "g_zz"): "0x0.0p+0",
    ("bent", 1, "d_x_xbar"): "0x1.0000000000000p+0 0x0.0p+0 0x1.ccccccbd55555p+0 0x1.0000002800000p+0",
    ("bent", 1, "d_x_z"): "0x0.0p+0 0x0.0p+0",
    ("bent", 1, "d_xbar_z"): "0x0.0p+0 0x0.0p+0",
    ("bent", 1, "d2_x"): "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.8000001555555p+0",
    ("bent", 1, "d2_xbar"): "0x0.0p+0 -0x1.4000000000000p-27 -0x1.4000000000000p-27 0x1.5555555555555p-29",
    ("point_source", 0, "d_x"): "0x1.ad46e64ee7f59p-7 -0x1.a1d3de2d6ebe7p-7",
    ("point_source", 0, "d_xbar"): "0x1.bd156ff3dec13p-5 0x1.03fecc1b08f67p-5",
    ("point_source", 0, "g_z"): "0x1.d99d5d68995c8p+0",
    ("point_source", 0, "g_zz"): "0x1.561fd60000000p+1",
    ("point_source", 0, "d_x_xbar"): "0x1.1522d55555555p-11 0x1.142cf6d555555p-3 -0x1.1481f52aaaaabp-3 -0x1.67aa555555555p-12",
    ("point_source", 0, "d_x_z"): "0x1.cde6085555555p-5 -0x1.c1943faaaaaabp-5",
    ("point_source", 0, "d_xbar_z"): "0x1.3be4e3e000000p-2 0x1.7dac89d555555p-3",
    ("point_source", 0, "d2_x"): "-0x1.1d95a25555555p-3 0x1.7cc8255555555p-9 0x1.7cc8255555555p-9 -0x1.26824e5555555p-3",
    ("point_source", 0, "d2_xbar"): "0x1.887e5b5555555p-4 0x1.6769faaaaaaabp-9 0x1.6769faaaaaaabp-9 0x1.7d8742aaaaaabp-4",
    ("point_source", 1, "d_x"): "-0x1.33090daa19775p-5 0x1.5d2c51a916ff3p-6",
    ("point_source", 1, "d_xbar"): "-0x1.7d58a681a733bp-4 0x1.00c14d35f4c79p-4",
    ("point_source", 1, "g_z"): "0x1.00b4833ce635fp+1",
    ("point_source", 1, "g_zz"): "0x1.88a4a86555555p+1",
    ("point_source", 1, "d_x_xbar"): "0x1.460f300000000p-9 0x1.528e04c000000p-3 -0x1.56b9b18000000p-3 0x1.72d0555555555p-12",
    ("point_source", 1, "d_x_z"): "-0x1.3237b19555555p-3 0x1.5c3e3c5555555p-4",
    ("point_source", 1, "d_xbar_z"): "-0x1.025173faaaaabp-1 0x1.2225cd6aaaaabp-2",
    ("point_source", 1, "d2_x"): "-0x1.9856e1aaaaaabp-3 -0x1.0556575555555p-6 -0x1.0556575555555p-6 -0x1.8c5c860000000p-3",
    ("point_source", 1, "d2_xbar"): "0x1.2199e4aaaaaabp-3 -0x1.75e87aaaaaaabp-8 -0x1.75e87aaaaaaabp-8 0x1.0c8cf15555555p-3",
}


def test_fd_values_are_pinned():
    gfs = {"bent": make_builtin("quasilinear", cost=bent_cost),
           "point_source": make_builtin("point_source")}
    for (name, t, which), pinned in _FD_PINS.items():
        gf = gfs[name]
        cx, cb, z = _FD_TRIPLES[name][t]
        x = gf.source_chart.embed(np.array([cx]))[0]
        xb = gf.target_chart.embed(np.array([cb]))[0]
        v = np.ravel(finite_diff_derivatives(gf, which, x, xb, z))
        assert " ".join(float(a).hex() for a in v) == pinned, (name, t, which)


# the derivatives each instance takes by finite differences
_FD_PUBLIC = {
    "bent": (make_builtin("quasilinear", cost=bent_cost),
             ["d_x", "d_xbar", "d_x_xbar", "d2_x", "d2_xbar"]),
    "wiggly": (WigglyGF(), ALL_DERIVS),
}
# chart coordinates on or near the box edge, where some stencils leave
_EDGE = st.sampled_from([-1.0, 1.0, 1.0 - 1e-5, -1.0 + 1e-5, 1.0 - 1e-3])
_COORD = st.one_of(st.floats(-1.0, 1.0), _EDGE)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_FD_PUBLIC)),
       rows=st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD, st.floats(-2.0, 2.0)),
                     min_size=1, max_size=6))
def test_fd_batch_rows_are_their_one_row_results(name, rows):
    # a batch row is nan exactly where its one-row call raises, and equals
    # its one-row result bit for bit elsewhere
    gf, names = _FD_PUBLIC[name]
    w = np.array(rows)
    x, xb, z = w[:, :2], w[:, 2:4], w[:, 4]
    for which in names:
        batch = getattr(gf, which)(x, xb, z)
        for i in range(w.shape[0]):
            try:
                one = finite_diff_derivatives(gf, which, x[i], xb[i], z[i])
            except DomainError:
                assert np.all(np.isnan(batch[i])), (which, i)
                continue
            assert np.asarray(batch[i]).tobytes() == np.asarray(one).tobytes(), (which, i)


def test_inverse_rows_outside_the_cost_domain_emit_no_warning():
    # <x, xbar> = 1: the far-field cost -log(1 - <x, xbar>) is infinite there
    gf = far_field_genfun()
    x = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    xb = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, status = gf.inverse_rows(x, xb, np.array([0.1, 0.1]))
    assert status.tolist() == [RowStatus.NO_ADMISSIBLE_Z, 0]
    assert np.isnan(z[0]) and np.isfinite(z[1])


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


def _two_step_value_or(pb, x, xb, z, fill):
    """The branch cut and the values as two evaluations: ``_value`` over
    every row for the ``v >= lower`` cut, then again on the admissible
    rows."""
    ok = pb._focus_ok(xb, z) & pb.source_chart.contains(x)
    if np.any(ok):
        v = np.where(ok, pb._value(x, xb, np.where(ok, z, 1.0)), -1.0)
        ok = ok & (v >= pb.srange.lower)
    out = np.full(x.shape[0], fill)
    if np.any(ok):
        out[ok] = pb._value(x[ok], xb[ok], z[ok])
    return out, ok


@pytest.mark.parametrize("lower", [0.0, 0.3])
def test_parallel_beam_evaluates_each_row_once(monkeypatch, lower):
    # a GridSurface instance has no kernel tag, so every grid row runs the
    # evaluator; one _value call gives the two-step reference's bits
    xn = np.linspace(-1, 1, 25)
    pb = make_builtin("parallel_beam", srange=ScalarRange(lower, np.inf, lower + 0.05, 20.0),
                      surface={"x_nodes": xn, "y_nodes": xn,
                               "values": 0.1 * np.add.outer(xn ** 2, xn ** 2)})
    rng = np.random.default_rng(3)
    m = 4000
    x = rng.uniform(-1.2, 1.2, (m, 2))      # some rows leave the source box
    xb = rng.uniform(-1.1, 1.1, (m, 2))     # some foci leave the target box
    z = rng.uniform(-0.5, 3.0, m)           # z <= 0 and the fold side included
    expect, ok_ref = _two_step_value_or(pb, x, xb, z, -np.inf)
    assert 0 < ok_ref.sum() < m
    calls = []
    value = pb._value
    monkeypatch.setattr(pb, "_value", lambda *a: calls.append(a[0].shape[0]) or value(*a))
    got, ok = pb._value_or(x, xb, z, -np.inf)
    assert len(calls) == 1
    assert np.array_equal(ok, ok_ref)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    assert np.array_equal(pb._in_domain(x, xb, z), ok_ref)


def test_grid_surface_parallel_beam():
    xn = np.linspace(-1, 1, 25)
    table = 0.1 * np.add.outer(xn ** 2, xn ** 2)
    pb = make_builtin("parallel_beam", surface={"x_nodes": xn, "y_nodes": xn,
                                                "values": table})
    x = np.array([0.2, 0.1])
    xb = np.array([0.4, -0.3])
    expect = 0.5 * (1 / 0.8 - 0.8 * np.sum((x - xb) ** 2)) + 0.1 * (0.4 ** 2 + 0.3 ** 2)
    assert np.isclose(pb.value(x, xb, 0.8), expect, atol=1e-6)


def test_grid_surface_derivatives_match_finite_differences(intervals):
    # GridSurface.grad and .hess enter the analytic d_xbar and d2_xbar; the
    # finite differences see the spline through the value alone
    xn = np.linspace(-1, 1, 25)
    table = 0.1 * np.outer(np.sin(2 * xn), np.cos(xn))
    pb = make_builtin("parallel_beam", surface={"x_nodes": xn, "y_nodes": xn,
                                                "values": table})
    xs, xbs, _, zs = sample_admissible(pb, intervals["parallel_beam"], 12, seed=5)
    assert np.min(np.abs(pb.surface.hess(xbs)[:, 0, 0])) > 0.0
    for which in ("d_xbar", "d2_xbar"):
        ana = getattr(pb, which)(xs, xbs, zs)
        fd = finite_diff_derivatives(pb, which, xs, xbs, zs)
        assert np.max(np.abs(ana - fd)) <= 1e-5 * np.max(np.abs(fd)) + 1e-7, which
