import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bent_cost, sample_admissible
from gjekit.builtins import make_builtin
from gjekit.demos import TEST_INTERVALS, far_field_genfun, violator_genfun
from gjekit.errors import ConvergenceError, DomainError, RangeError, RowStatus
from gjekit.expmaps import e_matrix, exp_source, exp_target, g_segment_batch, p_map, pbar_rows
from gjekit.genfun import finite_diff_derivatives

BUILTIN_NAMES = ["quasilinear", "point_source", "parallel_beam", "minkowski"]


def test_e_matrix_quasilinear_identity():
    gf = make_builtin("quasilinear")
    x = np.array([0.3, -0.2])
    xb = np.array([0.5, 0.1])
    assert np.allclose(e_matrix(gf, x, xb, 0.7), np.eye(2))


@pytest.mark.parametrize("name", ["point_source", "minkowski", "parallel_beam"])
def test_e_matrix_matches_pbar_jacobian(name, builtins_all, intervals):
    # E equals the jacobian of xbar -> pbar(x, u, xbar) in target chart coords
    gf = builtins_all[name]
    xs, xbs, us, zs = sample_admissible(gf, intervals[name], 6, seed=2)
    x, xb, u, z = xs[0], xbs[0], float(us[0]), float(zs[0])
    E = e_matrix(gf, x, xb, z)
    assert abs(np.linalg.det(E)) > 1e-8
    cb = gf.target_chart.coords(xb)
    h = 1e-6
    num = np.empty((gf.dim, gf.dim))
    for k in range(gf.dim):
        cp = cb.copy(); cp[k] += h
        cm = cb.copy(); cm[k] -= h
        pp = pbar_rows(gf, x, u, gf.target_chart.embed(cp[None])[0])[0][0]
        pm = pbar_rows(gf, x, u, gf.target_chart.embed(cm[None])[0])[0][0]
        num[:, k] = (pp - pm) / (2 * h)
    assert np.allclose(E, num, rtol=2e-5, atol=1e-7)


def test_p_maps_quasilinear_identities():
    gf = make_builtin("quasilinear")
    x = np.array([0.3, -0.2])
    xb = np.array([0.5, 0.1])
    assert np.allclose(p_map(gf, xb, 0.9, x), x)      # -DbarG/Gz = x
    assert np.allclose(pbar_rows(gf, x, 0.4, xb)[0][0], xb)  # DxG = xbar


@pytest.mark.parametrize("name", ["quasilinear", "bent"])
def test_one_point_against_k_foci_is_a_batch(name, builtins_all):
    # one x with k foci and k heights is k rows, as in gf.value and gf.d_x
    gf = make_builtin("quasilinear", cost=bent_cost) if name == "bent" \
        else builtins_all[name]
    x = np.array([0.2, -0.1])
    xbs = np.array([[0.4, 0.1], [-0.3, 0.2], [0.1, -0.5]])
    zs = np.array([0.3, -0.2, 0.1])
    maps = {"p_map": lambda x, xb, z: p_map(gf, xb, z, x),
            "e_matrix": lambda x, xb, z: e_matrix(gf, x, xb, z),
            "fd d_x_xbar": lambda x, xb, z: finite_diff_derivatives(gf, "d_x_xbar", x, xb, z),
            "fd g_z": lambda x, xb, z: finite_diff_derivatives(gf, "g_z", x, xb, z),
            "value": lambda x, xb, z: gf.value(x, xb, z)}
    for label, f in maps.items():
        rows = np.array([f(x, xb, z) for xb, z in zip(xbs, zs)])
        assert np.array_equal(f(x, xbs, zs), rows), label


def test_p_map_parallel_beam_vs_finite_difference():
    gf = make_builtin("parallel_beam")
    x = np.array([0.1, 0.2])
    xb = np.array([0.3, -0.1])
    z = 0.9
    p = p_map(gf, xb, z, x)
    # p = -DbarG/Gz with both derivatives from central differences of G
    h = 1e-6
    db = np.empty(2)
    for k in range(2):
        xp = xb.copy(); xp[k] += h
        xm = xb.copy(); xm[k] -= h
        db[k] = (gf.value(x, xp, z) - gf.value(x, xm, z)) / (2 * h)
    gz = (gf.value(x, xb, z + h, check=False) - gf.value(x, xb, z - h)) / (2 * h)
    assert np.allclose(p, -db / gz, rtol=1e-7)


def test_exp_source_quasilinear_identity():
    gf = make_builtin("quasilinear")
    p = np.array([0.15, -0.35])
    assert np.allclose(exp_source(gf, np.array([0.2, 0.2]), 0.3, p), p, atol=1e-12)


def test_exp_target_quasilinear_closed_form():
    gf = make_builtin("quasilinear")
    x = np.array([0.3, -0.2])
    pbar = np.array([0.5, 0.1])
    xb, z = exp_target(gf, x, 0.4, pbar)
    assert np.allclose(xb, pbar, atol=1e-12)
    assert np.isclose(z, x @ pbar - 0.4, atol=1e-12)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_roundtrips(name, builtins_all, intervals):
    gf = builtins_all[name]
    xs, xbs, us, zs = sample_admissible(gf, intervals[name], 60, seed=4)
    p = p_map(gf, xbs, zs, xs, check=False)
    pb = gf.d_x(xs, xbs, zs)
    xr = exp_source(gf, xbs, zs, p)
    assert np.max(np.abs(xr - xs)) <= 1e-8
    xbr, zr = exp_target(gf, xs, us, pb)
    assert np.max(np.abs(xbr - xbs)) <= 1e-8
    assert np.max(np.abs(zr - zs)) <= 1e-8
    # Z consistency with the scalar inverse through the mapped target
    z_h = gf.inverse(xs, xbr, us)
    assert np.max(np.abs(zr - z_h)) <= 1e-8


def test_exp_source_warm_start_budget(builtins_all, intervals):
    # a 1e-3 chart perturbation must converge within 6 Newton iterations
    gf = builtins_all["point_source"]
    xs, xbs, us, zs = sample_admissible(gf, intervals["point_source"], 4, seed=9)
    x0 = gf.source_chart.embed(np.array([[0.0, 1e-3]]))[0]
    p = p_map(gf, xbs[0], zs[0], x0)
    tols = gf.tols.with_overrides(newton_max_iter=6)
    xr = exp_source(gf, xbs[0], zs[0], p[None, :],
                    x_guess=gf.source_chart.embed(np.zeros((1, 2)))[0], tols=tols)
    assert np.max(np.abs(xr[0] - x0)) <= 1e-8


def test_exp_source_domain_error_when_no_start():
    gf = make_builtin("parallel_beam")
    # a piece admissible nowhere on the source box
    with pytest.raises((DomainError, ConvergenceError)):
        exp_source(gf, np.array([5.0, 5.0]), 2.0, np.array([0.1, 0.1]))


class _CubicDotCost:
    """c = -<x, xbar>^3 / 3.  Its mixed derivative vanishes at x = 0, where
    the jacobian of the target exponential map is exactly singular."""

    name = "cubic_dot"

    def _b(self, x, xb):
        return np.sum(x * xb, axis=1)

    def value(self, x, xb):
        return -self._b(x, xb) ** 3 / 3

    def d_x(self, x, xb):
        return -(self._b(x, xb) ** 2)[:, None] * xb

    def d_xbar(self, x, xb):
        return -(self._b(x, xb) ** 2)[:, None] * x

    def d_x_xbar(self, x, xb):
        b = self._b(x, xb)
        return (-(b * b)[:, None, None] * np.eye(x.shape[1])
                - 2 * b[:, None, None] * xb[:, :, None] * x[:, None, :])

    def d2_x(self, x, xb):
        return -2 * self._b(x, xb)[:, None, None] * xb[:, :, None] * xb[:, None, :]

    def d2_xbar(self, x, xb):
        return -2 * self._b(x, xb)[:, None, None] * x[:, :, None] * x[:, None, :]

    def domain_ok(self, x, xb):
        return np.ones(x.shape[0], dtype=bool)

    def descriptor(self):
        return {"cost": self.name}


def test_exp_target_status_per_row():
    gf = make_builtin("quasilinear", cost=_CubicDotCost())
    rng = np.random.default_rng(0)
    x = rng.uniform(0.3, 0.8, (8, 2))
    xb = rng.uniform(0.3, 0.8, (8, 2))
    z = rng.uniform(-0.2, 0.2, 8)
    pbar, u = gf.d_x(x, xb, z), gf.value(x, xb, z)
    guess = xb + 1e-3
    # four iterations converge from 1e-3 away, not from 0.2 away
    tols = gf.tols.with_overrides(newton_max_iter=4)
    guess[5] = xb[5] + 0.2
    x[6], pbar[6] = 0.0, [0.3, 0.2]   # singular jacobian at x = 0
    guess[7] = [4.0, 4.0]             # start outside the target chart
    xb_r, z_r, status = exp_target(gf, x, u, pbar, xbar_guess=guess, tols=tols,
                                   return_status=True)
    assert list(status[5:]) == [RowStatus.ITERATION_LIMIT, RowStatus.SINGULAR_JACOBIAN,
                                RowStatus.NO_ADMISSIBLE_Z]
    for k in range(5):
        assert status[k] == RowStatus.OK
        xb_k, z_k = exp_target(gf, x[k], u[k], pbar[k], xbar_guess=guess[k], tols=tols)
        assert np.array_equal(xb_r[k], xb_k) and z_r[k] == z_k
    with pytest.raises(RangeError):
        exp_target(gf, x, u, pbar, xbar_guess=guess, tols=tols)
    with pytest.raises(ConvergenceError):
        exp_target(gf, x[:7], u[:7], pbar[:7], xbar_guess=guess[:7], tols=tols)


def test_exp_source_status_per_row(builtins_all, intervals):
    gf = builtins_all["parallel_beam"]
    xs, xbs, us, zs = sample_admissible(gf, intervals["parallel_beam"], 6, seed=4)
    p = p_map(gf, xbs, zs, xs, check=False)
    # the last piece is admissible nowhere on the source box
    xbs[-1], zs[-1] = [5.0, 5.0], 2.0
    x_r, status = exp_source(gf, xbs, zs, p, return_status=True)
    assert status[-1] == RowStatus.NO_START
    for k in range(len(xs) - 1):
        assert status[k] == RowStatus.OK
        assert np.array_equal(x_r[k], exp_source(gf, xbs[k], zs[k], p[k]))
    with pytest.raises(DomainError):
        exp_source(gf, xbs, zs, p)


# -- segments ---------------------------------------------------------------------


def _one_segment(gf, kind, a, b, anchor, s_grid=None):
    """``g_segment_batch`` on the one row (a, b) with its anchor."""
    return g_segment_batch(gf, kind, [a], [b], ([anchor[0]], [anchor[1]]), s_grid=s_grid)


def test_segment_quasilinear_straight_line():
    gf = make_builtin("quasilinear")
    a, b = np.array([-0.5, -0.1]), np.array([0.4, 0.3])
    seg = _one_segment(gf, "source", a, b, (np.array([0.2, 0.0]), 0.1))
    assert seg.status[0] == 0 and seg.ok[0].all()
    for s, pt in zip(seg.s_grid, seg.points[0]):
        assert np.allclose(pt, (1 - s) * a + s * b, atol=1e-10)


def test_segment_target_quasilinear_affine_z():
    gf = make_builtin("quasilinear")
    x0 = np.array([0.25, -0.3])
    u0 = 0.2
    b0, b1 = np.array([-0.4, 0.2]), np.array([0.5, -0.1])
    seg = _one_segment(gf, "target", b0, b1, (x0, u0))
    assert seg.status[0] == 0 and seg.ok[0].all()
    # xbar(t) linear, z(t) = <x0, xbar(t)> - u0 affine in t
    for t, xb, z in zip(seg.s_grid, seg.points[0], seg.z_values[0]):
        assert np.allclose(xb, (1 - t) * b0 + t * b1, atol=1e-9)
        assert np.isclose(z, x0 @ xb - u0, atol=1e-9)


def test_segment_point_source_invariant(builtins_all, intervals):
    gf = builtins_all["point_source"]
    xs, xbs, us, zs = sample_admissible(gf, intervals["point_source"], 6, seed=5)
    seg = _one_segment(gf, "source", xs[0], xs[1], (xbs[0], float(zs[0])))
    assert seg.status[0] == 0 and seg.ok[0].all()
    # cached samples satisfy the linear-in-p invariant
    for s, pt in zip(seg.s_grid, seg.points[0]):
        p_here = p_map(gf, xbs[0], float(zs[0]), pt)
        p_line = (1.0 - s) * seg.p0[0] + s * seg.p1[0]
        assert np.max(np.abs(p_here - p_line)) <= 1e-8


def test_segment_reports_undefined_interior():
    # force an interior failure: parallel-beam segment whose p-line exits
    # the admissible branch
    gf = make_builtin("parallel_beam")
    xb = np.array([0.0, 0.0])
    z = 1.4  # admissible radius 1/z ~ 0.71
    a = np.array([0.55, 0.0])
    b = np.array([-0.55, 0.0])
    # both endpoints admissible (|r| < 1/z), but the p-line may leave the image
    if gf.in_domain(a, xb, z) and gf.in_domain(b, xb, z):
        seg = _one_segment(gf, "source", a, b, (xb, z))
        # a point that fails to invert is reported, and carries nan
        ok = seg.ok[0]
        assert seg.status[0] == 0
        assert np.isnan(seg.points[0][~ok]).all() and np.isfinite(seg.points[0][ok]).all()


_SEGMENT_GENFUNS = {
    "quasilinear": make_builtin("quasilinear"),
    "point_source": make_builtin("point_source"),
    "parallel_beam": make_builtin("parallel_beam"),
    "far_field": far_field_genfun(),
    "violator": violator_genfun(),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_SEGMENT_GENFUNS)),
       kind=st.sampled_from(["source", "target"]), seed=st.integers(0, 2 ** 32 - 1),
       m=st.integers(2, 9), data=st.data())
def test_segment_batch_rows_are_their_one_row_segments(name, kind, seed, m, data):
    gf = _SEGMENT_GENFUNS[name]
    lo, hi = TEST_INTERVALS[name]
    rng = np.random.default_rng(seed)
    xs = gf.source_chart.sample(24, rng)
    xbs = gf.target_chart.sample(24, rng)
    us = rng.uniform(lo, hi, 24)
    zs, status = gf.inverse_rows(xs, xbs, us)
    ok = np.flatnonzero(status == 0)
    k = ok.size // 2
    assume(k > 0)
    first, second = ok[:k], ok[k:2 * k]
    if kind == "source":
        a, b, anchor, chart = xs[first], xs[second], (xbs[first], zs[first]), gf.source_chart
    else:
        a, b, anchor, chart = xbs[first], xbs[second], (xs[first], us[first]), gf.target_chart
    # planted endpoints outside the chart
    outside = chart.embed(chart.hi * 3)[0]
    planted = data.draw(st.lists(st.sampled_from(["", "a", "b"]), min_size=k, max_size=k))
    for i, where in enumerate(planted):
        if where:
            (a if where == "a" else b)[i] = outside
    s_grid = np.linspace(0.0, 1.0, m)
    batch = g_segment_batch(gf, kind, a, b, anchor, s_grid=s_grid)
    assert all(batch.status[i] != 0 for i, where in enumerate(planted) if where)
    for i in range(k):
        seg = _one_segment(gf, kind, a[i], b[i], (anchor[0][i], anchor[1][i]), s_grid=s_grid)
        assert batch.status[i] == seg.status[0]
        if seg.status[0] != 0:
            assert np.all(np.isnan(batch.points[i])) and not batch.ok[i].any()
            continue
        assert np.array_equal(batch.p0[i], seg.p0[0]) and np.array_equal(batch.p1[i], seg.p1[0])
        assert np.array_equal(batch.points[i], seg.points[0], equal_nan=True)
        if kind == "target":
            assert np.array_equal(batch.z_values[i], seg.z_values[0], equal_nan=True)
        assert np.array_equal(batch.ok[i], seg.ok[0])


@pytest.mark.parametrize("kind", ["source", "target"])
def test_segment_batch_rows_on_grids_of_their_own(newton_rows, kind):
    # three families of violator segments on grids of their own, the second
    # shorter than the others, in one continuation: each family's rows equal
    # the family's own call, including rows that fail mid-segment
    gf = violator_genfun()
    lo, hi = TEST_INTERVALS["violator"]
    rng = np.random.default_rng(0)
    xs, xbs = gf.source_chart.sample(40, rng), gf.target_chart.sample(40, rng)
    us = rng.uniform(lo, hi, 40)
    zs, status = gf.inverse_rows(xs, xbs, us)
    ok = np.flatnonzero(status == 0)
    k = ok.size // 2
    first, second = ok[:k], ok[k:2 * k]
    if kind == "source":
        a, b, anchor, chart = xs[first], xs[second], (xbs[first], zs[first]), gf.source_chart
    else:
        a, b, anchor, chart = xbs[first], xbs[second], (xs[first], us[first]), gf.target_chart
    b[1] = chart.embed(chart.hi * 3)[0]  # a planted endpoint outside the chart
    grids = [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 0.5, 4),
             np.unique(np.r_[np.linspace(0.0, 1.0, 6), 0.45])]
    parts = np.array_split(np.arange(k), 3)
    s_grid = np.full((k, 9), np.nan)
    for g, part in zip(grids, parts):
        s_grid[part, :g.size] = g
    newton_rows.clear()
    batch = g_segment_batch(gf, kind, a, b, anchor, s_grid=s_grid)
    # one batched solve per grid column over the rows with a point there
    live = batch.status == 0
    assert newton_rows == [int(np.sum(live & ~np.isnan(s_grid[:, j]))) for j in range(9)]
    assert batch.status[1] != 0
    assert np.any(live & batch.ok.any(axis=1) & ~batch.ok.all(axis=1))
    for g, part in zip(grids, parts):
        own = g_segment_batch(gf, kind, a[part], b[part], (anchor[0][part], anchor[1][part]),
                              s_grid=g)
        m = g.size
        assert np.array_equal(batch.status[part], own.status)
        assert np.array_equal(batch.p0[part], own.p0, equal_nan=True)
        assert np.array_equal(batch.p1[part], own.p1, equal_nan=True)
        assert np.array_equal(batch.points[part, :m], own.points, equal_nan=True)
        assert np.array_equal(batch.ok[part, :m], own.ok)
        if kind == "target":
            assert np.array_equal(batch.z_values[part, :m], own.z_values, equal_nan=True)
            assert np.isnan(batch.z_values[part, m:]).all()
        assert not batch.ok[part, m:].any() and np.isnan(batch.points[part, m:]).all()


def test_segment_endpoint_errors():
    gf = make_builtin("quasilinear")
    a, far = np.array([0.1, 0.2]), np.array([3.0, 0.0])
    anchor = (np.array([0.2, 0.0]), 0.1)
    assert _one_segment(gf, "source", a, far, anchor).status.tolist() == [
        RowStatus.INADMISSIBLE]
    assert _one_segment(gf, "target", a, far, anchor).status.tolist() == [
        RowStatus.NO_ADMISSIBLE_Z]
    batch = g_segment_batch(gf, "target", [a, a], [a + 0.1, far],
                            (np.array([0.2, 0.0]), 0.1))
    assert batch.status.tolist() == [0, RowStatus.NO_ADMISSIBLE_Z]
    assert batch.ok[0].all() and not batch.ok[1].any()


def test_segment_with_a_stencil_leaving_the_chart():
    # a finite-difference derivative is nan on the rows whose stencil
    # leaves the chart; only those rows may fail
    gf = make_builtin("quasilinear", cost=bent_cost)
    xb, z = np.array([0.3, -0.2]), 0.1
    grid = np.linspace(0.0, 1.0, 9)
    bent = (np.array([0.9, -0.9]), np.array([0.9, 0.9]))
    inner = (np.array([0.2, -0.3]), np.array([0.3, 0.3]))
    seg = _one_segment(gf, "source", *bent, (xb, z), s_grid=grid)
    assert seg.status[0] == 0 and grid[~seg.ok[0]].tolist() == grid[1:].tolist()
    one = _one_segment(gf, "source", *inner, (xb, z), s_grid=grid)
    assert one.status[0] == 0 and one.ok[0].all()
    batch = g_segment_batch(gf, "source", [bent[0], inner[0]], [bent[1], inner[1]],
                            ([xb, xb], [z, z]), s_grid=grid)
    assert batch.status.tolist() == [0, 0]
    assert batch.ok[1].all() and np.array_equal(batch.points[1], one.points[0])
    assert np.array_equal(batch.points[0], seg.points[0], equal_nan=True)
    assert np.array_equal(batch.ok[0], seg.ok[0])
    # an anchor on the chart edge: the endpoint coordinate map's stencil leaves
    edge = np.array([1.0, 0.0])
    batch = g_segment_batch(gf, "source", [inner[0]] * 2, [inner[1]] * 2,
                            ([edge, xb], [z, z]), s_grid=grid)
    assert batch.status.tolist() == [RowStatus.DERIVATIVE_STENCIL, 0]
    assert not batch.ok[0].any() and batch.ok[1].all()
    assert _one_segment(gf, "source", *inner, (edge, z), s_grid=grid).status.tolist() == [
        RowStatus.DERIVATIVE_STENCIL]
    batch = g_segment_batch(gf, "target", [xb] * 2, [-xb] * 2,
                            ([edge, inner[0]], [0.1, 0.1]), s_grid=grid)
    assert batch.status.tolist() == [RowStatus.DERIVATIVE_STENCIL, 0]
    assert _one_segment(gf, "target", xb, -xb, (edge, 0.1), s_grid=grid).status.tolist() == [
        RowStatus.DERIVATIVE_STENCIL]


def test_segment_batch_reruns_no_row_whose_stencil_leaves(newton_rows):
    # the bent and inner rows above: one batched solve per grid point
    gf = make_builtin("quasilinear", cost=bent_cost)
    xb, z = np.array([0.3, -0.2]), 0.1
    g_segment_batch(gf, "source", [[0.9, -0.9], [0.2, -0.3]], [[0.9, 0.9], [0.3, 0.3]],
                    ([xb, xb], [z, z]), s_grid=np.linspace(0.0, 1.0, 9))
    assert newton_rows == [2] * 9


def test_jacobian_identity(builtins_all, intervals):
    # numerical jacobian of x -> p equals -E^T / G_z
    for name in BUILTIN_NAMES:
        gf = builtins_all[name]
        xs, xbs, us, zs = sample_admissible(gf, intervals[name], 4, seed=8)
        x, xb, z = xs[0], xbs[0], float(zs[0])
        c = gf.source_chart.coords(x)
        h = 1e-6
        num = np.empty((gf.dim, gf.dim))
        for k in range(gf.dim):
            cp = c.copy(); cp[k] += h
            cm = c.copy(); cm[k] -= h
            num[:, k] = (p_map(gf, xb, z, gf.source_chart.embed(cp[None])[0])
                         - p_map(gf, xb, z, gf.source_chart.embed(cm[None])[0])) / (2 * h)
        ana = -e_matrix(gf, x, xb, z).T / gf.g_z(x, xb, z)
        assert np.allclose(num, ana, rtol=1e-5, atol=1e-7), name
