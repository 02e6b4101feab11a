import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import bent_cost, sample_admissible
from gjekit.builtins import make_builtin
from gjekit.demos import (TEST_INTERVALS, far_field_genfun, folded_twist_genfun,
                          violator_genfun)
from gjekit.expmaps import exp_target, g_segment_batch
from gjekit.structure import (_jsonable, _min_sep_ratio, _qq_fit, _qq_fits, _qq_grid,
                              _sweep_rows, check_conditions, check_domconv, check_nondeg,
                              check_qqconv, check_twist, check_unif_lip,
                              crosscheck_g3w_implies_qqconv, g3w_batch,
                              g3w_dual_batch, g3w_sweep)

IV = (-0.5, 0.5)


def test_jsonable_converts_numpy_scalars_and_arrays():
    obj = {"flag": np.bool_(True), "x": np.float64(0.5), "n": np.int64(3),
           "arr": np.array([1.0, 2.0]), "pair": (np.inf, [np.bool_(False)])}
    plain = _jsonable(obj)
    assert plain == {"flag": True, "x": 0.5, "n": 3, "arr": [1.0, 2.0],
                     "pair": ["inf", [False]]}
    assert type(plain["flag"]) is bool
    json.dumps(plain)


# -- pointwise checks -------------------------------------------------------------


def test_nondeg_quasilinear_unit_det():
    r = check_nondeg(make_builtin("quasilinear"), IV, n_samples=200)
    assert r.passed
    assert np.isclose(r.constants["min_abs_det"], 1.0)


def test_nondeg_point_source(builtins_all, intervals):
    r = check_nondeg(builtins_all["point_source"], intervals["point_source"],
                     n_samples=200)
    assert r.passed
    assert r.constants["min_abs_det"] > 1e-6


def test_twist_pass_and_fail():
    r = check_twist(make_builtin("quasilinear"), IV, n_samples=120)
    assert r.passed
    bad = check_twist(folded_twist_genfun(), IV, n_samples=120)
    assert not bad.passed
    assert bad.witness, "a collision witness must be reported"
    assert bad.constants["min_separation_ratio"] < 1e-3


def _min_sep_ratio_full(outputs, inputs):
    """The full-matrix form: every pairwise distance, then the upper triangle."""
    douts = np.linalg.norm(outputs[:, None, :] - outputs[None, :, :], axis=2)
    dins = np.linalg.norm(inputs[:, None, :] - inputs[None, :, :], axis=2)
    iu = np.triu_indices(len(inputs), k=1)
    douts, dins = douts[iu], dins[iu]
    keep = dins > 1e-9
    ratio = douts[keep] / dins[keep]
    k = int(np.argmin(ratio))
    rows = np.flatnonzero(keep)[k]
    return float(ratio[k]), (iu[0][rows], iu[1][rows])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40), d_in=st.integers(1, 3),
       d_out=st.integers(1, 4), n_repeat=st.integers(0, 12),
       nudge=st.sampled_from([0.0, 1e-13, 4e-10, 1e-8]))
def test_min_sep_ratio_equals_the_full_matrix_form(seed, n, d_in, d_out, n_repeat, nudge):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, d_in))
    outputs = rng.normal(size=(n, d_out))
    # repeated inputs: copies of other rows, nudged (mostly closer than
    # 1e-9), some with their outputs copied too
    for i, j in rng.integers(0, n, size=(n_repeat, 2)):
        inputs[i] = inputs[j] + nudge * rng.normal(size=d_in)
        if rng.random() < 0.5:
            outputs[i] = outputs[j]
    i, j = np.triu_indices(n, k=1)
    assume(np.any(np.linalg.norm(inputs[i] - inputs[j], axis=1) > 1e-9))
    ratio, (a, b) = _min_sep_ratio(outputs, inputs)
    ref_ratio, (ref_a, ref_b) = _min_sep_ratio_full(outputs, inputs)
    assert ratio.hex() == ref_ratio.hex() and (a, b) == (ref_a, ref_b)


def test_unif_lip_constants():
    gf = make_builtin("quasilinear")
    r = check_unif_lip(gf, IV, n_samples=400)
    assert r.passed
    # K0 = max |DxG| = max |xbar| over the box (-1,1)^2, sampled
    assert r.constants["K0"] < np.sqrt(2.0) + 1e-9
    assert r.constants["K0"] > 1.2
    ps = make_builtin("point_source")
    rp = check_unif_lip(ps, (0.45, 0.85), n_samples=300)
    assert rp.passed
    assert np.isfinite(rp.constants["K0"])


def test_domconv_quasilinear():
    r = check_domconv(make_builtin("quasilinear"), IV, n_samples=20)
    assert r.passed
    assert r.constants["contained_fraction"] == 1.0


# -- tensor -----------------------------------------------------------------------


def _one_row(form, gf, *row, **guess):
    """Value of the batched form on one row, whose status must be OK."""
    vals, status = form(gf, *([a] for a in row),
                        **{k: [v] for k, v in guess.items()})
    assert status.tolist() == [0]
    return float(vals[0])


def test_a_matrix_quasilinear_zero():
    # A = D2x G composed with the target exponential map, as the forms take it
    gf = make_builtin("quasilinear")
    x = np.array([0.1, 0.2])
    xb, z = exp_target(gf, x, 0.05, np.array([0.3, -0.1]))
    assert np.allclose(gf.d2_x(x, xb, z), 0.0, atol=1e-12)


def test_a_matrix_parallel_beam():
    gf = make_builtin("parallel_beam")
    x = np.array([0.1, 0.2])
    xb = np.array([0.3, -0.1])
    z = 0.9
    pbar = gf.d_x(x, xb, z)
    u = gf.value(x, xb, z)
    xx, zz = exp_target(gf, x, u, pbar, xbar_guess=xb)
    assert np.allclose(gf.d2_x(x, xx, zz), -zz * np.eye(2), atol=1e-8)


def test_a_matrix_far_field_matches_fd(intervals):
    gf = far_field_genfun()
    xs, xbs, us, zs = sample_admissible(gf, intervals["far_field"], 4, seed=1)
    x, xb, u = xs[0], xbs[0], float(us[0])
    pbar = gf.d_x(x, xb, zs[0])
    A = gf.d2_x(x, *exp_target(gf, x, u, pbar, xbar_guess=xb))
    from gjekit.genfun import finite_diff_derivatives
    fd = finite_diff_derivatives(gf, "d2_x", x, xb, float(zs[0]))
    assert np.allclose(A, fd, rtol=1e-4, atol=1e-6)


def test_g3w_form_quasilinear_zero_and_symmetry():
    gf = make_builtin("quasilinear")
    x = np.array([0.1, 0.2])
    pbar = np.array([0.3, -0.1])
    V = np.array([1.0, 0.0])
    eta = np.array([0.0, 1.0])
    assert abs(_one_row(g3w_batch, gf, x, pbar, 0.05, V, eta)) <= 1e-10
    with pytest.raises(ValueError):
        g3w_batch(gf, [x], [pbar], [0.05], [V], [V])  # not orthogonal


def test_g3w_symmetry_and_homogeneity(intervals):
    gf = far_field_genfun()
    xs, xbs, us, zs = sample_admissible(gf, intervals["far_field"], 4, seed=7)
    x, u = xs[0], float(us[0])
    pbar = gf.d_x(xs[0], xbs[0], zs[0])
    rng = np.random.default_rng(2)
    V = rng.normal(size=2); V /= np.linalg.norm(V)
    eta = np.array([-V[1], V[0]])
    v1 = _one_row(g3w_batch, gf, x, pbar, u, V, eta, xbar_guess=xbs[0])
    v2 = _one_row(g3w_batch, gf, x, pbar, u, V, -eta, xbar_guess=xbs[0])
    assert abs(v1 - v2) <= 1e-9 * max(1, abs(v1))
    lam = 1.7
    v3 = _one_row(g3w_batch, gf, x, pbar, u, lam * V, eta, xbar_guess=xbs[0])
    assert abs(v3 - lam ** 2 * v1) <= 1e-8 * max(1.0, abs(v3))
    v4 = _one_row(g3w_batch, gf, x, pbar, u, V, lam * eta, xbar_guess=xbs[0])
    assert abs(v4 - lam ** 2 * v1) <= 1e-8 * max(1.0, abs(v4))


def test_g3w_far_field_positive(intervals):
    r = g3w_sweep(far_field_genfun(), intervals["far_field"], n_base=12,
                  n_pairs=6, seed=3)
    assert r.passed
    assert r.constants["min_value"] >= -1e-8


def test_g3w_self_oracle_coarser_stencil(intervals):
    # independent check of the fourth-order stencil: same quantity from a
    # coarser second-difference around the same base point
    gf = make_builtin("parallel_beam")
    xs, xbs, us, zs = sample_admissible(gf, intervals["parallel_beam"], 4, seed=5)
    x, u = xs[0], float(us[0])
    pbar = gf.d_x(xs[0], xbs[0], zs[0])
    V = np.array([1.0, 0.0])
    eta = np.array([0.0, 1.0])
    fine = _one_row(g3w_batch, gf, x, pbar, u, V, eta, xbar_guess=xbs[0])

    def phi(s):
        xb, z = exp_target(gf, x, u, pbar + s * eta, xbar_guess=xbs[0])
        A = gf.d2_x(x, xb, z)
        return float(V @ A @ V)

    h = 5e-3
    coarse = (phi(h) - 2 * phi(0.0) + phi(-h)) / (h * h)
    assert abs(fine - coarse) <= 5e-4 * max(1.0, abs(fine))


def test_g3w_dual_sign_agreement(builtins_all, intervals):
    # primal and dual pass/fail verdicts agree per instance
    for gf, iv in [(make_builtin("quasilinear"), IV),
                   (far_field_genfun(), IV),
                   (violator_genfun(), IV)]:
        primal = g3w_sweep(gf, iv, n_base=10, n_pairs=4, seed=4)
        dual = g3w_sweep(gf, iv, n_base=10, n_pairs=4, seed=4, dual=True)
        p_ok = primal.constants["min_value"] >= -1e-6
        d_ok = dual.constants["min_value"] >= -1e-6
        assert p_ok == d_ok, (gf.name, primal.constants, dual.constants)


def test_g3w_dual_quasilinear_zero():
    gf = make_builtin("quasilinear")
    p = np.array([0.1, -0.2])
    xb = np.array([0.3, 0.2])
    v = _one_row(g3w_dual_batch, gf, p, xb, 0.4, np.array([1.0, 0]), np.array([0, 1.0]))
    assert abs(v) <= 1e-8


_SWEEP_CASES = {
    "quasilinear": lambda: make_builtin("quasilinear"),
    "point_source": lambda: make_builtin("point_source"),
    "parallel_beam": lambda: make_builtin("parallel_beam"),
    "far_field": far_field_genfun,
    "violator": violator_genfun,
}


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(sorted(_SWEEP_CASES)), seed=st.integers(0, 10_000),
       n_base=st.integers(1, 4), n_pairs=st.integers(0, 3), dual=st.booleans())
def test_g3w_sweep_rows_equal_one_row_forms(case, seed, n_base, n_pairs, dual):
    gf = _SWEEP_CASES[case]()
    rows, vals, status = _sweep_rows(gf, TEST_INTERVALS[case], n_base, n_pairs, seed, dual)
    form = g3w_dual_batch if dual else g3w_batch
    for k in range(vals.size):
        one, one_status = form(gf, **{key: col[k:k + 1] for key, col in rows.items()})
        assert one_status.tolist() == [status[k]]
        if not status[k]:
            assert float(vals[k]).hex() == float(one[0]).hex()
    rep = g3w_sweep(gf, TEST_INTERVALS[case], n_base=n_base, n_pairs=n_pairs, seed=seed,
                    dual=dual)
    ok = status == 0
    assert (rep.n_samples, rep.skipped) == (int(ok.sum()), int((~ok).sum()))
    assert rep.constants["min_value"] == (vals[ok].min() if ok.any() else np.inf)


@pytest.mark.parametrize("dual", [False, True])
def test_g3w_sweep_is_five_batched_solves(newton_rows, dual):
    for n_base in (2, 12):
        newton_rows.clear()
        g3w_sweep(far_field_genfun(), IV, n_base=n_base, n_pairs=4, seed=1, dual=dual)
        assert len(newton_rows) == 5
        assert newton_rows[0] == n_base * 6  # two axis pairs and four random ones per base


@pytest.mark.parametrize("dual", [False, True])
def test_qqconv_is_one_batched_solve_per_grid_point(newton_rows, dual):
    grid = np.unique(np.concatenate([np.linspace(0, 1, 11), np.linspace(0, 0.9, 11)]))
    for n_samples in (2, 12):
        newton_rows.clear()
        rep = check_qqconv(far_field_genfun(), IV, n_samples=n_samples, seed=1, dual=dual)
        assert len(newton_rows) == grid.size
        assert rep.n_samples + rep.skipped == n_samples
        assert newton_rows[0] >= rep.n_samples


def test_domconv_is_one_batched_solve_per_segment_point(newton_rows):
    for n_samples in (2, 12):
        newton_rows.clear()
        check_domconv(far_field_genfun(), IV, n_samples=n_samples, seed=1)
        # seventeen segment points, then the image midpoints
        assert len(newton_rows) == 18


def test_domconv_reruns_no_row_whose_stencil_leaves(newton_rows):
    # seventeen segment points, then the image midpoints; a row whose
    # stencil leaves the chart is not solved again on its own
    check_domconv(make_builtin("quasilinear", cost=bent_cost), (-0.5, 0.5), n_samples=6,
                  seed=1)
    assert len(newton_rows) == 18


def test_checks_survive_stencils_leaving_the_chart():
    # a finite-difference derivative is nan on the rows whose stencil leaves
    # the chart.  Such a configuration is a failed segment point or a skip,
    # as when the checks ran one configuration at a time (these counts are
    # that implementation's), not an abort.
    gf = make_builtin("quasilinear", cost=bent_cost)
    dom = check_domconv(gf, (-0.5, 0.5), n_samples=6, seed=1)
    assert (dom.n_samples, dom.skipped, dom.constants["segment_failures"]) == (12, 0, 4)
    assert dom.witness["kind"] == "segment_not_well_defined"
    assert dom.witness["failures"] == [0.0625, 0.125, 0.875]
    qq = check_qqconv(gf, (-0.5, 0.5), n_samples=4, seed=2)
    assert (qq.n_samples, qq.skipped) == (0, 4)


def test_mtw_cross_validation_far_field(intervals):
    """The tensor on the quasilinear instance must match the classical
    fourth-order quantity computed from cost evaluations only.  The oracle
    runs over all sample rows at once; each row is its own computation."""
    gf = far_field_genfun()
    cost = gf.cost
    sch, tch = gf.source_chart, gf.target_chart
    unit = np.eye(2)

    def c_chart(cx, cb):
        return cost.value(sch.embed(cx), tch.embed(cb))

    def grad_x(cx, cb, h=1e-6):
        g = np.zeros(cx.shape)
        for k in range(2):
            g[:, k] = (c_chart(cx + h * unit[k], cb) - c_chart(cx - h * unit[k], cb)) / (2 * h)
        return g

    def _hess_x_step(cx, cb, h):
        H = np.zeros((cx.shape[0], 2, 2))
        f0 = c_chart(cx, cb)
        for i in range(2):
            cp, cm = cx + h * unit[i], cx - h * unit[i]
            H[:, i, i] = (c_chart(cp, cb) - 2 * f0 + c_chart(cm, cb)) / (h * h)
            for j in range(i + 1, 2):
                val = 0.0
                for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    val = val + a * b * c_chart(cx + a * h * unit[i] + b * h * unit[j], cb)
                H[:, i, j] = H[:, j, i] = val / (4 * h * h)
        return H

    def hess_x(cx, cb, h=6e-3):
        return (4 * _hess_x_step(cx, cb, h / 2) - _hess_x_step(cx, cb, h)) / 3

    def cexp(cx, pbar, cb0):
        # Newton on -grad_x c(x, xbar) = pbar over the target chart; a row
        # stops once its residual is below 1e-12
        cb = cb0.copy()
        live = np.arange(cb.shape[0])
        for _ in range(40):
            r = -grad_x(cx[live], cb[live]) - pbar[live]
            go = ~(np.max(np.abs(r), axis=1) < 1e-12)
            live, r = live[go], r[go]
            if live.size == 0:
                break
            h = 1e-6
            J = np.zeros((live.size, 2, 2))
            for k in range(2):
                cp, cm = cb[live] + h * unit[k], cb[live] - h * unit[k]
                J[:, :, k] = (-grad_x(cx[live], cp) + grad_x(cx[live], cm)) / (2 * h)
            cb[live] -= np.linalg.solve(J, r[:, :, None])[:, :, 0]
        return cb

    def oracle_form(cx, pbar, cb0, V, eta):
        def A_VV(s):
            cb = cexp(cx, pbar + s * eta, cb0)
            return np.einsum("mi,mij,mj->m", V, -hess_x(cx, cb), V)
        f0 = A_VV(0.0)

        def second(h):
            return (A_VV(h) - 2 * f0 + A_VV(-h)) / (h * h)
        h = 1e-2
        return (4 * second(h / 2) - second(h)) / 3

    xs, xbs, us, zs = sample_admissible(gf, intervals["far_field"], 120, seed=6)
    rng = np.random.default_rng(6)
    V = np.array([rng.normal(size=2) for _ in range(len(xs))])
    V /= np.linalg.norm(V, axis=1)[:, None]
    eta = np.column_stack([-V[:, 1], V[:, 0]])
    pbar = gf.d_x(xs, xbs, zs)
    mine, status = g3w_batch(gf, xs, pbar, us, V, eta, xbar_guess=xbs)
    rows = np.flatnonzero(status == 0)[:100]  # rows whose stencil stays in the image set
    assert rows.size >= 100
    ref = oracle_form(sch.coords(xs[rows]), pbar[rows], tch.coords(xbs[rows]), V[rows],
                      eta[rows])
    bad = np.abs(mine[rows] - ref) > 1e-4 * np.maximum(np.abs(mine[rows]), np.abs(ref))
    assert not bad.any(), rows[bad]


# -- quasiconvexity ---------------------------------------------------------------


def test_qqconv_quasilinear_m_is_one():
    r = check_qqconv(make_builtin("quasilinear"), IV, n_samples=30, seed=1)
    assert r.passed
    assert abs(r.constants["fitted_M"] - 1.0) <= 1e-9


def test_qqconv_dual_quasilinear():
    r = check_qqconv(make_builtin("quasilinear"), IV, n_samples=15, seed=1,
                     dual=True)
    assert abs(r.constants["fitted_M"] - 1.0) <= 1e-9


def test_qqconv_violator_witness():
    r = check_qqconv(violator_genfun(), IV, n_samples=25, seed=2)
    assert not r.passed
    assert r.constants["fitted_M"] == float("inf")
    assert "lhs" in r.witness and r.witness["lhs"] > 0


def test_qqconv_parallel_beam_seed_stability(intervals):
    gf = make_builtin("parallel_beam")
    iv = intervals["parallel_beam"]
    r1 = check_qqconv(gf, iv, n_samples=30, seed=1)
    r2 = check_qqconv(gf, iv, n_samples=30, seed=2)
    m1, m2 = r1.constants["fitted_M"], r2.constants["fitted_M"]
    assert np.isfinite(m1) and np.isfinite(m2)
    assert abs(m1 - m2) <= 0.2 * max(m1, m2)


def test_qqconv_interval_monotonicity():
    # genuinely nested constraint sets: fit M over one config pool, then
    # over the sub-pool whose scalar values stay in the narrow interval
    gf = make_builtin("parallel_beam")
    qgrid = _qq_grid(11)
    pool = [sample_admissible(gf, (0.6, 1.4), 4, seed=300 + t) for t in range(40)]
    xs, xbs, us, zs = (np.array([p[i][:2] for p in pool if len(p[0]) >= 2]) for i in range(4))
    seg = g_segment_batch(gf, "source", xs[:, 0], xs[:, 1], (xbs[:, 0], zs[:, 0]),
                          s_grid=qgrid[0])
    m_wide = 1.0
    m_narrow = 1.0
    for (fit, viol, skip), u in zip(_qq_fits(gf, (xs, xbs, us, zs), seg, qgrid, False),
                                    us[:, 0]):
        if skip or viol is not None:
            continue
        m_wide = max(m_wide, fit)
        if 0.85 <= u <= 1.15:
            m_narrow = max(m_narrow, fit)
    assert m_narrow <= m_wide + 1e-12


def _qq_fit_loops(lhs, rhs, grid, idx_a, idx_b, tie):
    """Reference for ``_qq_fit``: the double loop over the (a, b) pairs."""
    M_req = 1.0
    for a in idx_a:
        s = grid[a]
        if s <= 0 or lhs[a] <= tie:
            continue
        for b in idx_b:
            factor = s / (1.0 - grid[b])
            if rhs[b] <= tie:
                return None, (a, b)
            M_req = max(M_req, float(lhs[a]) / (factor * float(rhs[b])))
    return M_req, None


_TIE = 1e-9
# sides at, just around and below the tie, zero, negative and nan
_SIDES = st.one_of(
    st.sampled_from([_TIE, np.nextafter(_TIE, 1.0), np.nextafter(_TIE, 0.0), 0.0, -0.0,
                     -_TIE, -0.5, float("nan")]),
    st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_grid=st.integers(2, 12), positive_rhs=st.booleans())
def test_qq_fit_equals_the_double_loop(data, n_grid, positive_rhs):
    grid, idx = _qq_grid(n_grid)
    m = grid.size
    lhs = np.array(data.draw(st.lists(_SIDES, min_size=m, max_size=m)))
    # half the cases keep the right side above the tie, so M is fitted
    rhs_values = st.floats(2 * _TIE, 2.0) if positive_rhs else _SIDES
    rhs = np.array(data.draw(st.lists(rhs_values, min_size=m, max_size=m)))
    M, pair = _qq_fit(lhs, rhs, grid, *idx, _TIE)
    ref_M, ref_pair = _qq_fit_loops(lhs, rhs, grid, *idx, _TIE)
    assert pair == ref_pair
    assert (M is None and ref_M is None) or M.hex() == ref_M.hex()


# -- crosscheck -------------------------------------------------------------------


def test_crosscheck_quasilinear():
    rep = crosscheck_g3w_implies_qqconv(make_builtin("quasilinear"), IV,
                                        n_base=10, n_pairs=4, n_qq=15)
    assert rep["g3w_nonnegative"]
    assert abs(rep["fitted_M"] - 1.0) <= 1e-6
    assert rep["implication_holds"]


def test_crosscheck_far_field():
    rep = crosscheck_g3w_implies_qqconv(far_field_genfun(), IV,
                                        n_base=10, n_pairs=4, n_qq=10)
    assert rep["g3w_min"] >= -1e-8
    assert np.isfinite(rep["fitted_M"])
    assert rep["implication_holds"]


def test_crosscheck_violator_vacuous():
    rep = crosscheck_g3w_implies_qqconv(violator_genfun(), IV,
                                        n_base=24, n_pairs=8, n_qq=25, seed=2)
    assert rep["g3w_min"] < 0
    assert rep["implication_holds"]  # vacuously


# -- the check pass ------------------------------------------------------------


def _standalone_checks(gf, iv, n, seed):
    """Every condition and the cross-check through its public function alone."""
    reports = {
        "unif_lip": check_unif_lip(gf, iv, n_samples=n, seed=seed),
        "twist": check_twist(gf, iv, n_samples=max(64, n // 4), seed=seed),
        "nondeg": check_nondeg(gf, iv, n_samples=n, seed=seed),
        "domconv": check_domconv(gf, iv, n_samples=max(24, n // 10), seed=seed),
        "g3w": g3w_sweep(gf, iv, n_base=max(16, n // 16), n_pairs=8, seed=seed),
        "g3w_dual": g3w_sweep(gf, iv, n_base=max(8, n // 32), n_pairs=4, seed=seed,
                              dual=True),
        "qqconv": check_qqconv(gf, iv, n_samples=max(16, n // 16), seed=seed),
        "qqconv_dual": check_qqconv(gf, iv, n_samples=max(8, n // 32), seed=seed,
                                    dual=True),
    }
    return reports, crosscheck_g3w_implies_qqconv(gf, iv, seed=seed)


_PASS_CASES = {
    "far_field": (far_field_genfun, TEST_INTERVALS["far_field"]),
    "violator": (violator_genfun, TEST_INTERVALS["violator"]),
    "point_source": (lambda: make_builtin("point_source"), TEST_INTERVALS["point_source"]),
    # about half the seeds draw fewer than two admissible samples here, so
    # the shared qqconv configurations must map to reports by seed
    "point_source_sparse": (lambda: make_builtin("point_source"), (-1.0, 0.3)),
}


@pytest.mark.parametrize("name", sorted(_PASS_CASES))
@pytest.mark.parametrize("seed, n", [(1, 200), (2, 400)])
def test_check_pass_equals_the_standalone_checks(name, seed, n):
    # at n_samples 400 the report's qqconv list (25 seeds) is the longer one
    make, iv = _PASS_CASES[name]
    gf = make()
    reports, cross = check_conditions(gf, iv, n_samples=n, seed=seed)
    ref_reports, ref_cross = _standalone_checks(gf, iv, n, seed)
    assert list(reports) == list(ref_reports)
    for key, rep in reports.items():
        assert json.dumps(rep.to_dict()) == json.dumps(ref_reports[key].to_dict()), key
    assert json.dumps(_jsonable(cross)) == json.dumps(_jsonable(ref_cross))


def test_check_pass_solves_each_family_once(newton_rows):
    check_conditions(far_field_genfun(), IV, n_samples=200, seed=1)
    # one source continuation over the longest grid (20 points: domconv rows
    # on the first 17, qqconv rows on all 20), one primal g3w_batch for the
    # report's and the cross-check's sweep rows (5 stencil solves), the
    # domconv image midpoints, the dual sweep (5) and the qqconv_dual target
    # segments (20)
    assert len(newton_rows) == 20 + 5 + 1 + 5 + 20
    both, qq_only = newton_rows[0], newton_rows[17]
    assert newton_rows[:17] == [both] * 17 and newton_rows[17:20] == [qq_only] * 3
    assert 0 < qq_only < both
