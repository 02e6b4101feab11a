"""Sampled verification of the structural conditions.

Every check here is a falsifier, not a certifier: it samples the declared
domains at a given density, reports the worst margin found together with
the witnessing configuration, and passes when no violation showed up.  The
conditions quantify over continua, so a pass means "no violation at this
sample density".

Checks: uniform admissibility (with the Lipschitz constant K0), injectivity
of the two coordinate maps, invertibility of the nondegeneracy matrix,
domain convexity along segments, the fourth-order tensor (primal and dual)
on orthogonal direction pairs, quantitative quasiconvexity along segments
(fitting the smallest workable constant M), and the smooth-case cross-check
that a nonnegative tensor comes with a finite M.
"""

from dataclasses import dataclass, field

import numpy as np

from .charts import _row_dots, _row_norms
from .expmaps import (SegmentBatch, _ok_rows, e_matrix, exp_source, exp_target,
                      g_segment_batch, p_map, pbar_rows)
from .genfun import GenFun, raise_for_nan

__all__ = [
    "ConditionReport", "g3w_batch", "g3w_dual_batch",
    "check_nondeg", "check_twist", "check_unif_lip", "check_domconv",
    "check_qqconv", "g3w_sweep", "crosscheck_g3w_implies_qqconv", "check_conditions",
]

_EPS4 = np.finfo(float).eps ** 0.25
# sample counts of the smooth-case cross-check: sweep base points, direction
# pairs per base point, quasiconvexity configurations
_CROSS_BASE, _CROSS_PAIRS, _CROSS_QQ = 32, 8, 24
# points per axis of the quasiconvexity (s, s') grid
_QQ_N_GRID = 11
# points of the domain-convexity source segments
_DOM_POINTS = 17


@dataclass
class ConditionReport:
    condition: str
    n_samples: int
    worst_margin: float
    witness: dict
    tolerance: float
    passed: bool
    constants: dict = field(default_factory=dict)
    skipped: int = 0

    @staticmethod
    def build(condition, n_samples, worst_margin, witness, tolerance,
              constants=None, skipped=0):
        return ConditionReport(
            condition=condition,
            n_samples=int(n_samples),
            worst_margin=float(worst_margin),
            witness=witness,
            tolerance=float(tolerance),
            passed=bool(worst_margin >= -tolerance),
            constants=constants or {},
            skipped=int(skipped),
        )

    def to_dict(self):
        return {
            "condition": self.condition,
            "n_samples": self.n_samples,
            "worst_margin": self.worst_margin,
            "witness": _jsonable(self.witness),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "constants": _jsonable(self.constants),
            "skipped": self.skipped,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _draw(gf: GenFun, interval, n, seed):
    """n seeded (x, xbar, u) draws from the declared domains, with the height
    z = H(x, xbar, u) and the RowStatus of each."""
    rng = np.random.default_rng(seed)
    xs = gf.source_chart.sample(n, rng)
    xbs = gf.target_chart.sample(n, rng)
    us = rng.uniform(interval[0], interval[1], n)
    return (xs, xbs, us) + gf.inverse_rows(xs, xbs, us)


def _admissible_samples(gf: GenFun, interval, n, seed):
    """Sampled admissible (x, xbar, u, z) tuples inside the declared domains."""
    *draws, status = _draw(gf, interval, 2 * n, seed)
    return tuple(a[status == 0][:n] for a in draws)


def _sample_pairs(gf: GenFun, interval, seeds):
    """The first two admissible samples for each seed, stacked over the
    seeds that have two: (xs, xbs, us, zs) of shapes (k, 2, embdim) and
    (k, 2), plus the index in ``seeds`` of each stacked seed; a seed with
    fewer is skipped."""
    pairs = [tuple(a[:2] for a in _admissible_samples(gf, interval, 4, sd)) for sd in seeds]
    kept = np.array([t for t, pr in enumerate(pairs) if len(pr[0]) == 2], dtype=int)
    shapes = ((2, gf.source_chart.embdim), (2, gf.target_chart.embdim), (2,), (2,))
    stacked = tuple(np.array([pairs[t][i] for t in kept], dtype=float).reshape((-1,) + sh)
                    for i, sh in enumerate(shapes))
    return stacked, kept


# ---------------------------------------------------------------------------
# pointwise condition checks
# ---------------------------------------------------------------------------


def check_nondeg(gf: GenFun, interval, n_samples=500, seed=0) -> ConditionReport:
    """Smallest |det E| over sampled admissible triples."""
    xs, xbs, us, zs = _admissible_samples(gf, interval, n_samples, seed)
    E = e_matrix(gf, xs, xbs, zs)
    dets = np.abs(np.linalg.det(E))
    k = int(np.argmin(dets))
    tol = gf.tols.nondeg_min_det
    return ConditionReport.build(
        "nondeg", len(dets), dets[k] - tol,
        {"x": xs[k], "xbar": xbs[k], "z": zs[k], "det": dets[k]},
        0.0, constants={"min_abs_det": float(dets[k])})


def check_twist(gf: GenFun, interval, n_samples=400, seed=0) -> ConditionReport:
    """Injectivity probe of the two coordinate maps.

    For fixed x0, the map (xbar, z) -> (D_x G, G) over a sampled net must
    separate distinct inputs; dually for x -> p at fixed (xbar, z).  The
    margin is the smallest output/input separation ratio; a collision drives
    it to zero.
    """
    def target_map(x, xb, z):  # (xbar, z) -> (D_x G, G) at fixed x
        return (np.column_stack([raise_for_nan(gf.d_x(x, xb, z), f"{gf.name}: twist"),
                                 gf.value(x, xb, z, check=False)]),
                np.column_stack([gf.target_chart.coords(xb), z]))

    def source_map(x, xb, z):  # x -> p at fixed (xbar, z)
        return p_map(gf, xb, z, x), gf.source_chart.coords(x)

    worst = np.inf
    witness = {}
    total = 0
    for b in range(4):  # four seeded draws of base samples
        xs, xbs, us, zs = _admissible_samples(gf, interval, n_samples, seed + 17 * b + 1)
        if len(xs) < 8:
            continue
        x0, xb0, z0 = xs[0], xbs[0], zs[0]
        # shared z-levels across the target net: collisions of the target
        # map typically need matching scalar values, which independent
        # (xbar, z) draws would miss.  The net also carries the axis
        # reflections of every candidate about the chart center, so folds
        # along a chart axis collide exactly instead of approximately.
        z_levels = np.quantile(zs, [0.25, 0.5, 0.75])
        xb_aug = [xbs]
        cb = gf.target_chart.coords(xbs)
        ctr = gf.target_chart.center
        for d_ in range(gf.dim):
            ref = cb.copy()
            ref[:, d_] = 2 * ctr[d_] - ref[:, d_]
            xb_aug.append(gf.target_chart.embed(ref))
        xb_all = np.concatenate(xb_aug, axis=0)
        xb_net = np.repeat(xb_all, len(z_levels), axis=0)
        z_net = np.tile(z_levels, len(xb_all))
        if xb_net.shape[0] > 1200:  # pairwise scan is quadratic
            xb_net = xb_net[:1200]
            z_net = z_net[:1200]
        probes = [
            ({"map": "target", "x0": x0}, target_map,
             np.broadcast_to(x0, xb_net.shape[:1] + x0.shape).copy(), xb_net, z_net),
            ({"map": "source", "xbar": xb0, "z": float(z0)}, source_map,
             xs, np.broadcast_to(xb0, xs.shape[:1] + xb0.shape).copy(), np.full(len(xs), z0)),
        ]
        for where, coord_map, x, xb, z in probes:
            ok = gf._in_domain(x, xb, z)
            if np.sum(ok) < 8:
                continue
            out, cin = coord_map(x[ok], xb[ok], z[ok])
            r, (i, j) = _min_sep_ratio(out, cin)
            total += len(cin)
            if r < worst:
                worst = r
                witness = {**where, "pair_inputs": [cin[i], cin[j]]}
    tol = gf.tols.twist_ratio
    return ConditionReport.build(
        "twist", total, worst - tol, witness, 0.0,
        constants={"min_separation_ratio": float(worst)})


def _min_sep_ratio(outputs, inputs):
    """Smallest |out_i - out_j| / |in_i - in_j| over the pairs i < j whose
    inputs are more than 1e-9 apart, with the first such pair (i, j)."""
    i, j = np.triu_indices(len(inputs), k=1)
    douts = np.linalg.norm(outputs[i] - outputs[j], axis=1)
    dins = np.linalg.norm(inputs[i] - inputs[j], axis=1)
    keep = dins > 1e-9
    ratio = douts[keep] / dins[keep]
    k = int(np.argmin(ratio))
    rows = np.flatnonzero(keep)[k]
    return float(ratio[k]), (i[rows], j[rows])


def check_unif_lip(gf: GenFun, interval, n_samples=2000, seed=0) -> ConditionReport:
    """Uniform admissibility over the box of (x, xbar, u) plus the constant K0."""
    xs, xbs, us, zs, status = _draw(gf, interval, n_samples, seed)
    ok = status == 0
    bad = None
    if not ok.all():
        i = int(np.argmin(ok))
        bad = {"x": xs[i], "xbar": xbs[i], "u": float(us[i]),
               "reason": "no admissible z"}
    k0 = 0.0
    if np.any(ok):
        d = raise_for_nan(gf.d_x(xs[ok], xbs[ok], zs[ok]), f"{gf.name}: K0")
        k0 = float(np.max(np.linalg.norm(d, axis=1)))
    margin = 0.0 if bad is None else -1.0
    return ConditionReport.build(
        "unif_lip", n_samples, margin, bad or {}, 0.0,
        constants={"K0": k0, "admissible_fraction": float(np.mean(ok))})


def check_domconv(gf: GenFun, interval, n_samples=60, seed=0) -> ConditionReport:
    """Segment containment in the source domain and convexity of the
    target-chart image.

    Source direction: sampled endpoint pairs must yield well-defined
    segments staying in the domain closure.  Target direction: midpoints of
    image points must invert back into the target domain (within hull
    slack), which is the operational meaning of image convexity.
    """
    # source direction: one batched segment call over every configuration
    samples = _domconv_samples(gf, interval, n_samples, seed)
    xs, xbs, _, zs = samples
    seg = g_segment_batch(gf, "source", xs[:, 0], xs[:, 1], (xbs[:, 0], zs[:, 0]),
                          s_grid=np.linspace(0, 1, _DOM_POINTS))
    return _domconv_report(gf, interval, n_samples, seed, samples, seg)


def _domconv_samples(gf: GenFun, interval, n_samples, seed):
    """The source-direction configurations of ``check_domconv``."""
    return _sample_pairs(gf, interval, [seed + 101 * t for t in range(n_samples)])[0]


def _domconv_report(gf: GenFun, interval, n_samples, seed, samples, seg):
    """``check_domconv`` from its source configurations and their segments;
    a configuration that is not sampled or has an inadmissible endpoint is
    skipped.  The target direction is checked here."""
    slack = gf.tols.hull_slack
    witness = {}
    xs, xbs, _, zs = samples
    used = np.flatnonzero(seg.status == 0)
    skipped = n_samples - used.size
    total = used.size
    fails = 0
    for i in used:
        conf = {"x0": xs[i, 0], "x1": xs[i, 1], "xbar": xbs[i, 0], "z": float(zs[i, 0])}
        if not seg.ok[i].all():
            fails += 1
            witness = witness or {"kind": "segment_not_well_defined", **conf,
                                  "failures": seg.s_grid[~seg.ok[i]].tolist()}
        elif not np.all(gf.source_chart.contains(seg.points[i], slack=slack)):
            fails += 1
            witness = witness or {"kind": "segment_exits_domain", **conf}
    # dual direction: image midpoint inversion, one batched solve; a
    # configuration whose image points or midpoint fail is skipped
    (xs, xbs, us, _), _ = _sample_pairs(
        gf, interval, [seed + 7777 + 31 * t for t in range(n_samples)])
    x, u = xs[:, 0], us[:, 0]
    k = x.shape[0]
    pb, _, st = pbar_rows(gf, np.concatenate([x, x]), np.concatenate([u, u]),
                          np.concatenate([xbs[:, 0], xbs[:, 1]]))
    xb_mid = np.full(xbs[:, 0].shape, np.nan)
    mid_ok = np.zeros(k, dtype=bool)
    rows = np.flatnonzero((st[:k] == 0) & (st[k:] == 0))
    xb, _, status = exp_target(gf, x[rows], u[rows], 0.5 * (pb[rows] + pb[rows + k]),
                               xbar_guess=xbs[rows, 0], return_status=True)
    xb_mid[rows], mid_ok[rows] = xb, status == 0
    dual_total = int(np.sum(mid_ok))
    skipped += n_samples - dual_total
    dual_fails = 0
    for i in np.flatnonzero(mid_ok):
        if not gf.target_chart.contains(xb_mid[i], slack=slack):
            dual_fails += 1
            witness = witness or {"kind": "image_midpoint_outside",
                                  "x": x[i], "u": float(u[i]), "midpoint_target": xb_mid[i]}
    frac_ok = 1.0 - (fails + dual_fails) / max(1, total + dual_total)
    margin = 0.0 if (fails + dual_fails) == 0 else -(fails + dual_fails)
    return ConditionReport.build(
        "domconv", total + dual_total, margin, witness, 0.0,
        constants={"contained_fraction": float(frac_ok),
                   "segment_failures": int(fails),
                   "image_midpoint_failures": int(dual_fails)},
        skipped=skipped)


# ---------------------------------------------------------------------------
# fourth-order tensor
# ---------------------------------------------------------------------------


def _snap_dir(v, snap=1e-12):
    return np.round(v / snap) * snap


# stencil points of the fourth-order form, in units of the step h
_STENCIL = (0.0, 1.0, -1.0, 0.5, -0.5)


def _tensor_rows(gf, base, V, eta, hessian_at, names):
    """Second difference in s of <A(base + s eta) V, V> at s = 0, per row.

    ``hessian_at(cov, rows, tols)`` returns (A, status) for the batch rows
    ``rows`` at the covectors ``cov``.  The step comes from the central
    tolerance record (quarter-root of machine epsilon, scaled by |base|)
    with one Richardson level; the five stencil points are five batched
    solves, each over the rows that have not failed yet.  The form is
    evaluated with snapped unit directions and rescaled, using its
    quadratic homogeneity in both directions.  Returns (values, status);
    failed rows carry nan.
    """
    base, V, eta = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (base, V, eta))
    nrm, nrm_v = _row_norms(eta), _row_norms(V)
    if np.any(np.abs(_row_dots(eta, V)) > gf.tols.ortho * np.maximum(1e-300, nrm * nrm_v)):
        raise ValueError(f"directions must satisfy <{names}> = 0")
    vals = np.zeros(base.shape[0])
    status = np.zeros(base.shape[0], dtype=np.int8)
    rows = np.flatnonzero((nrm != 0) & (nrm_v != 0))
    # snapped unit directions with exact quadratic rescaling keep the form
    # exactly homogeneous in both arguments regardless of input scaling
    e = _snap_dir(eta[rows] / nrm[rows, None])
    vu = _snap_dir(V[rows] / nrm_v[rows, None])
    h = _EPS4 * np.maximum(1.0, _row_norms(base[rows]))
    tols2 = gf.tols.with_overrides(exp_residual=min(gf.tols.exp_residual, 1e-12))
    f = np.full((len(_STENCIL), rows.size), np.nan)
    st = status[rows]
    for j, s in enumerate(_STENCIL):
        live = np.flatnonzero(st == 0)
        A, st[live] = hessian_at(base[rows[live]] + (s * h[live])[:, None] * e[live],
                                 rows[live], tols2)
        ok = st[live] == 0
        w = np.matmul(vu[live[ok], None, :], A[ok])
        f[j, live[ok]] = np.matmul(w, vu[live[ok], :, None])[:, 0, 0]
    f0, f_h, f_mh, f_h2, f_mh2 = f
    d_h = (f_h - 2 * f0 + f_mh) / (h * h)
    d_h2 = (f_h2 - 2 * f0 + f_mh2) / (h * h / 4)
    vals[rows] = (4 * d_h2 - d_h) / 3 * nrm[rows] * nrm[rows] * nrm_v[rows] * nrm_v[rows]
    status[rows] = st
    vals[status != 0] = np.nan
    return vals, status


def g3w_batch(gf: GenFun, x, pbar, u, V, eta, xbar_guess=None):
    """Batched fourth-order form: per row, the second difference of
    s -> <A(x, pbar + s eta, u) V, V> at s = 0.

    Rows are (x, pbar, u, V, eta) with V and eta orthogonal within
    tolerance (ValueError otherwise).  Every stencil point starts each row
    from the same guess (``xbar_guess``, or the chart center), so the value
    is a symmetric function of the stencil set (eta -> -eta is then exact).
    Returns (values, status) with a RowStatus per row: a row fails when the
    target exponential map fails at any of its stencil points.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    guess = None if xbar_guess is None else np.atleast_2d(np.asarray(xbar_guess, dtype=float))

    def hessian_at(cov, rows, tols):
        xb, z, status = exp_target(gf, x[rows], u[rows], cov, tols=tols, return_status=True,
                                   xbar_guess=None if guess is None else guess[rows])
        return _ok_rows(gf.d2_x, status, x[rows], xb, z)

    return _tensor_rows(gf, pbar, V, eta, hessian_at, "eta, V")


def _h_xbar_xbar(gf: GenFun, x, xbar, z):
    """Second target-derivative of the scalar inverse at (x, xbar, G(x, xbar, z)).

    From differentiating G(x, xbar, H(x, xbar, u)) = u twice:
    H_bb = -(G_bb + G_bz h_b^T + h_b G_bz^T + G_zz h_b h_b^T) / G_z with
    h_b = -G_b / G_z, all evaluated at z.  Batched over rows.
    """
    Gb = gf.d_xbar(x, xbar, z)
    Gz = gf.g_z(x, xbar, z)[:, None, None]
    Gbb = gf.d2_xbar(x, xbar, z)
    Gbz = gf.d_xbar_z(x, xbar, z)
    Gzz = gf.g_zz(x, xbar, z)[:, None, None]
    hb = -Gb / Gz[:, :, 0]
    num = (Gbb + Gbz[:, :, None] * hb[:, None, :] + hb[:, :, None] * Gbz[:, None, :]
           + Gzz * (hb[:, :, None] * hb[:, None, :]))
    return -num / Gz


def g3w_dual_batch(gf: GenFun, p, xbar, z, Vbar, etabar, x_guess=None):
    """Batched mirror of ``g3w_batch`` with source/target roles swapped:
    per row, the second difference of s -> <H_bb(x(p + s etabar), xbar) Vbar,
    Vbar> at s = 0, x from the source exponential map at (xbar, z).

    Returns (values, status) with a RowStatus per row.
    """
    xbar = np.atleast_2d(np.asarray(xbar, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    guess = None if x_guess is None else np.atleast_2d(np.asarray(x_guess, dtype=float))

    def hessian_at(cov, rows, tols):
        x, status = exp_source(gf, xbar[rows], z[rows], cov, tols=tols, return_status=True,
                               x_guess=None if guess is None else guess[rows])
        return _ok_rows(lambda *a: _h_xbar_xbar(gf, *a), status, x, xbar[rows], z[rows])

    return _tensor_rows(gf, p, Vbar, etabar, hessian_at, "etabar, Vbar")


def _orthogonal_pairs(n, n_random, rng):
    """Direction pairs with <eta, V> = 0: axis-aligned plus random Gram-Schmidt."""
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j:
                V = np.zeros(n)
                V[i] = 1.0
                eta = np.zeros(n)
                eta[j] = 1.0
                pairs.append((V, eta))
    for _ in range(n_random):
        V = rng.normal(size=n)
        V /= np.linalg.norm(V)
        eta = rng.normal(size=n)
        eta -= (eta @ V) * V
        nn = np.linalg.norm(eta)
        if nn < 1e-12:
            continue
        pairs.append((V, eta / nn))
    return pairs


def _sweep_rows(gf: GenFun, interval, n_base, n_pairs, seed, dual):
    """Every (base point, direction pair) row of a sweep, as the keyword
    arguments of the batched form, with its value and RowStatus."""
    rows = _sweep_inputs(gf, interval, n_base, n_pairs, seed, dual)
    vals, status = (g3w_dual_batch if dual else g3w_batch)(gf, **rows)
    return rows, vals, status


def _sweep_inputs(gf: GenFun, interval, n_base, n_pairs, seed, dual):
    """Every (base point, direction pair) row of a sweep, as the keyword
    arguments of the batched form."""
    rng = np.random.default_rng(seed)
    xs, xbs, us, zs = _admissible_samples(gf, interval, n_base, seed)
    pairs = [_orthogonal_pairs(gf.dim, n_pairs, rng) for _ in range(len(xs))]
    base = np.repeat(np.arange(len(xs)), [len(pr) for pr in pairs])
    V = np.array([v for pr in pairs for v, _ in pr]).reshape(-1, gf.dim)
    eta = np.array([e for pr in pairs for _, e in pr]).reshape(-1, gf.dim)
    if dual:
        return {"p": p_map(gf, xbs, zs, xs)[base], "xbar": xbs[base], "z": zs[base],
                "Vbar": V, "etabar": eta, "x_guess": xs[base]}
    pbar = raise_for_nan(gf.d_x(xs, xbs, zs), f"{gf.name}: g3w bases")
    return {"x": xs[base], "pbar": pbar[base], "u": us[base],
            "V": V, "eta": eta, "xbar_guess": xbs[base]}


def g3w_sweep(gf: GenFun, interval, n_base=64, n_pairs=32, seed=0,
              dual=False) -> ConditionReport:
    """Minimum of the (primal or dual) fourth-order form over sampled
    base points and orthogonal direction pairs.

    All rows go through one batched form; rows whose stencil fails are
    skipped and counted.
    """
    return _sweep_report(gf, *_sweep_rows(gf, interval, n_base, n_pairs, seed, dual), dual)


def _sweep_report(gf: GenFun, rows, vals, status, dual):
    """``g3w_sweep`` from its rows, their values and their RowStatus."""
    ok = status == 0
    # the first strict minimum in row order; nan never witnesses
    cand = np.where(ok & (vals < np.inf), vals, np.inf)
    worst = np.inf
    witness = {}
    if np.any(cand < np.inf):
        k = int(np.argmin(cand))
        worst = float(vals[k])
        if dual:
            witness = {"p": rows["p"][k], "xbar": rows["xbar"][k], "z": float(rows["z"][k]),
                       "V": rows["Vbar"][k], "eta": rows["etabar"][k], "value": worst}
        else:
            witness = {"x": rows["x"][k], "pbar": rows["pbar"][k], "u": float(rows["u"][k]),
                       "V": rows["V"][k], "eta": rows["eta"][k], "value": worst}
    tol = gf.tols.tensor_floor
    name = "g3w_dual" if dual else "g3w"
    return ConditionReport.build(
        name, int(np.sum(ok)), worst, witness, tol,
        constants={"min_value": float(worst)}, skipped=int(np.sum(~ok)))


# ---------------------------------------------------------------------------
# quantitative quasiconvexity
# ---------------------------------------------------------------------------


def check_qqconv(gf: GenFun, interval, n_samples=40, seed=0, dual=False) -> ConditionReport:
    """Fit the smallest workable constant M >= 1 for the quasiconvexity
    inequality along sampled segments.

    Primal: source segments with an 11 x 11 (s, s') grid, s' capped at 0.9
    (the inequality degenerates as s' -> 1).  Dual: target segments with the
    positive-part bracket.  Configurations whose segments are not
    well-defined are skipped and counted.  A positive left side facing a
    nonpositive right side is a violation witness (M = infinity).  Every
    configuration is sampled first; their segments are one batched call.
    """
    qgrid = _qq_grid(_QQ_N_GRID)
    grid = qgrid[0]
    (xs, xbs, us, zs), kept = _qq_samples(gf, interval, n_samples, seed)
    if dual:
        seg = g_segment_batch(gf, "target", xbs[:, 0], xbs[:, 1], (xs[:, 0], us[:, 0]),
                              s_grid=grid)
    else:
        seg = g_segment_batch(gf, "source", xs[:, 0], xs[:, 1], (xbs[:, 0], zs[:, 0]),
                              s_grid=grid)
    fits = _qq_fits(gf, (xs, xbs, us, zs), seg, qgrid, dual)
    return _qq_report("qqconv_dual" if dual else "qqconv", fits, n_samples - kept.size)


def _qq_grid(n_grid):
    """The merged grid of the s and s' parameters, and their positions in it."""
    s_grid = np.linspace(0.0, 1.0, n_grid)
    sp_grid = np.linspace(0.0, 0.9, n_grid)
    grid = np.unique(np.concatenate([s_grid, sp_grid]))
    return grid, (np.searchsorted(grid, s_grid), np.searchsorted(grid, sp_grid))


def _qq_samples(gf: GenFun, interval, n_samples, seed):
    """The configurations of ``check_qqconv``, one per seed ``seed + 997 t``
    that has two admissible samples, with the index t of each."""
    return _sample_pairs(gf, interval, [seed + 997 * t for t in range(n_samples)])


def _qq_fits(gf: GenFun, samples, seg, qgrid, dual):
    """Per configuration, (M_required, violation witness or None, skipped)
    from the points of its segment ``seg`` on the grid ``qgrid`` of
    ``_qq_grid``.

    Primal: LHS(s) = G(x(s), xbar1, z1) - G(x(s), xbar0, z0) and
    R(s') = G(x1, xbar1, H(x(s'), xbar1, G(x(s'), xbar0, z0))) - G(x1, xbar0, z0).
    Dual: LHS(t) = G(x1, xbar(t), z(t)) - G(x1, xbar(0), z(0)) and the
    bracket G(x1, xbar(1), z(1)) - G(x1, xbar(t'), z(t')).  Each side is
    evaluated for every configuration at once, over the grid rows of the
    configurations still live; a configuration is skipped at the first
    step that fails on one of its rows (segment, second height, admissible
    triple, open scalar range, scalar inverse).
    """
    xs, xbs, us, zs = samples
    grid, idx = qgrid
    k, m = seg.ok.shape
    live = (seg.status == 0) & seg.ok.all(axis=1)

    def on_grid(a):  # a per-configuration array on each grid row
        return np.broadcast_to(a[:, None], (k, m) + a.shape[1:])

    def live_rows(a):  # the grid rows of the live configurations, flattened
        return a[live].reshape((-1,) + a.shape[2:])

    def value(x, xbar, z):
        """G on the live grid rows, (k, m) with nan elsewhere; a
        configuration with an inadmissible row stops being live."""
        v = np.full((k, m), np.nan)
        vals, ok = gf._value_or(live_rows(x), live_rows(xbar), live_rows(z), np.nan)
        v[live] = vals.reshape(-1, m)
        live[live] = ok.reshape(-1, m).all(axis=1)
        return v

    if dual:
        f_t = value(on_grid(xs[:, 1]), seg.points, seg.z_values)
        lhs, rhs = f_t - f_t[:, :1], f_t[:, -1:] - f_t
        keys, anchor = ("t", "t_prime", "bracket"), ("u0", us[:, 0])
    else:
        u0 = gf.value(xs[:, 0], xbs[:, 0], zs[:, 0])
        z1, status = gf.inverse_rows(xs[:, 0], xbs[:, 1], u0)
        live &= status == 0
        xb0, xb1 = on_grid(xbs[:, 0]), on_grid(xbs[:, 1])
        u_s = value(seg.points, xb0, on_grid(zs[:, 0]))
        live &= ~np.any((u_s <= gf.srange.lower) | (u_s >= gf.srange.upper), axis=1)
        lhs = value(seg.points, xb1, on_grid(z1)) - u_s
        z_sp = np.full((k, m), np.nan)
        z, status = gf.inverse_rows(live_rows(seg.points), live_rows(xb1), live_rows(u_s))
        z_sp[live] = z.reshape(-1, m)
        live[live] = ~status.reshape(-1, m).any(axis=1)
        rhs = value(on_grid(xs[:, 1]), xb1, z_sp)
        rhs[live] -= gf.value(xs[live, 1], xbs[live, 0], zs[live, 0])[:, None]
        keys, anchor = ("s", "s_prime", "rhs_factor"), ("z0", zs[:, 0])
    fits = []
    for i in range(k):
        if not live[i]:
            fits.append((None, None, True))
            continue
        M, pair = _qq_fit(lhs[i], rhs[i], grid, *idx, gf.tols.tie)
        witness = None
        if pair is not None:
            a, b = pair
            witness = {keys[0]: float(grid[a]), keys[1]: float(grid[b]),
                       "lhs": float(lhs[i, a]), keys[2]: float(rhs[i, b]),
                       "x0": xs[i, 0], "x1": xs[i, 1], "xbar0": xbs[i, 0],
                       "xbar1": xbs[i, 1], anchor[0]: float(anchor[1][i])}
        fits.append((M, witness, False))
    return fits


def _qq_fit(lhs, rhs, grid, idx_a, idx_b, tie):
    """The smallest M >= 1 with lhs[a] <= M * grid[a] / (1 - grid[b]) * rhs[b]
    for every a in ``idx_a`` with grid[a] > 0 and lhs[a] not <= ``tie``
    and every b in ``idx_b``: returns (M, None).  When such an a exists
    and some rhs[b] <= ``tie``, returns (None, (a, b)) with the first such
    a and the first such b.  A nan quotient does not move M.
    """
    a = idx_a[(grid[idx_a] > 0) & ~(lhs[idx_a] <= tie)]
    if a.size == 0:
        return 1.0, None
    tied = idx_b[rhs[idx_b] <= tie]
    if tied.size:
        return None, (int(a[0]), int(tied[0]))
    ratio = lhs[a, None] / ((grid[a, None] / (1.0 - grid[idx_b])) * rhs[idx_b])
    return float(np.fmax.reduce(ratio.ravel(), initial=1.0)), None


def _qq_report(name, fits, skipped):
    """The report over the configurations' ``fits`` in order; ``skipped``
    counts the seeds that gave no configuration."""
    fitted = 1.0
    used = 0
    violation = None
    for M_t, viol, skip in fits:
        if skip:
            skipped += 1
            continue
        used += 1
        if viol is not None:
            violation = violation or viol
            continue
        fitted = max(fitted, M_t)
    if violation is not None:
        return ConditionReport.build(
            name, used, -np.inf, violation, 0.0,
            constants={"fitted_M": float("inf")}, skipped=skipped)
    return ConditionReport.build(
        name, used, 0.0, {}, 0.0, constants={"fitted_M": float(fitted)},
        skipped=skipped)


def crosscheck_g3w_implies_qqconv(gf: GenFun, interval, n_base=_CROSS_BASE,
                                  n_pairs=_CROSS_PAIRS, n_qq=_CROSS_QQ, seed=0):
    """Smooth-case consistency: a nonnegative sampled tensor must come with
    a finite fitted M.  Emits both numbers side by side."""
    tensor = g3w_sweep(gf, interval, n_base=n_base, n_pairs=n_pairs, seed=seed)
    qq = check_qqconv(gf, interval, n_samples=n_qq, seed=seed)
    return _crosscheck(gf, tensor, qq)


def _crosscheck(gf: GenFun, tensor, qq):
    """The cross-check record from the primal sweep and qqconv reports."""
    tensor_ok = tensor.worst_margin >= -gf.tols.tensor_floor
    m_finite = np.isfinite(qq.constants["fitted_M"])
    implication_holds = (not tensor_ok) or m_finite
    return {
        "genfun": gf.name,
        "g3w_min": tensor.constants["min_value"],
        "g3w_nonnegative": bool(tensor_ok),
        "fitted_M": qq.constants["fitted_M"],
        "implication_holds": bool(implication_holds),
        "tensor_report": tensor.to_dict(),
        "qqconv_report": qq.to_dict(),
    }


# ---------------------------------------------------------------------------
# the check pass
# ---------------------------------------------------------------------------


def check_conditions(gf: GenFun, interval, n_samples=400, seed=0):
    """Every condition of a check pass, and the smooth-case cross-check.

    Returns (reports, crosscheck): the ConditionReport of each condition,
    keyed by name, and the record of ``crosscheck_g3w_implies_qqconv``.
    Each check's sample count scales with ``n_samples``.  Every
    configuration is sampled first, and each family of rows is solved once:
    the domconv and qqconv source segments advance in one continuation, the
    cross-check's qqconv configurations are the first ``_CROSS_QQ`` seeds of
    the report's seed list ``seed + 997 t`` (or the list extends to them),
    and the report's and the cross-check's primal sweep rows are one
    ``g3w_batch``.  A row of a batched solve follows exactly the iterates it
    follows alone, so every result equals that of its public check.
    """
    n = n_samples
    n_dom, n_qq = max(24, n // 10), max(16, n // 16)
    dom = _domconv_samples(gf, interval, n_dom, seed)
    qq, qq_kept = _qq_samples(gf, interval, max(n_qq, _CROSS_QQ), seed)
    sweeps = [_sweep_inputs(gf, interval, max(16, n // 16), 8, seed, False),
              _sweep_inputs(gf, interval, _CROSS_BASE, _CROSS_PAIRS, seed, False)]
    qgrid = _qq_grid(_QQ_N_GRID)
    dom_seg, qq_seg = _source_segments(gf, [(dom, np.linspace(0, 1, _DOM_POINTS)),
                                            (qq, qgrid[0])])
    fits = _qq_fits(gf, qq, qq_seg, qgrid, False)

    def qq_report(n_seeds):
        c = int(np.sum(qq_kept < n_seeds))
        return _qq_report("qqconv", fits[:c], n_seeds - c)

    k = sweeps[0]["x"].shape[0]
    vals, status = g3w_batch(gf, **{key: np.concatenate([sw[key] for sw in sweeps])
                                    for key in sweeps[0]})
    g3w, tensor = (_sweep_report(gf, sw, vals[part], status[part], False)
                   for sw, part in zip(sweeps, (slice(0, k), slice(k, None))))
    reports = {
        "unif_lip": check_unif_lip(gf, interval, n_samples=n, seed=seed),
        "twist": check_twist(gf, interval, n_samples=max(64, n // 4), seed=seed),
        "nondeg": check_nondeg(gf, interval, n_samples=n, seed=seed),
        "domconv": _domconv_report(gf, interval, n_dom, seed, dom, dom_seg),
        "g3w": g3w,
        "g3w_dual": g3w_sweep(gf, interval, n_base=max(8, n // 32), n_pairs=4,
                              seed=seed, dual=True),
        "qqconv": qq_report(n_qq),
        "qqconv_dual": check_qqconv(gf, interval, n_samples=max(8, n // 32),
                                    seed=seed, dual=True),
    }
    return reports, _crosscheck(gf, tensor, qq_report(_CROSS_QQ))


def _source_segments(gf: GenFun, families):
    """Source segments of several families, each (samples, s_grid) with the
    configurations' (xs, xbs, us, zs), in one continuation.  Returns a
    SegmentBatch per family, equal to the family's own ``g_segment_batch``
    call."""
    sizes = [len(sm[0]) for sm, _ in families]
    ends = np.cumsum([0] + sizes)
    grids = np.full((ends[-1], max(len(g) for _, g in families)), np.nan)
    for (_, g), lo, hi in zip(families, ends, ends[1:]):
        grids[lo:hi, :len(g)] = g
    xs, xbs, _, zs = (np.concatenate([sm[i] for sm, _ in families]) for i in range(4))
    seg = g_segment_batch(gf, "source", xs[:, 0], xs[:, 1], (xbs[:, 0], zs[:, 0]),
                          s_grid=grids)
    return [SegmentBatch(g, seg.p0[lo:hi], seg.p1[lo:hi], seg.points[lo:hi, :len(g)], None,
                         seg.status[lo:hi], seg.ok[lo:hi, :len(g)])
            for (_, g), lo, hi in zip(families, ends, ends[1:])]
