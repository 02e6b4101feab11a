"""Pointwise estimate evaluation: Aleksandrov-type bound, sharp growth,
and the engulfing diagnostic.

Both pointwise checks compute every constituent of their inequality on a
solved/constructed envelope and report the implied constant

    aleksandrov:  C = (m(x0) - u(x0))^n * ell / (dist * |S| * |dGu(S)|)
    sharp growth: C = sup_A (m - u)^n / (|A| * |dGu(A)|)

The implied constants are diagnostics; acceptance asserts their stability
across a dyadic family of section heights, never specific values.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GjekitError, HypothesisError, NicenessError
from .expmaps import p_map
from .gconvex import Envelope, GAffine, Section, _hull_volume

# sharp growth: the factors of the containment K M [A] in [S]
_K, _M = 2.0, 1.0

__all__ = [
    "EstimateRecord", "supporting_plane_distance", "max_segment_length",
    "aleksandrov_check", "sharp_growth_check", "engulfing_check", "section_at_height",
]


@dataclass
class EstimateRecord:
    theorem: str
    lhs: float
    factors: dict
    implied_constant: float
    witness: dict = field(default_factory=dict)

    def to_row(self):
        row = {"theorem": self.theorem, "lhs": self.lhs,
               "implied_constant": self.implied_constant}
        row.update({k: v for k, v in self.factors.items() if np.isscalar(v)})
        return row


def supporting_plane_distance(cloud, p0, omega):
    """Distance from p0 to the supporting plane of the cloud with outward
    normal omega: the max of <omega, p - p0> over the cloud."""
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    if cloud.shape[0] == 0:
        return 0.0
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    return float(np.max((cloud - np.asarray(p0, dtype=float)) @ omega))


def max_segment_length(cloud, omega, snap=1e-12):
    """Longest chord of hull(cloud) parallel to omega.

    Solved as a linear program over barycentric weights: maximize
    <omega, x - y> over x, y in the hull subject to the transverse
    components of x - y vanishing.
    """
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, QhullError

    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    if cloud.shape[0] == 0:
        return 0.0
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    pts = np.round(cloud / snap) * snap
    if pts.shape[0] > pts.shape[1] + 1:
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass
    k, d = pts.shape
    if k == 1:
        return 0.0
    # variables: weights (lam, mu) >= 0
    basis = _orth_complement(omega)
    c = np.concatenate([-(pts @ omega), pts @ omega])
    A_eq = []
    b_eq = []
    for v in basis:
        A_eq.append(np.concatenate([pts @ v, -(pts @ v)]))
        b_eq.append(0.0)
    A_eq.append(np.concatenate([np.ones(k), np.zeros(k)]))
    b_eq.append(1.0)
    A_eq.append(np.concatenate([np.zeros(k), np.ones(k)]))
    b_eq.append(1.0)
    res = linprog(c, A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                  bounds=[(0, None)] * (2 * k), method="highs")
    if not res.success:
        return 0.0
    return float(max(0.0, -res.fun))


def _orth_complement(omega):
    d = omega.shape[0]
    basis = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        v = e - (e @ omega) * omega
        for b in basis:
            v -= (v @ b) * b
        n = np.linalg.norm(v)
        if n > 1e-10:
            basis.append(v / n)
        if len(basis) == d - 1:
            break
    return basis


# ---------------------------------------------------------------------------
# pointwise estimate checks
# ---------------------------------------------------------------------------


def _subdiff_volume(env: Envelope, mask):
    """Target-chart volume of the set of foci active on the masked cells.

    Envelopes built over a regular focus lattice carry the per-focus cell
    volume (``focus_cell_volume``); counting active foci is then nearly
    unbiased.  Otherwise the hull of the active foci approximates the
    continuum image (convex under the standing conditions).
    """
    idx = np.unique(env.cell_indices()[mask])
    if env.focus_cell_volume is not None:
        return float(idx.size * env.focus_cell_volume), idx
    return _hull_volume(env.gf.target_chart.coords(env.xbars[idx])), idx


def aleksandrov_check(env: Envelope, m: GAffine, x0, omega,
                      diam_cap=None) -> EstimateRecord:
    """Evaluate every factor of the Aleksandrov-type bound at one section.

    Hypotheses checked: the reference piece stays nice on the domain, the
    section is small (diameter below the cap, default a tenth of the domain
    diameter), and the section's coordinate image fits in a ball B with
    3B inside the domain image.  HypothesisError names the failing clause.
    """
    gf = env.gf
    x0 = np.asarray(x0, dtype=float)
    section = env.section(m)
    if section.empty:
        raise HypothesisError("empty_section")
    if not section.contains(x0):
        raise HypothesisError("x0_not_in_section")
    pts = section.points()
    cs = gf.source_chart.coords(pts)
    diam = 2.0 * float(np.max(np.linalg.norm(cs - cs.mean(axis=0), axis=1)))
    cap = diam_cap if diam_cap is not None else 0.1 * env.grid.chart.diameter()
    if diam > cap:
        raise HypothesisError("section_too_large",
                              f"diam {diam:.3g} > cap {cap:.3g}")
    cloud = section.coord_image()
    dom_cloud = p_map(gf, m.xbar, m.z,
                      env.grid.points[:: max(1, env.grid.n_cells // 4096)])
    center = cloud.mean(axis=0)
    r_s = float(np.max(np.linalg.norm(cloud - center, axis=1)))
    # feasibility of [S] in B, 3B in [Omega]: any B radius in
    # [r_s, r_inside/3] works, where r_inside is the distance from the
    # section image's center to the domain image boundary
    r_inside = _dist_to_cloud_boundary(dom_cloud, center)
    if 3.0 * r_s > r_inside:
        raise HypothesisError("ball_containment",
                              f"need 3B radius {3 * r_s:.3g} <= {r_inside:.3g}")
    u0, _ = env.eval(x0)
    lhs = (m.value(x0) - u0) ** gf.dim
    p0 = p_map(gf, m.xbar, m.z, x0)
    dist = supporting_plane_distance(cloud, p0, omega)
    ell = max_segment_length(cloud, omega, snap=gf.tols.hull_snap)
    vol_s = section.volume()
    vol_sub, idx = _subdiff_volume(env, section.mask)
    rhs_side = dist / max(ell, 1e-300) * vol_s * vol_sub
    implied = lhs / rhs_side if rhs_side > 0 else np.inf
    return EstimateRecord(
        theorem="aleksandrov",
        lhs=float(lhs),
        factors={"plane_distance": dist, "max_segment": ell,
                 "section_volume": vol_s, "subdiff_volume": vol_sub,
                 "section_diameter": diam, "n_active_foci": int(idx.size)},
        implied_constant=float(implied),
        witness={"x0": x0.tolist(), "omega": np.asarray(omega).tolist(),
                 "m_xbar": m.xbar.tolist(), "m_z": float(m.z)})


def _dist_to_cloud_boundary(cloud, center):
    from scipy.spatial import ConvexHull, QhullError
    try:
        hull = ConvexHull(cloud)
    except QhullError:
        return 0.0
    # distance from center to each hull facet
    A = hull.equations[:, :-1]
    b = hull.equations[:, -1]
    return float(np.min(-(A @ center + b)))


def sharp_growth_check(env: Envelope, m: GAffine, set_mask) -> EstimateRecord:
    """Evaluate the sharp growth bound on a masked subset of a section.

    Verifies the dilation condition K M [A] inside [S] (dilation about the
    center of mass of [A], K = 2 and M = 1) and the depth condition
    sup_A m + sup_A (m - u) < upper scalar bound.
    """
    gf = env.gf
    section = env.section(m)
    if section.empty:
        raise HypothesisError("empty_section")
    set_mask = np.asarray(set_mask, dtype=bool)
    if not np.any(set_mask):
        raise HypothesisError("empty_set")
    if np.any(set_mask & ~section.mask):
        raise HypothesisError("set_not_in_section")
    pts_a = env.grid.points[set_mask]
    cloud_a = p_map(gf, m.xbar, m.z, pts_a)
    cloud_s = section.coord_image()
    cm = cloud_a.mean(axis=0)
    dilated = cm + _K * _M * (cloud_a - cm)
    from scipy.spatial import Delaunay, QhullError
    try:
        tri = Delaunay(np.round(cloud_s / gf.tols.hull_snap) * gf.tols.hull_snap)
    except QhullError as e:
        raise HypothesisError("section_image_degenerate", str(e)) from e
    if not np.all(tri.find_simplex(dilated) >= 0):
        raise HypothesisError("dilation_containment",
                              "K M [A] is not contained in [S]")
    mv = m.values_on(pts_a)
    u_a = env.grid_values()[set_mask]
    gap = float(np.max(mv - u_a))
    if float(np.max(mv)) + gap >= gf.srange.upper:
        raise HypothesisError("section_too_deep")
    lhs = gap ** gf.dim
    vol_a = float(np.sum(env.grid.weights[set_mask]))
    vol_sub, idx = _subdiff_volume(env, set_mask)
    rhs_side = vol_a * vol_sub
    implied = lhs / rhs_side if rhs_side > 0 else np.inf
    return EstimateRecord(
        theorem="sharp_growth",
        lhs=float(lhs),
        factors={"sup_gap": gap, "set_volume": vol_a,
                 "subdiff_volume": vol_sub, "n_active_foci": int(idx.size),
                 "K": _K, "M": _M},
        implied_constant=float(implied),
        witness={"m_xbar": m.xbar.tolist(), "m_z": float(m.z)})


# ---------------------------------------------------------------------------
# engulfing diagnostic
# ---------------------------------------------------------------------------


def _raised_piece(env: Envelope, x, h):
    """(m, u(x)): m is the active piece at x (lowest index) raised by h at x."""
    x = np.asarray(x, dtype=float)
    u, active = env.eval(x)
    xbar = env.xbars[active[0]]
    return GAffine(env.gf, xbar, float(env.gf.inverse(x, xbar, u + h))), u


def section_at_height(env: Envelope, x, h) -> Section:
    """Section S(x, xbar, h) through the active focus at x raised by h."""
    return env.section(_raised_piece(env, x, h)[0])


def _ridge_cells(env: Envelope):
    """Grid cells whose winning piece differs from a neighbor's.

    Sections straddling such cells probe the kinks of the envelope, which
    is where the engulfing factor degenerates when the generating function
    lacks the fourth-order condition.
    """
    res = env.grid.resolution
    if int(np.prod(res)) != env.grid.n_cells:
        return np.zeros(env.grid.n_cells, dtype=bool)
    idx = env.cell_indices().reshape(res)
    ridge = np.zeros(res, dtype=bool)
    for d in range(len(res)):
        ridge |= idx != np.roll(idx, 1, axis=d)
        sl = [slice(None)] * len(res)
        sl[d] = 0
        ridge[tuple(sl)] = False
    return ridge.reshape(-1)


def engulfing_check(env: Envelope, h_grid, n_pairs=24, seed=0):
    """Fit the smallest engulfing factor over sampled section pairs.

    For x1 in the section of x0 at height h, the minimal factor making x0
    fall inside x1's section at the inflated height is closed-form:
    Lambda = (G(x1, xbar1, H(x0, xbar1, u(x0))) - u(x1)) / h.  Half of the
    sampled x1 are biased toward ridge cells of the section (where pieces
    change), since that is where a degenerate geometry shows; sampling is
    deterministic for a fixed seed.  Reports the max fitted factor per
    height and a stability verdict across the grid.  Every x0 lies two cell
    widths inside the chart on every axis; HypothesisError
    ("no_interior_cells") before any draw when no cell does.
    """
    gf = env.gf
    rng = np.random.default_rng(seed)
    interior = env.grid.coords
    margin = 2 * env.grid.width()
    lo = np.asarray(env.grid.chart.lo) + margin
    hi = np.asarray(env.grid.chart.hi) - margin
    inner = np.all((interior >= lo) & (interior <= hi), axis=1)
    idx_inner = np.flatnonzero(inner)
    if idx_inner.size == 0:
        raise HypothesisError("no_interior_cells",
                              f"no grid cell lies {margin:g} inside the source chart")
    ridge = _ridge_cells(env)
    per_h = {}
    for h in np.asarray(h_grid, dtype=float):
        lam_max = 1.0
        used = 0
        for trial in range(n_pairs):
            k0 = int(rng.choice(idx_inner))
            x0 = env.grid.points[k0]
            try:
                m, u0 = _raised_piece(env, x0, h)
                sec = env.section(m)
            except NicenessError:
                continue
            pool = sec.mask & inner
            if trial % 2 == 0 and np.any(pool & ridge):
                cand = np.flatnonzero(pool & ridge)
            else:
                cand = np.flatnonzero(pool)
            if cand.size < 2:
                continue
            k1 = int(rng.choice(cand))
            x1 = env.grid.points[k1]
            u1, a1 = env.eval(x1)
            xbar1 = env.xbars[a1[0]]
            try:
                z_star = gf.inverse(x0, xbar1, u0)
            except GjekitError:
                continue
            lam = (gf.value(x1, xbar1, z_star, check=False) - u1) / h
            used += 1
            lam_max = max(lam_max, float(lam))
        per_h[float(h)] = {"lambda_max": lam_max, "n_pairs": used}
    hs = sorted(per_h)
    lams = np.array([per_h[h]["lambda_max"] for h in hs])
    spread = float(np.max(lams) / max(np.min(lams), 1e-300))
    return {"per_height": per_h, "heights": hs,
            "lambda_values": lams.tolist(),
            "stability_ratio": spread,
            "stable_within_20pct": bool(spread <= 1.2 / 0.8)}
