"""Semi-discrete convex envelopes, subdifferentials, sections, and duals.

A solution candidate is a finite pointwise maximum of pieces
x -> G(x, xbar_i, z_i), given as the arrays of foci xbar_i and heights z_i.
The envelope caches a full scan (value + winning piece index) over its
evaluation grid; ties within the generating function's tie tolerance
resolve to the lowest piece index, so the induced cells partition the grid
exactly.  The source measure is the grid's cell weights, and the cell
masses sum to the total source mass bit-for-bit.

The generalized Monge-Ampere measure of a set A is the target-chart volume
of the set of foci supporting the envelope somewhere in A.  For genuinely
semi-discrete envelopes that image is finite (volume zero), so the report
carries both conventions: the hit-index/hit-mass convention used by the
solver and a volume estimate meant for dense piece clouds approximating a
smooth solution.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyEnvelopeError, NicenessError
from .expmaps import exp_target, p_map
from .grids import DomainGrid
from . import kernels

ENVELOPE_FORMAT_VERSION = 1


@dataclass
class GAffine:
    """One supporting piece x -> G(x, xbar, z)."""

    gf: object
    xbar: np.ndarray
    z: float

    def __post_init__(self):
        self.xbar = np.asarray(self.xbar, dtype=float)

    def value(self, x):
        """Piece value at one point; DomainError if inadmissible."""
        return self.gf.value(x, self.xbar, self.z)

    def values_on(self, points):
        """Piece values at embedded points; -inf where inadmissible."""
        return kernels.piece_values(self.gf, np.atleast_2d(points), self.xbar, self.z)


class Envelope:
    """Finite max of G-affine pieces over a gridded domain."""

    def __init__(self, gf, pieces, grid: DomainGrid):
        """``pieces`` is the pair (foci, heights) of arrays."""
        self.gf = gf
        # own copies: callers (the solver) go on mutating their arrays
        xbars, zs = pieces
        self.xbars = np.atleast_2d(np.array(xbars, dtype=float))
        self.zs = np.array(zs, dtype=float)
        if self.xbars.shape[0] != self.zs.shape[0] or self.xbars.shape[0] == 0:
            raise ValueError("envelope needs matching, nonempty piece arrays")
        self.grid = grid
        self._values = None
        self._argmax = None
        self._point_values = None

    # -- cached grid scan ---------------------------------------------------------

    def _scan(self):
        if self._values is None:
            v, idx = kernels.envelope_scan(self.gf, self.grid.points, self.xbars,
                                           self.zs, self.tols.tie)
            if np.any(idx < 0):
                k = int(np.argmax(idx < 0))
                raise EmptyEnvelopeError(
                    f"no admissible piece at grid cell {k} "
                    f"(chart coords {self.grid.coords[k]})")
            self._values = v
            self._argmax = idx
        return self._values, self._argmax

    @property
    def tols(self):
        """The generating function's tolerances."""
        return self.gf.tols

    @property
    def n_pieces(self):
        return self.xbars.shape[0]

    def grid_values(self):
        return self._scan()[0]

    def piece(self, i):
        return GAffine(self.gf, self.xbars[i], float(self.zs[i]))

    # -- pointwise evaluation -----------------------------------------------------

    def piece_values_at(self, x):
        """All piece values at a single point x; -inf where inadmissible.

        Tagged generating functions go through the pointwise closed forms of
        :class:`kernels.PointValues`, whose per-focus part is built on the
        first query; they equal ``kernels.evaluator_values`` bit for bit.
        Untagged ones use the evaluator.
        """
        if self._point_values is None:
            self._point_values = kernels.point_kernel(self.gf, self.xbars, self.zs)
        return self._point_values(x)

    def eval(self, x):
        """Envelope value and active piece set at x.

        Returns (u, active) where active lists the indices within the tie
        tolerance of the max, lowest first: the subdifferential's window.
        """
        vals = self.piece_values_at(x)
        u = np.max(vals)
        if not np.isfinite(u):
            raise EmptyEnvelopeError("no admissible piece at evaluation point")
        active = np.flatnonzero(vals >= u - self.tols.tie)
        return float(u), active

    def representative(self, x):
        """Value and index of the piece that wins x under the envelope's tie
        rule, the same piece ``cell_indices`` gives a grid cell at x."""
        best, i = kernels.scan_point(self.piece_values_at(x), self.tols.tie)
        if i < 0:
            raise EmptyEnvelopeError("no admissible piece at evaluation point")
        return best, i

    def subdiff(self, x):
        """Supporting foci at x; near the domain boundary the active set of
        the nearest interior grid cell approximates the limit definition."""
        x = np.asarray(x, dtype=float)
        cx = self.gf.source_chart.coords(x)
        margin = self.grid.width()
        lo = np.asarray(self.grid.chart.lo) + margin
        hi = np.asarray(self.grid.chart.hi) - margin
        if np.any(cx < lo) or np.any(cx > hi):
            snapped = np.clip(cx, lo, hi)
            k = int(np.argmin(np.sum((self.grid.coords - snapped) ** 2, axis=1)))
            x = self.grid.points[k]
        _, active = self.eval(x)
        return self.xbars[active]

    # -- cells and masses -----------------------------------------------------------

    def cell_indices(self):
        """Winning piece index per grid cell (lowest index on ties)."""
        return self._scan()[1]

    def cell_mass(self, i):
        """Midpoint-rule source mass of cell i: ``cell_masses()[i]``."""
        return float(self.cell_masses()[i])

    def cell_masses(self):
        """All cell masses at once: the grid weights summed per winning
        piece, so they partition the total mass exactly."""
        return np.bincount(self.cell_indices(), weights=self.grid.weights,
                           minlength=self.n_pieces)

    # -- measure ------------------------------------------------------------------

    def gma_measure(self, mask, estimator, masses=None, n_mc=4000, seed=0):
        """Generalized Monge-Ampere measure report for the masked set.

        ``estimator`` is "hit" (semi-discrete conventions only) or
        "monte_carlo" (dense-envelope volume of the mapped set, Monte-Carlo
        subsample of the masked cells, convex-hull volume with a bootstrap
        standard error).
        """
        if estimator not in ("hit", "monte_carlo"):
            raise ValueError(f"unknown estimator {estimator!r}")
        mask = np.asarray(mask, dtype=bool)
        hit = np.unique(self.cell_indices()[mask])
        report = {
            "set_cells": int(np.sum(mask)),
            "estimator": "hit",
            "hit_indices": hit.tolist(),
            "hit_count": int(hit.size),
            "hit_mass": None,
            "volume": 0.0,
            "n_samples": int(np.sum(mask)),
            "standard_error": 0.0,
        }
        if masses is not None:
            masses = np.asarray(masses, dtype=float)
            report["hit_mass"] = float(np.sum(masses[hit]))
        if estimator == "hit" or not np.any(mask):
            return report
        # dense-envelope volume: map cells through the target exponential map
        # with one-sided grid gradients, then take the hull volume of the cloud
        cloud = self._mapped_cloud(mask)
        rng = np.random.default_rng(seed)
        if cloud.shape[0] > n_mc:
            sel = rng.choice(cloud.shape[0], size=n_mc, replace=False)
            cloud_used = cloud[sel]
        else:
            cloud_used = cloud
        vol = _hull_volume(cloud_used)
        boots = []
        for _ in range(16):
            pick = rng.integers(0, cloud_used.shape[0], cloud_used.shape[0])
            boots.append(_hull_volume(cloud_used[pick]))
        report.update({
            "estimator": "monte_carlo",
            "volume": float(vol),
            "n_samples": int(cloud_used.shape[0]),
            "standard_error": float(np.std(boots)),
            # systematic boundary band: the hull of mapped cell centers can
            # miss (or overshoot) the continuum image by about one source
            # cell width along the image boundary
            "bias_bound": float(_hull_perimeter(cloud_used) * self.grid.width()),
        })
        return report

    def grid_gradients(self):
        """One-sided difference gradient of the envelope on the grid.

        Uses forward differences along each chart axis (backward at the
        upper edge).  Only rectangular (box-chart) grids keep full neighbor
        structure; cells missing a neighbor reuse the available side.
        """
        u, _ = self._scan()
        res = self.grid.resolution
        if int(np.prod(res)) != self.grid.n_cells:
            raise NotImplementedError("grid gradients need a full rectangular grid")
        un = u.reshape(res)
        grads = np.empty(res + (len(res),))
        for d, h in enumerate(self.grid.cell_size):
            fwd = (np.roll(un, -1, axis=d) - un) / h
            sl = [slice(None)] * len(res)
            sl[d] = -1
            bwd_edge = (un[tuple(sl)] - np.take(un, -2, axis=d)) / h
            fwd[tuple(sl)] = bwd_edge
            grads[..., d] = fwd
        return grads.reshape(self.grid.n_cells, len(res))

    def _mapped_cloud(self, mask):
        u, _ = self._scan()
        du = self.grid_gradients()
        xs = self.grid.points[mask]
        xb, _ = exp_target(self.gf, xs, u[mask], du[mask])
        return self.gf.target_chart.coords(xb)

    # -- sections -------------------------------------------------------------------

    def section(self, m: GAffine) -> "Section":
        """Sublevel set {u <= m} of the envelope under a nice piece."""
        mv = m.values_on(self.grid.points)
        rng_ok = (self.gf.srange.nice_lower < mv) & (mv < self.gf.srange.nice_upper)
        if not np.all(np.isfinite(mv)) or not np.all(rng_ok):
            raise NicenessError(
                "section reference piece leaves the nice interval on the domain")
        u, _ = self._scan()
        mask = u <= mv + self.tols.tie
        return Section(self, m, mask)

    # -- serialization ----------------------------------------------------------------

    def save(self, path):
        doc = {
            "format_version": ENVELOPE_FORMAT_VERSION,
            "genfun": self.gf.descriptor(),
            "grid_resolution": list(self.grid.resolution),
            "pieces": [[self.xbars[i].tolist(), float(self.zs[i])]
                       for i in range(self.n_pieces)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path):
        from .builtins import genfun_from_descriptor
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("format_version") != ENVELOPE_FORMAT_VERSION:
            raise ConfigError(f"unsupported envelope format in {path}: "
                              f"{doc.get('format_version')}")
        missing = sorted({"genfun", "grid_resolution", "pieces"} - set(doc))
        if missing:
            raise ConfigError(f"envelope file {path} lacks {missing}")
        gf = genfun_from_descriptor(doc["genfun"])
        grid = DomainGrid(gf.source_chart, tuple(doc["grid_resolution"]))
        xbars = np.array([p[0] for p in doc["pieces"]])
        zs = np.array([p[1] for p in doc["pieces"]])
        return Envelope(gf, (xbars, zs), grid)


@dataclass
class Section:
    """Rasterized sublevel set S = {u <= m} with its cotangent image."""

    env: Envelope
    m: GAffine
    mask: np.ndarray

    def __post_init__(self):
        if not np.any(self.mask):
            self.empty = True
        else:
            self.empty = False

    def contains(self, x):
        u, _ = self.env.eval(x)
        return u <= self.m.value(x) + self.env.tols.tie

    def points(self):
        return self.env.grid.points[self.mask]

    def volume(self):
        return float(np.sum(self.env.grid.weights[self.mask]))

    def coord_image(self):
        """p-coordinates of the masked cell centers (w.r.t. the section's piece)."""
        if self.empty:
            return np.zeros((0, self.env.gf.dim))
        return p_map(self.env.gf, self.m.xbar, self.m.z, self.points())

    def boundary_points(self):
        """Masked cells adjacent to unmasked cells (rectangular grids)."""
        res = self.env.grid.resolution
        if int(np.prod(res)) != self.env.grid.n_cells:
            # irregular grid: fall back to all masked cells
            return self.points()
        mk = self.mask.reshape(res)
        interior = mk.copy()
        for d in range(len(res)):
            interior &= np.roll(mk, 1, axis=d) & np.roll(mk, -1, axis=d)
            sl = [slice(None)] * len(res)
            sl[d] = 0
            interior[tuple(sl)] = False
            sl[d] = -1
            interior[tuple(sl)] = False
        boundary = mk & ~interior
        return self.env.grid.points[boundary.reshape(-1)]

    def convexity_score(self, seed=0):
        """How far the coordinate image is from filling its convex hull.

        Probes 512 points uniform in the hull of the image cloud and measures
        the distance to the nearest cloud point; the score is normalized by
        the cloud's own spacing (max nearest-neighbor gap), so values near 1
        mean "convex at grid resolution" and large values flag holes.
        """
        from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree
        cloud = self.coord_image()
        if cloud.shape[0] <= self.env.gf.dim + 1:
            return {"score": 0.0, "cloud_spacing": 0.0, "ratio": 0.0,
                    "n_cloud": int(cloud.shape[0])}
        snap = self.env.tols.hull_snap
        snapped = np.round(cloud / snap) * snap
        try:
            hull = ConvexHull(snapped)
            tri = Delaunay(snapped[hull.vertices])
        except QhullError:
            return {"score": np.inf, "cloud_spacing": 0.0, "ratio": np.inf,
                    "n_cloud": int(cloud.shape[0])}
        tree = cKDTree(cloud)
        spacing = float(np.max(tree.query(cloud, k=2)[0][:, 1]))
        rng = np.random.default_rng(seed)
        lo, hi = snapped.min(axis=0), snapped.max(axis=0)
        n_probe = 512
        probes = []
        attempts = 0
        while len(probes) < n_probe and attempts < 50 * n_probe:
            cand = rng.uniform(lo, hi, size=(n_probe, cloud.shape[1]))
            inside = tri.find_simplex(cand) >= 0
            probes.extend(cand[inside])
            attempts += n_probe
        if not probes:
            return {"score": 0.0, "cloud_spacing": spacing, "ratio": 0.0,
                    "n_cloud": int(cloud.shape[0])}
        probes = np.asarray(probes[:n_probe])
        dists = tree.query(probes)[0]
        score = float(np.max(dists))
        return {"score": score, "cloud_spacing": spacing,
                "ratio": score / spacing if spacing > 0 else np.inf,
                "n_cloud": int(cloud.shape[0])}


def _hull_volume(cloud):
    from scipy.spatial import ConvexHull, QhullError
    if cloud.shape[0] <= cloud.shape[1]:
        return 0.0
    try:
        return float(ConvexHull(cloud).volume)
    except QhullError:
        return 0.0


def _hull_perimeter(cloud):
    from scipy.spatial import ConvexHull, QhullError
    if cloud.shape[0] <= cloud.shape[1]:
        return 0.0
    try:
        return float(ConvexHull(cloud).area)  # boundary measure in any dim
    except QhullError:
        return 0.0


# ---------------------------------------------------------------------------
# cones and duals
# ---------------------------------------------------------------------------


def _target_net(gf, n, seed=0):
    """Low-discrepancy candidate net over the target chart."""
    from scipy.stats import qmc
    chart = gf.target_chart
    sampler = qmc.Halton(d=chart.dim, seed=seed)
    pts = qmc.scale(sampler.random(n), chart.lo, chart.hi)
    if chart.kind == "sphere":
        keep = np.sum(pts * pts, axis=1) < chart.chart_radius ** 2
        pts = pts[keep]
    return chart.embed(pts)


def g_cone_subdiff(env: Envelope, section: Section, x0, n_candidates=10_000,
                   seed=0):
    """Sampled vertex subdifferential of the cone over a section.

    Filters a target-chart net by the constraint that the candidate's piece
    through (x0, u(x0)) stays below the section's reference piece on the
    section boundary samples.
    """
    gf = env.gf
    x0 = np.asarray(x0, dtype=float)
    if not section.contains(x0):
        raise ValueError("vertex must lie inside the section")
    u0, _ = env.eval(x0)
    ys = section.boundary_points()
    return _net_below(gf, _target_net(gf, n_candidates, seed), x0, u0, ys,
                      section.m.values_on(ys), env.tols.tie)


def g_dual(gf, set_points, x, m: GAffine, lam, n_candidates=10_000, seed=0):
    """Sampled dual body of a source set at height ``lam``.

    Accepts the target candidates xbar whose piece matching m at x stays
    below m + lam on every sampled point of the set.  Raises NicenessError
    when the shifted values leave the scalar range.
    """
    set_points = np.atleast_2d(np.asarray(set_points, dtype=float))
    x = np.asarray(x, dtype=float)
    mx = m.value(x)
    mv = m.values_on(set_points)
    if np.max(mv) + lam >= gf.srange.upper or mx <= gf.srange.lower:
        raise NicenessError("dual height pushes values outside the scalar range")
    return _net_below(gf, _target_net(gf, n_candidates, seed), x, mx, set_points,
                      mv + lam, gf.tols.tie)


def _net_below(gf, cands, x, u, ys, bounds, tie):
    """The candidates whose piece through (x, u) stays <= bound + tie on ys.

    Each candidate's height is its scalar inverse at (x, u); candidates
    without an admissible one are dropped.
    """
    k = cands.shape[0]
    zc, status = gf.inverse_rows(np.broadcast_to(x, (k, x.shape[0])).copy(),
                                 cands, np.full(k, u))
    ok = status == 0
    cands, zc = cands[ok], zc[ok]
    keep = np.ones(cands.shape[0], dtype=bool)
    for y, bound in zip(ys, bounds):
        if not np.any(keep):
            break
        vals = kernels.evaluator_values(gf, y, cands[keep], zc[keep])
        kidx = np.flatnonzero(keep)
        keep[kidx[~(vals <= bound + tie)]] = False
    return cands[keep]


@dataclass
class PolarDual:
    """Half-space description {q : <q - q0, v - p0> <= lam for hull vertices v}."""

    p0: np.ndarray
    q0: np.ndarray
    lam: float
    vertices: np.ndarray          # hull vertices of the primal set
    normals: np.ndarray = field(init=False)

    def __post_init__(self):
        self.normals = self.vertices - self.p0

    def contains(self, q, tol=1e-12):
        q = np.atleast_2d(np.asarray(q, dtype=float))
        lhs = (q - self.q0) @ self.normals.T
        ok = np.all(lhs <= self.lam + tol, axis=1)
        return ok if ok.size > 1 else bool(ok[0])

    def enumerate_vertices(self):
        from scipy.spatial import HalfspaceIntersection
        # rows [a, b] encode a . q <= -b
        halfspaces = np.hstack([self.normals,
                                -(self.lam + self.normals @ self.q0)[:, None]])
        hs = HalfspaceIntersection(halfspaces, np.asarray(self.q0, dtype=float))
        return hs.intersections

    def volume(self):
        from scipy.spatial import ConvexHull
        return float(ConvexHull(self.enumerate_vertices()).volume)


def polar_dual(set_points, p0, q0, lam) -> PolarDual:
    """Exact polar dual polytope of a point cloud at scale lam."""
    from scipy.spatial import ConvexHull, QhullError
    set_points = np.atleast_2d(np.asarray(set_points, dtype=float))
    p0 = np.asarray(p0, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if set_points.shape[0] > set_points.shape[1] + 1:
        try:
            hull = ConvexHull(set_points)
            verts = set_points[hull.vertices]
        except QhullError:
            verts = set_points
    else:
        verts = set_points
    return PolarDual(p0, q0, float(lam), verts)
