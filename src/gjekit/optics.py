"""Ray-tracing validation of solved reflectors.

Point-source reflectors: each envelope piece (xbar_i, z_i) is an ellipsoid
of revolution with foci at the origin and xbar_i and semi-major axis
a_i = 1/z_i; its radial graph from the origin-focus is

    e(d, xbar, a) = (a^2 - |xbar|^2/4) / (a - <d, xbar>/2),   |d| = 1.

The physical mirror is the radial graph of rho = inf_i e_i (equivalently
the reciprocal of the envelope value), so a ray from the origin in
direction d hits the active piece's exact quadric at distance e and
reflects through that piece's second focus exactly.

Parallel-beam reflectors (flat target surface only): each piece is the
paraboloid sheet y = G(x, xbar_i, z_i) with focus (xbar_i, 0) and focal
length 1/(2 z_i); the mirror is the graph of the envelope value and an
ascending vertical ray through chart point x reflects off the active sheet
through its focus.

Intersections use the closed-form quadrics of the active piece, so the only
noise in an ensemble trace is Monte-Carlo sampling.

An ensemble draws its source cells by replaying ``Generator.choice(p=)``
(:func:`_choice`: the same cdf, the same ``rng.random`` draws and the same
right-sided search, found through a guide table), and finds each ray's
nearest target by running the exact miss formula on candidate targets only
(:func:`_candidates`: a GEMM screen of every squared miss with a stated
rounding bound).  Both give the bits of the plain ``choice`` call and of the
loop over every target.
"""

from dataclasses import dataclass

import numpy as np

from .charts import _dot3
from .errors import ConfigError
from .gconvex import Envelope
from . import kernels

__all__ = ["ReflectorSurface", "TraceReport", "trace_ensemble"]


class ReflectorSurface:
    """Physical mirror built from a solved envelope."""

    def __init__(self, envelope: Envelope):
        self.env = envelope
        kind = getattr(envelope.gf, "name", "")
        if kind == "point_source":
            self.kind = "point_source"
        elif kind == "parallel_beam":
            if getattr(envelope.gf.surface, "name", "") != "zero":
                raise ConfigError(
                    "ray tracing supports the flat target surface only")
            self.kind = "parallel_beam"
        else:
            raise ConfigError(f"no reflector geometry for {kind!r}")
        self.targets_3d = self._target_points()

    def _target_points(self):
        if self.kind == "point_source":
            return self.env.xbars.copy()
        # flat parallel-beam targets sit on the zero plane
        return np.column_stack([self.env.xbars,
                                np.zeros(self.env.n_pieces)])


@dataclass
class TraceReport:
    n_rays: int
    hits: np.ndarray                 # per-target counts
    energies: np.ndarray             # importance-weighted energy per target
    escapes: int
    chi_square: float
    max_miss: float
    max_reflection_residual: float
    seed: int = 0

    def to_dict(self):
        return {
            "n_rays": int(self.n_rays),
            "hits": self.hits.tolist(),
            "energies": self.energies.tolist(),
            "escapes": int(self.escapes),
            "chi_square": float(self.chi_square),
            "max_miss": float(self.max_miss),
            "max_reflection_residual": float(self.max_reflection_residual),
            "seed": int(self.seed),
        }


# rows per block of an ensemble trace: the geometry and miss temporaries
# are a few (block, 3) arrays, so their memory does not grow with the ray
# count
_RAY_BLOCK = 16384
_UP = np.array([0.0, 0.0, 1.0])


def _reflector_geometry(surface, pts, idx):
    """(incident directions, hit points, unit normals, reflected directions).

    Row k is the ray from source point ``pts[k]`` (a unit direction for a
    point source, a chart point under the mirror for a parallel beam)
    striking the exact quadric of piece ``idx[k]``.  Dots and norms add
    their components in ``np.sum``'s order, so a row's bits do not depend
    on the rows beside it.
    """
    env = surface.env
    xb = env.xbars[idx]
    z = env.zs[idx]
    if surface.kind == "point_source":
        d_in = pts
        a = 1.0 / z
        r = (a * a - 0.25 * _dot3(xb, xb)) / (a - 0.5 * _dot3(d_in, xb))
        P = r[:, None] * d_in
        Q = P - xb
        # gradient of |P| + |P - xbar| points out of the ellipsoid
        n_vec = P / np.sqrt(_dot3(P, P))[:, None] + Q / np.sqrt(_dot3(Q, Q))[:, None]
    else:
        m = pts.shape[0]
        d_in = np.broadcast_to(_UP, (m, 3))
        dx = pts[:, :2] - xb
        P = np.empty((m, 3))
        P[:, :2] = pts[:, :2]
        P[:, 2] = 0.5 * (1.0 / z - z * (dx[:, 0] * dx[:, 0] + dx[:, 1] * dx[:, 1]))
        n_vec = np.ones((m, 3))
        n_vec[:, :2] = z[:, None] * dx
    n_hat = n_vec / np.sqrt(_dot3(n_vec, n_vec))[:, None]
    d_out = d_in - (2.0 * _dot3(d_in, n_hat))[:, None] * n_hat
    return d_in, P, n_hat, d_out


def _reflection_residual(d_in, n_hat, d_out):
    """Largest reflection-law or coplanarity defect over the rows (0 for none)."""
    refl = np.abs(np.abs(_dot3(d_in, n_hat)) - np.abs(_dot3(d_out, n_hat)))
    frames = np.empty((d_in.shape[0], 3, 3))
    frames[:, :, 0] = d_in
    frames[:, :, 1] = d_out
    frames[:, :, 2] = n_hat
    copl = np.abs(np.linalg.det(frames))
    return np.maximum(refl.max(initial=0.0), copl.max(initial=0.0))


# the screen's bound on a rounding difference between two squared misses,
# in units of the row scale (|P| + max_k |T_k|)^2: about 90 ulps cover the
# screen's own rounding and the exact formula's (see _candidates)
_SCREEN_SLACK = 2.0 ** -40


def _candidates(targets, P, d_out):
    """(n_targets, m) mask of the targets that can be each ray's nearest.

    The screen evaluates every squared miss |w|^2 - max(<w, d>, 0)^2,
    w = T - P, at once through two small GEMMs (T P^T and T d^T).  Each dot
    of three terms is within 3 ulps of its magnitude however BLAS orders
    it, so the screened value is within about 20 ulps of L^2 of the exact
    squared miss, L = |P| + max_k |T_k|, and the exact formula of
    :func:`_nearest_target` is within about 12 ulps of L of the exact miss.
    A target whose computed miss is the row's smallest therefore screens
    within about 90 ulps of L^2 of the row's smallest screened value, and
    every target within ``_SCREEN_SLACK L^2`` (8192 ulps) of it is a
    candidate.  A row with a non-finite screen keeps every target.  The
    mask only selects rows: no screened bit reaches a miss.
    """
    t_sq = _dot3(targets, targets)
    p_sq = _dot3(P, P)
    s = targets @ P.T
    s *= -2.0
    s += p_sq
    s += t_sq[:, None]
    t = targets @ d_out.T
    t -= _dot3(d_out, P)
    np.maximum(t, 0.0, out=t)
    t *= t
    s -= t
    scale = np.sqrt(p_sq)
    scale += np.sqrt(t_sq.max(initial=0.0))
    cut = s.min(axis=0)
    cut += _SCREEN_SLACK * (scale * scale)
    cand = s <= cut
    cand[:, ~np.isfinite(cut)] = True
    return cand


def _nearest_target(targets, P, d_out):
    """(index, miss) of the target nearest each forward ray {P + t d_out, t >= 0}.

    Ties go to the lowest target index.  Each row runs the exact miss over
    its candidates (:func:`_candidates`) in ascending target order and
    takes a candidate when it is the first or strictly closer; pass r
    handles the r-th candidate of every row that has one.  With every
    target a candidate this is the loop over all targets, and the screen
    keeps each row's lowest-index exact minimizer, so the result is that
    loop's bit for bit.  The ``md,md->m`` einsum rounds each row as a
    column of the ``mtd,md->mt`` einsum does, and every row's bits are
    independent of the rows beside it.
    """
    todo = _candidates(targets, P, d_out)
    n_t, m = todo.shape
    j = np.empty(m, dtype=np.int64)
    best = np.empty(m)
    rows = np.arange(m)
    first = True
    while rows.size:
        # each row's lowest candidate left; pass 0 covers every row
        k = np.empty(rows.size, dtype=np.int64)
        for c in range(n_t - 1, -1, -1):
            np.copyto(k, c, where=todo[c])
        d = d_out.take(rows, axis=0)
        w = targets.take(k, axis=0)
        w -= P.take(rows, axis=0)
        t = np.einsum("md,md->m", w, d)
        np.clip(t, 0.0, None, out=t)
        res = w - t[:, None] * d
        miss = np.sqrt(_dot3(res, res))
        take = np.ones(rows.size, dtype=bool) if first else miss < best[rows]
        j[rows[take]] = k[take]
        best[rows[take]] = miss[take]
        first = False
        todo[k, np.arange(rows.size)] = False
        more = todo.any(axis=0)
        rows, todo = rows[more], todo[:, more]
    return j, best


def _choice(p, n, rng):
    """``rng.choice(p.size, size=n, p=p)``: the same indices and the same
    generator state afterwards.

    ``choice`` checks ``p``, draws ``rng.random(n)`` and returns
    ``searchsorted(cdf, u, side="right")`` with ``cdf = p.cumsum()``
    divided by its last entry; this replays those steps.  The search runs
    through a guide table of K = ``p.size`` buckets: a draw u in bucket
    k = floor(u K) starts at the count of cdf entries <= (k - 1)/K, a lower
    bound of its answer, and every row steps up while its cdf entry is
    <= u.  ``cdf[-1]`` is 1 and u < 1, so no row steps past the last cell,
    and the number of steps is bounded by the fullest pair of buckets.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if np.isnan(p).any():
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(p.sum() - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    K = p.size
    guide = np.searchsorted(cdf, (np.arange(K) - 1.0) / K, side="right")
    k = (u * K).astype(np.int64)
    np.minimum(k, K - 1, out=k)
    idx = guide[k]
    while True:
        step = cdf[idx] <= u
        if not step.any():
            return idx
        idx += step


def _sample_source(env, n_rays, rng):
    """Draw grid cells proportional to their weights, jitter within cells."""
    grid = env.grid
    p = grid.weights / grid.weights.sum()
    cells = _choice(p, n_rays, rng)
    jitter = rng.uniform(-0.5, 0.5, size=(n_rays, grid.chart.dim)) * grid.cell_size
    coords = grid.coords[cells] + jitter
    return grid.chart.embed(grid.chart.clip(coords))


def _active_pieces(env, pts_emb):
    """Winning piece per ray location with the envelope's tie rule."""
    _, idx = kernels.envelope_scan(env.gf, pts_emb, env.xbars, env.zs,
                                   env.tols.tie)
    if np.any(idx < 0):
        raise ConfigError("rays left the region covered by the envelope")
    return idx


def trace_ensemble(surface: ReflectorSurface, n_rays, seed=0,
                   csv_path=None) -> TraceReport:
    """Trace an importance-sampled ray ensemble and tally target energies.

    Rays are sampled from the source measure (the grid's cell weights) with
    a counter-based Philox stream fixed by ``seed`` (deterministic
    independent of threading), so each ray carries weight T / n_rays, T the
    total source mass, and the per-target energies estimate the prescribed
    masses.  The cells come from the replayed inverse cdf of
    ``Generator.choice`` (:func:`_choice`), then a uniform jitter within
    each cell.  The whole ensemble is sampled and assigned its active
    pieces at once; the exact-quadric geometry
    (:func:`_reflector_geometry`), the residuals and the nearest target (exact misses on the screened candidates only) then
    stream over fixed blocks of rays, so the trace's memory beyond
    O(n_rays) per-ray records is bounded by the block size, not by
    ``n_rays``.  Every row's bits are independent of the block it sits in,
    and every report and CSV byte is that of ``choice`` and the loop over
    all targets.
    """
    env = surface.env
    snap = env.tols.snap
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = _sample_source(env, n_rays, rng)
    idx = _active_pieces(env, pts)
    total = float(np.sum(env.grid.weights))
    n_t = surface.targets_3d.shape[0]

    j = np.empty(n_rays, dtype=np.int64)
    best_miss = np.empty(n_rays)
    max_refl = 0.0
    for lo in range(0, n_rays, _RAY_BLOCK):
        rows = slice(lo, lo + _RAY_BLOCK)
        d_in, P, n_hat, d_out = _reflector_geometry(surface, pts[rows], idx[rows])
        max_refl = np.maximum(max_refl, _reflection_residual(d_in, n_hat, d_out))
        j[rows], best_miss[rows] = _nearest_target(surface.targets_3d, P, d_out)
    hit_ok = best_miss <= snap
    hits = np.bincount(j[hit_ok], minlength=n_t)
    escapes = int(n_rays - hits.sum())
    max_miss = float(best_miss[hit_ok].max(initial=0.0))

    if csv_path is not None:
        table = np.column_stack([np.arange(n_rays),
                                 np.where(hit_ok, j, -1), best_miss])
        np.savetxt(csv_path, table, delimiter=",", header="ray,target,miss",
                   comments="", fmt=["%d", "%d", "%.12e"])

    energies = hits * (total / n_rays)
    expect = env.cell_masses()
    p = np.clip(expect / total, 1e-12, None)
    chi2 = float(np.sum((hits - n_rays * p) ** 2 / (n_rays * p)))
    return TraceReport(n_rays=n_rays, hits=hits, energies=energies,
                       escapes=escapes, chi_square=chi2, max_miss=max_miss,
                       max_reflection_residual=float(max_refl), seed=seed)
