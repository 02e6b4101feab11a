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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .expmaps import exp_target
from .gconvex import Envelope
from .structure import _row_norms
from . import kernels

__all__ = ["Ray", "ReflectorSurface", "TraceReport", "trace_ray",
           "trace_ensemble", "consistency_with_exp_target"]


@dataclass
class Ray:
    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(self.direction)
        if abs(n - 1.0) > 1e-12:
            self.direction = self.direction / n


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

    # -- per-piece exact geometry ---------------------------------------------

    def radial_distance(self, d, i):
        """Point source: radial graph of piece i's ellipsoid along direction d."""
        xbar = self.env.xbars[i]
        a = 1.0 / self.env.zs[i]
        return (a * a - 0.25 * xbar @ xbar) / (a - 0.5 * d @ xbar)

    def surface_point_and_normal(self, x_chart_or_dir, i):
        """Exact hit point and outward unit normal of piece i."""
        if self.kind == "point_source":
            d = x_chart_or_dir
            r = self.radial_distance(d, i)
            P = r * d
            xbar = self.env.xbars[i]
            # gradient of |P| + |P - xbar| points out of the ellipsoid
            n = P / np.linalg.norm(P) + (P - xbar) / np.linalg.norm(P - xbar)
            return P, n / np.linalg.norm(n)
        x = x_chart_or_dir
        xbar = self.env.xbars[i]
        z = self.env.zs[i]
        y = 0.5 * (1.0 / z - z * np.sum((x - xbar) ** 2))
        P = np.array([x[0], x[1], y])
        n = np.array([z * (x[0] - xbar[0]), z * (x[1] - xbar[1]), 1.0])
        return P, n / np.linalg.norm(n)

    def quadric_residual(self, P, i):
        """Signed defect of P from piece i's exact quadric."""
        if self.kind == "point_source":
            xbar = self.env.xbars[i]
            a = 1.0 / self.env.zs[i]
            return np.linalg.norm(P) + np.linalg.norm(P - xbar) - 2.0 * a
        xbar = self.env.xbars[i]
        z = self.env.zs[i]
        return P[2] - 0.5 * (1.0 / z - z * np.sum((P[:2] - xbar) ** 2))


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


def _reflect(d, n):
    return d - 2.0 * (d @ n) * n


def _line_point_miss(origin, direction, point):
    """Distance from a point to the forward ray {origin + t direction, t >= 0}."""
    w = point - origin
    t = w @ direction
    if t < 0:
        return float(np.linalg.norm(w))
    return float(np.linalg.norm(w - t * direction))


def trace_ray(surface: ReflectorSurface, ray: Ray, snap=None):
    """Trace one ray; returns (hit point, reflected Ray, target index or None).

    The active piece is the envelope's winner at the ray's chart location;
    the intersection and the normal come from that piece's exact quadric.
    A reflected ray that misses every target by more than the snap distance
    records an escape (target index None).
    """
    env = surface.env
    snap = snap if snap is not None else env.tols.snap
    if surface.kind == "point_source":
        d = ray.direction
        _, i = env.representative(d)
        P, n = surface.surface_point_and_normal(d, i)
        r_out = _reflect(d, n)
    else:
        x = ray.origin[:2]
        _, i = env.representative(np.asarray(x, dtype=float))
        P, n = surface.surface_point_and_normal(np.asarray(x, dtype=float), i)
        r_out = _reflect(ray.direction, n)
    miss = np.array([_line_point_miss(P, r_out, t) for t in surface.targets_3d])
    j = int(np.argmin(miss))
    target = j if miss[j] <= snap else None
    return P, Ray(P, r_out), target, float(miss[j])


def _sample_source(env, n_rays, f, rng):
    """Draw grid cells proportional to the density mass, jitter within cells."""
    grid = env.grid
    w = grid.weights * grid.density_from(f)
    p = w / w.sum()
    cells = rng.choice(grid.n_cells, size=n_rays, p=p)
    jitter = rng.uniform(-0.5, 0.5, size=(n_rays, grid.chart.dim)) * grid.cell_size
    coords = grid.coords[cells] + jitter
    if hasattr(grid.chart, "clip"):
        coords = grid.chart.clip(coords)
    return grid.chart.embed(coords)


def _active_pieces(env, pts_emb):
    """Winning piece per ray location with the envelope's tie rule."""
    _, idx = kernels.envelope_scan(env.gf, pts_emb, env.xbars, env.zs,
                                   env.tols.tie)
    if np.any(idx < 0):
        raise ConfigError("rays left the region covered by the envelope")
    return idx


def trace_ensemble(surface: ReflectorSurface, n_rays, f=None, seed=0,
                   csv_path=None) -> TraceReport:
    """Trace an importance-sampled ray ensemble and tally target energies.

    Rays are sampled from the source density with a counter-based Philox
    stream fixed by ``seed`` (deterministic independent of threading), so
    each ray carries weight T_f / n_rays and the per-target energies
    estimate the prescribed masses.  The whole ensemble is traced
    vectorized with the same exact quadric geometry as ``trace_ray``.
    """
    env = surface.env
    snap = env.tols.snap
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = _sample_source(env, n_rays, f, rng)
    total = float(np.sum(env.grid.weights * env.grid.density_from(f)))
    n_t = surface.targets_3d.shape[0]

    if surface.kind == "point_source":
        d = pts                                   # unit directions
        idx = _active_pieces(env, d)
        xb = env.xbars[idx]
        a = 1.0 / env.zs[idx]
        r = (a * a - 0.25 * np.sum(xb * xb, axis=1)) / (a - 0.5 * np.sum(d * xb, axis=1))
        P = r[:, None] * d
        n_vec = P / np.linalg.norm(P, axis=1, keepdims=True) \
            + (P - xb) / np.linalg.norm(P - xb, axis=1, keepdims=True)
        d_in = d
    else:
        x = pts[:, :2]
        idx = _active_pieces(env, pts)
        xb2 = env.xbars[idx]
        z = env.zs[idx]
        y = 0.5 * (1.0 / z - z * np.sum((x - xb2) ** 2, axis=1))
        P = np.column_stack([x, y])
        n_vec = np.column_stack([z[:, None] * (x - xb2), np.ones(n_rays)])
        d_in = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (n_rays, 3))
    n_hat = n_vec / np.linalg.norm(n_vec, axis=1, keepdims=True)
    dn = np.sum(d_in * n_hat, axis=1)
    d_out = d_in - 2.0 * dn[:, None] * n_hat

    # reflection-law residuals and coplanarity
    refl_res = np.abs(np.abs(dn) - np.abs(np.sum(d_out * n_hat, axis=1)))
    copl = np.abs(np.linalg.det(np.stack([d_in, d_out, n_hat], axis=2)))
    max_refl = float(max(refl_res.max(initial=0.0), copl.max(initial=0.0)))

    # forward-ray miss distance to every target
    w = surface.targets_3d[None, :, :] - P[:, None, :]
    t = np.einsum("mtd,md->mt", w, d_out)
    t = np.clip(t, 0.0, None)
    res = w - t[:, :, None] * d_out[:, None, :]
    miss = np.linalg.norm(res, axis=2)
    j = np.argmin(miss, axis=1)
    best_miss = miss[np.arange(n_rays), j]
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
    expect = env.cell_masses(f)
    p = np.clip(expect / total, 1e-12, None)
    chi2 = float(np.sum((hits - n_rays * p) ** 2 / (n_rays * p)))
    return TraceReport(n_rays=n_rays, hits=hits, energies=energies,
                       escapes=escapes, chi_square=chi2, max_miss=max_miss,
                       max_reflection_residual=max_refl, seed=seed)


def consistency_with_exp_target(surface_or_env, x_samples, tol_chart=1e-4):
    """Deviation between the traced/active target and the map-based target.

    For a reflector surface at smooth (single active piece) sample points,
    the traced target is the active piece's focus, which must agree with
    the target exponential map applied to (x, u(x), Du(x)) when the
    envelope densely approximates a smooth solution.  Du comes from the
    one-sided grid differences.  Returns the max chart deviation and the
    per-sample table.
    """
    env = surface_or_env.env if isinstance(surface_or_env, ReflectorSurface) else surface_or_env
    gf = env.gf
    grads = env.grid_gradients()
    u, cells = env._scan()
    ks = np.array([int(np.argmin(np.sum((env.grid.points - x) ** 2, axis=1)))
                   for x in np.atleast_2d(np.asarray(x_samples, dtype=float))])
    foci = env.xbars[cells[ks]]  # each grid cell's winner, as representative gives
    xb, _, status = exp_target(gf, env.grid.points[ks], u[ks], grads[ks],
                               xbar_guess=foci, return_status=True)
    devs = _row_norms(gf.target_chart.coords(xb) - gf.target_chart.coords(foci))
    devs[status != 0] = np.inf
    return {"max_deviation": float(np.max(devs)),
            "n_samples": int(devs.size),
            "n_within_tol": int(np.sum(devs <= tol_chart)),
            "tol": tol_chart}
