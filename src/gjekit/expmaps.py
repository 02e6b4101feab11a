"""Cotangent coordinate maps, exponential maps, and generalized segments.

The nondegeneracy matrix at an admissible triple is

    E_ij = d2G/dx^i dxbar^j - (d2G/dx^i dz)(dG/dxbar^j) / (dG/dz),

an n x n matrix in chart coordinates whose invertibility makes the two
coordinate maps

    p    = -(dG/dxbar) / (dG/dz)        (covector at xbar)
    pbar =  dG/dx  at z = H(x, xbar, u) (covector at x)

local diffeomorphisms: the jacobian of x -> p is -E^T / G_z and the
jacobian of xbar -> pbar is E evaluated at z = H(x, xbar, u).

The exponential maps invert them: ``exp_source`` solves p(x) = p for x by
damped Newton, ``exp_target`` jointly solves (dG/dx, G)(x, xbar, z) =
(pbar, u) for (xbar, z).  A *segment* is a curve whose image under the
relevant coordinate map is a straight line; its velocity has the closed
forms

    xdot(s)    = -G_z(x(s), xbar0, z0) (E^T)^{-1} (p1 - p0)
    xbardot(t) = E^{-1}(x0, xbar(t), z(t)) (pbar1 - pbar0)
    zdot(t)    = < p(x0; xbar(t), z(t)), xbardot(t) >.

Everything is batched over a leading sample axis; Newton solves run all
samples simultaneously with per-sample damping, and a row follows exactly
the iterates it follows when solved alone; a row that failed before the
iteration (no start, no scalar inverse) never enters it.  The coordinate
maps are single or batched as ``GenFun._batch`` decides, the exponential
maps as their covector argument is.  ``g_segment_batch`` samples
many segments at once, on a shared grid or on a grid per segment: the
continuation along s stays sequential, and each step is one batched solve
over every segment that has a point there.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RowStatus, raise_for_status
from .genfun import GenFun, raise_for_nan

__all__ = [
    "e_matrix", "p_map", "pbar_rows", "exp_source", "exp_target",
    "g_segment_batch", "SegmentBatch",
]


# ---------------------------------------------------------------------------
# pointwise maps
# ---------------------------------------------------------------------------


def _e_from(Gxb, Gxz, Gb, Gz):
    """E from the blocks d2G/dx dxbar, d2G/dx dz, dG/dxbar and dG/dz, batched."""
    return Gxb - Gxz[:, :, None] * Gb[:, None, :] / Gz[:, None, None]


def e_matrix(gf: GenFun, x, xbar, z):
    """Nondegeneracy matrix E at an admissible triple."""
    x, xbar, z, single = gf._batch(x, xbar, z)
    if not np.all(gf._in_domain(x, xbar, z)):
        raise DomainError(f"{gf.name}: e_matrix at inadmissible triple")
    E = _e_from(gf.d_x_xbar(x, xbar, z), gf.d_x_z(x, xbar, z), gf.d_xbar(x, xbar, z),
                gf.g_z(x, xbar, z))
    raise_for_nan(E, f"{gf.name}: e_matrix")
    return E[0] if single else E


def p_map(gf: GenFun, xbar, z, x, check=True):
    """Source coordinate map p = -(dG/dxbar)/(dG/dz) at (x, xbar, z)."""
    x, xbar, z, single = gf._batch(x, xbar, z)
    if check and not np.all(gf._in_domain(x, xbar, z)):
        raise DomainError(f"{gf.name}: p_map at inadmissible triple")
    p = -gf.d_xbar(x, xbar, z) / gf.g_z(x, xbar, z)[:, None]
    if check:
        raise_for_nan(p, f"{gf.name}: p_map")
    return p[0] if single else p


def pbar_rows(gf: GenFun, x, u, xbar):
    """Target coordinate map with a RowStatus per row instead of raising.

    Returns (pbar, z, status), batched: z = H(x, xbar, u) with the status
    of ``GenFun.inverse_rows``, or DERIVATIVE_STENCIL where the stencil of
    a finite-difference dG/dx leaves the admissible set.  Failed rows carry
    nan in pbar.
    """
    x, xbar, u, _ = gf._batch(x, xbar, u)
    z, status = gf.inverse_rows(x, xbar, u)
    pb, status = _ok_rows(gf.d_x, status, x, xbar, z)
    return pb, z, status


def _ok_rows(fn, status, x, xbar, z):
    """fn(x, xbar, z) on the rows whose status is OK, nan on the others.

    A finite-difference derivative is nan on the rows whose stencil leaves
    the admissible set; those rows fail with DERIVATIVE_STENCIL.  Returns
    (values, status), ``status`` updated in place.
    """
    rows = status == 0
    part = fn(x[rows], xbar[rows], z[rows])
    out = np.full(status.shape + part.shape[1:], np.nan)
    out[rows] = part
    status[rows & np.isnan(out).any(axis=tuple(range(1, out.ndim)))] = \
        RowStatus.DERIVATIVE_STENCIL
    return out, status


# ---------------------------------------------------------------------------
# batched damped Newton
# ---------------------------------------------------------------------------


def _newton(residual_and_jac, y0, status, project, tols):
    """Damped Newton on the rows of a batch whose starting ``status`` is OK.

    residual_and_jac(y, rows) -> (r, J) with r (k, d) and J (k, d, d) is
    evaluated for the batch rows ``rows`` only, at their iterates y (k, d);
    ``project`` clips iterates back into chart validity.
    Each row converges to ||r||_inf <= tols.exp_residual or leaves the
    iteration with a RowStatus (singular jacobian, non-finite step, damping
    exhausted, iteration limit) and its last iterate; a row that starts with
    another status keeps it and its start.  A row follows exactly the
    iterates it follows when solved alone.  Returns (y, status).
    """
    y = y0.copy()
    status = status.copy()
    rows = np.flatnonzero(status == 0)
    r, J = _residual_safe(residual_and_jac, y[rows], rows)
    best = np.max(np.abs(r), axis=1)
    for _ in range(tols.newton_max_iter):
        go = best > tols.exp_residual
        rows, r, J, best = rows[go], r[go], J[go], best[go]
        if rows.size == 0:
            return y, status
        step, singular = _solve_rows(J, r)
        bad = ~np.all(np.isfinite(step), axis=1) & ~singular
        status[rows[singular]] = RowStatus.SINGULAR_JACOBIAN
        status[rows[bad]] = RowStatus.NONFINITE_STEP
        go = ~(singular | bad)
        rows, step, best = rows[go], step[go], best[go]
        y_now = y[rows]
        scale = np.ones(rows.size)
        pending = np.ones(rows.size, dtype=bool)
        for _ in range(tols.newton_max_halvings):
            k = np.flatnonzero(pending)
            cand = y_now[k] - scale[k, None] * step[k]
            cand = project(cand)
            rc, _ = _residual_safe(residual_and_jac, cand, rows[k])
            better = np.max(np.abs(rc), axis=1) < best[k]
            y[rows[k[better]]] = cand[better]
            pending[k[better]] = False
            if not np.any(pending):
                break
            scale[pending] *= 0.5
        # a residual that refuses to decrease even at tiny steps
        status[rows[pending]] = RowStatus.DAMPING_EXHAUSTED
        rows = rows[~pending]
        r, J = _residual_safe(residual_and_jac, y[rows], rows)
        best = np.max(np.abs(r), axis=1)
    status[rows] = RowStatus.ITERATION_LIMIT
    return y, status


def _solve_rows(J, r):
    """Newton steps J^-1 r per row, with the rows whose J is singular."""
    singular = np.zeros(r.shape[0], dtype=bool)
    try:
        return np.linalg.solve(J, r[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    # LAPACK rejects the whole stack for one singular matrix.  slogdet runs
    # the same LU factorization and reports an exact zero pivot as sign 0;
    # the other rows are solved as one stack, with the bits of their own solves
    with np.errstate(invalid="ignore"):  # a nan J warns here; its step is nan below
        singular = np.linalg.slogdet(J)[0] == 0
    step = np.full(r.shape, np.nan)
    step[~singular] = np.linalg.solve(J[~singular], r[~singular, :, None])[:, :, 0]
    return step, singular


def _residual_safe(fn, y, rows):
    r, J = fn(y, rows)
    bad = ~np.all(np.isfinite(r), axis=1)
    if np.any(bad):
        r = r.copy()
        r[bad] = np.inf
    return r, J


def _feasible_source_start(gf, xbar, z, m):
    """Pick an admissible Newton start per sample.

    The chart center is not always admissible for a given (xbar, z) (e.g.
    parallel-beam pieces are only admissible near their focus), so fall
    back through a short list of candidate starts.  Returns the starts and
    the mask of rows that found one.
    """
    chart = gf.source_chart
    cands = [np.broadcast_to(chart.center, (m, chart.dim)).copy()]
    if chart.embdim == gf.target_chart.embdim:
        cands.append(chart.clip(chart.coords(xbar)) * 0.98)
    rng = np.random.default_rng(0)
    span = chart.hi - chart.lo
    for _ in range(6):
        cands.append(np.broadcast_to(
            chart.lo + rng.uniform(0.15, 0.85, chart.dim) * span, (m, chart.dim)).copy())
    c0 = cands[0]
    settled = gf._in_domain(chart.embed(c0), xbar, z)
    for cand in cands[1:]:
        if np.all(settled):
            break
        ok = gf._in_domain(chart.embed(cand), xbar, z) & ~settled
        c0[ok] = cand[ok]
        settled |= ok
    return c0, settled


def exp_source(gf: GenFun, xbar, z, p, x_guess=None, tols=None, return_status=False):
    """Invert the source coordinate map: find x with p(x; xbar, z) = p.

    Newton iterates run in source chart coordinates with jacobian
    -E^T / G_z; iterates are clipped to the chart and a warm start may be
    supplied.  Returns embedded source points.  Raises DomainError or
    ConvergenceError when some row fails; with ``return_status=True`` no
    row raises and the result is (x, status), batched, with a RowStatus per
    row (failed rows carry their last iterate).
    """
    tols = tols or gf.tols
    single = np.asarray(p).ndim == 1
    p = np.atleast_2d(np.asarray(p, dtype=float))
    m = p.shape[0]
    xbar = np.broadcast_to(np.asarray(xbar, float), (m, gf.target_chart.embdim)).copy()
    z = np.broadcast_to(np.asarray(z, float), (m,)).copy()
    chart = gf.source_chart
    status = np.zeros(m, dtype=np.int8)
    if x_guess is None:
        c0, started = _feasible_source_start(gf, xbar, z, m)
        status[~started] = RowStatus.NO_START
    else:
        c0 = np.broadcast_to(chart.coords(np.asarray(x_guess, float)), (m, chart.dim)).copy()

    def rj(c, rows):
        x, xb, zr = chart.embed(c), xbar[rows], z[rows]
        ok = gf._in_domain(x, xb, zr)
        r = np.full((c.shape[0], gf.dim), np.inf)
        J = np.broadcast_to(np.eye(gf.dim), (c.shape[0], gf.dim, gf.dim)).copy()
        if np.any(ok):
            xo, xbo, zo = x[ok], xb[ok], zr[ok]
            Gz, Gb = gf.g_z(xo, xbo, zo), gf.d_xbar(xo, xbo, zo)
            r[ok] = -Gb / Gz[:, None] - p[rows][ok]
            E = _e_from(gf.d_x_xbar(xo, xbo, zo), gf.d_x_z(xo, xbo, zo), Gb, Gz)
            J[ok] = -np.swapaxes(E, 1, 2) / Gz[:, None, None]
        return r, J

    c, status = _newton(rj, c0, status, chart.clip, tols)
    x = chart.embed(c)
    status[(status == 0) & ~gf._in_domain(x, xbar, z)] = RowStatus.INADMISSIBLE
    if return_status:
        return x, status
    raise_for_status(status, f"{gf.name}: exp_source")
    return x[0] if single else x


def exp_target(gf: GenFun, x, u, pbar, xbar_guess=None, z_guess=None, tols=None,
               return_status=False):
    """Invert the target map: find (xbar, z) with (dG/dx, G)(x, xbar, z) = (pbar, u).

    Joint (n+1)-dimensional damped Newton.  Returns (xbar, z) with the
    residual below tolerance; z additionally satisfies z = H(x, xbar, u) to
    the same tolerance.  Raises RangeError, DomainError or ConvergenceError
    when some row fails; with ``return_status=True`` no row raises and the
    result is (xbar, z, status), batched, with a RowStatus per row (failed
    rows carry their last iterate).
    """
    tols = tols or gf.tols
    single = np.asarray(pbar).ndim == 1
    pbar = np.atleast_2d(np.asarray(pbar, dtype=float))
    m = pbar.shape[0]
    x = np.broadcast_to(np.asarray(x, float), (m, gf.source_chart.embdim)).copy()
    u = np.broadcast_to(np.asarray(u, float), (m,)).copy()
    chart = gf.target_chart
    n = gf.dim
    cb0 = chart.center if xbar_guess is None else chart.coords(np.asarray(xbar_guess, float))
    cb0 = np.broadcast_to(cb0, (m, n)).copy()
    if z_guess is None:
        z0, status = gf.inverse_rows(x, chart.embed(cb0), u)
    else:
        z0 = np.broadcast_to(np.asarray(z_guess, float), (m,)).copy()
        status = np.zeros(m, dtype=np.int8)
    y0 = np.concatenate([cb0, z0[:, None]], axis=1)

    def project(y):
        y = y.copy()
        y[:, :n] = chart.clip(y[:, :n])
        return y

    def rj(y, rows):
        cb, z = y[:, :n], y[:, n]
        xb = chart.embed(cb)
        xr = x[rows]
        ok = gf._in_domain(xr, xb, z)
        r = np.full((y.shape[0], n + 1), np.inf)
        J = np.broadcast_to(np.eye(n + 1), (y.shape[0], n + 1, n + 1)).copy()
        if np.any(ok):
            xo, xbo, zo = xr[ok], xb[ok], z[ok]
            r[ok, :n] = gf.d_x(xo, xbo, zo) - pbar[rows][ok]
            r[ok, n] = gf.value(xo, xbo, zo, check=False) - u[rows][ok]
            # rows 0..n-1: d(dG/dx)/d(cbar, z); row n: d(G)/d(cbar, z)
            J[ok, :n, :n] = gf.d_x_xbar(xo, xbo, zo)
            J[ok, :n, n] = gf.d_x_z(xo, xbo, zo)
            J[ok, n, :n] = gf.d_xbar(xo, xbo, zo)
            J[ok, n, n] = gf.g_z(xo, xbo, zo)
        return r, J

    y, status = _newton(rj, y0, status, project, tols)
    xb = chart.embed(y[:, :n])
    z = y[:, n]
    status[(status == 0) & ~gf._in_domain(x, xb, z)] = RowStatus.INADMISSIBLE
    if return_status:
        return xb, z, status
    raise_for_status(status, f"{gf.name}: exp_target")
    if single:
        return xb[0], float(z[0])
    return xb, z


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------


@dataclass
class SegmentBatch:
    """Segments of one kind, one row per segment, sampled on a shared grid
    ``s_grid`` (m,) or on a grid per row (k, m).

    ``status`` is a RowStatus per row for its endpoints (INADMISSIBLE for a
    source endpoint outside the domain, the scalar-inverse code for a target
    endpoint, DERIVATIVE_STENCIL where the stencil of a finite-difference
    coordinate map leaves the domain); ``ok[i, j]`` says whether row i
    inverted at its j-th grid point.
    Rows with bad endpoints carry nan in ``p0``, ``p1`` and every point, and
    a row with a shorter grid carries nan past its last point.
    """

    s_grid: np.ndarray          # (m,) or (k, m)
    p0: np.ndarray              # (k, n)
    p1: np.ndarray              # (k, n)
    points: np.ndarray          # (k, m, embdim)
    z_values: np.ndarray | None  # (k, m) for target kind
    status: np.ndarray          # (k,) int8
    ok: np.ndarray              # (k, m) bool


def g_segment_batch(gf: GenFun, kind, a, b, anchor, s_grid=None) -> SegmentBatch:
    """Segments between the endpoint rows ``a`` and ``b``, batched over rows.

    For ``kind="source"`` the endpoints are (k, embdim) source points and
    the anchor is (xbar, z) with one row each; for ``kind="target"`` they
    are target points and the anchor is (x, u).  ``s_grid`` is one grid for
    every row, or a (k, m) array with a grid per row, padded with nan past a
    row's last point.  The continuation runs along the grid columns in
    order, one batched exponential-map solve per column over the rows with
    admissible endpoints and a point in that column; each row is solved at
    its own parameter and starts from its own last successful point (its
    first endpoint at the start).  A row follows exactly the iterates of its
    one-row segment: a finite-difference derivative is nan on the rows whose
    own stencil leaves the domain, so only those rows see it.
    """
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 33)
    s_grid = np.asarray(s_grid, dtype=float)
    a, b = (np.atleast_2d(np.asarray(e, dtype=float)) for e in (a, b))
    k, m = a.shape[0], s_grid.shape[-1]
    s_rows = np.broadcast_to(s_grid, (k, m))
    # the anchor: (xbar, z) or (x, u), one row per segment
    fixed, scalar = (np.atleast_1d(np.asarray(e, dtype=float)) for e in anchor)
    fixed = np.broadcast_to(np.atleast_2d(fixed), (k, fixed.shape[-1]))
    scalar = np.broadcast_to(scalar, (k,))
    ok = np.zeros((k, m), dtype=bool)
    # both endpoints of every row in one batch: rows i and k + i
    both = np.concatenate([a, b])
    fixed2, scalar2 = np.concatenate([fixed, fixed]), np.concatenate([scalar, scalar])
    if kind == "source":
        good = gf._in_domain(both, fixed2, scalar2)
        st = np.where(good[:k] & good[k:], 0, RowStatus.INADMISSIBLE).astype(np.int8)
        ends, st = _ok_rows(lambda x, xb, z: p_map(gf, xb, z, x, check=False),
                            np.concatenate([st, st]), both, fixed2, scalar2)
        pts = np.full((k, m, gf.source_chart.embdim), np.nan)
        zs = None
    elif kind == "target":
        ends, z_ends, st = pbar_rows(gf, fixed2, scalar2, both)
        pts = np.full((k, m, gf.target_chart.embdim), np.nan)
        zs = np.full((k, m), np.nan)
        prev_z = z_ends[:k].copy()
    else:
        raise ValueError("kind must be 'source' or 'target'")
    status = np.where(st[:k] != 0, st[:k], st[k:])
    p0, p1 = (np.where((status == 0)[:, None], e, np.nan) for e in (ends[:k], ends[k:]))
    batch = SegmentBatch(s_grid, p0, p1, pts, zs, status, ok)
    live = np.flatnonzero(status == 0)
    if live.size == 0:
        return batch
    prev = a.copy()
    for j in range(m):
        now = live[~np.isnan(s_rows[live, j])]
        if now.size == 0:
            continue
        s = s_rows[now, j, None]
        p = (1.0 - s) * p0[now] + s * p1[now]
        if kind == "source":
            x, st = exp_source(gf, fixed[now], scalar[now], p, x_guess=prev[now],
                               return_status=True)
        else:
            x, zz, st = exp_target(gf, fixed[now], scalar[now], p, xbar_guess=prev[now],
                                   z_guess=prev_z[now], return_status=True)
        done = st == 0
        rows = now[done]
        prev[rows] = pts[rows, j] = x[done]
        if zs is not None:
            prev_z[rows] = zs[rows, j] = zz[done]
        ok[rows, j] = True
    return batch
