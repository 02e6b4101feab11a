"""Hot numeric kernels: piece evaluation and cell masses over grids.

The envelope/solver inner loop evaluates one generating-function piece over
every grid cell and reduces (max/argmax or a masked mass sum).  For the
built-in generating functions these are small closed-form arithmetic loops,
compiled with numba when available.  A pure-numpy implementation of every
kernel ships alongside; set the environment variable ``GJEKIT_NO_NUMBA=1``
(or run without numba installed) to select it.

The numpy closed forms run in two steps.  ``np_piece_basis`` computes the
grid basis of a piece, the only O(m d) part, which depends on the focus
alone: ``xs @ xbar``, or ``|xs - xbar|^2`` for ``pb_zero``.
``np_basis_values`` turns the basis and the height into values, and
``np_piece_values`` is the composition.  A caller with fixed foci (the
solver) computes each basis once and passes it as ``basis=`` to
``piece_values`` and ``piece_mass``; the values are the same bit for bit.

Inadmissible points are encoded as -inf piece values, which the reductions
treat as "piece not competing".

Kernel tags: built-ins advertise a tag; anything untagged falls back to the
generic (numpy, evaluator-driven) path.
"""

import os

import numpy as np

NUMBA_ENABLED = os.environ.get("GJEKIT_NO_NUMBA", "0") not in ("1", "true", "yes")
if NUMBA_ENABLED:
    try:
        from numba import njit, prange
    except ImportError:  # pragma: no cover - exercised via env flag instead
        NUMBA_ENABLED = False

if not NUMBA_ENABLED:
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f

    prange = range


# ---------------------------------------------------------------------------
# numpy reference implementations (always available; the fallback path)
# ---------------------------------------------------------------------------


def np_piece_basis(tag, xs, xbar):
    """Grid basis of one piece: the only part of its value that costs O(m d).

    ``|xs - xbar|^2`` for ``pb_zero``, the dot products ``xs @ xbar`` for
    every other tag.  It depends on the focus only, so a caller whose foci
    are fixed computes it once and passes it to the value kernels.
    """
    if tag == "pb_zero":
        return np.sum((xs - xbar) ** 2, axis=1)
    return xs @ xbar


def np_basis_values(tag, params, b, xbar, z):
    """Piece values from the grid basis ``b`` of :func:`np_piece_basis`."""
    m = b.shape[0]
    if tag == "ql_bilinear":
        return b - z
    if tag == "ql_neglog":
        out = np.full(m, -np.inf)
        ok = b < 1.0 - 1e-12
        out[ok] = np.log(1.0 - b[ok]) - z
        return out
    if tag == "ql_cubic":
        return b + params[0] * b ** 3 - z
    if tag == "point_source":
        t2 = float(xbar @ xbar)
        if not (z > 0.0 and 0.25 * z * z * t2 < 1.0):
            return np.full(m, -np.inf)
        # (z - 0.5 z^2 b) / (1 - 0.25 z^2 t2), evaluated in one buffer
        out = b * (0.5 * z * z)
        np.subtract(z, out, out=out)
        out /= 1.0 - 0.25 * z * z * t2
        return out
    if tag == "pb_zero":
        if not z > 0.0:
            return np.full(m, -np.inf)
        v = 0.5 * (1.0 / z - z * b)
        v[v < 0.0] = -np.inf
        return v
    if tag == "minkowski":
        if not z > 0.0:
            return np.full(m, -np.inf)
        v = z * b
        v[b <= 0.0] = -np.inf
        return v
    raise KeyError(f"unknown kernel tag {tag!r}")


def np_piece_values(tag, params, xs, xbar, z, basis=None):
    """Piece values over grid points xs (m, d); -inf where inadmissible."""
    if basis is None:
        basis = np_piece_basis(tag, xs, xbar)
    return np_basis_values(tag, params, basis, xbar, z)


def np_envelope_scan(tag, params, xs, xbars, zs, tie):
    """Running max/argmax over pieces; ties within ``tie`` go to the lowest index."""
    m = xs.shape[0]
    best = np.full(m, -np.inf)
    idx = np.full(m, -1, dtype=np.int64)
    for i in range(xbars.shape[0]):
        v = np_piece_values(tag, params, xs, xbars[i], zs[i])
        take = v > best + tie
        best = np.where(take, v, best)
        idx = np.where(take, i, idx)
    return best, idx


def np_piece_mass(tag, params, xs, weights, other_val, other_idx, i, xbar, z, tie,
                  basis=None, other_tie=None, lower=None):
    """Mass of cells won by piece i against the cached best of the others.

    A cell belongs to i when its value beats the other pieces' best, or ties
    it within ``tie`` while i has the lower index.  ``basis`` (the piece's
    :func:`np_piece_basis`), ``other_tie`` (``other_val + tie``) and
    ``lower`` (``i < other_idx``) may be passed precomputed; the mass is the
    same bit for bit.
    """
    v = np_piece_values(tag, params, xs, xbar, z, basis)
    return _win_mass(v, weights, other_val, other_idx, i, tie, other_tie, lower)


def _win_mass(v, weights, other_val, other_idx, i, tie, other_tie=None, lower=None):
    if other_tie is None:
        other_tie = other_val + tie
    if lower is None:
        lower = i < other_idx
    wins = v > other_tie
    with np.errstate(invalid="ignore"):
        gap = v - other_val
    np.abs(gap, out=gap)
    tied = gap <= tie
    tied &= lower
    wins |= tied
    wins &= np.isfinite(v)
    return float(np.sum(weights[wins]))


# ---------------------------------------------------------------------------
# numba kernels (same semantics, fused loops)
# ---------------------------------------------------------------------------


@njit(cache=True, inline="always")
def _nb_aux(tag_id, xs, xbar, z):
    # per-piece invariants hoisted out of the cell loop
    if tag_id == 3:  # point_source: denominator 1 - z^2 |xbar|^2 / 4
        t2 = 0.0
        for j in range(xbar.shape[0]):
            t2 += xbar[j] * xbar[j]
        return 1.0 - 0.25 * z * z * t2
    return 0.0


@njit(cache=True, inline="always")
def _nb_value(tag_id, eps, aux, xs, xbar, z, k):
    d = xs.shape[1]
    if tag_id == 4:      # pb_zero: needs the squared distance, not the dot
        if z <= 0.0:
            return -np.inf
        D = 0.0
        for j in range(d):
            r = xs[k, j] - xbar[j]
            D += r * r
        v = 0.5 * (1.0 / z - z * D)
        return v if v >= 0.0 else -np.inf
    b = 0.0
    for j in range(d):
        b += xs[k, j] * xbar[j]
    if tag_id == 0:      # ql_bilinear
        return b - z
    if tag_id == 1:      # ql_neglog
        if b >= 1.0 - 1e-12:
            return -np.inf
        return np.log(1.0 - b) - z
    if tag_id == 2:      # ql_cubic
        return b + eps * b ** 3 - z
    if tag_id == 3:      # point_source
        if z <= 0.0 or aux <= 0.0:
            return -np.inf
        return (z - 0.5 * z * z * b) / aux
    if tag_id == 5:      # minkowski
        if z <= 0.0 or b <= 0.0:
            return -np.inf
        return z * b
    return np.nan


@njit(cache=True)
def _nb_piece_values(tag_id, eps, xs, xbar, z):
    m = xs.shape[0]
    out = np.empty(m)
    aux = _nb_aux(tag_id, xs, xbar, z)
    for k in range(m):
        out[k] = _nb_value(tag_id, eps, aux, xs, xbar, z, k)
    return out


@njit(cache=True, parallel=True)
def _nb_envelope_scan(tag_id, eps, xs, xbars, zs, tie):
    # parallel over cells; each cell's max/argmax is independent, so the
    # result is bit-identical for any thread count
    m = xs.shape[0]
    n = xbars.shape[0]
    best = np.full(m, -np.inf)
    idx = np.full(m, -1, dtype=np.int64)
    auxs = np.empty(n)
    for i in range(n):
        auxs[i] = _nb_aux(tag_id, xs, xbars[i], zs[i])
    for k in prange(m):
        bv = -np.inf
        bi = -1
        for i in range(n):
            v = _nb_value(tag_id, eps, auxs[i], xs, xbars[i], zs[i], k)
            if v > bv + tie:
                bv = v
                bi = i
        best[k] = bv
        idx[k] = bi
    return best, idx


@njit(cache=True, parallel=True)
def _nb_win_mask(tag_id, eps, xs, other_val, other_idx, i, xbar, z, tie):
    # parallel per-cell mask; the mass sum happens outside in a fixed order
    # so the result is bit-identical for any thread count
    m = xs.shape[0]
    out = np.zeros(m, dtype=np.bool_)
    aux = _nb_aux(tag_id, xs, xbar, z)
    for k in prange(m):
        v = _nb_value(tag_id, eps, aux, xs, xbar, z, k)
        if np.isfinite(v):
            if v > other_val[k] + tie or (abs(v - other_val[k]) <= tie
                                          and i < other_idx[k]):
                out[k] = True
    return out


def _nb_piece_mass(tag_id, eps, xs, weights, other_val, other_idx, i, xbar, z, tie):
    mask = _nb_win_mask(tag_id, eps, xs, other_val, other_idx, i, xbar, z, tie)
    return float(np.sum(weights[mask]))


_TAG_IDS = {"ql_bilinear": 0, "ql_neglog": 1, "ql_cubic": 2,
            "point_source": 3, "pb_zero": 4, "minkowski": 5}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def kernel_tag(gf):
    """Kernel tag and parameters for a generating function, or (None, ())."""
    name = getattr(gf, "name", "")
    if name == "point_source":
        return "point_source", ()
    if name == "minkowski":
        return "minkowski", ()
    if name == "parallel_beam" and getattr(gf.surface, "name", "") == "zero":
        return "pb_zero", ()
    if name.startswith("quasilinear"):
        cname = getattr(gf.cost, "name", "")
        if cname == "bilinear":
            return "ql_bilinear", ()
        if cname == "neg_log":
            return "ql_neglog", ()
        if cname == "cubic_perturbed":
            return "ql_cubic", (float(gf.cost.eps),)
    return None, ()


def _grid_points_for(gf, xs_emb):
    """Grid points in the coordinate shape the closed-form kernels expect.

    Kernels work with the embedded inner products, so embedded coordinates
    are the right representation everywhere.
    """
    return np.ascontiguousarray(xs_emb, dtype=float)


def piece_basis(gf, xs_emb, xbar):
    """Grid basis of the piece with focus xbar, or None without a kernel tag.

    Pass it back as ``basis=`` to :func:`piece_values` and :func:`piece_mass`
    to skip the O(m d) part of every evaluation at that focus.
    """
    tag, _ = kernel_tag(gf)
    if tag is None:
        return None
    return np_piece_basis(tag, _grid_points_for(gf, xs_emb),
                          np.ascontiguousarray(xbar, dtype=float))


def piece_values(gf, xs_emb, xbar, z, use_numba=None, basis=None):
    """Values of the piece (xbar, z) at embedded grid points; -inf = inadmissible."""
    tag, params = kernel_tag(gf)
    if tag is None:
        return _generic_piece_values(gf, xs_emb, xbar, z)
    xs = _grid_points_for(gf, xs_emb)
    xbar = np.ascontiguousarray(xbar, dtype=float)
    eps = params[0] if params else 0.0
    on = NUMBA_ENABLED if use_numba is None else use_numba
    if on:
        return _nb_piece_values(_TAG_IDS[tag], eps, xs, xbar, float(z))
    return np_piece_values(tag, params, xs, xbar, float(z), basis)


def envelope_scan(gf, xs_emb, xbars, zs, tie, use_numba=None):
    """(max value, argmax index) over all pieces at embedded grid points."""
    tag, params = kernel_tag(gf)
    if tag is None:
        m = xs_emb.shape[0]
        best = np.full(m, -np.inf)
        idx = np.full(m, -1, dtype=np.int64)
        for i in range(xbars.shape[0]):
            v = _generic_piece_values(gf, xs_emb, xbars[i], zs[i])
            take = v > best + tie
            best = np.where(take, v, best)
            idx = np.where(take, i, idx)
        return best, idx
    xs = _grid_points_for(gf, xs_emb)
    xbars = np.ascontiguousarray(xbars, dtype=float)
    zs = np.ascontiguousarray(zs, dtype=float)
    eps = params[0] if params else 0.0
    on = NUMBA_ENABLED if use_numba is None else use_numba
    if on:
        return _nb_envelope_scan(_TAG_IDS[tag], eps, xs, xbars, zs, tie)
    return np_envelope_scan(tag, params, xs, xbars, zs, tie)


def piece_mass(gf, xs_emb, weights, other_val, other_idx, i, xbar, z, tie,
               use_numba=None, basis=None, other_tie=None, lower=None):
    """f-mass of the cells piece i wins at height z, given the others' best.

    ``basis``, ``other_tie`` and ``lower`` are optional precomputed inputs,
    as in :func:`np_piece_mass`.
    """
    tag, params = kernel_tag(gf)
    if tag is None:
        v = _generic_piece_values(gf, xs_emb, xbar, z)
        return _win_mass(v, weights, other_val, other_idx, i, tie, other_tie, lower)
    xs = _grid_points_for(gf, xs_emb)
    eps = params[0] if params else 0.0
    on = NUMBA_ENABLED if use_numba is None else use_numba
    if on:
        return _nb_piece_mass(_TAG_IDS[tag], eps, xs, weights,
                              other_val, other_idx, int(i),
                              np.ascontiguousarray(xbar, dtype=float), float(z), tie)
    return np_piece_mass(tag, params, xs, weights, other_val, other_idx,
                         int(i), xbar, float(z), tie, basis, other_tie, lower)


def _generic_piece_values(gf, xs_emb, xbar, z):
    """Evaluator-driven fallback for generating functions without a kernel tag."""
    m = xs_emb.shape[0]
    xbars = np.broadcast_to(np.asarray(xbar, dtype=float), (m, len(xbar))).copy()
    zs = np.full(m, float(z))
    ok = gf._in_domain(xs_emb, xbars, zs)
    out = np.full(m, -np.inf)
    if np.any(ok):
        out[ok] = gf._value(xs_emb[ok], xbars[ok], zs[ok])
    return out
