"""Hot numeric kernels: piece evaluation, the envelope scan and cell masses.

The envelope/solver inner loop evaluates one generating-function piece over
every grid cell and reduces (max/argmax or a masked mass sum).  For the
built-in generating functions the piece values are small closed forms in
numpy, one per kernel tag; a built-in generating function names its tag
and parameters in its ``_kernel`` attribute.  Anything untagged goes through
the generating function's own evaluator (:func:`evaluator_values`).

The closed forms run in two steps.  ``np_piece_basis`` computes the grid
basis of a piece, the only O(m d) part, which depends on the focus alone:
``xs @ xbar``, or ``|xs - xbar|^2`` for ``pb_zero``.  ``np_basis_values``
turns the basis and the height into values.  A caller with fixed foci (the
solver) computes each basis once and passes it as ``basis=`` to
``piece_values`` and ``piece_mass``; the values are the same bit for bit.

``np_basis_values`` is the only numpy copy of each closed form; the
generating functions' own evaluators stay as the reference the tests
compare against.  :class:`PointValues` is the transposed use: every piece
at one point, for the envelope's pointwise queries.  It builds the basis of
all foci at that point and runs ``np_basis_values`` with a height per
column, which reproduces the evaluator bit for bit.

Inadmissible points are encoded as -inf piece values, which the reductions
treat as "piece not competing".  :func:`scan_rows` is the one place the
envelope's tie rule lives: a piece takes a cell only when it beats the
current best by more than the tie tolerance, so ties go to the lowest index.
The solver's mass oracle applies the same chained rule to one piece against
frozen others (:func:`piece_mass`): piece i ends up with a cell exactly when
it beats the chained best of the rows before it by more than ``tie`` and no
row after it exceeds its value by more than ``tie``.  :class:`ScanChain` is
the scan one row at a time, for a caller that carries it through rows it
changes.

That win rule is an up-set in the piece value, so value bounds over a
height interval decide most cells for every height in it.
:func:`np_value_bounds` gives per-cell bounds that enclose the closed form
bit for bit: every correctly rounded operation is monotone in each
argument, so a closed form monotone in z is bounded by its own values at
the interval's ends.  :func:`win_split` turns them into the cells won and
the cells still open over the interval.  A narrowed :func:`piece_mass` call
(``sel=``) evaluates the open cells only and sums the weights of every won
cell in cell order: the same array as a full-grid call, so the same mass
bit for bit.

A dense ``ql_bilinear`` envelope, or a ``ql_cubic`` one with eps >= 0, is
scanned per tile of about 64 cells (:func:`_tiled_scan`), evaluating only
the pieces whose bound on the gap to the tile's leader (:func:`_tile_gap`)
lets them take a cell of the tile; a scan whose rounding bound
(:func:`_rounding_bound`) is too large for that runs the per-piece loop.
The cells a tile cannot settle go through :func:`scan_point`, one cell
over every piece.  The result equals the per-piece loop bit for bit, and
the argument is set out in those three functions.  The full violator
envelope (22,201 pieces x 22,500 cells) scans in about 0.2 s instead of
1.4-1.7 s, its thinned copy (5,625 pieces) in about 0.08 s instead of
0.4 s (one core of a 2-core x86-64 VM).  ``point_source``, ``pb_zero``,
``minkowski`` and ``ql_neglog`` run the per-piece loop.
"""

import numpy as np


# ---------------------------------------------------------------------------
# numpy closed forms, one per kernel tag
# ---------------------------------------------------------------------------


def np_piece_basis(tag, xs, xbar):
    """Grid basis of one piece: the only part of its value that costs O(m d).

    ``|xs - xbar|^2`` for ``pb_zero``, the dot products ``xs @ xbar`` for
    every other tag.  It depends on the focus only, so a caller whose foci
    are fixed computes it once and passes it to the value kernels.
    """
    if tag == "pb_zero":
        return _sq_dist(xs.T, xbar)
    return xs @ xbar


def _sq_dist(p, f):
    """|p - f|^2 accumulated column by column: ``p[0]``, ``f[0]``, ... are
    the coordinate columns (or scalars) of the points and the foci.

    ``(p0 - f0)**2 + (p1 - f1)**2 + ...`` in that order is
    ``np.sum((p - f)**2, axis=1)`` bit for bit, because a square is never
    -0.0; it runs column passes instead of numpy's slow reduction over a
    short row.
    """
    b = (p[0] - f[0]) ** 2
    for k in range(1, len(f)):
        b += (p[k] - f[k]) ** 2
    return b


def np_basis_values(tag, params, b, t2, z, out=None):
    """Piece values from the basis ``b`` of :func:`np_piece_basis`.

    ``z`` is one height or a height per column of ``b``; ``t2`` is |xbar|^2
    in the same shape, read by ``point_source`` only (pass None otherwise).
    A single height outside the tag's range gives a row of -inf; per-column
    heights are the caller's to check (:class:`PointValues` masks its foci
    itself).  The values go into ``out`` when it is given, which may be
    ``b`` itself.
    """
    single = not isinstance(z, np.ndarray)
    if tag == "ql_bilinear":
        return np.subtract(b, z, out=out)
    if tag == "ql_neglog":
        ok = b < 1.0 - 1e-12
        v = np.log(1.0 - b[ok]) - (z if single else z[ok])
        out = _minus_inf(b, out)
        out[ok] = v
        return out
    if tag == "ql_cubic":
        # b + params[0] (b b b) - z
        c = b * b
        c *= b
        c *= params[0]
        out = np.add(b, c, out=c if out is None else out)
        return np.subtract(out, z, out=out)
    if tag == "point_source":
        # (z - 0.5 z^2 b) / q with q = 1 - 0.25 z^2 t2; admissible when
        # z > 0 and q > 0 (PointSourceGF._focus_ok)
        q = 1.0 - 0.25 * z * z * t2
        if single and not (z > 0.0 and q > 0.0):
            return _minus_inf(b, out)
        out = np.multiply(b, 0.5 * z * z, out=out)
        np.subtract(z, out, out=out)
        out /= q
        return out
    if tag == "pb_zero":
        if single and not z > 0.0:
            return _minus_inf(b, out)
        # 0.5 (1/z - z b); params[0] is the range's lower end: the
        # evaluator's domain keeps the closed upper branch v >= lower
        out = np.multiply(z, b, out=out)
        np.subtract(1.0 / z, out, out=out)
        out *= 0.5
        out[~(out >= params[0])] = -np.inf
        return out
    if tag == "minkowski":
        if single and not z > 0.0:
            return _minus_inf(b, out)
        off = ~(b > 0.0)
        out = np.multiply(z, b, out=out)
        out[off] = -np.inf
        return out
    raise KeyError(f"unknown kernel tag {tag!r}")


def _minus_inf(b, out):
    """A row of -inf shaped like ``b``, in ``out`` when it is given."""
    if out is None:
        return np.full(b.shape[0], -np.inf)
    out.fill(-np.inf)
    return out


def np_value_bounds(tag, params, b, t2, z1, z2):
    """Per-cell (lo, hi) enclosing :func:`np_basis_values` over z in [z1, z2].

    ``lo <= np_basis_values(tag, params, b, t2, z) <= hi`` holds bit for
    bit for every z in [z1, z2] and every basis ``b`` that
    :func:`np_piece_basis` gives (b >= +0 for ``pb_zero``), because each
    correctly rounded operation is monotone in each argument.  Every tag
    but ``point_source`` is monotone in z, so its bounds are its own values
    at z1 and z2; ``point_source`` repeats the kernel's operations in its
    order on interval endpoints.  Returns None where no enclosure is known
    (a height at or past a guard).
    """
    if tag in ("ql_bilinear", "ql_neglog", "ql_cubic"):
        # fl(A(b) - z) falls with z
        return (np_basis_values(tag, params, b, None, z2),
                np_basis_values(tag, params, b, None, z1))
    if not z1 > 0.0:
        return None
    if tag == "minkowski":
        # z b for b > 0 grows with z; -inf elsewhere at every z
        return (np_basis_values(tag, params, b, None, z1),
                np_basis_values(tag, params, b, None, z2))
    if tag == "pb_zero":
        # 0.5 (1/z - z b) on b >= +0 falls with z; -inf below the lower end
        # is a monotone cut
        return (np_basis_values(tag, params, b, None, z2),
                np_basis_values(tag, params, b, None, z1))
    if tag == "point_source":
        q1, q2 = 1.0 - 0.25 * z1 * z1 * t2, 1.0 - 0.25 * z2 * z2 * t2
        if not (q1 > 0.0 and q2 > 0.0):
            return None
        # N = z - b c with c = 0.5 z^2 rising in z, over q = 1 - 0.25 z^2 t2
        # falling in z and positive; N / q takes its q endpoint by N's sign
        bc1, bc2 = b * (0.5 * z1 * z1), b * (0.5 * z2 * z2)
        n_lo = z1 - np.maximum(bc1, bc2)
        n_hi = z2 - np.minimum(bc1, bc2)
        n_lo /= np.where(n_lo >= 0.0, q1, q2)
        n_hi /= np.where(n_hi >= 0.0, q2, q1)
        return n_lo, n_hi
    raise KeyError(f"unknown kernel tag {tag!r}")


def _focus_t2(tag, xbar):
    # |xbar|^2 in the evaluator's row-sum order; only the point source reads it
    return float(np.sum(xbar * xbar)) if tag == "point_source" else None


def _wins(v, lo_tie, hi_best, tie):
    # the scan gives piece i a cell exactly when it takes the cell from the
    # rows before it (v > lo + tie) and no row after it takes the cell back
    # (each of them <= v + tie); -inf never wins.  fl(v + tie) is monotone,
    # so the cells won at v are won at every larger v.
    wins = v > lo_tie
    wins &= hi_best <= v + tie
    return wins


def _win_mass(v, weights, lo_tie, hi_best, tie, sel=None):
    wins = _wins(v, lo_tie, hi_best, tie)
    if sel is not None:
        mask, pos = sel
        mask[pos] = wins
        wins = mask
    return float(np.sum(weights[wins]))


# ---------------------------------------------------------------------------
# the tie rule and the evaluator fallback
# ---------------------------------------------------------------------------


def scan_rows(rows, m, tie):
    """Running max/argmax over value rows of length ``m``.

    A row takes a cell only when it beats the current best by more than
    ``tie``, so ties go to the lowest row index; cells no row covers keep
    value -inf and index -1.
    """
    chain = ScanChain(m, tie)
    for v in rows:
        chain.push(v)
    return chain.best, chain.idx


class ScanChain:
    """The running (best, idx) of :func:`scan_rows`, one row at a time.

    After k pushes ``best`` and ``idx`` are ``scan_rows`` over those k rows;
    :meth:`push` is the scan's loop body, so a caller that carries the chain
    through rows it changes keeps the one tie rule.
    """

    def __init__(self, m, tie):
        self.best = np.full(m, -np.inf)
        self.idx = np.full(m, -1, dtype=np.int64)
        self.tie = tie
        self.rows = 0

    def push(self, v):
        take = v > self.best + self.tie
        np.copyto(self.best, v, where=take)
        np.copyto(self.idx, self.rows, where=take)
        self.rows += 1


def evaluator_values(gf, xs, xbars, zs):
    """G(x, xbar, z) through the evaluator, row by row; -inf outside the domain.

    ``xs`` and ``xbars`` are point rows or single points, ``zs`` heights or
    a single height; ``GenFun._batch`` repeats single ones to the row count.
    """
    return gf._value_or(*gf._batch(xs, xbars, zs)[:3], -np.inf)[0]


# ---------------------------------------------------------------------------
# pointwise queries: every piece at one point
# ---------------------------------------------------------------------------


def scan_point(vals, tie):
    """``scan_rows(vals[:, None], 1, tie)`` over the rows that decide the cell.

    Only strict prefix records (``vals[i] > max(vals[:i])``) can take the
    cell: the chained best never exceeds the prefix max, so a row at or
    below an earlier row that did not take the cell cannot take it either.
    A record that beats the record before it by more than ``tie`` takes the
    cell whatever came before, so the scan starts at the last such record.
    Returns (best value, winning row), row -1 when every value is -inf.
    """
    prefix = np.maximum.accumulate(vals)
    rec = np.flatnonzero(vals > np.concatenate(([-np.inf], prefix[:-1])))
    w = vals[rec]
    resets = np.flatnonzero(w[1:] > w[:-1] + tie)
    start = int(resets[-1]) + 1 if resets.size else 0
    best, idx = scan_rows(w[start:, None], 1, tie)
    i = int(idx[0])
    return float(best[0]), int(rec[start + i]) if i >= 0 else -1


def point_kernel(gf, xbars, zs):
    """Callable x -> every piece's value at the single point x.

    :class:`PointValues` for a tagged generating function, the evaluator
    (:func:`evaluator_values`) otherwise.
    """
    if gf._kernel is None:
        return lambda x: evaluator_values(gf, x, xbars, zs)
    return PointValues(gf, xbars, zs)


class PointValues:
    """All piece values at one point through the closed forms.

    The result equals ``evaluator_values(gf, x, xbars, zs)`` bit for bit.
    Everything that depends on the foci alone is computed once here: the
    foci transposed to (d, n), |xbar|^2 per focus and the focus part of the
    evaluator's domain mask (the generating function's ``_focus_ok``).  A query
    checks the source chart once for x, builds the basis column by column
    (``b = xt[0] * x[0]; b += xt[1] * x[1]; ...``, which is numpy's row sum
    in its order), runs :func:`np_basis_values` with a height per column into
    that basis buffer and restores -inf on the masked foci.  The closed
    forms give the evaluator's bits from that basis: each applies its
    generating function's ``_value`` operations, up to commuted products.
    """

    def __init__(self, gf, xbars, zs):
        self.tag, self.params = gf._kernel
        self.chart = gf.source_chart
        ok = gf._focus_ok(xbars, zs)
        # inadmissible foci get harmless placeholders, so the closed forms
        # run warning-free over every column; the mask restores -inf
        self.off = ~ok
        xbars = np.where(ok[:, None], xbars, 0.0)
        self.z = np.where(ok, zs, 1.0)
        self.xt = np.ascontiguousarray(xbars.T)
        self.t2 = np.sum(xbars * xbars, axis=1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if not self.chart.contains(x[None, :])[0]:
            return np.full(self.z.shape[0], -np.inf)
        xt = self.xt
        if self.tag == "pb_zero":
            b = _sq_dist(x, xt)
        else:
            b = xt[0] * x[0]
            for k in range(1, x.shape[0]):
                b += xt[k] * x[k]
            b += 0.0  # numpy's row sum starts at +0.0: no -0.0 result
        v = np_basis_values(self.tag, self.params, b, self.t2, self.z, out=b)
        np.copyto(v, -np.inf, where=self.off)
        return v


# ---------------------------------------------------------------------------
# dispatch on the generating function's kernel
# ---------------------------------------------------------------------------


def _row(gf, kernel, xs, xbar, z, basis=None):
    """Values of the piece (xbar, z) at grid points xs; ``kernel`` is
    ``gf._kernel``, None for the evaluator."""
    if kernel is None:
        return evaluator_values(gf, xs, xbar, z)
    tag, params = kernel
    if basis is None:
        basis = np_piece_basis(tag, xs, xbar)
    return np_basis_values(tag, params, basis, _focus_t2(tag, xbar), float(z))


def piece_basis(gf, xs_emb, xbar):
    """Grid basis of the piece with focus xbar, or None without a kernel tag.

    Pass it back as ``basis=`` to :func:`piece_values` and :func:`piece_mass`
    to skip the O(m d) part of every evaluation at that focus.
    """
    if gf._kernel is None:
        return None
    return np_piece_basis(gf._kernel[0], np.ascontiguousarray(xs_emb, dtype=float),
                          np.ascontiguousarray(xbar, dtype=float))


def piece_values(gf, xs_emb, xbar, z, basis=None):
    """Values of the piece (xbar, z) at embedded grid points; -inf = inadmissible."""
    return _row(gf, gf._kernel, np.ascontiguousarray(xs_emb, dtype=float),
                np.ascontiguousarray(xbar, dtype=float), z, basis)


def envelope_scan(gf, xs_emb, xbars, zs, tie):
    """(max value, argmax index) over all pieces at embedded grid points.

    Ties within ``tie`` go to the lowest index (:func:`scan_rows`); cells no
    piece covers get index -1.

    A ``ql_bilinear`` envelope, or a ``ql_cubic`` one with eps >= 0, with
    at least ``_TILED_MIN_PIECES`` pieces on two or more cells is scanned
    tile by tile (:func:`_tiled_scan`), which evaluates per tile only the
    pieces that can take one of its cells and returns the per-piece loop's
    values and indices bit for bit.  Every other tag, a cubic with eps < 0
    and a scan :func:`_tiled_scan` declines run the per-piece loop.
    """
    kernel = gf._kernel
    xs = np.ascontiguousarray(xs_emb, dtype=float)
    xbars = np.ascontiguousarray(xbars, dtype=float)
    zs = np.ascontiguousarray(zs, dtype=float)
    # on a single cell the loop's own rows are one-row products, which the
    # batched products do not reproduce (see _block_values)
    if (_tiles(kernel) and xbars.shape[0] >= _TILED_MIN_PIECES
            and xs.shape[0] >= 2):
        scanned = _tiled_scan(kernel, xs, xbars, zs, tie)
        if scanned is not None:
            return scanned
    rows = (_row(gf, kernel, xs, xbar, z) for xbar, z in zip(xbars, zs))
    return scan_rows(rows, xs.shape[0], tie)


# ---------------------------------------------------------------------------
# the tiled scan
# ---------------------------------------------------------------------------

_TILE = 64                        # cells per tile, about
_TILED_MIN_PIECES = 16 * _TILE    # below this the per-tile overhead loses
_BLOCK = 1 << 20                  # largest pieces x cells block evaluated


def _tiles(kernel):
    """Whether :func:`_tile_gap` bounds the kernel: ``ql_bilinear``, and
    ``ql_cubic`` with eps >= 0, whose f(b) = b + eps b^3 increases."""
    if kernel is None:
        return False
    tag, params = kernel
    return tag == "ql_bilinear" or (tag == "ql_cubic" and params[0] >= 0.0)


def _cell_tiles(xs):
    """Cell indices of spatial tiles of about ``_TILE`` cells each: the
    cells' bounding box cut into equal bins along every axis it spans."""
    m = xs.shape[0]
    lo, hi = xs.min(axis=0), xs.max(axis=0)
    spans = np.flatnonzero(hi > lo)
    bins = int(np.ceil((m / _TILE) ** (1.0 / max(spans.size, 1))))
    tile = np.zeros(m, dtype=np.int64)
    for k in spans:
        t = ((xs[:, k] - lo[k]) * (bins / (hi[k] - lo[k]))).astype(np.int64)
        tile *= bins
        tile += np.minimum(t, bins - 1)
    order = np.argsort(tile, kind="stable")
    cuts = np.flatnonzero(np.diff(tile[order])) + 1
    return np.split(order, cuts)


def _rounding_bound(kernel, xs, xbars, zs):
    """The scan's rounding bound E = 4 (d + 3) eps P.

    With X, Xbar and Z the largest |x_k|, |xbar_k| and |z|, B = d X Xbar
    bounds every basis |x . xbar|, and u = eps / 2.

    ``ql_bilinear``: P = B + Z.  E covers, with room to spare, the rounding
    of two kernel values fl(fl(x . xbar) - z) ((d + 1) u P each), of a
    computed tile gap against the exact max over the box ((2 d + 6) u P)
    and of the sums fl(v + tie) and fl(M - tie) (u P each).

    ``ql_cubic``, f(b) = b + eps b^3 with eps >= 0: P = Y + eps Y^3 + Z
    with Y = 3 B, which bounds |b| and |b + L| in :func:`_tile_gap`
    (|L| <= 2 B); so B f'(B) <= P / 3, B f'(Y) <= P and 3 eps Y^2 B <= P.
    To first order in u, E covers: two kernel values, (d + 3) u P each
    (the basis error d u B times f'(B), three products in eps b^3 and two
    sums); the sums with tie, u P each; and the gap, (3 d + 13) u P: the
    computed L against the exact one, 2 (d + 1) u B times the slope
    f'(b + L) <= f'(Y); the computed range [b_lo, b_hi], d u B times the
    slope |f'(b + L) - f'(b)| <= 3 eps Y^2; the products and sums of
    L + eps L^3 + 3 eps L b (b + L), 7 u P; and the heights, 4 u P.  That
    is (5 d + 21) u P <= E = (8 d + 24) u P.

    E is nan or inf when an input is not finite.
    """
    d = xs.shape[1]
    b = d * np.max(np.abs(xs)) * np.max(np.abs(xbars))
    tag, params = kernel
    if tag == "ql_cubic":
        y = 3.0 * b
        b = y + params[0] * y ** 3
    p = b + np.max(np.abs(zs))
    return 4 * (d + 3) * np.finfo(float).eps * p


def _box_sum(acc, lo, hi, xt, w, work):
    """``acc`` plus the exact max over the box [lo, hi] of x . (xbar_p -
    xbar_w), sum_k max(lo_k D_k, hi_k D_k) with D = xbar_p - xbar_w, for
    every piece p (``xt`` holds the foci as columns), summed into ``acc``
    axis by axis; ``work`` holds two scratch rows."""
    for k in range(xt.shape[0]):
        dk = np.subtract(xt[k], xt[k, w], out=work[0])
        hk = np.multiply(dk, hi[k], out=work[1])
        acc += np.maximum(np.multiply(dk, lo[k], out=dk), hk, out=dk)
    return acc


def _tile_gap(kernel, lo, hi, xt, w, zs, work):
    """Per piece p, an upper bound on max over the box [lo, hi] of v_p - v_w.

    ``ql_bilinear``: the exact max, (z_w - z_p) + L with L the box max of
    x . (xbar_p - xbar_w) (:func:`_box_sum`).

    ``ql_cubic``, f(b) = b + eps b^3 with eps >= 0: v_p - v_w = f(b_w +
    x . D) - f(b_w) - (z_p - z_w) with b_w = x . xbar_w.  f increases, so
    this is at most f(b_w + L) - f(b_w) - (z_p - z_w), L (``ell``) the box
    max of x . D as above, and f(b + L) - f(b) = L + eps L^3 +
    3 eps L b (b + L) is a quadratic in b with leading coefficient
    3 eps L.  Over the box range [b_lo, b_hi] of b_w its max is at an end
    (L >= 0) or at the vertex -L / 2 clipped to the range (L < 0), so the
    max over those three points is the exact max.

    The bound is computed in the rows of ``work``, five rows of scratch
    reused across the tiles of a scan, and returned as one of them.
    """
    tag, params = kernel
    if tag == "ql_bilinear":
        gap = np.subtract(zs[w], zs, out=work[0])
        return _box_sum(gap, lo, hi, xt, w, work[1:])
    eps = params[0]
    ell, slope, top, q, mid = work
    ell.fill(0.0)
    _box_sum(ell, lo, hi, xt, w, work[1:])
    xw = xt[:, w]
    b_lo = float(np.sum(np.minimum(lo * xw, hi * xw)))
    b_hi = float(np.sum(np.maximum(lo * xw, hi * xw)))
    np.multiply(ell, 3.0 * eps, out=slope)
    np.clip(np.multiply(ell, -0.5, out=mid), b_lo, b_hi, out=mid)
    # 3 eps L b (b + L) at the three points, their max in top
    for b, out in ((b_lo, top), (b_hi, q), (mid, q)):
        np.add(b, ell, out=out)
        out *= b
        out *= slope
        if out is q:
            np.maximum(top, q, out=top)
    gap = np.multiply(ell, ell, out=q)
    gap *= ell
    gap *= eps
    gap += ell
    gap += top
    gap += np.subtract(zs[w], zs, out=mid)
    return gap


def _block_values(kernel, xs, xbars, zs):
    """Values of the pieces (xbars, zs) at the points xs, a row per piece.

    The bases run as one batched ``(1, B, d) @ (K, d, 1)``: a
    matrix-vector product per piece, which rounds each point as the
    full-grid ``xs @ xbar`` of :func:`np_piece_basis` does.  A single point
    is doubled, because a one-row product takes numpy's dot path, which
    can round differently.  The kernel's own closed form then runs on them
    with a height per row, so each value is the per-piece row's bit for
    bit.
    """
    tag, params = kernel
    b = xs.shape[0]
    if b == 1:
        xs = np.concatenate((xs, xs))
    basis = (xs[None] @ xbars[:, :, None])[:, :b, 0]
    return np_basis_values(tag, params, basis, None, zs[:, None], out=basis)


def _tiled_scan(kernel, xs, xbars, zs, tie):
    """``scan_rows`` over the rows of every piece, evaluating per tile of
    cells only the pieces that can take one of its cells.

    Per tile with box [lo, hi], the leader w is the argmax at the box's
    centre, and piece p is culled when its computed gap bound
    (:func:`_tile_gap`) is below -3 tie.  With E <= tie / 4
    (:func:`_rounding_bound`) that leaves a culled value v_p below
    M - 2.75 tie at every cell of the tile, M the survivors' max (the
    leader survives with gap 0), so fl(v_p + tie) < theta = fl(M - tie).
    If every row has v >= theta or fl(v + tie) < theta, ``scan_rows`` over
    all rows equals ``scan_rows`` over the rows with v >= theta in index
    order: the first of them takes the cell from any lower row, and no
    lower row can take it back.  Any other cell, and every cell of a tile
    whose survivors would exceed ``_BLOCK`` values, is left to
    :func:`scan_point` on its column of values over all pieces, which is
    ``scan_rows`` on that one cell; those columns are evaluated
    ``_BLOCK // n`` cells at a time, at least one.  Every value is the
    kernel's own :func:`np_basis_values` on a basis from
    :func:`_block_values`, the full-grid row's rounding, so the result
    equals the per-piece loop bit for bit.
    Returns None when E > tie / 4 or an input is not finite.
    """
    if not (np.isfinite(tie) and _rounding_bound(kernel, xs, xbars, zs) <= tie / 4):
        return None
    tag, params = kernel
    m, n = xs.shape[0], xbars.shape[0]
    xt = np.ascontiguousarray(xbars.T)
    work = np.empty((5, n))
    best = np.empty(m)
    idx = np.empty(m, dtype=np.int64)
    rest = []
    for cells in _cell_tiles(xs):
        x = xs[cells]
        lo, hi = x.min(axis=0), x.max(axis=0)
        w = int(np.argmax(np_basis_values(tag, params, xbars @ (0.5 * (lo + hi)),
                                          None, zs)))
        keep = np.flatnonzero(_tile_gap(kernel, lo, hi, xt, w, zs, work) >= -3.0 * tie)
        if keep.size * cells.size > _BLOCK:
            rest.extend(cells)
            continue
        v = _block_values(kernel, x, xbars[keep], zs[keep])
        theta = v.max(axis=0) - tie
        top = v >= theta
        open_ = np.any(~top & (v + tie >= theta), axis=0)
        if open_.any():
            rest.extend(cells[open_])
            cells, v, top = cells[~open_], v[:, ~open_], top[:, ~open_]
        rows = np.flatnonzero(top.any(axis=1))
        b, i = scan_rows(np.where(top[rows], v[rows], -np.inf), cells.size, tie)
        best[cells], idx[cells] = b, keep[rows[i]]
    step = max(1, _BLOCK // n)
    for s in range(0, len(rest), step):
        cells = rest[s:s + step]
        for c, v in zip(cells, _block_values(kernel, xs[cells], xbars, zs).T):
            best[c], idx[c] = scan_point(v, tie)
    return best, idx


def piece_mass(gf, xs_emb, weights, lo_tie, hi_best, xbar, z, tie, basis=None,
               sel=None):
    """Summed ``weights`` of the cells piece (xbar, z) wins against the frozen rows.

    The cells are those the chained rule of :func:`scan_rows` gives the
    piece: ``lo_tie`` is the chained best of the rows before it plus
    ``tie`` and ``hi_best`` the plain max of the rows after it (see
    :func:`_wins`); ``basis`` is an optional precomputed
    :func:`piece_basis`, which leaves the mass the same bit for bit.

    ``sel = (mask, pos)`` narrows the call to the cells whose win is still
    open (see :func:`win_split`): ``xs_emb``, ``lo_tie``, ``hi_best`` and
    ``basis`` hold those cells only, their wins are written to
    ``mask[pos]``, and the mass is the sum of ``weights[mask]``, where
    ``weights`` and ``mask`` cover every cell the piece can win, in cell
    order.  That array is the full call's ``weights[wins]`` element for
    element, so the mass is the same bit for bit.
    """
    v = _row(gf, gf._kernel, np.ascontiguousarray(xs_emb, dtype=float), xbar, z, basis)
    return _win_mass(v, weights, lo_tie, hi_best, tie, sel)


def win_split(gf, xbar, z1, z2, lo_tie, hi_best, tie, basis):
    """(won, open) cell masks of the piece (xbar, z) over all z in [z1, z2].

    ``won`` marks the cells :func:`piece_mass` gives the piece at every
    such z, ``open`` the cells it may give or not; every other cell is lost
    throughout.  The win rule is an up-set in the piece value, so the
    bounds of :func:`np_value_bounds` decide it: won at the lower bound,
    lost at the upper.  None without a kernel tag, a basis or bounds.
    """
    if gf._kernel is None or basis is None:
        return None
    tag, params = gf._kernel
    bounds = np_value_bounds(tag, params, basis, _focus_t2(tag, xbar),
                             float(z1), float(z2))
    if bounds is None:
        return None
    won = _wins(bounds[0], lo_tie, hi_best, tie)
    open_ = _wins(bounds[1], lo_tie, hi_best, tie)
    open_ &= ~won
    return won, open_
