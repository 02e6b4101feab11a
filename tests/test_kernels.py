from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gjekit import kernels, solver
from gjekit.builtins import ParallelBeamGF, make_builtin
from gjekit.charts import BoxChart
from gjekit.demos import violator_genfun
from gjekit.gconvex import Envelope
from gjekit.genfun import ScalarRange
from gjekit.grids import DomainGrid


def _cases():
    out = []
    for kind, build in [
        ("ql_bilinear", lambda: make_builtin("quasilinear")),
        ("ql_neglog", lambda: __import__("gjekit.demos", fromlist=["x"]).far_field_genfun()),
        ("ql_cubic", lambda: violator_genfun(eps=2.0, half=0.8)),
        ("point_source", lambda: make_builtin("point_source")),
        ("pb_zero", lambda: make_builtin("parallel_beam")),
        ("minkowski", lambda: make_builtin("minkowski")),
    ]:
        gf = build()
        assert gf._kernel[0] == kind
        out.append(gf)
    return out


def test_scan_rows_chains_ties_and_leaves_uncovered_cells():
    tie = 1e-3
    rows = np.array([[0.0, -np.inf, 1.0],
                     [0.6 * tie, -np.inf, 1.0],
                     [1.2 * tie, -np.inf, 1.0 + 0.5 * tie]])
    best, idx = kernels.scan_rows(rows, 3, tie)
    # cell 0: the third row beats the first by more than tie, the second
    # does not; cell 2: ties go to the lowest index
    assert idx.tolist() == [2, -1, 0]
    assert best.tolist() == [1.2 * tie, -np.inf, 1.0]


_CASES = {gf.name: gf for gf in _cases()}
# a range that starts above zero: the parallel-beam domain keeps v >= 0.1
_CASES["parallel_beam[lower=0.1]"] = ParallelBeamGF(srange=ScalarRange(0.1, np.inf, 0.2, 20.0))
_GRIDS = {name: DomainGrid(gf.source_chart, 12) for name, gf in _CASES.items()}


def _near(rng, v, tie):
    """Values near ``v``: random, with planted exact ties, ties within
    ``tie`` and -inf cells."""
    m = v.shape[0]
    finite = np.isfinite(v)
    centre = np.median(v[finite]) if np.any(finite) else 0.0
    out = centre + rng.normal(size=m)
    kind = rng.integers(0, 5, size=m)
    out[(kind == 0) & finite] = v[(kind == 0) & finite]
    near = (kind == 1) & finite
    out[near] = v[near] + tie * rng.uniform(-1.5, 1.5, size=int(near.sum()))
    out[kind == 2] = -np.inf
    return out


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_CASES)), seed=st.integers(0, 2 ** 32 - 1),
       z=st.floats(-1.0, 3.0), tie=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_cached_piece_mass_is_bit_identical(name, seed, z, tie):
    gf, grid = _CASES[name], _GRIDS[name]
    rng = np.random.default_rng(seed)
    xbar = gf.target_chart.sample(1, rng)[0]
    xs, w = grid.points, grid.weights
    v = kernels.piece_values(gf, xs, xbar, z)
    lo_tie, hi_best = _near(rng, v, tie) + tie, _near(rng, v, tie)
    ref = kernels.piece_mass(gf, xs, w, lo_tie, hi_best, xbar, z, tie)
    basis = kernels.piece_basis(gf, xs, xbar)
    cached = kernels.piece_mass(gf, xs, w, lo_tie, hi_best, xbar, z, tie,
                                basis=basis)
    assert cached == ref
    again = kernels.piece_values(gf, xs, xbar, z, basis=basis)
    assert np.array_equal(again, v)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_CASES)), seed=st.integers(0, 2 ** 32 - 1),
       zs=st.lists(st.floats(-1.0, 3.0), min_size=2, max_size=6),
       tie=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_piece_mass_is_monotone_in_the_height(name, seed, zs, tie):
    # against frozen other rows (planted near one of the heights), raising
    # a piece within its admissible heights only adds cells and mass
    gf, grid = _CASES[name], _GRIDS[name]
    rng = np.random.default_rng(seed)
    xbar = gf.target_chart.sample(1, rng)[0]
    lo, hi = gf.z_limits(xbar)
    zs = sorted(zs, key=lambda z: -gf.orientation * z)  # the raising order
    assume(lo < min(zs) and max(zs) < hi)
    xs, w = grid.points, grid.weights
    v = kernels.piece_values(gf, xs, xbar, zs[rng.integers(len(zs))])
    lo_tie, hi_best = _near(rng, v, tie) + tie, _near(rng, v, tie)
    pos = np.arange(grid.n_cells)
    won, masses = [], []
    for z in zs:
        mask = np.zeros(grid.n_cells, dtype=bool)
        masses.append(kernels.piece_mass(gf, xs, w, lo_tie, hi_best, xbar, z, tie,
                                         sel=(mask, pos)))
        won.append(mask)
    for k in range(len(zs) - 1):
        assert not np.any(won[k] & ~won[k + 1])
        assert masses[k] <= masses[k + 1]


def _oracle_masses(V, tie, weights):
    """The solver oracle's mass of every row of V, the others frozen."""
    problem = SimpleNamespace(gf=SimpleNamespace(tols=SimpleNamespace(tie=tie)))
    out = []
    for i, v in enumerate(V):
        oracle = solver._MassOracle(problem, V, i, None)
        out.append(kernels._win_mass(v, weights, oracle.lo_tie, oracle.hi_best, tie))
    return np.array(out)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       tie=st.sampled_from([0.0, 1e-9, 1e-3]))
@example(seed=0, n=1, tie=1e-3)  # a single piece: no others at all
def test_oracle_wins_the_cells_the_scan_gives(seed, n, tie):
    rng = np.random.default_rng(seed)
    m = 40
    V = rng.normal(size=(n, m))
    for j in range(n):  # planted exact ties, near-tie chains, -inf cells
        src = rng.integers(0, n)
        tied = rng.random(m) < 0.3
        V[j, tied] = V[src, tied]
        near = rng.random(m) < 0.3
        V[j, near] = V[src, near] + tie * rng.uniform(-1.5, 1.5, size=int(near.sum()))
        V[j, rng.random(m) < 0.2] = -np.inf
    V[:, rng.random(m) < 0.15] = -np.inf  # whole -inf columns
    # distinct powers of two: a mass is an exact sum and names its cells
    w = 2.0 ** -np.arange(m)
    _, idx = kernels.scan_rows(V, m, tie)
    want = np.array([np.sum(w[idx == i]) for i in range(n)])
    assert np.array_equal(_oracle_masses(V, tie, w), want)


def test_oracle_follows_a_near_tie_chain():
    # values 0, 0.6 tie and 1.2 tie in index order: the third row beats the
    # first by more than tie and the second never takes over
    tie = 1e-3
    V = np.repeat(np.array([[0.0], [0.6 * tie], [1.2 * tie]]), 4, axis=1)
    assert _oracle_masses(V, tie, np.ones(4)).tolist() == [0.0, 0.0, 4.0]


@pytest.mark.parametrize("name", sorted(_CASES))
def test_kernel_matches_evaluator(name):
    # each tagged closed form against the generating function's own evaluator
    gf = _CASES[name]
    grid = DomainGrid(gf.source_chart, 24)
    xs, w = grid.points, grid.weights
    rng = np.random.default_rng(0)
    xbars = gf.target_chart.sample(5, rng)
    zs = np.array([0.7, 0.8, 0.9, 1.0, 1.1])
    tie = 1e-9
    rows = []
    for xbar, z in zip(xbars, zs):
        v = kernels.piece_values(gf, xs, xbar, z)
        ref = kernels.evaluator_values(gf, xs, xbar, z)
        assert np.array_equal(np.isfinite(v), np.isfinite(ref))
        fin = np.isfinite(ref)
        assert np.max(np.abs(v[fin] - ref[fin]), initial=0.0) < 1e-13
        rows.append(ref)
    _, idx = kernels.envelope_scan(gf, xs, xbars, zs, tie)
    _, ref_idx = kernels.scan_rows(rows, grid.n_cells, tie)
    assert np.array_equal(idx, ref_idx)
    assert np.any(idx >= 0)
    problem = SimpleNamespace(gf=gf, grid=grid, cell_weights=w, targets=xbars)
    for i in range(5):  # each piece against the others frozen, as the solver asks
        mass = solver._MassOracle(problem, np.array(rows), i, None)(zs[i])
        assert abs(mass - np.sum(w[ref_idx == i])) <= 1e-12


def test_generic_fallback_path():
    # untagged generating function goes through the evaluator-driven path
    gf = make_builtin("quasilinear", cost=lambda x, xb: float(np.sum((x - xb) ** 2)))
    assert gf._kernel is None
    grid = DomainGrid(gf.source_chart, 12)
    v = kernels.piece_values(gf, grid.points, np.array([0.1, 0.2]), 0.3)
    assert np.all(np.isfinite(v))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


_ODD_HEIGHTS = np.array([0.0, -0.0, -1.0, 1e-300, 40.0, 1e300, np.inf, -np.inf,
                         np.nan])


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(_CASES)), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 60), scale=st.sampled_from([1.0, 0.0, 1.2, 2.0]))
def test_point_values_equal_the_evaluator_bit_for_bit(name, seed, n, scale):
    # foci on and off the target chart, with zero coordinates and heights
    # that are <= 0, tiny, huge or not finite; points on and off the source
    # chart (scaled by ``scale``, 0 gives the origin)
    gf, grid = _CASES[name], _GRIDS[name]
    rng = np.random.default_rng(seed)
    xbars = gf.target_chart.sample(n, rng)
    off = rng.random(n) < 0.2
    xbars[off] *= rng.uniform(0.5, 2.0, size=(int(off.sum()), 1))
    xbars[rng.random(n) < 0.1, 0] = 0.0
    zs = rng.uniform(-0.5, 3.0, n)
    odd = rng.random(n) < 0.2
    zs[odd] = rng.choice(_ODD_HEIGHTS, size=int(odd.sum()))
    env = Envelope(gf, (xbars, zs), grid)
    for x in gf.source_chart.sample(4, rng):
        for y in (x, scale * x, np.where(rng.random(x.shape[0]) < 0.5, 0.0, x)):
            with np.errstate(all="ignore"):
                ref = kernels.evaluator_values(gf, y, xbars, zs)
            got = env.piece_values_at(y)
            assert np.array_equal(np.isneginf(got), np.isneginf(ref))
            assert np.array_equal(_bits(got), _bits(ref))


def test_point_values_keep_the_sign_of_zero():
    # column products -0.5 * 0.0 and 0.3 * -0.0 are both -0.0; numpy's row
    # sum starts at +0.0, so the evaluator's value at height 0 is +0.0
    gf = _CASES["quasilinear[bilinear]"]
    x, xbars, zs = np.array([-0.5, 0.3]), np.array([[0.0, -0.0]]), np.array([0.0])
    ref = kernels.evaluator_values(gf, x, xbars, zs)
    got = kernels.PointValues(gf, xbars, zs)(x)
    assert _bits(got).tolist() == _bits(ref).tolist() == _bits([0.0]).tolist()


def test_point_source_heights_at_the_guard_agree_on_every_path():
    # heights within a few ulps of 2/|xbar|, where the value's denominator
    # q = 1 - z^2 |xbar|^2 / 4 changes sign: the evaluator, the grid row and
    # the pointwise query admit the same cells
    gf, grid = _CASES["point_source"], _GRIDS["point_source"]
    rng = np.random.default_rng(3)
    foci = gf.target_chart.sample(3000, rng)
    k = np.arange(-3, 4)
    zs = ((2.0 / np.linalg.norm(foci, axis=1))[:, None] * (1.0 + k * 2.2e-16)).ravel()
    xbars = np.repeat(foci, k.size, axis=0)
    ref = np.isfinite([kernels.evaluator_values(gf, grid.points, xb, z)
                       for xb, z in zip(xbars, zs)])
    rows = np.isfinite([kernels.piece_values(gf, grid.points, xb, z)
                        for xb, z in zip(xbars, zs)])
    point = kernels.PointValues(gf, xbars, zs)
    cols = np.isfinite([point(x) for x in grid.points]).T
    assert 0 < ref.any(axis=1).sum() < zs.size  # the probe straddles the guard
    assert np.array_equal(rows, ref)
    assert np.array_equal(cols, ref)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       tie=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_scan_point_equals_the_one_cell_scan(seed, n, tie):
    # near-tie chains, exact ties and -inf entries in random order
    rng = np.random.default_rng(seed)
    vals = rng.choice([0.0, 1.0], size=n) + tie * rng.uniform(-1.5, 1.5, size=n)
    vals[rng.random(n) < 0.2] = vals[rng.integers(0, n)]
    vals[rng.random(n) < 0.2] = -np.inf
    best, idx = kernels.scan_rows(vals[:, None], 1, tie)
    assert kernels.scan_point(vals, tie) == (float(best[0]), int(idx[0]))


# -- value bounds and the narrowed oracle -----------------------------------------

_TAGS = {gf._kernel[0]: gf for gf in _cases()}


def _basis_sample(rng, tag, m):
    """A basis of both signs with planted +-0.0 and cells next to the
    ``ql_neglog`` edge b = 1 - 1e-12; ``minkowski`` gets -inf cells from the
    signs.  ``pb_zero`` gets the squares, b >= +0, the only basis
    ``np_piece_basis`` gives that tag."""
    b = rng.normal(scale=0.8, size=m)
    b[rng.random(m) < 0.1] = 0.0
    b[rng.random(m) < 0.1] = -0.0
    edge = rng.random(m) < 0.1
    b[edge] = 1.0 - 1e-12 * rng.choice([0.5, 1.0, 2.0], size=int(edge.sum()))
    if tag == "pb_zero":  # squared distances, like the tag's basis
        b **= 2
    return b


def _heights(rng, z1, z2, k=8):
    """Heights in [z1, z2]: the endpoints, their inner neighbours and
    random points between them."""
    inner = rng.uniform(z1, z2, size=k)
    return np.clip(np.concatenate(([z1, z2, np.nextafter(z1, np.inf),
                                    np.nextafter(z2, -np.inf)], inner)), z1, z2)


@settings(max_examples=300, deadline=None)
@given(tag=st.sampled_from(sorted(_TAGS)), seed=st.integers(0, 2 ** 32 - 1),
       z1=st.one_of(st.floats(-1.0, 3.0), st.sampled_from([0.0, -0.0, 5e-324])),
       width=st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1e-12])))
def test_value_bounds_enclose_the_kernel(tag, seed, z1, width):
    gf = _TAGS[tag]
    rng = np.random.default_rng(seed)
    _, params = gf._kernel
    b = _basis_sample(rng, tag, 64)
    xbar = gf.target_chart.sample(1, rng)[0]
    t2 = float(np.sum(xbar * xbar))
    z2 = z1 + width if width else z1  # keeps the sign of a zero height
    if tag == "point_source" and rng.random() < 0.3:
        # an endpoint on the guard 0.25 z^2 |xbar|^2 < 1, or just inside it
        z2 = float(2.0 / np.linalg.norm(xbar))
        z2 = z2 if rng.random() < 0.5 else np.nextafter(z2, 0.0)
        z1 = min(z1, z2)
    bounds = kernels.np_value_bounds(tag, params, b, t2, z1, z2)
    if bounds is None:
        assert tag not in ("ql_bilinear", "ql_neglog", "ql_cubic")
        assert not z1 > 0.0 or (tag == "point_source"
                                and not 0.25 * z2 * z2 * t2 < 1.0)
        return
    lo, hi = bounds
    for z in _heights(rng, z1, z2):
        v = kernels.np_basis_values(tag, params, b, t2, float(z))
        assert np.all(lo <= v) and np.all(v <= hi), (tag, z)
    if z1 == z2:  # a single height: the bounds are the kernel's own values
        v = kernels.np_basis_values(tag, params, b, t2, z1)
        assert np.array_equal(_bits(lo), _bits(v))
        assert np.array_equal(_bits(hi), _bits(v))


def _planted_rows(rng, v, n, tie):
    """n frozen rows around the piece row v: copies (exact ties), near-ties
    within 1.5 tie, random values, -inf cells and a -inf row."""
    m = v.shape[0]
    finite = np.isfinite(v)
    centre = np.median(v[finite]) if np.any(finite) else 0.0
    rows = centre + 0.3 * rng.normal(size=(n, m))
    for row in rows:
        kind = rng.integers(0, 4, size=m)
        row[(kind == 0) & finite] = v[(kind == 0) & finite]
        near = (kind == 1) & finite
        row[near] = v[near] + tie * rng.uniform(-1.5, 1.5, size=int(near.sum()))
        row[kind == 2] = -np.inf
    if n > 1:
        rows[rng.integers(0, n)] = -np.inf
    return rows


@settings(max_examples=120, deadline=None)
@given(tag=st.sampled_from(sorted(_TAGS)), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 5), tie=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_narrowed_oracle_mass_is_the_full_mass(tag, seed, n, tie):
    # nested brackets as bisection makes them, calls inside and outside the
    # current bracket, frozen rows planted at the piece's own values
    gf, grid = _TAGS[tag], _GRIDS[_TAGS[tag].name]
    rng = np.random.default_rng(seed)
    xbar = gf.target_chart.sample(1, rng)[0]
    zmax = 3.0
    if tag == "point_source":
        zmax = min(zmax, 1.999 / np.linalg.norm(xbar))
    zmin = -1.0 if tag.startswith("ql_") else (-0.2 if rng.random() < 0.2 else 0.0)
    a, b = np.sort(rng.uniform(zmin, zmax, size=2))
    basis = kernels.piece_basis(gf, grid.points, xbar)
    v = kernels.piece_values(gf, grid.points, xbar, 0.5 * (a + b), basis=basis)
    i = int(rng.integers(0, n))
    V = _planted_rows(rng, v, n, tie)
    w = 2.0 ** -np.arange(grid.n_cells)  # a mass names its cells
    problem = SimpleNamespace(gf=gf, grid=grid, cell_weights=w,
                              targets=np.repeat(xbar[None, :], n, axis=0))
    oracle = solver._MassOracle(problem, V, i, basis)
    full = solver._MassOracle(problem, V, i, basis)
    for _ in range(12):
        oracle.narrow(a, b)
        for z in (0.5 * (a + b), a, b, rng.uniform(zmin, zmax)):
            assert oracle(z) == full(z), (z, a, b)
        mid = 0.5 * (a + b)
        a, b = (a, mid) if rng.random() < 0.5 else (mid, b)
        if rng.random() < 0.5:
            a, b = b, a  # brackets come in either order
    assert full.split is None


def _scan_masked_write(rows, m, tie):
    """The chained scan with the index written as ``idx[take] = i``."""
    best, idx = np.full(m, -np.inf), np.full(m, -1, dtype=np.int64)
    for i, v in enumerate(rows):
        take = v > best + tie
        np.copyto(best, v, where=take)
        idx[take] = i
    return best, idx


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), m=st.integers(1, 70),
       tie=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_scan_rows_index_copy_is_the_masked_write(seed, n, m, tie):
    # exact ties, ties within tie, -inf cells and a -inf row
    rng = np.random.default_rng(seed)
    V = _planted_rows(rng, rng.normal(size=m), n, tie)
    best, idx = kernels.scan_rows(V, m, tie)
    ref_best, ref_idx = _scan_masked_write(V, m, tie)
    assert np.array_equal(best, ref_best) and np.array_equal(idx, ref_idx)
    assert idx.dtype == ref_idx.dtype


def _scan_by_hand(V, m, tie):
    best, idx = [-np.inf] * m, [-1] * m
    for i, row in enumerate(V):
        for c in range(m):
            if row[c] > best[c] + tie:
                best[c], idx[c] = row[c], i
    return np.array(best), np.array(idx)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 7),
       tie=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_scan_chain_is_the_scan_of_every_prefix(seed, n, tie):
    # the chain a sweep carries, one row at a time, against a cell-by-cell
    # scan and scan_rows of every prefix; the max of the rows after i
    rng = np.random.default_rng(seed)
    m = 30
    V = _planted_rows(rng, rng.normal(size=m), n, tie)
    chain = kernels.ScanChain(m, tie)
    for i in range(n + 1):
        best, idx = _scan_by_hand(V[:i], m, tie)
        assert np.array_equal(chain.best, best) and np.array_equal(chain.idx, idx)
        assert all(np.array_equal(a, b) for a, b in
                   zip(kernels.scan_rows(V[:i], m, tie), (best, idx)))
        if i < n:
            assert np.array_equal(solver._rows_after(V, i),
                                  np.max(V[i + 1:], axis=0, initial=-np.inf))
            chain.push(V[i])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3), m=st.integers(1, 400),
       scale=st.sampled_from([1e-8, 1.0, 1e8]))
def test_pb_zero_column_basis_is_the_row_sum(seed, d, m, scale):
    # (x0 - f0)^2 + (x1 - f1)^2 + ... in column passes is numpy's row sum
    # bit for bit, zero rows and signed zeros included
    rng = np.random.default_rng(seed)
    xs = scale * rng.normal(size=(m, d))
    xbar = scale * rng.normal(size=d)
    xs[rng.random(m) < 0.2] = xbar
    xs[rng.random((m, d)) < 0.1] = -0.0
    expect = np.sum((xs - xbar) ** 2, axis=1)
    got = kernels.np_piece_basis("pb_zero", xs, xbar)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


# -- the tiled scan ----------------------------------------------------------------


def _loop_scan(gf, xs, xbars, zs, tie):
    """The per-piece scan: ``scan_rows`` over every piece's own row."""
    rows = (kernels._row(gf, gf._kernel, xs, xbar, z) for xbar, z in zip(xbars, zs))
    return kernels.scan_rows(rows, xs.shape[0], tie)


def _assert_same_scan(got, want):
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("name", ["engulfing_env", "parab_env", "calibration_envelope",
                                  "ball_env"])
def test_dense_bilinear_envelopes_scan_as_the_per_piece_loop(name, request):
    # the session envelopes were scanned by envelope_scan on the tiled path;
    # each parab_env cell inside the focus lattice's box is equidistant from
    # four lattice foci, an exact tie
    env = request.getfixturevalue(name)
    assert env.gf._kernel[0] == "ql_bilinear"
    assert env.n_pieces >= kernels._TILED_MIN_PIECES
    want = _loop_scan(env.gf, env.grid.points, env.xbars, env.zs, env.tols.tie)
    _assert_same_scan((env.grid_values(), env.cell_indices()), want)
    if name == "parab_env":
        inside = np.all(np.abs(env.grid.coords) < 0.4, axis=1)
        assert all(len(env.eval(x)[1]) == 4 for x in env.grid.points[inside][::97])


@pytest.mark.parametrize("thinned", [False, True])
def test_dense_cubic_envelopes_scan_as_the_per_piece_loop(violator_env, thinned):
    # the full violator sends cells to scan_point over all rows; the thinned
    # copy keeps every other focus along each axis, as the benchmark does
    env = violator_env
    if thinned:
        keep = np.all(np.rint(env.xbars * 75).astype(np.int64) % 2 == 0, axis=1)
        env = Envelope(env.gf, (env.xbars[keep], env.zs[keep]), env.grid)
    assert env.gf._kernel == ("ql_cubic", (12.0,))
    assert env.n_pieces >= kernels._TILED_MIN_PIECES
    xs, tie = env.grid.points, env.tols.tie
    assert kernels._tiled_scan(env.gf._kernel, xs, env.xbars, env.zs, tie) is not None
    want = _loop_scan(env.gf, xs, env.xbars, env.zs, tie)
    _assert_same_scan((env.grid_values(), env.cell_indices()), want)


_QL = make_builtin("quasilinear")


def _tiled_case(rng, shape, lattice, n_dup, n_stair, lone_cell, tie, gf=_QL):
    """Cells of an r0 x r1 grid at spacing h, the lone cell far out when
    asked (a tile of its own), and at least _TILED_MIN_PIECES pieces,
    bilinear heights: random, or tangent to |x|^2 / 2 on a focus lattice of
    spacing h / 3, which puts every grid cell inside the lattice's box
    midway between four foci (an exact bilinear tie); then copies of
    random pieces, and near-tie staircases on pieces that win a cell under
    ``gf``'s closed form: heights z - 0.6 tie and z - 1.2 tie after z, the
    chain (0, 0.6 tie, 1.2 tie) whose cell the scan runs over all rows."""
    h = 0.1
    a0 = (np.arange(shape[0]) - shape[0] // 2 + 0.5) * h
    a1 = (np.arange(shape[1]) - shape[1] // 2 + 0.5) * h
    P, Q = np.meshgrid(a0, a1, indexing="ij")
    xs = np.stack([P.ravel(), Q.ravel()], axis=1)
    if lone_cell:
        xs = np.concatenate((xs, [[25.0 * h, 30.5 * h]]))
    if lattice:
        ax = np.arange(-21, 22) * (h / 3)
        P, Q = np.meshgrid(ax, ax, indexing="ij")
        xbars = np.stack([P.ravel(), Q.ravel()], axis=1)
        zs = 0.5 * np.sum(xbars ** 2, axis=1)
    else:
        xbars = rng.uniform(-1.0, 1.0, size=(kernels._TILED_MIN_PIECES, 2))
        zs = 0.5 * np.sum(xbars ** 2, axis=1) + rng.uniform(0.0, 0.05, size=xbars.shape[0])
    order = rng.permutation(xbars.shape[0])
    xbars, zs = xbars[order], zs[order]
    dup = rng.integers(0, xbars.shape[0], size=n_dup)
    tag, params = gf._kernel
    values = kernels.np_basis_values(tag, params, xs @ xbars.T, None, zs)
    win = np.argmax(values, axis=1)[rng.integers(0, xs.shape[0], size=n_stair)]
    stair_x = np.repeat(xbars[win], 2, axis=0)
    stair_z = np.repeat(zs[win], 2) - np.tile([0.6 * tie, 1.2 * tie], n_stair)
    return (xs, np.concatenate((xbars, xbars[dup], stair_x)),
            np.concatenate((zs, zs[dup], stair_z)))


@settings(max_examples=30, deadline=None)
@example(seed=0, shape=(9, 9), lattice=True, n_dup=0, n_stair=0, lone_cell=True, tie=1e-9)
@example(seed=1, shape=(12, 7), lattice=False, n_dup=40, n_stair=30, lone_cell=True,
         tie=1e-9)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.tuples(st.integers(1, 20), st.integers(1, 20)), lattice=st.booleans(),
       n_dup=st.integers(0, 60), n_stair=st.integers(0, 30), lone_cell=st.booleans(),
       tie=st.sampled_from([1e-9, 1e-3]))
def test_tiled_bilinear_scan_is_the_per_piece_scan(seed, shape, lattice, n_dup, n_stair,
                                                   lone_cell, tie):
    # one tie rule everywhere: duplicated pieces, near-tie staircases,
    # exact ties in every cell and a one-cell tile
    assume(shape[0] * shape[1] + lone_cell >= 2)
    rng = np.random.default_rng(seed)
    xs, xbars, zs = _tiled_case(rng, shape, lattice, n_dup, n_stair, lone_cell, tie)
    if lone_cell and xs.shape[0] > kernels._TILE:
        assert min(t.size for t in kernels._cell_tiles(xs)) == 1
    want = _loop_scan(_QL, xs, xbars, zs, tie)
    got = kernels._tiled_scan(_QL._kernel, xs, xbars, zs, tie)
    assert got is not None
    _assert_same_scan(got, want)
    _assert_same_scan(kernels.envelope_scan(_QL, xs, xbars, zs, tie), want)


@settings(max_examples=30, deadline=None)
@example(seed=0, shape=(9, 9), lattice=True, n_dup=0, n_stair=0, lone_cell=True, eps=0.0,
         tie=1e-9)
@example(seed=1, shape=(12, 7), lattice=False, n_dup=40, n_stair=30, lone_cell=True,
         eps=12.0, tie=1e-3)
@example(seed=2, shape=(20, 20), lattice=False, n_dup=60, n_stair=30, lone_cell=True,
         eps=12.0, tie=1e-9)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.tuples(st.integers(1, 20), st.integers(1, 20)), lattice=st.booleans(),
       n_dup=st.integers(0, 60), n_stair=st.integers(0, 30), lone_cell=st.booleans(),
       eps=st.sampled_from([0.0, 2.0, 12.0]), tie=st.sampled_from([1e-9, 1e-3]))
def test_tiled_cubic_scan_is_the_per_piece_scan(seed, shape, lattice, n_dup, n_stair,
                                                lone_cell, eps, tie):
    # the bilinear property's cases under f(b) = b + eps b^3; eps = 0 keeps
    # the lattice's exact ties, and the far lone cell at eps = 12 puts E past
    # tie / 4 for tie = 1e-9, where the tiled path declines
    assume(shape[0] * shape[1] + lone_cell >= 2)
    gf = violator_genfun(eps=eps)
    rng = np.random.default_rng(seed)
    xs, xbars, zs = _tiled_case(rng, shape, lattice, n_dup, n_stair, lone_cell, tie, gf)
    want = _loop_scan(gf, xs, xbars, zs, tie)
    got = kernels._tiled_scan(gf._kernel, xs, xbars, zs, tie)
    if kernels._rounding_bound(gf._kernel, xs, xbars, zs) <= tie / 4:
        _assert_same_scan(got, want)
    else:
        assert got is None
    _assert_same_scan(kernels.envelope_scan(gf, xs, xbars, zs, tie), want)


@pytest.mark.parametrize("eps", [0.0, 2.0, 12.0])
def test_cubic_tile_gap_bounds_the_gap_over_the_box(eps):
    # the bound is at least v_p - v_w at every point of the box; the first
    # box is a segment on which x . (xbar_1 - xbar_0) is -0.4 throughout and
    # the leader's basis runs over [-0.4, 0.6], so the gap peaks at the
    # vertex b = 0.2, inside the range, not at its ends
    kernel = ("ql_cubic", (eps,))
    rng = np.random.default_rng(9)
    cases = [(np.array([1.0, -1.0]), np.array([1.0, 1.0]),
              np.array([[0.1, 0.5], [-0.3, 0.5]]), np.zeros(2))]
    for _ in range(20):
        ends = np.sort(rng.uniform(-1.0, 1.0, size=(2, 2)), axis=0)
        cases.append((ends[0], ends[1], rng.uniform(-1.0, 1.0, size=(50, 2)),
                      rng.uniform(-0.1, 0.1, size=50)))
    for lo, hi, xbars, zs in cases:
        t = np.linspace(0.0, 1.0, 41)
        P, Q = np.meshgrid(lo[0] + t * (hi[0] - lo[0]), lo[1] + t * (hi[1] - lo[1]))
        b = np.stack([P.ravel(), Q.ravel()], axis=1) @ xbars.T
        v = b + eps * b ** 3 - zs
        gap = kernels._tile_gap(kernel, lo, hi, np.ascontiguousarray(xbars.T), 0, zs,
                                np.empty((5, zs.size)))
        assert np.all(gap >= np.max(v - v[:, :1], axis=0) - 1e-12)


def test_tiles_too_big_to_evaluate_run_the_full_chain(monkeypatch):
    # a survivors x cells block over the cap sends each of the tile's cells
    # to scan_point over every row, the chain over all rows on that cell
    for gf in (_QL, violator_genfun(eps=2.0)):
        rng = np.random.default_rng(5)
        xs, xbars, zs = _tiled_case(rng, (16, 11), False, 20, 10, True, 1e-9, gf)
        want = _loop_scan(gf, xs, xbars, zs, 1e-9)
        for block in (1, 3000):
            monkeypatch.setattr(kernels, "_BLOCK", block)
            _assert_same_scan(kernels._tiled_scan(gf._kernel, xs, xbars, zs, 1e-9), want)


def test_tiled_scan_needs_finite_inputs_and_a_fine_rounding_bound():
    # culling is sound only while the rounding bound E is at most tie / 4
    for gf in (_QL, violator_genfun(eps=2.0)):
        rng = np.random.default_rng(6)
        xs, xbars, zs = _tiled_case(rng, (10, 10), False, 0, 0, False, 1e-9, gf)
        assert kernels._tiled_scan(gf._kernel, xs, xbars, zs, 1e-9) is not None
        far = zs + 1e8  # E about 4e-7
        inf = zs.copy()
        inf[7] = np.inf
        for heights in (far, inf):
            assert kernels._tiled_scan(gf._kernel, xs, xbars, heights, 1e-9) is None
            _assert_same_scan(kernels.envelope_scan(gf, xs, xbars, heights, 1e-9),
                              _loop_scan(gf, xs, xbars, heights, 1e-9))


@pytest.mark.parametrize("tie", [1e-9, 1e-3])
def test_cubic_rounding_bound_at_its_threshold(tie):
    # the cubic E = 4 (d + 3) eps (Y + eps Y^3 + Z), Y = 3 d X Xbar, from
    # the largest |x_k|, |xbar_k| and |z|: heights whose largest |z| puts E
    # just past tie / 4, or a focus far out, decline the tiled path; heights
    # just under it scan as the loop, as does every declined case
    eps, d = 12.0, 2
    gf = violator_genfun(eps=eps)
    rng = np.random.default_rng(8)
    xs, xbars, zs = _tiled_case(rng, (14, 12), False, 30, 20, False, tie, gf)
    y = 3 * d * np.max(np.abs(xs)) * np.max(np.abs(xbars))
    z_max = tie / (16 * (d + 3) * np.finfo(float).eps) - (y + eps * y ** 3)
    assert z_max > 10 * np.max(np.abs(zs))
    out = xbars.copy()
    out[3] = [1e4, 0.0]
    inf = zs.copy()
    inf[5] = np.inf
    for foci, heights, tiles in [(xbars, zs + 0.999 * z_max, True),
                                 (xbars, zs + 1.001 * z_max, False),
                                 (out, zs, False), (xbars, inf, False)]:
        want = _loop_scan(gf, xs, foci, heights, tie)
        got = kernels._tiled_scan(gf._kernel, xs, foci, heights, tie)
        if tiles:
            _assert_same_scan(got, want)
        else:
            assert got is None
        _assert_same_scan(kernels.envelope_scan(gf, xs, foci, heights, tie), want)


def test_bilinear_and_increasing_cubic_envelopes_take_the_tiled_path(monkeypatch):
    # a cubic with eps < 0 decreases somewhere, so its gap bound fails; the
    # other closed forms have no tile bound yet
    calls = []
    tiled = kernels._tiled_scan
    monkeypatch.setattr(kernels, "_tiled_scan",
                        lambda *a: calls.append(a[0][0]) or tiled(*a))
    rng = np.random.default_rng(7)
    xs, xbars, zs = _tiled_case(rng, (8, 8), False, 0, 0, False, 1e-9)
    n = kernels._TILED_MIN_PIECES
    untagged = make_builtin("quasilinear", cost=lambda x, xb: float(np.sum((x - xb) ** 2)))
    assert untagged._kernel is None
    kernels.envelope_scan(_QL, xs, xbars[:n - 1], zs[:n - 1], 1e-9)
    kernels.envelope_scan(_QL, xs[:1], xbars, zs, 1e-9)
    kernels.envelope_scan(violator_genfun(eps=12.0), xs[:1], xbars, zs, 1e-9)
    kernels.envelope_scan(violator_genfun(eps=-2.0), xs, xbars, zs, 1e-9)
    kernels.envelope_scan(untagged, xs, xbars, zs, 1e-9)
    for gf in _CASES.values():
        if gf._kernel[0] not in ("ql_bilinear", "ql_cubic"):
            foci = gf.target_chart.sample(n, rng)
            kernels.envelope_scan(gf, gf.source_chart.sample(64, rng), foci,
                                  rng.uniform(0.6, 0.8, size=n), 1e-9)
    assert calls == []
    kernels.envelope_scan(_QL, xs, xbars, zs, 1e-9)
    kernels.envelope_scan(violator_genfun(eps=0.0), xs, xbars, zs, 1e-9)
    kernels.envelope_scan(violator_genfun(eps=12.0), xs, xbars, zs, 1e-9)
    assert calls == ["ql_bilinear", "ql_cubic", "ql_cubic"]
