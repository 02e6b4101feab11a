from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gjekit import kernels, solver
from gjekit.builtins import make_builtin
from gjekit.charts import BoxChart
from gjekit.demos import violator_genfun
from gjekit.gconvex import Envelope
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
        tag, _ = kernels.kernel_tag(gf)
        assert tag == kind
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
    tag, params = kernels.kernel_tag(gf)
    xs, w = grid.points, grid.weights
    v = kernels.np_piece_values(tag, params, xs, xbar, z)
    lo_tie, hi_best = _near(rng, v, tie) + tie, _near(rng, v, tie)
    ref = kernels.np_piece_mass(tag, params, xs, w, lo_tie, hi_best, xbar, z, tie)
    basis = kernels.piece_basis(gf, xs, xbar)
    cached = kernels.piece_mass(gf, xs, w, lo_tie, hi_best, xbar, z, tie,
                                basis=basis)
    assert cached == ref
    again = kernels.piece_values(gf, xs, xbar, z, basis=basis)
    assert np.array_equal(again, v)


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
    tag, _ = kernels.kernel_tag(gf)
    assert tag is None
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
