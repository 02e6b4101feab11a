import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gjekit import kernels, solver
from gjekit.builtins import make_builtin
from gjekit.charts import BoxChart
from gjekit.demos import violator_genfun
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


def _others(rng, v, n, tie):
    """Others' best (value, index) for one piece with values ``v``.

    Random values near ``v``, with planted exact ties, ties within ``tie``,
    -inf cells and random owners (``n`` marks an empty column).
    """
    m = v.shape[0]
    finite = np.isfinite(v)
    centre = np.median(v[finite]) if np.any(finite) else 0.0
    other_val = centre + rng.normal(size=m)
    kind = rng.integers(0, 5, size=m)
    other_val[(kind == 0) & finite] = v[(kind == 0) & finite]
    near = (kind == 1) & finite
    other_val[near] = v[near] + tie * rng.uniform(-1.5, 1.5, size=int(near.sum()))
    other_val[kind == 2] = -np.inf
    other_idx = rng.integers(0, n + 1, size=m)
    other_idx[kind == 2] = n
    return other_val, other_idx


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_CASES)), seed=st.integers(0, 2 ** 32 - 1),
       z=st.floats(-1.0, 3.0), i=st.integers(0, 4),
       tie=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_cached_piece_mass_is_bit_identical(name, seed, z, i, tie):
    gf, grid = _CASES[name], _GRIDS[name]
    rng = np.random.default_rng(seed)
    xbar = gf.target_chart.sample(1, rng)[0]
    tag, params = kernels.kernel_tag(gf)
    xs, w = grid.points, grid.weights
    v = kernels.np_piece_values(tag, params, xs, xbar, z)
    other_val, other_idx = _others(rng, v, 5, tie)
    ref = kernels.np_piece_mass(tag, params, xs, w, other_val, other_idx,
                                i, xbar, z, tie)
    basis = kernels.piece_basis(gf, xs, xbar)
    cached = kernels.piece_mass(gf, xs, w, other_val, other_idx, i, xbar, z, tie,
                                basis=basis, other_tie=other_val + tie,
                                lower=i < other_idx)
    assert cached == ref
    again = kernels.piece_values(gf, xs, xbar, z, basis=basis)
    assert np.array_equal(again, v)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       index=st.integers(0, 5))
@example(seed=0, n=1, index=0)  # a single target: no others at all
def test_others_best_matches_max_argmax(seed, n, index):
    index %= n
    rng = np.random.default_rng(seed)
    m = 40
    values = rng.normal(size=(n, m))
    for j in range(n):  # planted exact ties between rows, -inf cells
        src = rng.integers(0, n)
        tied = rng.random(m) < 0.3
        values[j, tied] = values[src, tied]
        values[j, rng.random(m) < 0.2] = -np.inf
    values[:, rng.random(m) < 0.15] = -np.inf  # whole -inf columns
    other = values.copy()
    other[index] = -np.inf
    ref_val = np.max(other, axis=0)
    ref_idx = np.argmax(other, axis=0)
    ref_idx[~np.isfinite(ref_val)] = n
    best, idx = solver._others_best(values, index)
    assert np.array_equal(best, ref_val)
    assert np.array_equal(idx, ref_idx)


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
    for i in range(5):  # each piece against the others' best, as the solver asks
        other_val, other_idx = solver._others_best(np.array(rows), i)
        mass = kernels.piece_mass(gf, xs, w, other_val, other_idx, i, xbars[i],
                                  zs[i], tie)
        ref = kernels._win_mass(rows[i], w, other_val, other_idx, i, tie)
        assert abs(mass - ref) <= 1e-12


def test_generic_fallback_path():
    # untagged generating function goes through the evaluator-driven path
    gf = make_builtin("quasilinear", cost=lambda x, xb: float(np.sum((x - xb) ** 2)))
    tag, _ = kernels.kernel_tag(gf)
    assert tag is None
    grid = DomainGrid(gf.source_chart, 12)
    v = kernels.piece_values(gf, grid.points, np.array([0.1, 0.2]), 0.3)
    assert np.all(np.isfinite(v))
