import os
import subprocess
import sys

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


@pytest.mark.parametrize("gf", _cases(), ids=lambda g: g.name)
def test_numba_and_numpy_paths_agree(gf):
    rng = np.random.default_rng(0)
    grid = DomainGrid(gf.source_chart, 24)
    xbars = gf.target_chart.sample(5, rng)
    zs = np.array([0.7, 0.8, 0.9, 1.0, 1.1])
    tie = 1e-9
    for i in range(5):
        v1 = kernels.piece_values(gf, grid.points, xbars[i], zs[i], use_numba=True)
        v2 = kernels.piece_values(gf, grid.points, xbars[i], zs[i], use_numba=False)
        both = np.isfinite(v1) & np.isfinite(v2)
        assert np.array_equal(np.isfinite(v1), np.isfinite(v2))
        assert np.max(np.abs(v1[both] - v2[both]), initial=0.0) < 1e-14
    b1, i1 = kernels.envelope_scan(gf, grid.points, xbars, zs, tie, use_numba=True)
    b2, i2 = kernels.envelope_scan(gf, grid.points, xbars, zs, tie, use_numba=False)
    covered = i2 >= 0
    assert np.array_equal(i1, i2)
    assert np.max(np.abs(b1[covered] - b2[covered]), initial=0.0) < 1e-14
    if np.any(covered):
        w = grid.weights
        m1 = kernels.piece_mass(gf, grid.points, w, b2, i2, 0, xbars[0], zs[0],
                                tie, use_numba=True)
        m2 = kernels.piece_mass(gf, grid.points, w, b2, i2, 0, xbars[0], zs[0],
                                tie, use_numba=False)
        assert np.isclose(m1, m2, rtol=0, atol=1e-12)


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
                                use_numba=False, basis=basis,
                                other_tie=other_val + tie, lower=i < other_idx)
    assert cached == ref
    again = kernels.piece_values(gf, xs, xbar, z, use_numba=False, basis=basis)
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


def test_kernel_matches_evaluator():
    gf = make_builtin("point_source")
    grid = DomainGrid(gf.source_chart, 32)
    rng = np.random.default_rng(1)
    xb = gf.target_chart.sample(1, rng)[0]
    z = 0.8
    v = kernels.piece_values(gf, grid.points, xb, z)
    m = grid.n_cells
    ref = gf.value(grid.points, np.broadcast_to(xb, (m, 3)).copy(),
                   np.full(m, z), check=False)
    assert np.max(np.abs(v - ref)) < 1e-13


def test_generic_fallback_path():
    # untagged generating function goes through the evaluator-driven path
    gf = make_builtin("quasilinear", cost=lambda x, xb: float(np.sum((x - xb) ** 2)))
    tag, _ = kernels.kernel_tag(gf)
    assert tag is None
    grid = DomainGrid(gf.source_chart, 12)
    v = kernels.piece_values(gf, grid.points, np.array([0.1, 0.2]), 0.3)
    assert np.all(np.isfinite(v))


def test_env_flag_disables_numba():
    code = (
        "import os; os.environ['GJEKIT_NO_NUMBA'] = '1';\n"
        "from gjekit import kernels\n"
        "assert kernels.NUMBA_ENABLED is False\n"
        "import numpy as np\n"
        "from gjekit.builtins import make_builtin\n"
        "from gjekit.grids import DomainGrid\n"
        "gf = make_builtin('quasilinear')\n"
        "g = DomainGrid(gf.source_chart, 8)\n"
        "v = kernels.piece_values(gf, g.points, np.array([0.1, 0.2]), 0.3)\n"
        "assert np.all(np.isfinite(v))\n"
        "print('numpy-path-ok')\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "GJEKIT_NO_NUMBA": "1"})
    assert res.returncode == 0, res.stderr
    assert "numpy-path-ok" in res.stdout
