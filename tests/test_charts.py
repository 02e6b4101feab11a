import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjekit.charts import (BoxChart, PlaneChart, SphereChart,
                           chart_from_descriptor)
from gjekit.errors import ConfigError


def test_box_roundtrip():
    ch = BoxChart((-1, -2), (3, 4))
    pts = np.array([[0.0, 0.5], [2.0, -1.0]])
    assert np.allclose(ch.coords(ch.embed(pts)), pts)
    assert ch.contains(np.array([0.0, 0.0]))
    assert not ch.contains(np.array([5.0, 0.0]))


def test_box_bad_bounds():
    with pytest.raises(ConfigError):
        BoxChart((1, 0), (0, 1))


def test_plane_embed():
    ch = PlaneChart((-1, -1), (1, 1), height=-2.0)
    x = ch.embed(np.array([[0.25, -0.5]]))
    assert np.allclose(x, [[0.25, -0.5, -2.0]])
    assert ch.contains(x[0])
    assert not ch.contains(np.array([0.25, -0.5, 0.0]))


def test_sphere_roundtrip_and_cap():
    ch = SphereChart(pole=(0, 0, 1), cap_deg=45)
    rng = np.random.default_rng(0)
    pts = ch.sample(100, rng)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.all(ch.contains(pts))
    back = ch.embed(ch.coords(pts))
    assert np.allclose(back, pts, atol=1e-12)
    # outside the cap
    equator = np.array([1.0, 0.0, 0.0])
    assert not ch.contains(equator)


@pytest.mark.parametrize("chart", [
    BoxChart((-1, -1), (1, 1)),
    PlaneChart((-1, -1), (1, 1), height=1.5),
    SphereChart(pole=(0.3, -0.2, 0.9), cap_deg=50),
])
def test_jacobian_matches_finite_differences(chart):
    rng = np.random.default_rng(1)
    c = chart.coords(chart.sample(5, rng)) * 0.7
    J = chart.jacobian(c)
    h = 1e-6
    for d in range(chart.dim):
        cp = c.copy(); cp[:, d] += h
        cm = c.copy(); cm[:, d] -= h
        fd = (chart.embed(cp) - chart.embed(cm)) / (2 * h)
        assert np.allclose(J[:, :, d], fd, atol=1e-8)


def test_sphere_hessian_matches_finite_differences():
    ch = SphereChart(cap_deg=60)
    c = np.array([[0.2, -0.3]])
    H = ch.hessian(c)
    h = 1e-5
    for i in range(2):
        for j in range(2):
            cpp = c.copy(); cpp[0, i] += h; cpp[0, j] += h
            cpm = c.copy(); cpm[0, i] += h; cpm[0, j] -= h
            cmp_ = c.copy(); cmp_[0, i] -= h; cmp_[0, j] += h
            cmm = c.copy(); cmm[0, i] -= h; cmm[0, j] -= h
            fd = (ch.embed(cpp) - ch.embed(cpm) - ch.embed(cmp_) + ch.embed(cmm)) / (4 * h * h)
            assert np.allclose(H[0, :, i, j], fd[0], atol=1e-6)


def test_sphere_measure_density():
    # orthographic area element is 1/w with w = sqrt(1 - |c|^2)
    ch = SphereChart(cap_deg=60)
    c = np.array([[0.3, 0.4]])
    w = np.sqrt(1 - 0.25)
    assert np.isclose(ch.measure_density(c)[0], 1 / w)
    # integrating over the cap recovers the spherical cap area 2 pi (1 - cos)
    from gjekit.grids import DomainGrid
    grid = DomainGrid(ch, 400)
    area = grid.weights.sum()
    assert np.isclose(area, 2 * np.pi * (1 - np.cos(np.radians(60))), rtol=2e-3)


def test_descriptor_roundtrip():
    for ch in [BoxChart((-1, 0), (2, 3)), PlaneChart((-1, -1), (1, 1), -1.0),
               SphereChart((0, 0, 1), 40)]:
        ch2 = chart_from_descriptor(ch.descriptor())
        assert type(ch2) is type(ch)
        assert np.allclose(ch2.lo, ch.lo) and np.allclose(ch2.hi, ch.hi)


@settings(max_examples=40, deadline=None)
@given(pole=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda p: np.linalg.norm(p) > 0.1),
       cap=st.floats(5.0, 80.0), seed=st.integers(0, 2 ** 32 - 1),
       copies=st.sampled_from([2, 17, 1001]))
def test_sphere_contains_and_coords_do_not_depend_on_the_batch(pole, cap, seed, copies):
    ch = SphereChart(pole=pole, cap_deg=cap)
    rng = np.random.default_rng(seed)
    # points within a few ulps of the cap test, where a rounding difference
    # between two batch sizes flips the mask
    d = ch.cos_cap - 1e-11 + rng.uniform(-4e-16, 4e-16, 64)
    theta = rng.uniform(0.0, 2 * np.pi, 64)
    pts = (d[:, None] * ch.pole + np.sqrt(1.0 - d * d)[:, None]
           * (np.cos(theta)[:, None] * ch.e1 + np.sin(theta)[:, None] * ch.e2))
    inside, coords = ch.contains(pts), ch.coords(pts)
    for i, x in enumerate(pts):
        assert ch.contains(x) == inside[i]
        assert np.array_equal(ch.coords(x), coords[i])
        many = np.repeat(x[None], copies, axis=0)
        assert np.all(ch.contains(many) == inside[i])
        assert np.array_equal(ch.coords(many), np.repeat(coords[i][None], copies, axis=0))


@settings(max_examples=60, deadline=None)
@given(pole=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda p: np.linalg.norm(p) > 0.1),
       cap=st.floats(5.0, 80.0), seed=st.integers(0, 2 ** 32 - 1),
       m=st.integers(1, 300))
def test_sphere_embed_is_the_broadcast_formula(pole, cap, seed, m):
    # the column-by-column embedding against the broadcast one, bit for bit,
    # past the unit disc (w clipped to 0) and at signed zeros too
    ch = SphereChart(pole=pole, cap_deg=cap)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.1, 1.1, (m, 2))
    c[rng.random((m, 2)) < 0.1] = -0.0
    w = np.sqrt(np.clip(1.0 - np.sum(c * c, axis=1), 0.0, None))
    expect = c[:, 0:1] * ch.e1 + c[:, 1:2] * ch.e2 + w[:, None] * ch.pole
    got = ch.embed(c)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    assert np.array_equal(ch.embed(c[0]), expect[:1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 300),
       cap=st.floats(5.0, 80.0))
def test_sphere_clip_is_the_norm_form_bit_for_bit(seed, m, cap):
    # the column-sum radius against np.linalg.norm over the row, on rows
    # inside and beyond rmax, batched and single
    ch = SphereChart(pole=(0.3, -0.2, 0.9), cap_deg=cap)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(m, 2)) * ch.chart_radius * rng.uniform(0.0, 1.5, size=(m, 1))
    c[0] *= 1.5 * ch.chart_radius / np.linalg.norm(c[0])
    rmax = ch.chart_radius * (1.0 - 1e-9)
    for rows in (c, c[0], c[-1]):
        r = np.linalg.norm(rows, axis=-1, keepdims=True)
        want = rows * np.where(r > rmax, rmax / np.maximum(r, 1e-300), 1.0)
        got = ch.clip(rows)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
