"""Coordinate charts for source and target domains.

All linear algebra in the toolkit happens in flat chart coordinates.  Three
chart kinds cover the shipped problems:

* ``BoxChart``     -- an axis-aligned box in R^n, embedding = identity.
* ``PlaneChart``   -- a box in R^2 embedded as the horizontal plane
                      {x3 = height} in R^3 (flat reflector targets).
* ``SphereChart``  -- an orthographic chart of the unit sphere about a
                      configurable pole, valid up to polar angle 80 deg.
                      Points are stored as embedded unit vectors in R^3;
                      chart coordinates are the tangent-plane projections.

Every method is vectorized over a leading batch axis: points are
``(m, embdim)`` arrays, chart coordinates ``(m, dim)`` arrays.
"""

import numpy as np

from .errors import ConfigError

# hard validity limit of the orthographic sphere chart
_MAX_POLAR_DEG = 80.0


def _as_batch(a, width):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        if a.shape[0] != width:
            raise ValueError(f"expected point of length {width}, got {a.shape}")
        return a[None, :], True
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"expected (m, {width}) array, got {a.shape}")
    return a, False


class BoxChart:
    """Axis-aligned box [lo, hi] in R^n; chart coords are the coords."""

    kind = "box"

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise ConfigError("box bounds must satisfy lo < hi componentwise")
        self.dim = self.lo.shape[0]
        self.embdim = self.dim

    def embed(self, c):
        return np.asarray(c, dtype=float)

    def coords(self, x):
        return np.asarray(x, dtype=float)

    def jacobian(self, c):
        c = np.atleast_2d(c)
        return np.broadcast_to(np.eye(self.dim), (c.shape[0], self.dim, self.dim)).copy()

    def hessian(self, c):
        c = np.atleast_2d(c)
        return np.zeros((c.shape[0], self.embdim, self.dim, self.dim))

    def measure_density(self, c):
        c = np.atleast_2d(c)
        return np.ones(c.shape[0])

    def contains(self, x, slack=0.0):
        x, single = _as_batch(x, self.embdim)
        ok = np.all((x >= self.lo - slack) & (x <= self.hi + slack), axis=1)
        return bool(ok[0]) if single else ok

    def clip(self, c):
        return np.clip(c, self.lo, self.hi)

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def sample(self, n, rng):
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def descriptor(self):
        return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


class PlaneChart(BoxChart):
    """Box in R^2 embedded as the plane {x3 = height} in R^3."""

    kind = "plane"

    def __init__(self, lo, hi, height):
        super().__init__(lo, hi)
        if self.dim != 2:
            raise ConfigError("PlaneChart requires 2-d bounds")
        self.height = float(height)
        self.embdim = 3

    def embed(self, c):
        c = np.atleast_2d(np.asarray(c, dtype=float))
        out = np.empty((c.shape[0], 3))
        out[:, :2] = c
        out[:, 2] = self.height
        return out

    def coords(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., :2]

    def jacobian(self, c):
        c = np.atleast_2d(c)
        J = np.zeros((c.shape[0], 3, 2))
        J[:, 0, 0] = 1.0
        J[:, 1, 1] = 1.0
        return J

    def hessian(self, c):
        c = np.atleast_2d(c)
        return np.zeros((c.shape[0], 3, 2, 2))

    def contains(self, x, slack=0.0):
        x, single = _as_batch(x, 3)
        ok = (
            np.all((x[:, :2] >= self.lo - slack) & (x[:, :2] <= self.hi + slack), axis=1)
            & (np.abs(x[:, 2] - self.height) <= max(slack, 1e-9))
        )
        return bool(ok[0]) if single else ok

    def sample(self, n, rng):
        return self.embed(rng.uniform(self.lo, self.hi, size=(n, 2)))

    def descriptor(self):
        return {"kind": "plane", "lo": self.lo.tolist(), "hi": self.hi.tolist(),
                "height": self.height}


def _dot3(x, v):
    """<x, v> over the last axis by column accumulation; ``v`` is one vector
    or rows like ``x``.

    A BLAS ``x @ v`` rounds a row differently depending on the batch it
    sits in; this sum rounds every row the same way whatever the batch, and
    is ``np.sum(x * v, axis=-1)`` bit for bit.
    """
    return (x[..., 0] * v[..., 0] + x[..., 1] * v[..., 1]) + x[..., 2] * v[..., 2]


def _row_dots(a, b):
    """Row-wise <a, b> through the same BLAS dot as the one-row ``a @ b``,
    so a batch reproduces its one-row results bit for bit."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(a):
    """Row-wise ``np.linalg.norm``, bit for bit (it is sqrt(a @ a))."""
    return np.sqrt(_row_dots(a, a))


def _orthonormal_frame(pole):
    """Deterministic tangent frame (e1, e2) completing pole to a basis."""
    pole = pole / np.linalg.norm(pole)
    helper = np.array([0.0, 0.0, 1.0]) if abs(pole[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, pole)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(pole, e1)
    return e1, e2


class SphereChart:
    """Orthographic chart of S^2 about ``pole``, domain = polar cap.

    Chart coordinates c = (<x, e1>, <x, e2>) for the tangent frame
    (e1, e2); the embedding is x(c) = c1 e1 + c2 e2 + w(c) pole with
    w = sqrt(1 - |c|^2).  Valid for polar angles below 80 deg; the declared
    domain is a cap of ``cap_deg`` <= 80 deg about the pole.
    """

    kind = "sphere"

    def __init__(self, pole=(0.0, 0.0, 1.0), cap_deg=60.0):
        pole = np.asarray(pole, dtype=float)
        n = np.linalg.norm(pole)
        if not np.isfinite(n) or n == 0.0:
            raise ConfigError("sphere pole must be a nonzero vector")
        if not 0.0 < cap_deg <= _MAX_POLAR_DEG:
            raise ConfigError(f"cap_deg must lie in (0, {_MAX_POLAR_DEG}]")
        self.pole = pole / n
        # np.radians of a bool is a float16, so convert first
        self.cap_deg = float(cap_deg)
        self.cos_cap = float(np.cos(np.radians(self.cap_deg)))
        self.chart_radius = float(np.sin(np.radians(self.cap_deg)))
        self.e1, self.e2 = _orthonormal_frame(self.pole)
        self.dim = 2
        self.embdim = 3

    def embed(self, c):
        # column by column into one buffer: each entry is
        # (c1 e1_j + c2 e2_j) + w pole_j and r^2 is c1 c1 + c2 c2, the
        # operations (and so the bits) of the broadcast formula
        c = np.atleast_2d(np.asarray(c, dtype=float))
        c1, c2 = c[:, 0], c[:, 1]
        w = np.sqrt(np.maximum(1.0 - (c1 * c1 + c2 * c2), 0.0))
        out = np.empty((c.shape[0], 3))
        tmp = np.empty(c.shape[0])
        for j in range(3):
            col = out[:, j]
            np.multiply(c1, self.e1[j], out=col)
            col += np.multiply(c2, self.e2[j], out=tmp)
            col += np.multiply(w, self.pole[j], out=tmp)
        return out

    def coords(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([_dot3(x, self.e1), _dot3(x, self.e2)], axis=-1)

    def jacobian(self, c):
        # columns d(embed)/dc_i = e_i - (c_i / w) * pole
        c = np.atleast_2d(c)
        w = np.sqrt(np.clip(1.0 - np.sum(c * c, axis=1), 1e-14, None))
        J = np.empty((c.shape[0], 3, 2))
        J[:, :, 0] = self.e1 - (c[:, 0] / w)[:, None] * self.pole
        J[:, :, 1] = self.e2 - (c[:, 1] / w)[:, None] * self.pole
        return J

    def hessian(self, c):
        # d2(embed)/dc_i dc_j = pole * (-delta_ij / w - c_i c_j / w^3)
        c = np.atleast_2d(c)
        w = np.sqrt(np.clip(1.0 - np.sum(c * c, axis=1), 1e-14, None))
        W = -(np.eye(2)[None, :, :] / w[:, None, None]
              + c[:, :, None] * c[:, None, :] / (w ** 3)[:, None, None])
        return self.pole[None, :, None, None] * W[:, None, :, :]

    def measure_density(self, c):
        # spherical area element over chart coords: dA = dc / w
        c = np.atleast_2d(c)
        w = np.sqrt(np.clip(1.0 - np.sum(c * c, axis=1), 1e-14, None))
        return 1.0 / w

    def contains(self, x, slack=0.0):
        x, single = _as_batch(x, 3)
        unit = np.abs(np.linalg.norm(x, axis=1) - 1.0) <= max(slack, 1e-9)
        # epsilon floor keeps boundary-clipped iterates admissible
        incap = _dot3(x, self.pole) >= self.cos_cap - max(slack, 1e-11)
        ok = unit & incap
        return bool(ok[0]) if single else ok

    def clip(self, c):
        # pull strictly inside so the embedded point stays within the cap
        # despite rounding in sqrt(1 - |c|^2)
        # r as c1 c1 + c2 c2, the operations (and bits) of np.linalg.norm
        c = np.asarray(c, dtype=float)
        c1, c2 = c[..., :1], c[..., 1:]
        r = np.sqrt(c1 * c1 + c2 * c2)
        rmax = self.chart_radius * (1.0 - 1e-9)
        scale = np.where(r > rmax, rmax / np.maximum(r, 1e-300), 1.0)
        return c * scale

    @property
    def lo(self):
        return np.array([-self.chart_radius, -self.chart_radius])

    @property
    def hi(self):
        return np.array([self.chart_radius, self.chart_radius])

    @property
    def center(self):
        return np.zeros(2)

    def diameter(self):
        return 2.0 * self.chart_radius

    def sample(self, n, rng):
        # uniform over the chart disc, then embed
        pts = np.empty((n, 2))
        got = 0
        while got < n:
            cand = rng.uniform(-self.chart_radius, self.chart_radius, size=(2 * (n - got), 2))
            keep = cand[np.sum(cand * cand, axis=1) < self.chart_radius ** 2]
            take = min(n - got, keep.shape[0])
            pts[got:got + take] = keep[:take]
            got += take
        return self.embed(pts)

    def descriptor(self):
        return {"kind": "sphere", "pole": self.pole.tolist(), "cap_deg": self.cap_deg}


def chart_from_descriptor(d) -> object:
    """Rebuild a chart from its descriptor, one that passed the envelope
    schema; ConfigError if its bounds or pole are not in order."""
    if d["kind"] == "box":
        return BoxChart(d["lo"], d["hi"])
    if d["kind"] == "plane":
        return PlaneChart(d["lo"], d["hi"], d["height"])
    return SphereChart(d["pole"], d["cap_deg"])
