"""Built-in generating functions.

Four instances ship with the toolkit:

* ``quasilinear``    G(x, xbar, z) = -c(x, xbar) - z for a cost c; the
                     optimal-transport special case.  The scalar fiber is
                     all of R.
* ``point_source``   the near-field point-source reflector: G = 1/e where
                     e(x, xbar, a) = (a^2 - |xbar|^2/4) / (a - <x, xbar>/2)
                     is the radial graph of the ellipsoid of revolution with
                     foci at the origin and xbar, evaluated at a = 1/z.
                     Admissible when z > 0 and z |xbar| / 2 < 1.  This
                     formula is increasing in z, so the instance carries
                     orientation = -1.
* ``parallel_beam``  G = (1/z - z |x - xbar|^2) / 2 + Phi(xbar) on
                     R^2 x R^2 x (0, inf); each piece is a paraboloid sheet
                     focusing a vertical beam onto (xbar, Phi(xbar)).
* ``minkowski``      G = z <x, xbar> on the sphere with <x, xbar> > 0,
                     z > 0; increasing in z, orientation = -1.

Two synthetic instances exist purely as counterexamples for the condition
checkers: a cubic perturbation of the bilinear cost that breaks the
fourth-order nonnegativity condition, and a folded target chart that breaks
injectivity of the target map.
"""

import numpy as np

from .charts import BoxChart, PlaneChart, SphereChart
from .config import DEFAULT_TOLS
from .errors import ConfigError
from .genfun import GenFun, ScalarRange

__all__ = [
    "QuasilinearGF", "PointSourceGF", "ParallelBeamGF", "MinkowskiGF",
    "make_builtin", "BilinearCost", "NegLogCost", "CubicPerturbedCost",
    "FoldedTargetCost", "GridSurface", "ZeroSurface",
]


# ---------------------------------------------------------------------------
# cost functions for the quasilinear family (embedded coordinates, batched)
# ---------------------------------------------------------------------------


class BilinearCost:
    """c(x, xbar) = -<x, xbar>; the classical Monge-Ampere calibration."""

    name = "bilinear"
    _kernel = ("ql_bilinear", ())

    def value(self, x, xb):
        return -np.sum(x * xb, axis=1)

    def d_x(self, x, xb):
        return -xb

    def d_xbar(self, x, xb):
        return -x

    def d_x_xbar(self, x, xb):
        m, se = x.shape
        out = np.zeros((m, se, xb.shape[1]))
        idx = np.arange(min(se, xb.shape[1]))
        out[:, idx, idx] = -1.0
        return out

    def d2_x(self, x, xb):
        return np.zeros((x.shape[0], x.shape[1], x.shape[1]))

    def d2_xbar(self, x, xb):
        return np.zeros((x.shape[0], xb.shape[1], xb.shape[1]))

    def domain_ok(self, x, xb):
        return np.ones(x.shape[0], dtype=bool)

    def descriptor(self):
        return {"cost": self.name}


class NegLogCost:
    """c(x, xbar) = -log(1 - <x, xbar>), the far-field reflector cost."""

    name = "neg_log"
    _kernel = ("ql_neglog", ())

    def value(self, x, xb):
        return -np.log(1.0 - np.sum(x * xb, axis=1))

    def _sigma(self, x, xb):
        return 1.0 - np.sum(x * xb, axis=1)

    def d_x(self, x, xb):
        return xb / self._sigma(x, xb)[:, None]

    def d_xbar(self, x, xb):
        return x / self._sigma(x, xb)[:, None]

    def d_x_xbar(self, x, xb):
        s = self._sigma(x, xb)
        m, se = x.shape
        out = np.zeros((m, se, xb.shape[1]))
        idx = np.arange(min(se, xb.shape[1]))
        out[:, idx, idx] = 1.0
        out /= s[:, None, None]
        out += xb[:, :, None] * x[:, None, :] / (s ** 2)[:, None, None]
        return out

    def d2_x(self, x, xb):
        s = self._sigma(x, xb)
        return xb[:, :, None] * xb[:, None, :] / (s ** 2)[:, None, None]

    def d2_xbar(self, x, xb):
        s = self._sigma(x, xb)
        return x[:, :, None] * x[:, None, :] / (s ** 2)[:, None, None]

    def domain_ok(self, x, xb):
        return np.sum(x * xb, axis=1) < 1.0 - 1e-12

    def descriptor(self):
        return {"cost": self.name}


class CubicPerturbedCost:
    """c = -(b + eps b^3) with b = <x, xbar>.

    For large eps this cost violates the fourth-order nonnegativity
    condition on orthogonal pairs; it ships as the standard negative
    control for the condition checkers.
    """

    name = "cubic_perturbed"

    def __init__(self, eps=2.0):
        self.eps = float(eps)
        self._kernel = ("ql_cubic", (self.eps,))

    def _b(self, x, xb):
        return np.sum(x * xb, axis=1)

    def value(self, x, xb):
        b = self._b(x, xb)
        return -(b + self.eps * (b * b * b))

    def d_x(self, x, xb):
        g = 1.0 + 3.0 * self.eps * self._b(x, xb) ** 2
        return -g[:, None] * xb

    def d_xbar(self, x, xb):
        g = 1.0 + 3.0 * self.eps * self._b(x, xb) ** 2
        return -g[:, None] * x

    def d_x_xbar(self, x, xb):
        b = self._b(x, xb)
        g = 1.0 + 3.0 * self.eps * b ** 2
        m, se = x.shape
        out = np.zeros((m, se, xb.shape[1]))
        idx = np.arange(min(se, xb.shape[1]))
        out[:, idx, idx] = 1.0
        out *= -g[:, None, None]
        out -= 6.0 * self.eps * b[:, None, None] * xb[:, :, None] * x[:, None, :]
        return out

    def d2_x(self, x, xb):
        b = self._b(x, xb)
        return -6.0 * self.eps * b[:, None, None] * xb[:, :, None] * xb[:, None, :]

    def d2_xbar(self, x, xb):
        b = self._b(x, xb)
        return -6.0 * self.eps * b[:, None, None] * x[:, :, None] * x[:, None, :]

    def domain_ok(self, x, xb):
        return np.ones(x.shape[0], dtype=bool)

    def descriptor(self):
        return {"cost": self.name, "eps": self.eps}


class FoldedTargetCost:
    """c = -<x, phi(xbar)> with phi(xbar) = (xbar_1^2, xbar_2, ...).

    The target map xbar -> (D_x G, G) factors through phi, which folds the
    chart at xbar_1 = 0: injectivity fails on any domain straddling the
    fold.  Ships as the twist-violation counterexample.
    """

    name = "folded_target"

    @staticmethod
    def _phi(xb):
        out = xb.copy()
        out[:, 0] = xb[:, 0] ** 2
        return out

    def value(self, x, xb):
        return -np.sum(x * self._phi(xb), axis=1)

    def d_x(self, x, xb):
        return -self._phi(xb)

    def d_xbar(self, x, xb):
        out = -x.copy()
        out[:, 0] *= 2.0 * xb[:, 0]
        return out

    def d_x_xbar(self, x, xb):
        m, n = x.shape
        out = np.zeros((m, n, n))
        out[:, 0, 0] = -2.0 * xb[:, 0]
        for i in range(1, n):
            out[:, i, i] = -1.0
        return out

    def d2_x(self, x, xb):
        return np.zeros((x.shape[0], x.shape[1], x.shape[1]))

    def d2_xbar(self, x, xb):
        n = xb.shape[1]
        out = np.zeros((xb.shape[0], n, n))
        out[:, 0, 0] = -2.0 * x[:, 0]
        return out

    def domain_ok(self, x, xb):
        return np.ones(x.shape[0], dtype=bool)

    def descriptor(self):
        return {"cost": self.name}


class CallableCost:
    """Wrap a plain python cost function; derivatives via finite differences."""

    name = "callable"

    def __init__(self, fn):
        self._fn = fn

    def value(self, x, xb):
        return np.asarray([self._fn(x[i], xb[i]) for i in range(x.shape[0])], dtype=float)

    d_x = d_xbar = d_x_xbar = d2_x = d2_xbar = None

    def domain_ok(self, x, xb):
        return np.ones(x.shape[0], dtype=bool)

    def descriptor(self):
        return {"cost": self.name}


# ---------------------------------------------------------------------------
# target surfaces for the parallel-beam reflector
# ---------------------------------------------------------------------------


class ZeroSurface:
    """Flat target surface Phi = 0."""

    name = "zero"

    def value(self, xb):
        return np.zeros(xb.shape[0])

    def grad(self, xb):
        return np.zeros_like(xb)

    def hess(self, xb):
        return np.zeros((xb.shape[0], 2, 2))

    def descriptor(self):
        return {"surface": self.name}


class GridSurface:
    """Tabulated surface Phi(xbar) on a 2-d grid, bicubic interpolated."""

    name = "grid"

    def __init__(self, x_nodes, y_nodes, values):
        from scipy.interpolate import RectBivariateSpline
        values = np.asarray(values, dtype=float)
        if values.shape != (len(x_nodes), len(y_nodes)):
            raise ValueError("surface table shape must be (len(x_nodes), len(y_nodes))")
        if min(values.shape) < 4:
            raise ValueError("a bicubic surface table needs at least 4 nodes per axis")
        self._spl = RectBivariateSpline(np.asarray(x_nodes, float),
                                        np.asarray(y_nodes, float), values, kx=3, ky=3)

    def value(self, xb):
        return self._spl.ev(xb[:, 0], xb[:, 1])

    def grad(self, xb):
        return np.stack([self._spl.ev(xb[:, 0], xb[:, 1], dx=1),
                         self._spl.ev(xb[:, 0], xb[:, 1], dy=1)], axis=1)

    def hess(self, xb):
        h = np.empty((xb.shape[0], 2, 2))
        h[:, 0, 0] = self._spl.ev(xb[:, 0], xb[:, 1], dx=2)
        h[:, 1, 1] = self._spl.ev(xb[:, 0], xb[:, 1], dy=2)
        h[:, 0, 1] = h[:, 1, 0] = self._spl.ev(xb[:, 0], xb[:, 1], dx=1, dy=1)
        return h

    def descriptor(self):
        return {"surface": self.name}


# ---------------------------------------------------------------------------
# the generating functions
# ---------------------------------------------------------------------------


class QuasilinearGF(GenFun):
    """G(x, xbar, z) = -c(x, xbar) - z.  Scalar fiber is all of R."""

    def __init__(self, cost, source_chart, target_chart, srange=None, tols=DEFAULT_TOLS):
        srange = srange or ScalarRange(-np.inf, np.inf, -1e6, 1e6)
        super().__init__(source_chart, target_chart, srange, tols)
        self.cost = cost
        self.name = f"quasilinear[{cost.name}]"
        self._kernel = getattr(cost, "_kernel", None)
        analytic = cost.d_x is not None
        if analytic:
            self._ed_x = lambda x, xb, z: -self.cost.d_x(x, xb)
            self._ed_xbar = lambda x, xb, z: -self.cost.d_xbar(x, xb)
            self._ed_x_xbar = lambda x, xb, z: -self.cost.d_x_xbar(x, xb)
            self._ed2_x = lambda x, xb, z: -self.cost.d2_x(x, xb)
            self._ed2_xbar = lambda x, xb, z: -self.cost.d2_xbar(x, xb)
        self._eg_z = lambda x, xb, z: -np.ones(z.shape[0])
        self._eg_zz = lambda x, xb, z: np.zeros(z.shape[0])
        self._ed_x_z = lambda x, xb, z: np.zeros_like(x)
        self._ed_xbar_z = lambda x, xb, z: np.zeros_like(xb)

    def _value(self, x, xb, z):
        return -self.cost.value(x, xb) - z

    def _focus_ok(self, xb, z):
        return self.target_chart.contains(xb) & np.isfinite(z)

    def _in_domain(self, x, xb, z):
        return (self.source_chart.contains(x) & self._focus_ok(xb, z)
                & self.cost.domain_ok(x, xb))

    def _h_closed(self, x, xb, u):
        # rows outside cost.domain_ok come out non-finite and fail admissibility
        with np.errstate(divide="ignore", invalid="ignore"):
            return -self.cost.value(x, xb) - u

    def descriptor(self):
        d = super().descriptor()
        d.update({"kind": "quasilinear", **self.cost.descriptor()})
        return d


class PointSourceGF(GenFun):
    """Near-field point-source reflector generating function.

    Writing b = <x, xbar> and t2 = |xbar|^2, the value is the quotient
    G = N/Q with N = z - z^2 b / 2 and Q = 1 - z^2 t2 / 4.  All derivatives
    come from the quotient identities G_a = (N_a - G Q_a)/Q and
    G_ab = (N_ab - G_a Q_b - G_b Q_a - G Q_ab)/Q.
    """

    orientation = -1  # dG/dz > 0 on the admissible set

    def __init__(self, source_chart=None, target_chart=None, srange=None,
                 tols=DEFAULT_TOLS):
        # default geometry: source directions in an upward cap, target plane
        # below the source so source and target direction cones are disjoint
        # (injectivity of the coordinate maps fails when they overlap)
        source_chart = source_chart or SphereChart(pole=(0, 0, 1), cap_deg=45.0)
        target_chart = target_chart or PlaneChart((-0.6, -0.6), (0.6, 0.6), height=-1.0)
        srange = srange or ScalarRange(0.0, np.inf, 0.05, 20.0)
        super().__init__(source_chart, target_chart, srange, tols)
        self.name = "point_source"
        self._kernel = ("point_source", ())

    @staticmethod
    def _nq(x, xb, z):
        b = np.sum(x * xb, axis=1)
        t2 = np.sum(xb * xb, axis=1)
        N = z - 0.5 * z * z * b
        Q = 1.0 - 0.25 * z * z * t2
        return b, t2, N, Q

    def _value(self, x, xb, z):
        _, _, N, Q = self._nq(x, xb, z)
        return N / Q

    def _focus_ok(self, xb, z):
        # z > 0 and the denominator Q of the value is positive, in _nq's bits
        with np.errstate(over="ignore", invalid="ignore"):
            q = 1.0 - 0.25 * z * z * np.sum(xb * xb, axis=1)
        return (z > 0.0) & (q > 0.0) & self.target_chart.contains(xb)

    def _in_domain(self, x, xb, z):
        return self._focus_ok(xb, z) & self.source_chart.contains(x)

    def z_limits(self, xbar):
        t2 = float(np.sum(xbar * xbar))
        return 0.0, (2.0 / np.sqrt(t2) if t2 > 0.0 else np.inf)

    def _h_closed(self, x, xb, u):
        # quadratic alpha z^2 + z - u = 0 with alpha = u t2/4 - b/2;
        # stable root z = 2u / (1 + sqrt(1 + 4 alpha u))
        b = np.sum(x * xb, axis=1)
        t2 = np.sum(xb * xb, axis=1)
        alpha = 0.25 * u * t2 - 0.5 * b
        disc = 1.0 + 4.0 * alpha * u
        with np.errstate(invalid="ignore"):
            z = 2.0 * u / (1.0 + np.sqrt(disc))
        z[(u <= 0.0) | (disc < 0.0)] = np.nan  # u outside the range of G
        return z

    # embedded analytic derivatives via the quotient rule
    def _ed_x(self, x, xb, z):
        _, _, N, Q = self._nq(x, xb, z)
        return (-0.5 * z * z)[:, None] * xb / Q[:, None]

    def _ed_xbar(self, x, xb, z):
        _, _, N, Q = self._nq(x, xb, z)
        G = N / Q
        Nb = (-0.5 * z * z)[:, None] * x
        Qb = (-0.5 * z * z)[:, None] * xb
        return (Nb - G[:, None] * Qb) / Q[:, None]

    def _eg_z(self, x, xb, z):
        b, t2, N, Q = self._nq(x, xb, z)
        G = N / Q
        return ((1.0 - z * b) - G * (-0.5 * z * t2)) / Q

    def _eg_zz(self, x, xb, z):
        b, t2, N, Q = self._nq(x, xb, z)
        G = N / Q
        Gz = ((1.0 - z * b) - G * (-0.5 * z * t2)) / Q
        return (-b - 2.0 * Gz * (-0.5 * z * t2) - G * (-0.5 * t2)) / Q

    def _ed_x_xbar(self, x, xb, z):
        b, t2, N, Q = self._nq(x, xb, z)
        Gx = self._ed_x(x, xb, z)
        Qb = (-0.5 * z * z)[:, None] * xb
        Nxb = (-0.5 * z * z)[:, None, None] * np.broadcast_to(np.eye(3), (x.shape[0], 3, 3))
        return (Nxb - Gx[:, :, None] * Qb[:, None, :]) / Q[:, None, None]

    def _ed_x_z(self, x, xb, z):
        b, t2, N, Q = self._nq(x, xb, z)
        Gx = self._ed_x(x, xb, z)
        Nxz = -z[:, None] * xb
        Qz = -0.5 * z * t2
        return (Nxz - Gx * Qz[:, None]) / Q[:, None]

    def _ed_xbar_z(self, x, xb, z):
        b, t2, N, Q = self._nq(x, xb, z)
        G = N / Q
        Gb = self._ed_xbar(x, xb, z)
        Gz = self._eg_z(x, xb, z)
        Nbz = -z[:, None] * x
        Qb = (-0.5 * z * z)[:, None] * xb
        Qz = -0.5 * z * t2
        Qbz = -z[:, None] * xb
        return (Nbz - Gb * Qz[:, None] - Gz[:, None] * Qb - G[:, None] * Qbz) / Q[:, None]

    def _ed2_x(self, x, xb, z):
        # N and Q are affine in x, so the embedded x-Hessian vanishes
        return np.zeros((x.shape[0], 3, 3))

    def _ed2_xbar(self, x, xb, z):
        b, t2, N, Q = self._nq(x, xb, z)
        G = N / Q
        Gb = self._ed_xbar(x, xb, z)
        Qb = (-0.5 * z * z)[:, None] * xb
        Qbb = (-0.5 * z * z)[:, None, None] * np.broadcast_to(np.eye(3), (x.shape[0], 3, 3))
        num = (-Gb[:, :, None] * Qb[:, None, :] - Qb[:, :, None] * Gb[:, None, :]
               - G[:, None, None] * Qbb)
        return num / Q[:, None, None]

    def descriptor(self):
        d = super().descriptor()
        d["kind"] = "point_source"
        return d


class ParallelBeamGF(GenFun):
    """Parallel-beam near-field reflector generating function."""

    def __init__(self, surface=None, source_chart=None, target_chart=None,
                 srange=None, tols=DEFAULT_TOLS):
        source_chart = source_chart or BoxChart((-1.0, -1.0), (1.0, 1.0))
        target_chart = target_chart or BoxChart((-1.0, -1.0), (1.0, 1.0))
        if source_chart.dim != 2:
            raise ConfigError("parallel_beam requires 2-d charts")
        srange = srange or ScalarRange(0.0, np.inf, 0.05, 20.0)
        super().__init__(source_chart, target_chart, srange, tols)
        self.surface = surface or ZeroSurface()
        self.name = "parallel_beam"
        if isinstance(self.surface, ZeroSurface):
            # the kernel's cut keeps the same upper branch v >= lower
            self._kernel = ("pb_zero", (self.srange.lower,))

    def _value(self, x, xb, z):
        D = np.sum((x - xb) ** 2, axis=1)
        return 0.5 * (1.0 / z - z * D) + self.surface.value(xb)

    def _branch_values(self, x, xb, z):
        """(G, admissible mask), G evaluated once on the rows that pass the
        focus and source checks (-inf on the others).

        z > 0 alone leaves x -> p two-to-one (the radial factor
        2 z r / (1/z^2 + |r|^2) folds at |r| = 1/z); restricting the value
        to the closed upper branch G >= lower keeps the injective side,
        fold circle included.
        """
        ok = self._focus_ok(xb, z) & self.source_chart.contains(x)
        v = np.full(x.shape[0], -np.inf)
        if np.any(ok):
            rows = slice(None) if ok.all() else ok
            v[rows] = self._value(x[rows], xb[rows], z[rows])
            ok &= v >= self.srange.lower
        return v, ok

    def _in_domain(self, x, xb, z):
        return self._branch_values(x, xb, z)[1]

    def _value_or(self, x, xb, z, fill):
        # the branch cut's values are the values: one evaluation per row
        v, ok = self._branch_values(x, xb, z)
        v[~ok] = fill
        return v, ok

    def _focus_ok(self, xb, z):
        return (z > 0.0) & self.target_chart.contains(xb)

    def z_limits(self, xbar):
        return 0.0, np.inf

    def _h_closed(self, x, xb, u):
        v = u - self.surface.value(xb)
        D = np.sum((x - xb) ** 2, axis=1)
        denom = v + np.sqrt(v * v + D)
        with np.errstate(divide="ignore"):
            z = 1.0 / denom
        z[denom <= 0.0] = np.nan  # u outside the range of G
        return z

    def _ed_x(self, x, xb, z):
        return -z[:, None] * (x - xb)

    def _ed_xbar(self, x, xb, z):
        return z[:, None] * (x - xb) + self.surface.grad(xb)

    def _eg_z(self, x, xb, z):
        D = np.sum((x - xb) ** 2, axis=1)
        return -0.5 * (1.0 / (z * z) + D)

    def _eg_zz(self, x, xb, z):
        return 1.0 / z ** 3

    def _ed_x_xbar(self, x, xb, z):
        return z[:, None, None] * np.broadcast_to(np.eye(2), (x.shape[0], 2, 2))

    def _ed_x_z(self, x, xb, z):
        return -(x - xb)

    def _ed_xbar_z(self, x, xb, z):
        return x - xb

    def _ed2_x(self, x, xb, z):
        return -z[:, None, None] * np.broadcast_to(np.eye(2), (x.shape[0], 2, 2))

    def _ed2_xbar(self, x, xb, z):
        return (-z[:, None, None] * np.broadcast_to(np.eye(2), (x.shape[0], 2, 2))
                + self.surface.hess(xb))

    def descriptor(self):
        d = super().descriptor()
        d.update({"kind": "parallel_beam", **self.surface.descriptor()})
        return d


class MinkowskiGF(GenFun):
    """Support-function generating function G = z <x, xbar> on the sphere."""

    orientation = -1  # dG/dz = <x, xbar> > 0 on the admissible set

    def __init__(self, source_chart=None, target_chart=None, srange=None, tols=DEFAULT_TOLS):
        source_chart = source_chart or SphereChart(pole=(0, 0, 1), cap_deg=40.0)
        target_chart = target_chart or SphereChart(pole=(0, 0, 1), cap_deg=40.0)
        srange = srange or ScalarRange(0.0, np.inf, 0.1, 10.0)
        super().__init__(source_chart, target_chart, srange, tols)
        self.name = "minkowski"
        self._kernel = ("minkowski", ())

    def _value(self, x, xb, z):
        return z * np.sum(x * xb, axis=1)

    def _focus_ok(self, xb, z):
        return (z > 0.0) & self.target_chart.contains(xb)

    def _in_domain(self, x, xb, z):
        b = np.sum(x * xb, axis=1)
        return (b > 0.0) & self._focus_ok(xb, z) & self.source_chart.contains(x)

    def z_limits(self, xbar):
        return 0.0, np.inf

    def _h_closed(self, x, xb, u):
        b = np.sum(x * xb, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = u / b
        z[u <= 0.0] = np.nan  # u outside the range of G
        return z

    def _ed_x(self, x, xb, z):
        return z[:, None] * xb

    def _ed_xbar(self, x, xb, z):
        return z[:, None] * x

    def _eg_z(self, x, xb, z):
        return np.sum(x * xb, axis=1)

    def _eg_zz(self, x, xb, z):
        return np.zeros(z.shape[0])

    def _ed_x_xbar(self, x, xb, z):
        return z[:, None, None] * np.broadcast_to(np.eye(3), (x.shape[0], 3, 3))

    def _ed_x_z(self, x, xb, z):
        return xb.copy()

    def _ed_xbar_z(self, x, xb, z):
        return x.copy()

    def _ed2_x(self, x, xb, z):
        return np.zeros((x.shape[0], 3, 3))

    def _ed2_xbar(self, x, xb, z):
        return np.zeros((x.shape[0], 3, 3))

    def descriptor(self):
        d = super().descriptor()
        d["kind"] = "minkowski"
        return d


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

_COSTS = {
    "bilinear": BilinearCost,
    "neg_log": NegLogCost,
    "cubic_perturbed": CubicPerturbedCost,
    "folded_target": FoldedTargetCost,
}


def genfun_from_descriptor(d) -> GenFun:
    """Rebuild a built-in generating function from a descriptor that passed
    ``envelope.schema.json``, which admits only the kinds, costs and surface
    that rebuild; ValueError or ConfigError if its charts or range are not
    in order."""
    from .charts import chart_from_descriptor
    sc = chart_from_descriptor(d["source_chart"])
    tc = chart_from_descriptor(d["target_chart"])
    r = d["range"]
    srange = ScalarRange(r["lower"], r["upper"], r["nice_lower"], r["nice_upper"])
    kind = d["kind"]
    if kind == "quasilinear":
        extra = {"eps": d["eps"]} if d["cost"] == "cubic_perturbed" else {}
        return QuasilinearGF(_COSTS[d["cost"]](**extra), sc, tc, srange)
    if kind == "parallel_beam":
        return ParallelBeamGF(ZeroSurface(), sc, tc, srange)
    return {"point_source": PointSourceGF, "minkowski": MinkowskiGF}[kind](sc, tc, srange)


def make_builtin(kind: str, **params) -> GenFun:
    """Construct a built-in generating function.

    kind is one of ``quasilinear``, ``point_source``, ``parallel_beam``,
    ``minkowski``.  Quasilinear instances take a ``cost`` parameter (a cost
    object, a registered cost name, or a plain callable); parallel_beam
    takes an optional ``surface``.  Chart and scalar-range parameters pass
    through to the class constructors.  Raises ConfigError on malformed
    parameters.
    """
    try:
        if kind == "quasilinear":
            cost = params.pop("cost", "bilinear")
            if isinstance(cost, str):
                extra = params.pop("cost_params", {})
                if cost not in _COSTS:
                    raise ConfigError(f"unknown cost {cost!r}; valid: {sorted(_COSTS)}")
                cost = _COSTS[cost](**extra)
            elif callable(cost) and not hasattr(cost, "value"):
                cost = CallableCost(cost)
            elif not hasattr(cost, "value"):
                raise TypeError(f"cost must be a cost name, object or callable, not {cost!r}")
            sc = params.pop("source_chart", None) or BoxChart((-1.0, -1.0), (1.0, 1.0))
            tc = params.pop("target_chart", None) or BoxChart((-1.0, -1.0), (1.0, 1.0))
            return QuasilinearGF(cost, sc, tc, **params)
        if kind == "point_source":
            return PointSourceGF(**params)
        if kind == "parallel_beam":
            surface = params.pop("surface", None)
            if isinstance(surface, dict):
                surface = GridSurface(**surface)
            elif surface is not None and not hasattr(surface, "value"):
                raise TypeError(f"surface must be a table or a surface object, not {surface!r}")
            return ParallelBeamGF(surface=surface, **params)
        if kind == "minkowski":
            return MinkowskiGF(**params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"malformed parameters for {kind!r}: {e}") from e
    raise ConfigError(f"unknown builtin kind {kind!r}")
