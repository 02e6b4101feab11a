"""Generating functions: evaluation, scalar inversion, chart derivatives.

A generating function is a scalar map G(x, xbar, z) on source point x,
target point xbar, and a scalar z, strictly monotone in z on its admissible
set.  The toolkit convention is the decreasing one (dG/dz < 0); instances
whose natural formula is increasing in z carry ``orientation = -1`` and all
generic algorithms work with the reversed scalar axis internally, so the
public API always accepts and returns the natural scalar.

Derivatives are taken with respect to *chart coordinates*.  A subclass may
supply analytic derivatives in the embedding space (the ``_e<which>`` hooks
of :class:`GenFun`); one chain rule in the base class contracts them with
the chart jacobians.  Anything not supplied analytically falls back to
central finite differences with one Richardson extrapolation level.  A
finite-difference derivative is row-wise: a row whose stencil leaves the
admissible set comes back nan, and the other rows keep the bits of their
one-row calls.

All evaluators are vectorized over a leading batch axis and pure; GenFun
instances are immutable after construction and safe to share across
threads.
"""

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import ConvergenceError, DomainError, RangeError, RowStatus, raise_for_status

_EPS = np.finfo(float).eps
_H1 = _EPS ** (1.0 / 3.0)   # first-derivative step scale
_H2 = _EPS ** 0.25          # second-derivative step scale


class ScalarRange:
    """Open scalar range (lower, upper) with a compact nice subinterval."""

    def __init__(self, lower, upper, nice_lower, nice_upper):
        if not (lower < nice_lower < nice_upper < upper):
            raise ValueError("need lower < nice_lower < nice_upper < upper")
        self.lower = float(lower)
        self.upper = float(upper)
        self.nice_lower = float(nice_lower)
        self.nice_upper = float(nice_upper)

    def nice_contains(self, u):
        return (self.nice_lower < u) & (u < self.nice_upper)

    def descriptor(self):
        return {"lower": self.lower, "upper": self.upper,
                "nice_lower": self.nice_lower, "nice_upper": self.nice_upper}


def _broadcast(x, xbar, z, se, te):
    """Broadcast mixed single/batch inputs to a common batch."""
    x = np.asarray(x, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    z = np.asarray(z, dtype=float)
    single = x.ndim == 1 and xbar.ndim == 1 and z.ndim == 0
    x = np.atleast_2d(x)
    xbar = np.atleast_2d(xbar)
    z = np.atleast_1d(z)
    m = max(x.shape[0], xbar.shape[0], z.shape[0])
    if x.shape[0] != m:
        x = np.broadcast_to(x, (m, se)).copy()
    if xbar.shape[0] != m:
        xbar = np.broadcast_to(xbar, (m, te)).copy()
    if z.shape[0] != m:
        z = np.broadcast_to(z, (m,)).copy()
    return x, xbar, z, single


class GenFun:
    """Base generating function.

    Subclasses implement ``_value`` and ``_in_domain`` (batched, embedded
    points) and may provide a closed-form scalar inverse ``_h_closed``.
    ``z_limits`` is the open height interval of a piece with a given focus.
    A built-in also sets ``_kernel``, its closed form's tag and parameters
    in :mod:`kernels` (None: the kernels run the evaluator), and
    ``_focus_ok``, the part of its domain that depends on the focus and the
    height alone.
    Each chart derivative ``<which>`` (``d_x``, ``d_xbar``, ``g_z``,
    ``g_zz``, ``d_x_xbar``, ``d_x_z``, ``d_xbar_z``, ``d2_x``, ``d2_xbar``)
    has the optional analytic embedded hook ``_e<which>`` (``_ed_x``,
    ``_eg_z``, ``_ed2_xbar``, ...); ``d2_x``/``d2_xbar`` use theirs only
    together with ``_ed_x``/``_ed_xbar``.  The derivatives a subclass leaves
    to finite differences never raise for a stencil that leaves the
    admissible set: that row is nan.
    """

    name = "genfun"
    orientation = +1  # -1 when the stored formula has dG/dz > 0
    _kernel = None

    def __init__(self, source_chart, target_chart, srange: ScalarRange,
                 tols: Tolerances = DEFAULT_TOLS):
        self.source_chart = source_chart
        self.target_chart = target_chart
        self.srange = srange
        self.tols = tols
        self.dim = source_chart.dim
        if target_chart.dim != source_chart.dim:
            raise ValueError("source and target charts must have equal dimension")

    # -- required subclass surface ------------------------------------------------

    def _value(self, x, xbar, z):
        raise NotImplementedError

    def _in_domain(self, x, xbar, z):
        raise NotImplementedError

    _h_closed = None

    def z_limits(self, xbar):
        """Open interval of admissible heights of the piece with focus xbar."""
        return -np.inf, np.inf

    def _value_or(self, x, xbar, z, fill):
        """G on the admissible rows, ``fill`` on the others; returns (values,
        admissible mask)."""
        ok = self._in_domain(x, xbar, z)
        v = np.full(x.shape[0], fill)
        if np.any(ok):
            v[ok] = self._value(x[ok], xbar[ok], z[ok])
        return v, ok

    # -- evaluation ----------------------------------------------------------------

    def _batch(self, x, xbar, z):
        return _broadcast(x, xbar, z, self.source_chart.embdim, self.target_chart.embdim)

    def in_domain(self, x, xbar, z):
        x, xbar, z, single = self._batch(x, xbar, z)
        ok = self._in_domain(x, xbar, z)
        return bool(ok[0]) if single else ok

    def value(self, x, xbar, z, check=True):
        x, xbar, z, single = self._batch(x, xbar, z)
        if check:
            ok = self._in_domain(x, xbar, z)
            if not np.all(ok):
                i = int(np.argmin(ok))
                raise DomainError(
                    f"{self.name}: triple outside admissible set "
                    f"(x={x[i]}, xbar={xbar[i]}, z={z[i]})")
        v = self._value(x, xbar, z)
        return float(v[0]) if single else v

    def inverse(self, x, xbar, u):
        """Scalar inverse H(x, xbar, u): the z with G(x, xbar, z) = u.

        Raises RangeError when some row has no admissible z and
        ConvergenceError when some residual exceeds ``tols.h_inverse``.
        """
        x, xbar, u, single = self._batch(x, xbar, u)
        z, status = self.inverse_rows(x, xbar, u)
        raise_for_status(status, f"{self.name}: inverse")
        return float(z[0]) if single else z

    def inverse_rows(self, x, xbar, u):
        """Scalar inverse with a RowStatus per row instead of raising.

        Returns (z, status): status is OK, NO_ADMISSIBLE_Z (the triple is
        outside the admissible set) or INVERSE_RESIDUAL (|G - u| above
        ``tols.h_inverse * max(1, |u|)``); failed rows carry z = nan.
        """
        x, xbar, u, _ = self._batch(x, xbar, u)
        status = np.zeros(x.shape[0], dtype=np.int8)
        if self._h_closed is not None:
            z = self._h_closed(x, xbar, u)
        else:
            z = np.full(x.shape[0], np.nan)
            for i in range(x.shape[0]):
                try:
                    z[i] = self._invert_scalar(x[i], xbar[i], float(u[i]))
                except ConvergenceError:
                    status[i] = RowStatus.INVERSE_RESIDUAL
                except (RangeError, DomainError):
                    status[i] = RowStatus.NO_ADMISSIBLE_Z
        ok = self._in_domain(x, xbar, z)
        rows = slice(None)
        if not ok.all():
            status[~ok & (status == 0)] = RowStatus.NO_ADMISSIBLE_Z
            ok &= status == 0
            rows = ok  # G is only evaluated at admissible triples
        resid = np.abs(self._value(x[rows], xbar[rows], z[rows]) - u[rows])
        bad = resid > self.tols.h_inverse * np.maximum(1.0, np.abs(u[rows]))
        if bad.any():
            status[np.flatnonzero(ok)[bad]] = RowStatus.INVERSE_RESIDUAL
        if status.any():
            z = np.where(status == 0, z, np.nan)
        return z, status

    def _invert_scalar(self, x, xbar, u):
        """Safeguarded bracketing from z = 0 + Brent solve on the monotone fiber."""
        from scipy.optimize import brentq

        x2 = x[None, :]
        xb2 = xbar[None, :]

        def f(z):
            za = np.array([z])
            if not self._in_domain(x2, xb2, za)[0]:
                raise DomainError(f"{self.name}: left admissible z-range during inversion")
            return float(self._value(x2, xb2, za)[0]) - u

        z0 = 0.0
        try:
            f0 = f(z0)
        except DomainError:
            raise RangeError(f"{self.name}: no admissible starting z for inversion")
        if f0 == 0.0:
            return z0
        # G moves opposite to orientation * z; walk z toward the root
        walk = self.orientation if f0 > 0.0 else -self.orientation
        step = 1.0
        lo, flo = z0, f0
        hi = None
        for _ in range(self.tols.bracket_max_doublings):
            cand = lo + walk * step
            try:
                fc = f(cand)
            except DomainError:
                # shrink toward the boundary instead of stepping over it
                step *= 0.5
                if step < 1e-14 * max(1.0, abs(lo)):
                    break
                continue
            if fc == 0.0:
                return cand
            if np.sign(fc) != np.sign(flo):
                hi = cand
                break
            lo, flo = cand, fc
            step *= 2.0
        if hi is None:
            raise RangeError(f"{self.name}: u={u} outside the range of G(x, xbar, .)")
        a, b = (lo, hi) if lo < hi else (hi, lo)
        try:
            return brentq(f, a, b, maxiter=self.tols.h_max_iter, xtol=1e-15, rtol=4 * _EPS)
        except RuntimeError as e:
            raise ConvergenceError(f"{self.name}: scalar inversion stalled: {e}") from e

    # -- chart derivative surface ----------------------------------------------------

    def d_x(self, x, xbar, z):
        return self._derivative("d_x", x, xbar, z)

    def d_xbar(self, x, xbar, z):
        return self._derivative("d_xbar", x, xbar, z)

    def g_z(self, x, xbar, z):
        return self._derivative("g_z", x, xbar, z)

    def g_zz(self, x, xbar, z):
        return self._derivative("g_zz", x, xbar, z)

    def d_x_xbar(self, x, xbar, z):
        return self._derivative("d_x_xbar", x, xbar, z)

    def d_x_z(self, x, xbar, z):
        return self._derivative("d_x_z", x, xbar, z)

    def d_xbar_z(self, x, xbar, z):
        return self._derivative("d_xbar_z", x, xbar, z)

    def d2_x(self, x, xbar, z):
        return self._derivative("d2_x", x, xbar, z)

    def d2_xbar(self, x, xbar, z):
        return self._derivative("d2_xbar", x, xbar, z)

    def _derivative(self, which, x, xbar, z):
        """Derivative ``which`` (a key of ``_FD_AXES``) in chart coordinates.

        The embedded hook ``"_e" + which`` contracted with the chart
        jacobian along each x/xbar axis; a second derivative along one chart
        adds the chart-Hessian term, which needs the embedded gradient
        (``_ed_x``/``_ed_xbar``) as well.  Without those hooks, ``_fd``.
        """
        x, xbar, z, single = self._batch(x, xbar, z)
        axes = _CHART_AXES[which]
        hessian = len(axes) == 2 and axes[0] == axes[1]
        hook = getattr(self, "_e" + which, None)
        if hessian and getattr(self, "_ed_" + axes[0], None) is None:
            hook = None
        if hook is None:
            out = _fd(self, x, xbar, z, which)
        elif not axes:
            out = hook(x, xbar, z)
        else:
            charts = {"x": (self.source_chart, x), "xbar": (self.target_chart, xbar)}
            chart, pt = charts[axes[0]]
            c = chart.coords(pt)
            J = chart.jacobian(c)
            out = hook(x, xbar, z)
            if len(axes) == 1:
                out = np.einsum("mai,ma->mi", J, out)
            else:
                chart2, pt2 = charts[axes[1]]
                J2 = J if hessian else chart2.jacobian(chart2.coords(pt2))
                out = np.einsum("mai,mab,mbj->mij", J, out, J2)
            if hessian:
                grad = getattr(self, "_ed_" + axes[0])(x, xbar, z)
                out = out + np.einsum("ma,maij->mij", grad, chart.hessian(c))
        if not single:
            return out
        return float(out[0]) if out.ndim == 1 else out[0]

    def descriptor(self):
        return {"name": self.name,
                "source_chart": self.source_chart.descriptor(),
                "target_chart": self.target_chart.descriptor(),
                "range": self.srange.descriptor()}


# ---------------------------------------------------------------------------
# finite-difference engine (joint chart coordinates, one Richardson level)
# ---------------------------------------------------------------------------

# the coordinate groups each derivative differentiates along: the stencil
# axes of ``_fd``; its x/xbar groups are the chart jacobians the chain rule
# of ``GenFun._derivative`` contracts
_FD_AXES = {"d_x": ("x",), "d_xbar": ("xbar",), "g_z": ("z",), "g_zz": ("z", "z"),
            "d_x_xbar": ("x", "xbar"), "d_x_z": ("x", "z"), "d_xbar_z": ("xbar", "z"),
            "d2_x": ("x", "x"), "d2_xbar": ("xbar", "xbar")}
_CHART_AXES = {w: tuple(g for g in axes if g != "z") for w, axes in _FD_AXES.items()}


def raise_for_nan(values, what):
    """Return ``values``; raise DomainError if some row holds a nan, the mark
    of a finite-difference stencil that left the admissible set."""
    if np.isnan(values).any():
        raise DomainError(f"{what}: finite-difference stencil exits the admissible set")
    return values


def _chart_eval(gf, w, ok):
    """G at the joint chart coordinates w = (x, xbar, z), evaluated on the
    admissible rows only; the others get nan and are cleared in ``ok``."""
    n = gf.dim
    v, inside = gf._value_or(gf.source_chart.embed(w[:, :n]),
                             gf.target_chart.embed(w[:, n:2 * n]), w[:, 2 * n], np.nan)
    ok &= inside
    return v


def _steps(c, scale):
    return scale * np.maximum(1.0, np.abs(c))


def _richardson(coarse, fine):
    return (4.0 * fine - coarse) / 3.0


def _fd(gf, x, xbar, z, which):
    """Finite-difference derivative ``which`` (a GenFun derivative name) of
    a batch, nan on the rows whose stencil leaves the admissible set.

    Works over the joint chart coordinates w = (x, xbar, z): a central
    first difference with steps ``_H1``, or a pure or four-point mixed
    second difference with steps ``_H2``, each with one Richardson level.
    """
    n = gf.dim
    w = np.column_stack([gf.source_chart.coords(x), gf.target_chart.coords(xbar), z])
    m = w.shape[0]
    ok = np.ones(m, dtype=bool)

    def f(*shifts):  # G at w moved by (axis, step) pairs
        ws = w.copy()
        for k, s in shifts:
            ws[:, k] += s
        return _chart_eval(gf, ws, ok)

    def first(k, h):
        return (f((k, h)) - f((k, -h))) / (2 * h)

    def pure(k, h):
        return (f((k, h)) - 2 * f0 + f((k, -h))) / (h * h)

    def mixed(k, l, hk, hl):
        vals = 0.0
        for a, b in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
            vals = vals + a * b * f((k, a * hk), (l, b * hl))
        return vals / (4 * hk * hl)

    groups = {"x": range(n), "xbar": range(n, 2 * n), "z": range(2 * n, 2 * n + 1)}
    axes = [groups[g] for g in _FD_AXES[which]]
    if len(axes) == 1:
        out = np.empty((m, len(axes[0])))
        for i, k in enumerate(axes[0]):
            h = _steps(w[:, k], _H1)
            out[:, i] = _richardson(first(k, h), first(k, h / 2))
    else:
        f0 = f() if axes[0] == axes[1] else None  # pure entries only
        out = np.empty((m, len(axes[0]), len(axes[1])))
        for i, k in enumerate(axes[0]):
            hk = _steps(w[:, k], _H2)
            for j, l in enumerate(axes[1]):
                hl = _steps(w[:, l], _H2)
                if k == l:
                    out[:, i, j] = _richardson(pure(k, hk), pure(k, hk / 2))
                elif l in axes[0] and l < k:  # the mirror of a computed entry
                    out[:, i, j] = out[:, j, i]
                else:
                    out[:, i, j] = _richardson(mixed(k, l, hk, hl), mixed(k, l, hk / 2, hl / 2))
    out = out.reshape((m,) + (n,) * len(_CHART_AXES[which]))
    out[~ok] = np.nan
    return out


# ---------------------------------------------------------------------------
# spec-level convenience wrappers
# ---------------------------------------------------------------------------


def finite_diff_derivatives(gf: GenFun, which: str, x, xbar, z):
    """Finite-difference derivative of G, bypassing analytic overrides.

    ``which`` is one of d_x, d_xbar, g_z, g_zz, d_x_xbar, d_x_z, d_xbar_z,
    d2_x, d2_xbar.  Raises DomainError if a row's point or stencil point
    leaves the admissible set; the batched derivatives return a nan row
    there instead.
    """
    if which not in _FD_AXES:
        raise ValueError(f"unknown derivative id {which!r}; valid: {sorted(_FD_AXES)}")
    x, xbar, z, single = gf._batch(x, xbar, z)
    if not np.all(gf._in_domain(x, xbar, z)):
        raise DomainError(f"{gf.name}: point not admissible")
    out = raise_for_nan(_fd(gf, x, xbar, z, which), gf.name)
    return out[0] if single else out
