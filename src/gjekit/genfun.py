"""Generating functions: evaluation, scalar inversion, chart derivatives.

A generating function is a scalar map G(x, xbar, z) on source point x,
target point xbar, and a scalar z, strictly monotone in z on its admissible
set.  The toolkit convention is the decreasing one (dG/dz < 0); instances
whose natural formula is increasing in z carry ``orientation = -1`` and all
generic algorithms work with the reversed scalar axis internally, so the
public API always accepts and returns the natural scalar.

Derivatives are taken with respect to *chart coordinates*.  A subclass may
supply analytic derivatives in the embedding space (``_ed_*`` hooks); the
base class chain-rules them through the chart jacobians.  Anything not
supplied analytically falls back to central finite differences with one
Richardson extrapolation level.

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

    def contains(self, u):
        return (self.lower < u) & (u < self.upper)

    def nice_contains(self, u):
        return (self.nice_lower < u) & (u < self.nice_upper)

    def descriptor(self):
        return {"lower": self.lower, "upper": self.upper,
                "nice_lower": self.nice_lower, "nice_upper": self.nice_upper}

    def __repr__(self):
        return (f"ScalarRange({self.lower}, {self.upper}, "
                f"nice=({self.nice_lower}, {self.nice_upper}))")


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
    points) and may provide analytic embedded derivatives ``_ed_x``,
    ``_ed_xbar``, ``_eg_z``, ``_eg_zz``, ``_ed_x_xbar``, ``_ed_x_z``,
    ``_ed_xbar_z``, ``_ed2_x``, ``_ed2_xbar`` plus a closed-form scalar
    inverse ``_h_closed``.
    """

    name = "genfun"
    orientation = +1  # -1 when the stored formula has dG/dz > 0

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

    @property
    def deriv_mode(self):
        return "analytic" if getattr(self, "_ed_x", None) is not None else "finite_difference"

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

    def inverse(self, x, xbar, u, z_guess=None):
        """Scalar inverse H(x, xbar, u): the z with G(x, xbar, z) = u.

        Raises RangeError when some row has no admissible z and
        ConvergenceError when some residual exceeds ``tols.h_inverse``.
        """
        z, status = self.inverse_rows(x, xbar, u, z_guess)
        raise_for_status(status, f"{self.name}: inverse")
        single = np.ndim(x) == 1 and np.ndim(xbar) == 1 and np.ndim(u) == 0
        return float(z[0]) if single else z

    def inverse_rows(self, x, xbar, u, z_guess=None):
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
                    z[i] = self._invert_scalar(x[i], xbar[i], float(u[i]), z_guess)
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

    def _invert_scalar(self, x, xbar, u, z_guess):
        """Safeguarded bracketing + Brent solve on the monotone fiber."""
        from scipy.optimize import brentq

        x2 = x[None, :]
        xb2 = xbar[None, :]

        def f(z):
            za = np.array([z])
            if not self._in_domain(x2, xb2, za)[0]:
                raise DomainError(f"{self.name}: left admissible z-range during inversion")
            return float(self._value(x2, xb2, za)[0]) - u

        z0 = 0.0 if z_guess is None else float(z_guess)
        try:
            f0 = f(z0)
        except DomainError:
            raise RangeError(f"{self.name}: no admissible starting z for inversion")
        if f0 == 0.0:
            return z0
        # G moves opposite to orientation * z; walk z toward the root
        walk = self.orientation if f0 > 0.0 else -self.orientation
        step = max(1.0, abs(z0))
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
        return self._chart_first(x, xbar, z, wrt="x")

    def d_xbar(self, x, xbar, z):
        return self._chart_first(x, xbar, z, wrt="xbar")

    def g_z(self, x, xbar, z):
        x, xbar, z, single = self._batch(x, xbar, z)
        if getattr(self, "_eg_z", None) is not None:
            v = self._eg_z(x, xbar, z)
        else:
            v = _fd_z(self, x, xbar, z, order=1)
        return float(v[0]) if single else v

    def g_zz(self, x, xbar, z):
        x, xbar, z, single = self._batch(x, xbar, z)
        if getattr(self, "_eg_zz", None) is not None:
            v = self._eg_zz(x, xbar, z)
        else:
            v = _fd_z(self, x, xbar, z, order=2)
        return float(v[0]) if single else v

    def d_x_xbar(self, x, xbar, z):
        x, xbar, z, single = self._batch(x, xbar, z)
        if getattr(self, "_ed_x_xbar", None) is not None:
            Jx = self.source_chart.jacobian(self.source_chart.coords(x))
            Jb = self.target_chart.jacobian(self.target_chart.coords(xbar))
            M = self._ed_x_xbar(x, xbar, z)
            out = np.einsum("mai,mab,mbj->mij", Jx, M, Jb)
        else:
            out = _fd_mixed_x_xbar(self, x, xbar, z)
        return out[0] if single else out

    def d_x_z(self, x, xbar, z):
        x, xbar, z, single = self._batch(x, xbar, z)
        if getattr(self, "_ed_x_z", None) is not None:
            Jx = self.source_chart.jacobian(self.source_chart.coords(x))
            out = np.einsum("mai,ma->mi", Jx, self._ed_x_z(x, xbar, z))
        else:
            out = _fd_mixed_z(self, x, xbar, z, wrt="x")
        return out[0] if single else out

    def d_xbar_z(self, x, xbar, z):
        x, xbar, z, single = self._batch(x, xbar, z)
        if getattr(self, "_ed_xbar_z", None) is not None:
            Jb = self.target_chart.jacobian(self.target_chart.coords(xbar))
            out = np.einsum("mai,ma->mi", Jb, self._ed_xbar_z(x, xbar, z))
        else:
            out = _fd_mixed_z(self, x, xbar, z, wrt="xbar")
        return out[0] if single else out

    def d2_x(self, x, xbar, z):
        return self._chart_second(x, xbar, z, wrt="x")

    def d2_xbar(self, x, xbar, z):
        return self._chart_second(x, xbar, z, wrt="xbar")

    def _chart_first(self, x, xbar, z, wrt):
        x, xbar, z, single = self._batch(x, xbar, z)
        hook = getattr(self, "_ed_x" if wrt == "x" else "_ed_xbar", None)
        if hook is not None:
            chart = self.source_chart if wrt == "x" else self.target_chart
            pt = x if wrt == "x" else xbar
            J = chart.jacobian(chart.coords(pt))
            out = np.einsum("mai,ma->mi", J, hook(x, xbar, z))
        else:
            out = _fd_first(self, x, xbar, z, wrt)
        return out[0] if single else out

    def _chart_second(self, x, xbar, z, wrt):
        x, xbar, z, single = self._batch(x, xbar, z)
        hook = getattr(self, "_ed2_x" if wrt == "x" else "_ed2_xbar", None)
        ghook = getattr(self, "_ed_x" if wrt == "x" else "_ed_xbar", None)
        if hook is not None and ghook is not None:
            chart = self.source_chart if wrt == "x" else self.target_chart
            pt = x if wrt == "x" else xbar
            c = chart.coords(pt)
            J = chart.jacobian(c)
            Hc = chart.hessian(c)
            M = hook(x, xbar, z)
            g = ghook(x, xbar, z)
            out = (np.einsum("mai,mab,mbj->mij", J, M, J)
                   + np.einsum("ma,maij->mij", g, Hc))
        else:
            out = _fd_second(self, x, xbar, z, wrt)
        return out[0] if single else out

    def descriptor(self):
        return {"name": self.name,
                "source_chart": self.source_chart.descriptor(),
                "target_chart": self.target_chart.descriptor(),
                "range": self.srange.descriptor()}


# ---------------------------------------------------------------------------
# finite-difference engine (chart coordinates, one Richardson level)
# ---------------------------------------------------------------------------


def stencil_rows(fill, rows, *args):
    """Run ``fill(rows, *args)`` over a batch, row by row if the batch raises.

    A finite-difference derivative raises DomainError for the whole batch
    when the stencil of one row leaves the admissible set.  Each row then
    runs alone, so only the rows whose own stencil leaves fail.  ``fill``
    writes its results for the rows it is given, and nothing when it
    raises.  Returns the rows that raise on their own.
    """
    try:
        fill(rows, *args)
        return rows[:0]
    except DomainError:
        pass
    failed = []
    for i in rows:
        try:
            fill(np.array([i]), *args)
        except DomainError:
            failed.append(i)
    return np.array(failed, dtype=np.intp)


def _chart_eval(gf, cx, cxbar, z, require_domain=True):
    x = gf.source_chart.embed(cx)
    xb = gf.target_chart.embed(cxbar)
    if require_domain:
        ok = gf._in_domain(x, xb, z)
        if not np.all(ok):
            raise DomainError(f"{gf.name}: finite-difference stencil exits the admissible set")
    return gf._value(x, xb, z)


def _steps(c, scale):
    return scale * np.maximum(1.0, np.abs(c))


def _richardson(coarse, fine):
    return (4.0 * fine - coarse) / 3.0


def _fd_first(gf, x, xbar, z, wrt):
    chart = gf.source_chart if wrt == "x" else gf.target_chart
    cx = gf.source_chart.coords(x)
    cb = gf.target_chart.coords(xbar)
    c = cx if wrt == "x" else cb
    n = chart.dim
    out = np.empty((c.shape[0], n))
    for i in range(n):
        h = _steps(c[:, i], _H1)

        def diff(step):
            cp = c.copy(); cp[:, i] += step
            cm = c.copy(); cm[:, i] -= step
            args_p = (cp, cb) if wrt == "x" else (cx, cp)
            args_m = (cm, cb) if wrt == "x" else (cx, cm)
            return (_chart_eval(gf, *args_p, z) - _chart_eval(gf, *args_m, z)) / (2 * step)

        out[:, i] = _richardson(diff(h), diff(h / 2))
    return out


def _fd_z(gf, x, xbar, z, order):
    h = _steps(z, _H1 if order == 1 else _H2)
    f = lambda dz: _chart_eval(gf, gf.source_chart.coords(x), gf.target_chart.coords(xbar), z + dz)
    if order == 1:
        diff = lambda s: (f(s) - f(-s)) / (2 * s)
    else:
        f0 = f(np.zeros_like(z))
        diff = lambda s: (f(s) - 2 * f0 + f(-s)) / (s * s)
    return _richardson(diff(h), diff(h / 2))


def _fd_second(gf, x, xbar, z, wrt):
    chart = gf.source_chart if wrt == "x" else gf.target_chart
    cx = gf.source_chart.coords(x)
    cb = gf.target_chart.coords(xbar)
    c = (cx if wrt == "x" else cb)
    n = chart.dim
    m = c.shape[0]
    out = np.empty((m, n, n))

    def val(cc):
        return _chart_eval(gf, cc if wrt == "x" else cx, cb if wrt == "x" else cc, z)

    f0 = val(c)
    for i in range(n):
        hi = _steps(c[:, i], _H2)

        def pure(s):
            cp = c.copy(); cp[:, i] += s
            cm = c.copy(); cm[:, i] -= s
            return (val(cp) - 2 * f0 + val(cm)) / (s * s)

        out[:, i, i] = _richardson(pure(hi), pure(hi / 2))
        for j in range(i + 1, n):
            hj = _steps(c[:, j], _H2)

            def cross(si, sj):
                vals = 0.0
                for a, bsign in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                    cc = c.copy()
                    cc[:, i] += a * si
                    cc[:, j] += bsign * sj
                    vals = vals + a * bsign * val(cc)
                return vals / (4 * si * sj)

            v = _richardson(cross(hi, hj), cross(hi / 2, hj / 2))
            out[:, i, j] = v
            out[:, j, i] = v
    return out


def _fd_mixed_x_xbar(gf, x, xbar, z):
    cx = gf.source_chart.coords(x)
    cb = gf.target_chart.coords(xbar)
    n = gf.dim
    out = np.empty((cx.shape[0], n, n))
    for i in range(n):
        hi = _steps(cx[:, i], _H2)
        for j in range(n):
            hj = _steps(cb[:, j], _H2)

            def cross(si, sj):
                vals = 0.0
                for a, b in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                    cxp = cx.copy(); cxp[:, i] += a * si
                    cbp = cb.copy(); cbp[:, j] += b * sj
                    vals = vals + a * b * _chart_eval(gf, cxp, cbp, z)
                return vals / (4 * si * sj)

            out[:, i, j] = _richardson(cross(hi, hj), cross(hi / 2, hj / 2))
    return out


def _fd_mixed_z(gf, x, xbar, z, wrt):
    cx = gf.source_chart.coords(x)
    cb = gf.target_chart.coords(xbar)
    c = cx if wrt == "x" else cb
    n = gf.dim
    hz = _steps(z, _H2)
    out = np.empty((c.shape[0], n))
    for i in range(n):
        hi = _steps(c[:, i], _H2)

        def cross(si, sz):
            vals = 0.0
            for a, b in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                cc = c.copy(); cc[:, i] += a * si
                args = (cc, cb) if wrt == "x" else (cx, cc)
                vals = vals + a * b * _chart_eval(gf, *args, z + b * sz)
            return vals / (4 * si * sz)

        out[:, i] = _richardson(cross(hi, hz), cross(hi / 2, hz / 2))
    return out


# ---------------------------------------------------------------------------
# spec-level convenience wrappers
# ---------------------------------------------------------------------------

_DERIV_IDS = {
    "d_x": lambda gf, x, xb, z: _fd_first(gf, *gf._batch(x, xb, z)[:3], "x"),
    "d_xbar": lambda gf, x, xb, z: _fd_first(gf, *gf._batch(x, xb, z)[:3], "xbar"),
    "g_z": lambda gf, x, xb, z: _fd_z(gf, *gf._batch(x, xb, z)[:3], order=1),
    "g_zz": lambda gf, x, xb, z: _fd_z(gf, *gf._batch(x, xb, z)[:3], order=2),
    "d_x_xbar": lambda gf, x, xb, z: _fd_mixed_x_xbar(gf, *gf._batch(x, xb, z)[:3]),
    "d_x_z": lambda gf, x, xb, z: _fd_mixed_z(gf, *gf._batch(x, xb, z)[:3], wrt="x"),
    "d_xbar_z": lambda gf, x, xb, z: _fd_mixed_z(gf, *gf._batch(x, xb, z)[:3], wrt="xbar"),
    "d2_x": lambda gf, x, xb, z: _fd_second(gf, *gf._batch(x, xb, z)[:3], wrt="x"),
    "d2_xbar": lambda gf, x, xb, z: _fd_second(gf, *gf._batch(x, xb, z)[:3], wrt="xbar"),
}


def eval_G(gf: GenFun, x, xbar, z) -> float:
    """Evaluate u = G(x, xbar, z) at an admissible triple."""
    return gf.value(x, xbar, z)


def eval_H(gf: GenFun, x, xbar, u) -> float:
    """Evaluate the scalar inverse z = H(x, xbar, u)."""
    return gf.inverse(x, xbar, u)


def finite_diff_derivatives(gf: GenFun, which: str, x, xbar, z):
    """Finite-difference derivative of G, bypassing analytic overrides.

    ``which`` is one of d_x, d_xbar, g_z, g_zz, d_x_xbar, d_x_z, d_xbar_z,
    d2_x, d2_xbar.  Raises DomainError if the stencil leaves the admissible
    set.
    """
    if which not in _DERIV_IDS:
        raise ValueError(f"unknown derivative id {which!r}; valid: {sorted(_DERIV_IDS)}")
    if not gf.in_domain(x, xbar, z):
        raise DomainError(f"{gf.name}: point not admissible")
    out = _DERIV_IDS[which](gf, x, xbar, z)
    single = np.asarray(x).ndim == 1
    return out[0] if single else out
