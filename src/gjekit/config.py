"""Central tolerance and iteration-budget record.

All modules read their numerical tolerances from one immutable record, the
generating function's ``tols`` (the defaults unless set from Python).
"""

from dataclasses import dataclass, replace, fields

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    # scalar inversion: |G(x, xbar, H(x, xbar, u)) - u| <= h_inverse * max(1, |u|)
    h_inverse: float = 1e-10
    # exponential-map Newton residual; well below the 1e-8 point-space
    # roundtrip contract so jacobian conditioning cannot eat the margin
    exp_residual: float = 1e-11
    # envelope tie tolerance (absolute, on function values)
    tie: float = 1e-9
    # solver mass tolerance, relative to the total source mass
    mass_rel: float = 1e-6
    # ray tracing: target snap distance (target-chart units)
    snap: float = 1e-6
    # reflection-law residual
    reflect: float = 1e-12
    # tensor sweeps: violation threshold for the fourth-order form
    tensor_floor: float = 1e-8
    # orthogonality required of (V, eta) pairs, relative
    ortho: float = 1e-10
    # convex-hull coordinate snap used before exact-arithmetic hull tests
    hull_snap: float = 1e-12
    # generic containment slack for chart/hull membership tests
    hull_slack: float = 1e-8
    # nondegeneracy: smallest acceptable |det E|
    nondeg_min_det: float = 1e-10
    # twist check: smallest acceptable output/input separation ratio
    twist_ratio: float = 1e-6

    # iteration budgets
    newton_max_iter: int = 50
    newton_max_halvings: int = 30
    h_max_iter: int = 100
    bracket_max_doublings: int = 60
    solver_max_sweeps: int = 10_000

    def with_overrides(self, **kw) -> "Tolerances":
        known = {f.name for f in fields(self)}
        bad = set(kw) - known
        if bad:
            raise ConfigError(f"unknown tolerance overrides: {sorted(bad)}")
        return replace(self, **kw)


DEFAULT_TOLS = Tolerances()
