"""Shipped demo constructions.

Three end-to-end pipelines (classical-MA, point-source-8, parallel-beam-5)
plus the synthetic counterexamples used by the condition checkers.  The
solver demos are manufactured: ground-truth heights are chosen first and
the prescribed masses are their exact cell masses on the demo grid, so a
correct solver can meet the mass tolerance exactly; the solver itself only
sees the masses and the anchor.
"""

import numpy as np

from .builtins import make_builtin
from .charts import BoxChart
from .gconvex import Envelope
from .grids import DomainGrid
from .solver import SemiDiscreteProblem

DEMO_NAMES = ("classical-MA", "point-source-8", "parallel-beam-5")

# compact scalar test interval per built-in (inside the nice interval)
TEST_INTERVALS = {
    "quasilinear": (-0.5, 0.5),
    "point_source": (0.45, 0.85),
    "parallel_beam": (0.6, 1.4),
    "minkowski": (0.5, 2.0),
    "far_field": (-0.5, 0.5),
    "violator": (-0.5, 0.5),
}


def _manufactured(gf, resolution, targets, z_true, x0):
    """The problem whose masses are the cell masses of the envelope at
    ``z_true`` on the demo grid, anchored at x0 to its value there."""
    grid = DomainGrid(gf.source_chart, resolution)
    env_true = Envelope(gf, (targets, z_true), grid)
    problem = SemiDiscreteProblem(gf, grid, targets, env_true.cell_masses(),
                                  anchor_x=x0, anchor_u=env_true.eval(x0)[0])
    return problem, z_true


def classical_ma_problem(resolution=96):
    """Six-target semi-discrete problem for the bilinear-cost instance."""
    gf = make_builtin("quasilinear",
                      source_chart=BoxChart((-1.0, -1.0), (1.0, 1.0)),
                      target_chart=BoxChart((-1.0, -1.0), (1.0, 1.0)))
    ang = 2 * np.pi * np.arange(6) / 6
    targets = np.stack([0.5 * np.cos(ang), 0.5 * np.sin(ang)], axis=1)
    z_true = 0.5 * np.sum(targets ** 2, axis=1) + 0.01 * np.cos(np.arange(6))
    return _manufactured(gf, resolution, targets, z_true, np.zeros(2))


def point_source_8_problem(resolution=256):
    """Eight-target reflector problem on the spherical cap.

    Targets sit on two rings of different radii so the configuration has no
    exact symmetry (a symmetric ring makes uniform height rescaling an
    almost-exact gauge motion, hiding solver/tracing errors).
    """
    gf = make_builtin("point_source")
    ang = 2 * np.pi * np.arange(8) / 8 + np.pi / 16
    radii = np.where(np.arange(8) % 2 == 0, 0.2, 0.5)
    ring = np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)
    targets = gf.target_chart.embed(ring)
    x0 = gf.source_chart.embed(np.zeros((1, 2)))[0]
    # the inner ring needs a head start at the anchor or the outer pieces
    # dominate the whole cap
    u_tgt = 0.6 + 0.012 * (radii == 0.2) + 5e-4 * np.cos(3 * ang)
    x0s = np.broadcast_to(x0, (8, 3)).copy()
    return _manufactured(gf, resolution, targets, gf.inverse(x0s, targets, u_tgt), x0)


def parallel_beam_5_problem(resolution=128):
    """Five-target parallel-beam problem with the flat target surface."""
    gf = make_builtin("parallel_beam",
                      source_chart=BoxChart((-0.4, -0.4), (0.4, 0.4)),
                      target_chart=BoxChart((-0.35, -0.35), (0.35, 0.35)))
    targets = np.array([[0.0, 0.0], [0.22, 0.22], [-0.22, 0.22],
                        [-0.22, -0.22], [0.22, -0.22]])
    x0 = np.zeros(2)
    u_tgt = 0.9 + np.array([4e-3, 2e-3, -1e-3, 1e-3, -2e-3])
    x0s = np.broadcast_to(x0, (5, 2)).copy()
    return _manufactured(gf, resolution, targets, gf.inverse(x0s, targets, u_tgt), x0)


def paraboloid_envelope(half=0.9, cell=0.0075, focus_extent=0.62,
                        focus_spacing=0.0075):
    """Dense tangent-field envelope of |x|^2 / 2 on a regular focus lattice.

    The classical calibration family: sections are exact discs, the
    subdifferential map is the identity, and the envelope carries the
    lattice cell volume so subdifferential volumes count foci.
    """
    gf = make_builtin("quasilinear",
                      source_chart=BoxChart((-half, -half), (half, half)),
                      target_chart=BoxChart((-focus_extent - 0.01, -focus_extent - 0.01),
                                            (focus_extent + 0.01, focus_extent + 0.01)))
    grid = DomainGrid(gf.source_chart, int(round(2 * half / cell)))
    k = int(np.floor(focus_extent / focus_spacing))
    ax = np.arange(-k, k + 1) * focus_spacing
    P, Q = np.meshgrid(ax, ax, indexing="ij")
    foci = np.stack([P.ravel(), Q.ravel()], axis=1)
    env = Envelope(gf, (foci, 0.5 * np.sum(foci ** 2, axis=1)), grid)
    env.focus_cell_volume = focus_spacing ** 2
    return env


def engulfing_envelope():
    """Small, finely-resolved paraboloid envelope for the engulfing runs."""
    return paraboloid_envelope(half=0.25, cell=0.005, focus_extent=0.27,
                               focus_spacing=0.002)


def ball_measure_envelope():
    """Envelope with exactly 10^4 tangent pieces for the measure calibration."""
    gf = make_builtin("quasilinear",
                      source_chart=BoxChart((-1.2, -1.2), (1.2, 1.2)),
                      target_chart=BoxChart((-1.3, -1.3), (1.3, 1.3)))
    grid = DomainGrid(gf.source_chart, 160)
    ax = np.linspace(-1.25, 1.25, 100)
    P, Q = np.meshgrid(ax, ax, indexing="ij")
    foci = np.stack([P.ravel(), Q.ravel()], axis=1)
    env = Envelope(gf, (foci, 0.5 * np.sum(foci ** 2, axis=1)), grid)
    env.focus_cell_volume = (ax[1] - ax[0]) ** 2
    return env


def violator_genfun(eps=12.0, half=1.0):
    """Cubic-perturbed cost instance violating the fourth-order condition."""
    return make_builtin("quasilinear", cost="cubic_perturbed",
                        cost_params={"eps": eps},
                        source_chart=BoxChart((-half, -half), (half, half)),
                        target_chart=BoxChart((-half, -half), (half, half)))


def violator_envelope():
    """Tangent-field envelope of the default violator on a 150 x 150 grid;
    develops genuine kinks (a third of its foci never win a cell), which is
    where the engulfing diagnostic degenerates."""
    eps = 12.0
    gf = violator_genfun(eps)
    grid = DomainGrid(gf.source_chart, 150)
    s = 1.0 / 75
    k = int(np.floor(0.99 / s))
    ax = np.arange(-k, k + 1) * s
    P, Q = np.meshgrid(ax, ax, indexing="ij")
    foci = np.stack([P.ravel(), Q.ravel()], axis=1)
    b = np.sum(foci ** 2, axis=1)
    z = (b + eps * b ** 3) - 0.5 * b
    return Envelope(gf, (foci, z), grid)


def folded_twist_genfun():
    """Synthetic instance with a folded target chart; the target map
    collides at mirror-image points, so the injectivity check must fail
    with a witness."""
    return make_builtin("quasilinear", cost="folded_target",
                        source_chart=BoxChart((-1.0, -1.0), (1.0, 1.0)),
                        target_chart=BoxChart((-1.0, -1.0), (1.0, 1.0)))


def far_field_genfun(cap_deg=30.0):
    """Quasilinear instance with the far-field reflector cost on disjoint
    spherical caps."""
    from .charts import SphereChart
    return make_builtin("quasilinear", cost="neg_log",
                        source_chart=SphereChart(pole=(0, 0, 1), cap_deg=cap_deg),
                        target_chart=SphereChart(pole=(0, 0, -1), cap_deg=cap_deg))


def demo_problem(name, resolution=None):
    if name == "classical-MA":
        return classical_ma_problem(resolution or 96)
    if name == "point-source-8":
        return point_source_8_problem(resolution or 256)
    if name == "parallel-beam-5":
        return parallel_beam_5_problem(resolution or 128)
    raise ValueError(f"unknown demo {name!r}; valid: {DEMO_NAMES}")
