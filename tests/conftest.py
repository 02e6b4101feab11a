import numpy as np
import pytest

from gjekit import expmaps
from gjekit.builtins import make_builtin
from gjekit.demos import (TEST_INTERVALS, ball_measure_envelope, engulfing_envelope,
                          paraboloid_envelope, violator_envelope)
from gjekit.errors import GjekitError


def sample_admissible(gf, interval, n, seed=0):
    """Admissible (x, xbar, u, z) tuples used across the test modules."""
    rng = np.random.default_rng(seed)
    xs = gf.source_chart.sample(3 * n, rng)
    xbs = gf.target_chart.sample(3 * n, rng)
    us = rng.uniform(interval[0], interval[1], 3 * n)
    keep = np.zeros(3 * n, dtype=bool)
    zs = np.zeros(3 * n)
    for i in range(3 * n):
        try:
            zs[i] = gf.inverse(xs[i], xbs[i], us[i])
            keep[i] = gf.in_domain(xs[i], xbs[i], zs[i])
        except GjekitError:
            keep[i] = False
    xs, xbs, us, zs = xs[keep][:n], xbs[keep][:n], us[keep][:n], zs[keep][:n]
    assert len(xs) >= min(n, 4), "sampler failed to find admissible tuples"
    return xs, xbs, us, zs


def bent_cost(x, xb):
    """c(x, xb) = -<xb, (x1 + 1.5 x2^2, x2)> as a plain callable, so the
    quasilinear instance built from it takes finite-difference derivatives.
    Its source segments bend out of the box: Newton iterates clip to the
    edge, where a derivative stencil leaves the chart."""
    return -(xb[0] * (x[0] + 1.5 * x[1] ** 2) + xb[1] * x[1])


@pytest.fixture
def newton_rows(monkeypatch):
    """The number of rows every Newton solve made while the test runs
    iterates: the rows whose starting status is OK."""
    calls = []
    newton = expmaps._newton

    def counting(*args):
        calls.append(int(np.sum(args[2] == 0)))
        return newton(*args)

    monkeypatch.setattr(expmaps, "_newton", counting)
    return calls


@pytest.fixture(scope="session")
def builtins_all():
    return {
        "quasilinear": make_builtin("quasilinear"),
        "point_source": make_builtin("point_source"),
        "parallel_beam": make_builtin("parallel_beam"),
        "minkowski": make_builtin("minkowski"),
    }


@pytest.fixture(scope="session")
def intervals():
    return TEST_INTERVALS


@pytest.fixture(scope="session")
def solved_point_source_small():
    from gjekit.demos import point_source_8_problem
    from gjekit.solver import solve
    problem, z_true = point_source_8_problem(resolution=96)
    env, state = solve(problem)
    return problem, env, state, z_true


@pytest.fixture(scope="session")
def solved_parallel_beam_small():
    from gjekit.demos import parallel_beam_5_problem
    from gjekit.solver import solve
    problem, z_true = parallel_beam_5_problem(resolution=96)
    env, state = solve(problem)
    return problem, env, state, z_true


@pytest.fixture(scope="session")
def solved_classical_ma_small():
    from gjekit.demos import classical_ma_problem
    from gjekit.solver import solve
    problem, z_true = classical_ma_problem(resolution=96)
    env, state = solve(problem)
    return problem, env, state, z_true


def _read_only(env):
    """The envelope with its scan done and every array it holds read-only,
    so that no test can change an envelope other tests share."""
    env._scan()
    for a in (env.xbars, env.zs, env._values, env._argmax, env.grid.coords,
              env.grid.points, env.grid.weights):
        a.setflags(write=False)
    return env


@pytest.fixture(scope="session")
def engulfing_env():
    """``demos.engulfing_envelope()``, built once per session."""
    return _read_only(engulfing_envelope())


@pytest.fixture(scope="session")
def violator_env():
    """``demos.violator_envelope()``, built once per session."""
    return _read_only(violator_envelope())


@pytest.fixture(scope="session")
def parab_env():
    """``demos.paraboloid_envelope(half=0.45, ...)``, built once per session."""
    return _read_only(paraboloid_envelope(half=0.45, cell=0.0075, focus_extent=0.4,
                                          focus_spacing=0.0075))


@pytest.fixture(scope="session")
def calibration_envelope():
    """``demos.paraboloid_envelope()``, built once per session."""
    return _read_only(paraboloid_envelope())


@pytest.fixture(scope="session")
def ball_env():
    """``demos.ball_measure_envelope()``, built once per session."""
    return _read_only(ball_measure_envelope())
