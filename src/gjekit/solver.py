"""Semi-discrete solver: height adjustment until every target gets its mass.

Given the source measure of a grid (its cell weights, the chart's surface
measure) and discrete targets (xbar_i, g_i) with matching total mass, the
solver adjusts the scalar heights z_i of the envelope pieces until the mass
of each piece's cell matches g_i.  The
update rule is coordinate bisection: raising a piece (moving its height
along the direction in which the generating function grows) can only grow
its cell, so each underfilled piece is raised until its cell mass reaches
its target, sweeping until no piece is underfilled.  Monotonicity of the
cell mass in the height is asserted at runtime rather than assumed.

Only underfilled pieces move within a sweep (a piece is never lowered), so
the envelope trajectory is monotone; the anchor normalization
u(x0) = u0 is restored after mass convergence by a joint height shift, and
the sweep/normalize cycle repeats until both criteria hold.

The cell mass of a piece against the frozen others is the mass oracle
(:class:`_MassOracle`).  The ascending sweep carries the chained best of
the rows before each piece (:class:`kernels.ScanChain`) instead of
rescanning them, and its last chain gives the next sweep's masses.  A
move's bisection tells the oracle its first bracket, which holds every
later midpoint, and the oracle then evaluates only the cells whose win can
still change there; every mass, and so every iterate, is the same bit for
bit as with full-grid evaluations.
"""

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleError, MonotonicityError, StallError
from .gconvex import Envelope
from .genfun import raise_for_nan
from .grids import DomainGrid
from . import kernels


@dataclass
class SemiDiscreteProblem:
    gf: object
    grid: DomainGrid
    targets: np.ndarray          # (N, embdim) target points
    masses: np.ndarray           # (N,) prescribed masses, > 0
    anchor_x: np.ndarray = None  # normalization point x0
    anchor_u: float = None       # normalization value u0 (in the nice interval)

    def __post_init__(self):
        source, target = self.gf.source_chart, self.gf.target_chart
        if len(self.targets) == 0 or any(np.shape(t) != (target.embdim,) for t in self.targets):
            raise ConfigError(f"target points need {target.embdim} coordinates each")
        self.targets = np.asarray(self.targets, dtype=float)
        if not np.all(target.contains(self.targets)):
            raise ConfigError("target points must lie in the target chart")
        self.masses = np.asarray(self.masses, dtype=float)
        if self.targets.shape[0] != self.masses.shape[0]:
            raise ConfigError("targets and masses must have equal length")
        if not np.all(np.isfinite(self.masses)):
            raise ConfigError("target masses must be finite")
        if np.any(self.masses <= 0):
            raise ConfigError("all target masses must be positive")
        d = self.targets[:, None, :] - self.targets[None, :, :]
        sep = np.sqrt(np.sum(d * d, axis=2))
        np.fill_diagonal(sep, np.inf)
        if np.min(sep) <= 0:
            raise ConfigError("target points must be distinct")
        self.cell_weights = self.grid.weights
        self.total_mass = float(np.sum(self.cell_weights))
        gap = abs(float(np.sum(self.masses)) - self.total_mass)
        if gap > 1e-12 * self.total_mass:
            raise ConfigError(
                f"total target mass must equal the source mass "
                f"(gap {gap:.3e}, total {self.total_mass:.6e})")
        if self.anchor_x is None:
            self.anchor_x = self.grid.points[len(self.grid.points) // 2]
        self.anchor_x = np.asarray(self.anchor_x, dtype=float)
        if self.anchor_x.shape != (source.embdim,):
            raise ConfigError(f"the anchor point needs {source.embdim} coordinates")
        if not source.contains(self.anchor_x):
            raise ConfigError("the anchor point must lie in the source chart")
        if self.anchor_u is None:
            sr = self.gf.srange
            self.anchor_u = 0.5 * (sr.nice_lower + sr.nice_upper)
        if not self.gf.srange.nice_contains(self.anchor_u):
            raise ConfigError("anchor value must lie in the nice interval")

    @property
    def n_targets(self):
        return self.targets.shape[0]


@dataclass
class SolverState:
    heights: np.ndarray
    residual: np.ndarray
    sweeps: int
    outer_rounds: int
    converged: bool
    history: list = field(default_factory=list)  # rows: (sweep, res_inf, wall_time)
    conservation_gap: float = 0.0
    oracle_calls: int = 0     # cell-mass evaluations (kernels.piece_mass calls)
    oracle_builds: int = 0    # frozen-envelope constructions (_MassOracle)


def _target_bases(problem):
    """Grid basis of every target's piece (None entries without a kernel tag).

    The targets never move, so one basis per target serves the whole solve.
    """
    return [kernels.piece_basis(problem.gf, problem.grid.points, t)
            for t in problem.targets]


def _piece_row(problem, bases, i, z):
    return kernels.piece_values(problem.gf, problem.grid.points,
                                problem.targets[i], z, basis=bases[i])


def _piece_rows(problem, bases, heights):
    V = np.empty((problem.n_targets, problem.grid.n_cells))
    for i in range(problem.n_targets):
        V[i] = _piece_row(problem, bases, i, heights[i])
    return V


class _MassOracle:
    """Cell mass of one piece against the frozen rest of the envelope.

    The cells are those the envelope scan (:func:`kernels.scan_rows`) would
    give the piece, so the solver moves heights against the partition that
    ``_masses_from`` and ``Envelope.cell_masses`` report.  Everything that
    does not depend on the piece's height is computed once here: the
    chained best of the rows before the piece plus ``tie``, the plain max of
    the rows after it, and (from ``basis``) the piece's grid basis.  The
    first two come from the value stack ``values``, or ready-made as
    ``frozen = (chained best, max after)`` from a caller that carries them.

    :meth:`narrow` tells the oracle a height bracket that the next calls
    fall in.  It splits the full grid by value bounds over the bracket
    (:func:`kernels.win_split`) and keeps the cells the piece can win, in
    cell order, with a mask of the ones won throughout; a call inside the
    bracket evaluates only the open cells, and the mass is the same bit for
    bit as a full-grid call.  Calls outside the bracket, and every call
    without bounds, evaluate the full grid.  A bisection narrows once, to
    its first bracket: re-splitting each nested bracket costs more time
    than the cell evaluations it saves.  ``tally`` counts the
    constructions ("builds") and evaluations ("calls").
    """

    def __init__(self, problem, values, index, basis, tally=None, frozen=None):
        self.p = problem
        self.i = index
        self.tie = problem.gf.tols.tie
        self.basis = basis
        if frozen is None:
            lo, _ = kernels.scan_rows(values[:index], values.shape[1], self.tie)
            frozen = lo, _rows_after(values, index)
        self.lo_tie = frozen[0] + self.tie
        self.hi_best = frozen[1]
        self.split = None
        self.tally = Counter() if tally is None else tally
        self.tally["builds"] += 1

    def narrow(self, a, b):
        """Let the next calls at heights between a and b evaluate only the
        cells whose win is still open there."""
        z1, z2 = min(a, b), max(a, b)
        p = self.p
        cut = kernels.win_split(p.gf, p.targets[self.i], z1, z2, self.lo_tie,
                                self.hi_best, self.tie, self.basis)
        if cut is None:
            return
        won, open_ = cut
        keep = np.flatnonzero(won | open_)
        pos = np.flatnonzero(open_[keep])
        take = keep[pos]
        self.split = _Split(z1, z2, p.cell_weights[keep], won[keep], pos,
                            p.grid.points[take], self.basis[take],
                            self.lo_tie[take], self.hi_best[take])

    def __call__(self, z):
        self.tally["calls"] += 1
        p, s = self.p, self.split
        if s is not None and s.z1 <= z <= s.z2:
            return kernels.piece_mass(p.gf, s.xs, s.weights,
                                      s.lo_tie, s.hi_best, p.targets[self.i],
                                      z, self.tie, basis=s.basis,
                                      sel=(s.sel, s.pos))
        return kernels.piece_mass(p.gf, p.grid.points, p.cell_weights,
                                  self.lo_tie, self.hi_best, p.targets[self.i],
                                  z, self.tie, basis=self.basis)


@dataclass
class _Split:
    """An oracle's cells for heights in [z1, z2] (see :meth:`_MassOracle.narrow`).

    ``weights`` and ``sel`` cover the cells the piece can win there, in
    cell order, ``sel`` marking the ones won throughout; ``pos`` indexes
    the open cells among them, whose entries ``sel[pos]`` each call
    overwrites with its wins, and ``xs``, ``basis``, ``lo_tie``,
    ``hi_best`` hold the open cells' entries.
    """
    z1: float
    z2: float
    weights: np.ndarray
    sel: np.ndarray
    pos: np.ndarray
    xs: np.ndarray
    basis: np.ndarray
    lo_tie: np.ndarray
    hi_best: np.ndarray


def _rows_after(values, index):
    return values[index + 1:].max(axis=0, initial=-np.inf)


def _move_piece_to_mass(problem, oracle, z_now, target_mass, raise_dir,
                        cell_quantum, slack, first_step=1e-3):
    """Monotone bisection moving one piece's mass to its target.

    Works in either direction: underfilled pieces move along the raising
    direction, overfilled ones backwards.  A mass within ``slack`` of the
    target is taken.  The cell mass is a staircase in the height, so when
    it jumps over the target band the piece parks just below the jump
    (mass <= target).  Monotonicity along the raising axis is asserted at
    runtime (MonotonicityError with a witness).
    """
    gf = problem.gf
    tols = gf.tols
    lo_lim, hi_lim = gf.z_limits(problem.targets[oracle.i])
    m_now = oracle(z_now)
    if target_mass - slack <= m_now <= target_mass + slack:
        return z_now, m_now
    walk = raise_dir if m_now < target_mass else -raise_dir
    step = first_step * max(1.0, abs(z_now))
    a, m_a = z_now, m_now
    b = None
    prev_mass = m_now
    for _ in range(tols.bracket_max_doublings):
        cand = a + walk * step
        if cand >= hi_lim:
            cand = 0.5 * (a + hi_lim)
        if cand <= lo_lim:
            cand = 0.5 * (a + lo_lim)
        m_c = oracle(cand)
        drift = (m_c - prev_mass) * walk * raise_dir
        if drift < -cell_quantum:
            raise MonotonicityError(
                f"cell mass moved against the raising direction for piece "
                f"{oracle.i} (z {a:.6g} -> {cand:.6g}, "
                f"mass {prev_mass:.6g} -> {m_c:.6g})",
                witness={"piece": oracle.i, "z": cand, "mass": m_c})
        prev_mass = m_c
        if target_mass - slack <= m_c <= target_mass + slack:
            return cand, m_c
        crossed = (m_c > target_mass) if m_now < target_mass else (m_c < target_mass)
        if crossed:
            b, m_b = cand, m_c
            break
        a, m_a = cand, m_c
        step *= 2.0
        lim = hi_lim if walk > 0 else lo_lim
        if np.isfinite(lim) and abs(lim - a) < 1e-13 * max(1.0, abs(lim)):
            raise InfeasibleError(
                f"piece {oracle.i}: admissible height range exhausted before "
                f"reaching its target mass")
    if b is None:
        raise InfeasibleError(
            f"piece {oracle.i}: no bracket after {tols.bracket_max_doublings} doublings")
    # bisect; a is on the starting side of the target, b past it, and every
    # midpoint lies in the first bracket
    oracle.narrow(a, b)
    for _ in range(100):
        if abs(b - a) <= 1e-13 * max(1.0, abs(a), abs(b)):
            break
        mid = 0.5 * (a + b)
        m_mid = oracle(mid)
        if target_mass - slack <= m_mid <= target_mass + slack:
            return mid, m_mid
        past = (m_mid > target_mass) if m_now < target_mass else (m_mid < target_mass)
        if past:
            b, m_b = mid, m_mid
        else:
            a, m_a = mid, m_mid
    # the staircase jumped over the band: settle on the side with mass <= target
    if m_b <= target_mass + slack:
        return b, m_b
    if m_a <= target_mass + slack:
        return a, m_a
    return (a, m_a) if m_a < m_b else (b, m_b)


def solve(problem: SemiDiscreteProblem):
    """Solve the semi-discrete problem; returns (Envelope, SolverState)."""
    gf = problem.gf
    tols = gf.tols
    n = problem.n_targets
    raise_dir = -gf.orientation  # direction in which G(., xbar, z) grows
    t_start = time.perf_counter()

    # Every piece starts through a common anchor value chosen BELOW the
    # anchor target.  Raising-only sweeps converge monotonically when every
    # piece starts below its final position; a piece supporting the solution
    # anywhere can sit at most ~2 K0 diam(domain) below the anchor value
    # (Lipschitz bound), so undershooting by that much is safe.
    x0 = problem.anchor_x
    x0s = np.broadcast_to(x0, (n, x0.shape[0])).copy()
    z_anchor = np.asarray(gf.inverse(x0s, problem.targets,
                                     np.full(n, problem.anchor_u)), dtype=float)
    k0_hat = 0.0
    for i in range(n):
        sub = problem.grid.points[::7]
        xb = np.broadcast_to(problem.targets[i], (sub.shape[0], problem.targets.shape[1]))
        dd = raise_for_nan(gf.d_x(sub, xb.copy(), np.full(sub.shape[0], z_anchor[i])),
                           f"{gf.name}: K0")
        k0_hat = max(k0_hat, float(np.max(np.linalg.norm(dd, axis=1))))
    undershoot = 2.2 * k0_hat * problem.grid.chart.diameter() + 1e-6
    lo_u = max(problem.anchor_u - undershoot,
               gf.srange.lower + 0.05 * (problem.anchor_u - gf.srange.lower))
    z = np.asarray(gf.inverse(x0s, problem.targets, np.full(n, lo_u)),
                   dtype=float).copy()

    tol_abs = gf.tols.mass_rel * problem.total_mass
    inner_tol = tol_abs / max(2, n)
    cell_quantum = float(np.max(problem.cell_weights)) + 1e-30
    history = []
    sweeps = 0
    best_res = np.inf
    last_improvement = 0
    converged = False
    step_hint = np.full(n, 1e-3)
    bases = _target_bases(problem)
    tally = Counter()

    def move(oracle, i):
        """Move piece i to its target mass; True when its height changed."""
        z_new, _ = _move_piece_to_mass(problem, oracle, z[i], problem.masses[i],
                                       raise_dir, cell_quantum, inner_tol,
                                       first_step=step_hint[i])
        step_hint[i] = max(1e-6, 0.5 * abs(z_new - z[i]))
        changed = bool(z_new != z[i])
        z[i] = z_new
        V[i] = _piece_row(problem, bases, i, z[i])
        return changed

    # Early rounds only need mass balance at grid-cell resolution: deficits
    # below one cell mass cannot be repaired while the overall level is still
    # far from the anchor (the staircase plateau at g_i only exists near the
    # final configuration).  The parking tolerance halves every round down to
    # the strict tolerance.
    park_tol = max(inner_tol, cell_quantum)

    for outer in range(100):
        V = _piece_rows(problem, bases, z)
        masses = _masses_from(V, problem)
        while True:
            res = masses - problem.masses
            res_inf = float(np.max(np.abs(res)))
            history.append((sweeps, res_inf, time.perf_counter() - t_start))
            if res_inf < best_res - 1e-18:
                best_res = res_inf
                last_improvement = sweeps
            if sweeps - last_improvement > tols.solver_max_sweeps:
                raise StallError(
                    f"no residual decrease in {tols.solver_max_sweeps} sweeps "
                    f"(best {best_res:.3e})")
            if np.min(res) >= -park_tol:
                break
            moved = False
            # the chained best of the rows before i, carried through the
            # sweep over the rows as they move; after the last row it is the
            # scan of the whole stack, which gives the next sweep's masses
            chain = kernels.ScanChain(problem.grid.n_cells, tols.tie)
            for i in range(n):  # ascending index, deterministic
                oracle = _MassOracle(problem, None, i, bases[i], tally,
                                     frozen=(chain.best, _rows_after(V, i)))
                m_i = oracle(z[i])
                if m_i < problem.masses[i] - park_tol:
                    moved |= move(oracle, i)
                chain.push(V[i])
            sweeps += 1
            masses = _masses_of(chain.idx, problem.cell_weights, n)
            if not moved:
                # every underfilled piece is parked at the staircase floor
                break

        env = Envelope(gf, (problem.targets, z), problem.grid)
        u_at_anchor, _ = env.eval(x0)
        delta = u_at_anchor - problem.anchor_u
        if abs(delta) <= 1e-9:
            converged = res_inf <= tol_abs
            if converged:
                break
            # Terminal repair: the level is right but raising-only cannot
            # drain a piece that ended relatively overfilled during the level
            # walk.  Near the solution a bidirectional Gauss-Seidel pass over
            # the pieces converges quickly; each piece moves to its own
            # target in whichever direction its residual demands.  V holds
            # every row at z: move rewrites the row of each piece it moves.
            repaired = False
            for _ in range(50):
                masses = _masses_from(V, problem)
                res = masses - problem.masses
                res_inf = float(np.max(np.abs(res)))
                history.append((sweeps, res_inf, time.perf_counter() - t_start))
                if res_inf <= tol_abs:
                    repaired = True
                    break
                order = np.argsort(-np.abs(res))  # worst piece first
                changed = False
                for i in order:
                    if abs(res[i]) <= inner_tol:
                        continue
                    changed |= move(_MassOracle(problem, V, int(i), bases[i], tally), i)
                sweeps += 1
                if not changed:
                    break
            env = Envelope(gf, (problem.targets, z), problem.grid)
            u_at_anchor, _ = env.eval(x0)
            delta = u_at_anchor - problem.anchor_u
            # V holds the rows of env, so its masses are the ones that
            # set repaired
            if repaired and abs(delta) <= 1e-9:
                converged = True
                break
            if abs(delta) <= 1e-9:
                # neither criterion improving: give the stall logic a chance
                continue
        # Joint shift through the scalar inverse: drop every piece's anchor
        # value by delta, plus a shrinking undershoot so the next round of
        # raising-only sweeps again starts from below its solution.  The
        # guard fraction trades rounds against the risk of overshooting a
        # piece past its target (benign: the terminal repair drains it).
        guard = 0.1 * abs(delta)
        vals_at_anchor = gf.value(x0s, problem.targets, z, check=False)
        z = np.asarray(gf.inverse(x0s, problem.targets,
                                  vals_at_anchor - delta - guard),
                       dtype=float).copy()
        park_tol = max(inner_tol, 0.5 * park_tol)
    else:
        raise StallError("normalization/mass cycle did not converge in 100 rounds")

    masses = env.cell_masses()
    res = masses - problem.masses
    state = SolverState(
        heights=z.copy(),
        residual=res,
        sweeps=sweeps,
        outer_rounds=outer + 1,
        converged=bool(converged),
        history=history,
        conservation_gap=float(abs(np.sum(masses) - problem.total_mass)),
        oracle_calls=tally["calls"],
        oracle_builds=tally["builds"],
    )
    return env, state


def _masses_from(V, problem):
    _, idx = kernels.scan_rows(V, V.shape[1], problem.gf.tols.tie)
    return _masses_of(idx, problem.cell_weights, V.shape[0])


def _masses_of(idx, weights, n):
    won = idx >= 0
    return np.bincount(idx[won], weights=weights[won], minlength=n)
