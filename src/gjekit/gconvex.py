"""Semi-discrete convex envelopes, subdifferentials and sections.

A solution candidate is a finite pointwise maximum of pieces
x -> G(x, xbar_i, z_i), given as the arrays of foci xbar_i and heights z_i.
The envelope caches a full scan (value + winning piece index) over its
evaluation grid; ties within the generating function's tie tolerance
resolve to the lowest piece index, so the induced cells partition the grid
exactly.  The source measure is the grid's cell weights, and the cell
masses sum to the total source mass bit-for-bit.

The G-subdifferential at x is the set of foci of the pieces active there
(``Envelope.eval``).  The generalized Monge-Ampere measure of a set A, the
target-chart volume of the foci supporting the envelope somewhere in A, is
computed by the pointwise estimates (``estimates._subdiff_volume``).

``Envelope.save`` writes the JSON file that the shipped
``envelope.schema.json`` describes; ``Envelope.load`` reads it through
``config.read_json``, the one reader of every file the CLI reads, and adds
only the checks a schema cannot state.
"""

import json
from dataclasses import dataclass

import numpy as np

from .config import read_json
from .errors import ConfigError, EmptyEnvelopeError, NicenessError
from .expmaps import p_map
from .grids import DomainGrid
from . import kernels

ENVELOPE_FORMAT_VERSION = 1


@dataclass
class GAffine:
    """One supporting piece x -> G(x, xbar, z)."""

    gf: object
    xbar: np.ndarray
    z: float

    def __post_init__(self):
        self.xbar = np.asarray(self.xbar, dtype=float)

    def value(self, x):
        """Piece value at one point; DomainError if inadmissible."""
        return self.gf.value(x, self.xbar, self.z)

    def values_on(self, points):
        """Piece values at embedded points; -inf where inadmissible."""
        return kernels.piece_values(self.gf, np.atleast_2d(points), self.xbar, self.z)


class Envelope:
    """Finite max of G-affine pieces over a gridded domain."""

    def __init__(self, gf, pieces, grid: DomainGrid):
        """``pieces`` is the pair (foci, heights) of arrays."""
        self.gf = gf
        # own copies: callers (the solver) go on mutating their arrays
        xbars, zs = pieces
        self.xbars = np.atleast_2d(np.array(xbars, dtype=float))
        self.zs = np.array(zs, dtype=float)
        if self.xbars.shape[0] != self.zs.shape[0] or self.xbars.shape[0] == 0:
            raise ValueError("envelope needs matching, nonempty piece arrays")
        self.grid = grid
        # target-chart volume per focus of a regular focus lattice, or None
        # (see estimates._subdiff_volume)
        self.focus_cell_volume = None
        self._values = None
        self._argmax = None
        self._point_values = None

    # -- cached grid scan ---------------------------------------------------------

    def _scan(self):
        if self._values is None:
            v, idx = kernels.envelope_scan(self.gf, self.grid.points, self.xbars,
                                           self.zs, self.tols.tie)
            if np.any(idx < 0):
                k = int(np.argmax(idx < 0))
                raise EmptyEnvelopeError(
                    f"no admissible piece at grid cell {k} "
                    f"(chart coords {self.grid.coords[k]})")
            self._values = v
            self._argmax = idx
        return self._values, self._argmax

    @property
    def tols(self):
        """The generating function's tolerances."""
        return self.gf.tols

    @property
    def n_pieces(self):
        return self.xbars.shape[0]

    def grid_values(self):
        return self._scan()[0]

    # -- pointwise evaluation -----------------------------------------------------

    def piece_values_at(self, x):
        """All piece values at a single point x; -inf where inadmissible.

        Tagged generating functions go through the pointwise closed forms of
        :class:`kernels.PointValues`, whose per-focus part is built on the
        first query; they equal ``kernels.evaluator_values`` bit for bit.
        Untagged ones use the evaluator.
        """
        if self._point_values is None:
            self._point_values = kernels.point_kernel(self.gf, self.xbars, self.zs)
        return self._point_values(x)

    def eval(self, x):
        """Envelope value and active piece set at x.

        Returns (u, active) where active lists the indices within the tie
        tolerance of the max, lowest first: the subdifferential's window.
        """
        vals = self.piece_values_at(x)
        u = np.max(vals)
        if not np.isfinite(u):
            raise EmptyEnvelopeError("no admissible piece at evaluation point")
        active = np.flatnonzero(vals >= u - self.tols.tie)
        return float(u), active

    def representative(self, x):
        """Value and index of the piece that wins x under the envelope's tie
        rule, the same piece ``cell_indices`` gives a grid cell at x."""
        best, i = kernels.scan_point(self.piece_values_at(x), self.tols.tie)
        if i < 0:
            raise EmptyEnvelopeError("no admissible piece at evaluation point")
        return best, i

    # -- cells and masses -----------------------------------------------------------

    def cell_indices(self):
        """Winning piece index per grid cell (lowest index on ties)."""
        return self._scan()[1]

    def cell_masses(self):
        """All cell masses at once: the grid weights summed per winning
        piece, so they partition the total mass exactly."""
        return np.bincount(self.cell_indices(), weights=self.grid.weights,
                           minlength=self.n_pieces)

    # -- sections -------------------------------------------------------------------

    def section(self, m: GAffine) -> "Section":
        """Sublevel set {u <= m} of the envelope under a nice piece."""
        mv = m.values_on(self.grid.points)
        rng_ok = (self.gf.srange.nice_lower < mv) & (mv < self.gf.srange.nice_upper)
        if not np.all(np.isfinite(mv)) or not np.all(rng_ok):
            raise NicenessError(
                "section reference piece leaves the nice interval on the domain")
        u, _ = self._scan()
        mask = u <= mv + self.tols.tie
        return Section(self, m, mask)

    # -- serialization ----------------------------------------------------------------

    def save(self, path):
        doc = {
            "format_version": ENVELOPE_FORMAT_VERSION,
            "genfun": self.gf.descriptor(),
            "grid_resolution": list(self.grid.resolution),
            "pieces": [[self.xbars[i].tolist(), float(self.zs[i])]
                       for i in range(self.n_pieces)],
        }
        if self.focus_cell_volume is not None:
            doc["focus_cell_volume"] = float(self.focus_cell_volume)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path):
        """The envelope saved at ``path``.  The file's structure is the
        shipped ``envelope.schema.json``'s to check; what a schema cannot
        state (chart bounds in order, a resolution of the chart's rank, a
        scalar range in order, foci and heights in the generating function's
        domain) is checked here, and any failure is a ConfigError naming the
        file."""
        from .builtins import genfun_from_descriptor
        doc = read_json(path, "envelope")
        xbars, zs = zip(*doc["pieces"])
        try:
            gf = genfun_from_descriptor(doc["genfun"])
            grid = DomainGrid(gf.source_chart, doc["grid_resolution"])
            env = Envelope(gf, (xbars, zs), grid)
            # the grid scan does not check foci; Envelope.eval does
            bad = np.flatnonzero(~gf._focus_ok(env.xbars, env.zs))
        except (ConfigError, ValueError) as e:
            raise ConfigError(f"envelope file {path}: {e}") from e
        if bad.size:
            raise ConfigError(f"envelope file {path}: piece {bad[0]} has its focus or "
                              f"height outside the domain of {gf.name}")
        env.focus_cell_volume = doc.get("focus_cell_volume")
        return env


@dataclass
class Section:
    """Rasterized sublevel set S = {u <= m} with its cotangent image."""

    env: Envelope
    m: GAffine
    mask: np.ndarray

    def __post_init__(self):
        if not np.any(self.mask):
            self.empty = True
        else:
            self.empty = False

    def contains(self, x):
        u, _ = self.env.eval(x)
        return u <= self.m.value(x) + self.env.tols.tie

    def points(self):
        return self.env.grid.points[self.mask]

    def volume(self):
        return float(np.sum(self.env.grid.weights[self.mask]))

    def coord_image(self):
        """p-coordinates of the masked cell centers (w.r.t. the section's piece)."""
        if self.empty:
            return np.zeros((0, self.env.gf.dim))
        return p_map(self.env.gf, self.m.xbar, self.m.z, self.points())

    def convexity_score(self, seed=0):
        """How far the coordinate image is from filling its convex hull.

        Probes 512 points uniform in the hull of the image cloud and measures
        the distance to the nearest cloud point; the score is normalized by
        the cloud's own spacing (max nearest-neighbor gap), so values near 1
        mean "convex at grid resolution" and large values flag holes.
        """
        from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree
        cloud = self.coord_image()
        if cloud.shape[0] <= self.env.gf.dim + 1:
            return {"score": 0.0, "cloud_spacing": 0.0, "ratio": 0.0,
                    "n_cloud": int(cloud.shape[0])}
        snap = self.env.tols.hull_snap
        snapped = np.round(cloud / snap) * snap
        try:
            hull = ConvexHull(snapped)
            tri = Delaunay(snapped[hull.vertices])
        except QhullError:
            return {"score": np.inf, "cloud_spacing": 0.0, "ratio": np.inf,
                    "n_cloud": int(cloud.shape[0])}
        tree = cKDTree(cloud)
        spacing = float(np.max(tree.query(cloud, k=2)[0][:, 1]))
        rng = np.random.default_rng(seed)
        lo, hi = snapped.min(axis=0), snapped.max(axis=0)
        n_probe = 512
        probes = []
        attempts = 0
        while len(probes) < n_probe and attempts < 50 * n_probe:
            cand = rng.uniform(lo, hi, size=(n_probe, cloud.shape[1]))
            inside = tri.find_simplex(cand) >= 0
            probes.extend(cand[inside])
            attempts += n_probe
        if not probes:
            return {"score": 0.0, "cloud_spacing": spacing, "ratio": 0.0,
                    "n_cloud": int(cloud.shape[0])}
        probes = np.asarray(probes[:n_probe])
        dists = tree.query(probes)[0]
        score = float(np.max(dists))
        return {"score": score, "cloud_spacing": spacing,
                "ratio": score / spacing if spacing > 0 else np.inf,
                "n_cloud": int(cloud.shape[0])}


def _hull_volume(cloud):
    from scipy.spatial import ConvexHull, QhullError
    if cloud.shape[0] <= cloud.shape[1]:
        return 0.0
    try:
        return float(ConvexHull(cloud).volume)
    except QhullError:
        return 0.0
