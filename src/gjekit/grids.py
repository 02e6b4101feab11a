"""Regular evaluation grids over chart domains, with cell weights and masks.

A ``DomainGrid`` covers a chart's coordinate box with an axis-aligned grid
of cells; midpoint quadrature over cell centers is the integration rule
everywhere in the toolkit.  Cell weights fold in the chart's metric factor
(1/w for the orthographic sphere chart), so sums of ``weights * f`` are
integrals against the chart's surface measure; the weights are also the
source measure of every solve and ray trace.  For sphere charts, cells
whose center falls outside the cap are dropped.
"""

import numpy as np

from .charts import SphereChart


class DomainGrid:
    """Cell-centered grid over a chart's coordinate domain."""

    def __init__(self, chart, resolution):
        self.chart = chart
        if np.isscalar(resolution):
            resolution = (int(resolution),) * chart.dim
        self.resolution = tuple(int(r) for r in resolution)
        if len(self.resolution) != chart.dim:
            raise ValueError("resolution rank must match chart dimension")
        lo, hi = np.asarray(chart.lo, float), np.asarray(chart.hi, float)
        self.cell_size = (hi - lo) / np.asarray(self.resolution)
        axes = [lo[d] + (np.arange(self.resolution[d]) + 0.5) * self.cell_size[d]
                for d in range(chart.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        if isinstance(chart, SphereChart):
            keep = np.sum(coords * coords, axis=1) < chart.chart_radius ** 2
            coords = coords[keep]
        self.coords = coords                      # (m, dim) chart coordinates
        self.points = chart.embed(coords)         # (m, embdim)
        cell_area = float(np.prod(self.cell_size))
        self.weights = cell_area * chart.measure_density(coords)

    @property
    def n_cells(self):
        return self.coords.shape[0]

    def width(self):
        """Characteristic cell width (max over axes)."""
        return float(np.max(self.cell_size))

    def ball_mask(self, center_coords, radius):
        d = self.coords - np.asarray(center_coords, float)
        return np.sum(d * d, axis=1) <= radius ** 2

