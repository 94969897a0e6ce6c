"""Node deployments with density control and fast neighbor computation.

The paper deploys "several thousands of nodes (2500 to 3600) in a random
topology" and sweeps the *density* — the average number of neighbors per
sensor — from 8 to 20 by fixing node count and communication range and
scaling the field. For a uniform deployment on an ``L x L`` field with
unit-disk radius ``r``, the expected neighbor count (away from edges) is
``n * pi * r^2 / L^2``, which :meth:`Deployment.random_uniform` inverts to
pick ``L`` for a requested density.

Neighbor lists are computed with a vectorized uniform cell grid (cell size
``r``, 3x3 stencil) instead of the O(n^2) all-pairs distance matrix; at
n = 20 000 the grid is ~two orders of magnitude faster and keeps the
scale-invariance bench cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.util.validate import check_positive


class CellGrid:
    """Uniform spatial hash over a fixed set of positions.

    Buckets node indices into square cells of ``cell_size`` once (O(n)),
    then answers disk queries by scanning only the cells the disk can
    touch — the same decomposition :func:`neighbor_lists` uses, exposed
    as a reusable index.
    """

    __slots__ = ("positions", "cell_size", "_buckets")

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        check_positive("cell_size", cell_size)
        self.positions = np.asarray(positions, dtype=float)
        self.cell_size = cell_size
        cells = np.floor(self.positions / cell_size).astype(np.int64)
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, key in enumerate(map(tuple, cells)):
            buckets.setdefault(key, []).append(i)
        self._buckets = {k: np.array(v, dtype=np.int64) for k, v in buckets.items()}

    def cell_of(self, point: np.ndarray) -> tuple[int, int]:
        """Cell coordinates of an arbitrary ``point``."""
        point = np.asarray(point, dtype=float)
        return (
            int(math.floor(point[0] / self.cell_size)),
            int(math.floor(point[1] / self.cell_size)),
        )

    def query_disk(self, point: np.ndarray, radius: float) -> np.ndarray:
        """Sorted indices of positions within ``radius`` of ``point``.

        Ties at exactly ``radius`` are included, matching
        :func:`neighbor_lists` semantics.
        """
        check_positive("radius", radius)
        point = np.asarray(point, dtype=float)
        cx, cy = self.cell_of(point)
        reach = int(math.ceil(radius / self.cell_size))
        parts = []
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                part = self._buckets.get((cx + dx, cy + dy))
                if part is not None:
                    parts.append(part)
        if not parts:
            return np.empty(0, dtype=np.int64)
        candidates = np.concatenate(parts)
        d2 = np.sum((self.positions[candidates] - point) ** 2, axis=1)
        hits = candidates[d2 <= radius * radius]
        hits.sort()
        return hits


def neighbor_lists(positions: np.ndarray, radius: float) -> list[np.ndarray]:
    """Unit-disk neighbor lists: ``result[i]`` = indices within ``radius`` of i.

    Self-edges are excluded. Ties at exactly ``radius`` count as neighbors.
    """
    check_positive("radius", radius)
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if n == 0:
        return []
    cells = np.floor(positions / radius).astype(np.int64)
    # Bucket node indices by cell.
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (cx, cy) in enumerate(map(tuple, cells)):
        buckets.setdefault((cx, cy), []).append(i)
    bucket_arrays = {k: np.array(v, dtype=np.int64) for k, v in buckets.items()}

    r2 = radius * radius
    result: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for (cx, cy), members in bucket_arrays.items():
        # Gather all candidates from the 3x3 cell stencil once per cell.
        cand_parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                part = bucket_arrays.get((cx + dx, cy + dy))
                if part is not None:
                    cand_parts.append(part)
        candidates = np.concatenate(cand_parts)
        cand_pos = positions[candidates]
        for i in members:
            d2 = np.sum((cand_pos - positions[i]) ** 2, axis=1)
            mask = (d2 <= r2) & (candidates != i)
            result[i] = candidates[mask]
    return result


@dataclass
class Deployment:
    """A deployed field: positions, unit-disk radius, precomputed neighbors."""

    positions: np.ndarray
    radius: float
    side: float
    neighbors: list[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.neighbors:
            self.neighbors = neighbor_lists(self.positions, self.radius)
        self._grid: CellGrid | None = None

    @property
    def cell_grid(self) -> CellGrid:
        """Lazily built spatial index over the deployed positions.

        Cell size is the unit-disk ``radius``, so a radius-r disk query
        touches at most a 3x3 stencil. (Named ``cell_grid`` because
        :meth:`grid` is the regular-grid constructor.)
        """
        if self._grid is None:
            self._grid = CellGrid(self.positions, self.radius)
        return self._grid

    def invalidate_index(self) -> None:
        """Drop the cached spatial index after in-place position updates.

        Mobility models (:mod:`repro.sim.mobility`) mutate ``positions``
        mid-run; the next :attr:`cell_grid` / :meth:`nodes_within` call
        rebuilds the grid over the moved field. The build-time
        ``neighbors`` snapshot is *not* recomputed — under motion the
        live adjacency belongs to :class:`~repro.sim.mobility.MobileTopology`
        (and :class:`~repro.sim.network.Network`), not to this snapshot.
        """
        self._grid = None

    @property
    def n(self) -> int:
        """Number of deployed nodes."""
        return len(self.positions)

    @property
    def mean_degree(self) -> float:
        """Measured average neighbors per node (the paper's "density")."""
        if self.n == 0:
            return 0.0
        return float(np.mean([len(nb) for nb in self.neighbors]))

    @classmethod
    def random_uniform(
        cls,
        n: int,
        density: float,
        rng: np.random.Generator,
        radius: float = 10.0,
    ) -> "Deployment":
        """Uniform random deployment targeting a mean degree of ``density``.

        The field side is chosen from the expected-degree formula
        ``density = n * pi * r^2 / L^2``; edge effects make the measured
        mean degree land slightly below the target, exactly as on a real
        field (and in the paper's own simulator).
        """
        check_positive("n", n)
        check_positive("density", density)
        check_positive("radius", radius)
        side = math.sqrt(n * math.pi * radius * radius / density)
        positions = rng.uniform(0.0, side, size=(n, 2))
        return cls(positions=positions, radius=radius, side=side)

    @classmethod
    def grid(cls, rows: int, cols: int, spacing: float, radius: float) -> "Deployment":
        """Regular grid deployment (used by deterministic tests)."""
        check_positive("spacing", spacing)
        xs, ys = np.meshgrid(np.arange(cols) * spacing, np.arange(rows) * spacing)
        positions = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
        side = max(rows, cols) * spacing
        return cls(positions=positions, radius=radius, side=side)

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between nodes ``i`` and ``j``."""
        return float(np.linalg.norm(self.positions[i] - self.positions[j]))

    def nodes_within(self, point: np.ndarray, radius: float) -> np.ndarray:
        """Indices of nodes within ``radius`` of an arbitrary ``point``.

        Served from the cell grid — a stencil of cells instead of an
        all-nodes distance scan — so post-deployment joins stay cheap
        even at 10k nodes.
        """
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        return self.cell_grid.query_disk(point, radius)

    def connected_components(self) -> list[np.ndarray]:
        """Connected components of the unit-disk graph (BFS flood)."""
        seen = np.zeros(self.n, dtype=bool)
        components = []
        for start in range(self.n):
            if seen[start]:
                continue
            frontier = [start]
            seen[start] = True
            comp = [start]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in self.neighbors[u]:
                        if not seen[v]:
                            seen[v] = True
                            comp.append(int(v))
                            nxt.append(int(v))
                frontier = nxt
            components.append(np.array(sorted(comp), dtype=np.int64))
        return components

    def hop_counts_from(self, sources: list[int]) -> np.ndarray:
        """BFS hop distance from the nearest of ``sources``; -1 if unreachable.

        Used to build the hop-count gradient towards the base station.
        """
        hops = np.full(self.n, -1, dtype=np.int64)
        frontier = [s for s in sources if 0 <= s < self.n]
        for s in frontier:
            hops[s] = 0
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in self.neighbors[u]:
                    if hops[v] < 0:
                        hops[v] = level
                        nxt.append(int(v))
            frontier = nxt
        return hops
