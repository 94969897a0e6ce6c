"""Seeded mobility models and incremental unit-disk topology maintenance.

The paper deploys a static field, but its node-addition, revocation and
key-refresh mechanisms only earn their keep when the topology keeps
changing underneath them. This module supplies the moving ground truth:

* :class:`WaypointDrift` — the classic random-waypoint model: every node
  drifts toward a uniformly drawn target at a per-leg speed, optionally
  pauses, then picks a new target;
* :class:`GroupMotion` — reference-point group mobility: group centers
  follow random waypoints while members jitter around a bounded offset
  from their center (patrol squads, sensor clusters on vehicles);
* :class:`MobileTopology` — the unit-disk neighbor graph under motion,
  maintained *incrementally*: the cell decomposition is the same one
  :class:`repro.sim.topology.CellGrid` uses (cell size = reach, 3x3
  stencil), built once via ``CellGrid`` and then updated by moving ids
  between buckets only when they cross a cell boundary. Exact neighbor
  sets are filtered from per-node *candidate* lists (a Verlet list with
  skin): a node's candidates are every id within ``radius + skin`` at
  its last rebuild, and a rebuild happens only after the node has moved
  more than ``skin / 2`` — so per-step work is proportional to how much
  actually moved, not to the field size.

Every model draws exclusively from the ``numpy`` generator it is handed
(seeded via the deployment's named RNG streams), and nothing here reads
a wall clock: time enters only as the caller's ``dt``. Same seed, same
trajectory, same link-change sequence — the property the churn scenarios
and their CI gate rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.sim.topology import CellGrid
from repro.util.validate import check_positive

__all__ = [
    "TopologyDelta",
    "MobileTopology",
    "WaypointDrift",
    "GroupMotion",
    "MOBILITY_MODELS",
    "build_mobility_model",
]

#: Mobility model names selectable by the CLI (``--mobility`` values).
MOBILITY_MODELS = ("waypoint", "group")


@dataclass(frozen=True)
class TopologyDelta:
    """Link changes produced by one topology mutation.

    Edges are undirected and canonical: ``(lo, hi)`` with ``lo < hi``,
    sorted. ``rebuilt`` counts how many candidate lists were rebuilt —
    the incremental-maintenance cost of the step (0 when nothing moved
    far enough).
    """

    added: tuple[tuple[int, int], ...]
    removed: tuple[tuple[int, int], ...]
    rebuilt: int = 0

    @property
    def changed(self) -> bool:
        """Whether any link appeared or disappeared."""
        return bool(self.added or self.removed)

    def touched_ids(self) -> set[int]:
        """Every node id incident to a changed link."""
        out: set[int] = set()
        for a, b in self.added:
            out.add(a)
            out.add(b)
        for a, b in self.removed:
            out.add(a)
            out.add(b)
        return out


def _dist2(a: np.ndarray, b: np.ndarray) -> float:
    dx = float(a[0] - b[0])
    dy = float(a[1] - b[1])
    return dx * dx + dy * dy


class MobileTopology:
    """Unit-disk neighbor graph over moving, id-keyed positions.

    Ties at exactly ``radius`` count as neighbors, matching
    :func:`repro.sim.topology.neighbor_lists`. The structure is id-keyed
    (not index-keyed) so the base station, original sensors and
    post-deployment joins all live in one graph.
    """

    def __init__(
        self,
        positions: Mapping[int, np.ndarray],
        radius: float,
        skin: float | None = None,
    ) -> None:
        check_positive("radius", radius)
        self.radius = float(radius)
        self.skin = float(skin) if skin is not None else 0.5 * self.radius
        check_positive("skin", self.skin)
        self._reach = self.radius + self.skin
        self._cell_size = self._reach
        self._pos: dict[int, np.ndarray] = {
            nid: np.asarray(p, dtype=float).copy() for nid, p in positions.items()
        }
        self._cell: dict[int, tuple[int, int]] = {}
        self._buckets: dict[tuple[int, int], set[int]] = {}
        self._candidates: dict[int, set[int]] = {}
        self._ref: dict[int, np.ndarray] = {}
        self._neighbors: dict[int, set[int]] = {}
        for nid, p in self._pos.items():
            key = self._cell_key(p)
            self._cell[nid] = key
            self._buckets.setdefault(key, set()).add(nid)
            self._ref[nid] = p.copy()
        # Initial candidate lists come from a one-shot CellGrid build over
        # the starting positions — the bulk path; everything after is
        # incremental bucket maintenance.
        ids = sorted(self._pos)
        if ids:
            arr = np.array([self._pos[nid] for nid in ids])
            grid = CellGrid(arr, self._cell_size)
            for k, nid in enumerate(ids):
                hits = grid.query_disk(arr[k], self._reach)
                self._candidates[nid] = {ids[int(j)] for j in hits if int(j) != k}
        r2 = self.radius * self.radius
        for nid in ids:
            p = self._pos[nid]
            self._neighbors[nid] = {
                j for j in self._candidates[nid] if _dist2(p, self._pos[j]) <= r2
            }

    # -- queries -------------------------------------------------------------

    def ids(self) -> list[int]:
        """All node ids in the graph, sorted."""
        return sorted(self._pos)

    def __contains__(self, nid: int) -> bool:
        return nid in self._pos

    def position_of(self, nid: int) -> np.ndarray:
        """Current position of ``nid`` (a copy)."""
        return self._pos[nid].copy()

    def positions_snapshot(self) -> dict[int, np.ndarray]:
        """Copy of every node's current position."""
        return {nid: p.copy() for nid, p in self._pos.items()}

    def neighbor_map(self, ids: Iterable[int] | None = None) -> dict[int, list[int]]:
        """Sorted neighbor lists for ``ids`` (default: every node)."""
        wanted = self._pos.keys() if ids is None else ids
        return {nid: sorted(self._neighbors[nid]) for nid in wanted}

    def edge_count(self) -> int:
        """Number of undirected links currently present."""
        return sum(len(nb) for nb in self._neighbors.values()) // 2

    # -- mutation ------------------------------------------------------------

    def move(self, new_positions: Mapping[int, np.ndarray]) -> TopologyDelta:
        """Apply one motion step; returns the exact link delta.

        Every id in ``new_positions`` must already be in the graph.
        Correctness does not depend on step size: a node that jumps
        beyond the skin margin simply triggers an immediate candidate
        rebuild before neighbors are recomputed.
        """
        moved: list[int] = []
        for nid, p in new_positions.items():
            if nid not in self._pos:
                raise KeyError(f"unknown node id {nid}")
            arr = np.asarray(p, dtype=float).copy()
            self._pos[nid] = arr
            moved.append(nid)
            key = self._cell_key(arr)
            old_key = self._cell[nid]
            if key != old_key:
                bucket = self._buckets[old_key]
                bucket.discard(nid)
                if not bucket:
                    del self._buckets[old_key]
                self._buckets.setdefault(key, set()).add(nid)
                self._cell[nid] = key
        # Candidate sets as they were before any rebuild: a removed link's
        # far endpoint may only be reachable through them.
        pre_candidates: set[int] = set()
        rebuild: list[int] = []
        half_skin2 = (self.skin * 0.5) ** 2
        for nid in moved:
            pre_candidates |= self._candidates[nid]
            if _dist2(self._pos[nid], self._ref[nid]) > half_skin2:
                rebuild.append(nid)
        for nid in rebuild:
            self._rebuild(nid)
        dirty = set(moved) | pre_candidates
        for nid in moved:
            dirty |= self._candidates[nid]
        added, removed = self._recompute(dirty)
        return TopologyDelta(added, removed, rebuilt=len(rebuild))

    def add(self, nid: int, position: np.ndarray) -> TopologyDelta:
        """Insert a new node (a post-deployment join); returns its links."""
        if nid in self._pos:
            raise ValueError(f"node id {nid} already present")
        arr = np.asarray(position, dtype=float).copy()
        self._pos[nid] = arr
        key = self._cell_key(arr)
        self._cell[nid] = key
        self._buckets.setdefault(key, set()).add(nid)
        self._candidates[nid] = set()
        self._ref[nid] = arr.copy()
        self._neighbors[nid] = set()
        self._rebuild(nid)
        added, removed = self._recompute({nid} | self._candidates[nid])
        return TopologyDelta(added, removed, rebuilt=1)

    def remove(self, nid: int) -> TopologyDelta:
        """Remove a node (permanent departure); returns the severed links."""
        if nid not in self._pos:
            raise KeyError(f"unknown node id {nid}")
        removed = tuple(sorted((min(nid, j), max(nid, j)) for j in self._neighbors[nid]))
        for j in self._candidates[nid]:
            self._candidates[j].discard(nid)
        for j in self._neighbors[nid]:
            self._neighbors[j].discard(nid)
        key = self._cell[nid]
        bucket = self._buckets[key]
        bucket.discard(nid)
        if not bucket:
            del self._buckets[key]
        del self._pos[nid], self._cell[nid], self._ref[nid]
        del self._candidates[nid], self._neighbors[nid]
        return TopologyDelta((), removed, rebuilt=0)

    # -- internals -----------------------------------------------------------

    def _cell_key(self, p: np.ndarray) -> tuple[int, int]:
        return (
            int(math.floor(float(p[0]) / self._cell_size)),
            int(math.floor(float(p[1]) / self._cell_size)),
        )

    def _rebuild(self, nid: int) -> None:
        """Refresh ``nid``'s candidate list from the 3x3 bucket stencil."""
        p = self._pos[nid]
        cx, cy = self._cell[nid]
        found: set[int] = set()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = self._buckets.get((cx + dx, cy + dy))
                if bucket:
                    found |= bucket
        found.discard(nid)
        reach2 = self._reach * self._reach
        cand = {j for j in found if _dist2(p, self._pos[j]) <= reach2}
        old = self._candidates[nid]
        for j in old - cand:
            self._candidates[j].discard(nid)
        for j in cand - old:
            self._candidates[j].add(nid)
        self._candidates[nid] = cand
        self._ref[nid] = p.copy()

    def _recompute(
        self, dirty: set[int]
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """Re-filter candidates by true distance for every dirty node."""
        r2 = self.radius * self.radius
        added: set[tuple[int, int]] = set()
        removed: set[tuple[int, int]] = set()
        for nid in dirty:
            p = self._pos[nid]
            new_nb = {j for j in self._candidates[nid] if _dist2(p, self._pos[j]) <= r2}
            old_nb = self._neighbors[nid]
            for j in new_nb - old_nb:
                added.add((min(nid, j), max(nid, j)))
                self._neighbors[j].add(nid)
            for j in old_nb - new_nb:
                removed.add((min(nid, j), max(nid, j)))
                self._neighbors[j].discard(nid)
            self._neighbors[nid] = new_nb
        return tuple(sorted(added)), tuple(sorted(removed))


class WaypointDrift:
    """Random-waypoint motion over an ``side x side`` field.

    Each node moves toward a uniformly drawn target at a per-leg speed
    drawn from ``[speed_min, speed_max]``; on arrival it optionally
    pauses for ``pause_s``, then draws the next leg. Fully determined by
    the generator it is handed.
    """

    def __init__(
        self,
        positions: Mapping[int, np.ndarray],
        side: float,
        rng: np.random.Generator,
        speed_min: float = 0.5,
        speed_max: float = 2.0,
        pause_s: float = 0.0,
    ) -> None:
        check_positive("side", side)
        check_positive("speed_min", speed_min)
        if speed_max < speed_min:
            raise ValueError("speed_max must be >= speed_min")
        if pause_s < 0:
            raise ValueError("pause_s must be >= 0")
        self.ids: list[int] = sorted(positions)
        self.side = float(side)
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self.pause_s = float(pause_s)
        self._rng = rng
        k = len(self.ids)
        self._pos = np.array(
            [np.asarray(positions[nid], dtype=float) for nid in self.ids]
        ).reshape(k, 2)
        self._targets = rng.uniform(0.0, self.side, size=(k, 2))
        self._speeds = rng.uniform(self.speed_min, self.speed_max, size=k)
        self._pause = np.zeros(k)

    def step(self, dt: float) -> dict[int, np.ndarray]:
        """Advance every node by ``dt`` seconds; returns new positions."""
        check_positive("dt", dt)
        if not self.ids:
            return {}
        delta = self._targets - self._pos
        dist = np.linalg.norm(delta, axis=1)
        step_len = self._speeds * dt
        paused = self._pause > 0.0
        self._pause = np.maximum(0.0, self._pause - dt)
        step_len = np.where(paused, 0.0, step_len)
        arrive = (dist <= step_len) & ~paused
        cruise = ~arrive & ~paused & (dist > 0.0)
        scale = np.zeros_like(dist)
        scale[cruise] = step_len[cruise] / dist[cruise]
        self._pos = self._pos + delta * scale[:, None]
        self._pos[arrive] = self._targets[arrive]
        n_arrived = int(np.count_nonzero(arrive))
        if n_arrived:
            self._targets[arrive] = self._rng.uniform(0.0, self.side, size=(n_arrived, 2))
            self._speeds[arrive] = self._rng.uniform(
                self.speed_min, self.speed_max, size=n_arrived
            )
            if self.pause_s > 0.0:
                self._pause[arrive] = self.pause_s
        return {nid: self._pos[k].copy() for k, nid in enumerate(self.ids)}


class GroupMotion:
    """Reference-point group mobility: drifting centers, jittering members.

    Nodes are assigned round-robin to ``groups`` reference points; each
    center follows its own random waypoint (via an internal
    :class:`WaypointDrift`), while members hold a bounded offset from
    their center perturbed by a small random walk. Models squads of
    sensors moving together — the regime where whole clusters migrate
    at once.
    """

    def __init__(
        self,
        positions: Mapping[int, np.ndarray],
        side: float,
        rng: np.random.Generator,
        groups: int = 4,
        speed_min: float = 0.5,
        speed_max: float = 2.0,
        jitter: float = 0.3,
        max_offset: float | None = None,
    ) -> None:
        check_positive("side", side)
        check_positive("groups", groups)
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.ids: list[int] = sorted(positions)
        self.side = float(side)
        self.jitter = float(jitter)
        self._rng = rng
        k = len(self.ids)
        groups = min(int(groups), max(1, k))
        self._group = np.array([i % groups for i in range(k)], dtype=np.int64)
        self._pos = np.array(
            [np.asarray(positions[nid], dtype=float) for nid in self.ids]
        ).reshape(k, 2)
        centers: dict[int, np.ndarray] = {}
        for g in range(groups):
            members = self._group == g
            centers[g] = (
                self._pos[members].mean(axis=0)
                if bool(members.any())
                else np.array([self.side / 2.0, self.side / 2.0])
            )
        self._centers = WaypointDrift(
            centers, side, rng, speed_min=speed_min, speed_max=speed_max
        )
        center_arr = np.array([centers[int(g)] for g in self._group]).reshape(k, 2)
        self._offsets = self._pos - center_arr
        if max_offset is None:
            norms = np.linalg.norm(self._offsets, axis=1)
            max_offset = max(1.0, float(norms.max(initial=0.0)))
        check_positive("max_offset", max_offset)
        self.max_offset = float(max_offset)

    def step(self, dt: float) -> dict[int, np.ndarray]:
        """Advance centers and member offsets by ``dt`` seconds."""
        check_positive("dt", dt)
        if not self.ids:
            return {}
        centers = self._centers.step(dt)
        k = len(self.ids)
        if self.jitter > 0.0:
            self._offsets = self._offsets + self._rng.normal(
                0.0, self.jitter * math.sqrt(dt), size=(k, 2)
            )
            norms = np.linalg.norm(self._offsets, axis=1)
            over = norms > self.max_offset
            if bool(over.any()):
                self._offsets[over] *= (self.max_offset / norms[over])[:, None]
        center_arr = np.array([centers[int(g)] for g in self._group]).reshape(k, 2)
        self._pos = np.clip(center_arr + self._offsets, 0.0, self.side)
        return {nid: self._pos[i].copy() for i, nid in enumerate(self.ids)}


def build_mobility_model(
    kind: str,
    positions: Mapping[int, np.ndarray],
    side: float,
    rng: np.random.Generator,
    speed_min: float = 0.5,
    speed_max: float = 2.0,
    groups: int = 4,
) -> WaypointDrift | GroupMotion:
    """Construct the named mobility model over ``positions``.

    Raises:
        ValueError: unknown ``kind`` (valid names in :data:`MOBILITY_MODELS`).
    """
    if kind == "waypoint":
        return WaypointDrift(
            positions, side, rng, speed_min=speed_min, speed_max=speed_max
        )
    if kind == "group":
        return GroupMotion(
            positions, side, rng, groups=groups, speed_min=speed_min, speed_max=speed_max
        )
    raise ValueError(
        f"unknown mobility model {kind!r}; choose one of {', '.join(MOBILITY_MODELS)}"
    )
