"""Pluggable point-location backends for the serving layer.

A backend turns a built :class:`~repro.spatial.partition.Partition` into an
index structure answering one question, fully vectorised: *which region
covers each of these grid cells?* -- asked by the cell ids of
:meth:`~repro.spatial.grid.Grid.cell_ids` (``-1`` off the map answers
``-1``).  Two implementations are registered in
:data:`repro.registry.BACKENDS` (the set :class:`~repro.config.ServingConfig`
and the CLI ``--backend`` flag choose from):

* :class:`DenseGridLocator` (``dense``, the default) — one ``take`` from
  the partition's flat labels.  Fastest, but its index is O(rows x cols)
  integers regardless of how few regions there are.
* :class:`SparseBandLocator` (``sparse``) — walks the partition's
  structure instead of materialising it per cell: the grid's rows are cut
  into *bands* at every region boundary, each band keeps its regions'
  column segments sorted, and a lookup is two ``searchsorted`` probes.
  Index size is O(segments) — proportional to the region count and band
  structure, independent of grid resolution — which is what a
  1e5 x 1e5-cell map needs.

Both backends return identical region assignments for every cell —
``-1`` for uncovered cells of incomplete partitions — a guarantee
enforced bit-exactly by ``tests/serving/test_backends.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..registry import register_backend
from ..spatial.partition import Partition

__all__ = ["LocatorBackend", "DenseGridLocator", "SparseBandLocator"]


class LocatorBackend:
    """Interface every registered locator backend implements.

    Construction takes the partition to index; :meth:`locate_ids` maps
    int64 cell ids (``Grid.cell_ids``) to the covering region index, ``-1``
    for id ``-1`` and uncovered cells.  :meth:`locate_cells` flattens
    in-grid ``(rows, cols)`` pairs to ids first.
    """

    #: Canonical registry name, set by each concrete class.
    name: str = ""

    def __init__(self, partition: Partition) -> None:
        self._partition = partition
        self._cols = partition.grid.cols

    @property
    def partition(self) -> Partition:
        return self._partition

    def locate_ids(self, ids: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def locate_cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # array: rows int64
        # array: cols int64
        # returns: int64
        return self.locate_ids(rows * self._cols + cols)

    def memory_bytes(self) -> int:
        """Size of the backend's own index structure (not the partition)."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return {"backend": self.name, "index_bytes": self.memory_bytes()}


@register_backend(
    "dense",
    aliases=("label_grid", "grid"),
    summary="dense cell->region label grid; one take per batch",
)
class DenseGridLocator(LocatorBackend):
    """Lookups straight off the partition's flat labels, one ``take`` a batch.

    The index *is* ``partition.flat_labels`` (shared, not copied), whose
    last slot is the ``-1`` the off-map id indexes, so this backend adds
    no memory of its own but inherits the grid's O(rows x cols) footprint.
    """

    name = "dense"

    def __init__(self, partition: Partition) -> None:
        super().__init__(partition)
        self._flat = partition.flat_labels

    def locate_ids(self, ids: np.ndarray) -> np.ndarray:
        # array: ids int64
        # returns: int64
        return self._flat.take(ids)

    def memory_bytes(self) -> int:
        return int(self._flat.nbytes)


@register_backend(
    "sparse",
    aliases=("band_index", "tree_walk"),
    summary="row-band interval index over region extents; O(regions) memory, "
    "two searchsorted probes per batch",
)
class SparseBandLocator(LocatorBackend):
    """Memory-lean lookups from a sorted row-band / column-segment index.

    Regions are axis-aligned cell rectangles, so every horizontal region
    boundary cuts the grid's rows into *bands* inside which the column
    structure is constant.  The index stores, per band, each covering
    region's column segment ``[col_start, col_stop)`` encoded as flattened
    keys ``band * cols + col``:

    * ``_starts`` — segment start keys, globally sorted (bands are sorted
      and segments within a band are disjoint and sorted);
    * ``_stops`` / ``_labels`` — the matching segment end keys and region
      indices.

    A batch lookup is then branch-free: ``searchsorted`` the query rows
    (``ids // cols``) into the band table, encode ``band * cols + col``,
    ``searchsorted`` into ``_starts``, and keep the hit only where the
    query key is still below the segment's end key — which simultaneously
    rejects cells in coverage gaps and keys that landed on a previous
    band's last segment.  Id ``-1`` stays key ``-1`` and misses them all.
    """

    name = "sparse"

    def __init__(self, partition: Partition) -> None:
        super().__init__(partition)
        grid = partition.grid
        boundaries = {0, grid.rows}
        for region in partition.regions:
            boundaries.add(region.row_start)
            boundaries.add(region.row_stop)
        self._row_bounds = np.array(sorted(boundaries), dtype=np.int64)  # array: _row_bounds int64[bands]

        segments: List[Tuple[int, int, int]] = []
        band_of_row = {int(row): band for band, row in enumerate(self._row_bounds[:-1])}
        for index, region in enumerate(partition.regions):
            first = band_of_row[region.row_start]
            band = first
            while self._row_bounds[band] < region.row_stop:
                start = band * self._cols + region.col_start
                segments.append((start, band * self._cols + region.col_stop, index))
                band += 1
        segments.sort()
        self._starts = np.array([s[0] for s in segments], dtype=np.int64)  # array: _starts int64[segments]
        self._stops = np.array([s[1] for s in segments], dtype=np.int64)  # array: _stops int64[segments]
        self._labels = np.array([s[2] for s in segments], dtype=np.int64)  # array: _labels int64[segments]

    def locate_ids(self, ids: np.ndarray) -> np.ndarray:
        # returns: int64
        ids = np.asarray(ids, dtype=np.int64)
        rows = ids // self._cols
        bands = np.searchsorted(self._row_bounds, rows, side="right") - 1
        keys = ids + (bands - rows) * self._cols
        hits = np.searchsorted(self._starts, keys, side="right") - 1
        clamped = np.maximum(hits, 0)
        covered = (hits >= 0) & (keys < self._stops[clamped])
        return np.where(covered, self._labels[clamped], -1)

    def memory_bytes(self) -> int:
        return int(
            self._row_bounds.nbytes
            + self._starts.nbytes
            + self._stops.nbytes
            + self._labels.nbytes
        )
