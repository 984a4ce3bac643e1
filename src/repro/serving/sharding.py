"""Spatial sharding: one partition served as independently versioned tiles.

:class:`ShardedDeployment` tiles the map into a ``shard_rows x
shard_cols`` grid of cell blocks whose labels hot-swap one tile at a time
(:meth:`~ShardedDeployment.swap_shard`, :meth:`~ShardedDeployment.rollback_shard`),
each tile keeping its own version history.  Queries never see the tiling:
the deployment publishes one read-only flat label array in the
:attr:`~repro.spatial.partition.Partition.flat_labels` layout (``R*C``
row-major labels, then a ``-1`` slot for off-map points), and every batch
is one ``take`` of :meth:`~repro.spatial.grid.Grid.cell_ids` from it —
the dense :class:`~repro.serving.server.PartitionServer`'s own kernel, so
answers are bit-identical to it (``tests/serving/test_sharding.py``) at
the same speed (``benchmarks/test_bench_routing.py``).

Copy-on-write
-------------

Version 1 of every tile is a read-only view into the partition's label
grid, and an unswapped deployment serves ``partition.flat_labels`` itself,
so deploying sharded copies nothing.  A swap or rollback copies the
published array, pastes the tile's now-active version into the copy,
marks it read-only and publishes it by one reference assignment, all
under the deployment's admin mutex.  A query reads the reference once,
so an in-flight batch answers from one consistent snapshot of every tile
— never a torn mix (``tests/serving/test_shard_concurrency.py`` checks
racing reads bit-exact against a single-threaded oracle of the versioned
tile states).

Tile windows come from ``np.linspace(0, n, k + 1)`` edges per axis;
persisted patch logs replay by window, so the edges must never change.
:attr:`~repro.config.ServingConfig.backend` selects the index of
monolithic servers only: a sharded deployment always serves dense labels.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import ServingConfig
from ..exceptions import ServingError
from ..spatial.geometry import BoundingBox
from ..spatial.partition import Partition
from .locks import new_lock
from .server import PartitionServer, region_counts_from_assignment

__all__ = ["ShardedDeployment"]


class ShardedDeployment:
    """A partition served as ``shard_rows x shard_cols`` versioned tiles.

    Parameters
    ----------
    partition:
        The partition to shard.  Region indices stay global, so results
        are interchangeable with a monolithic server's.
    shard_rows, shard_cols:
        The shard tiling.  Must not exceed the grid's cell resolution
        (every shard needs at least one cell row/column).
    provenance:
        Build metadata surfaced by :meth:`describe`, like the server's.
    config:
        ``config.strict`` sets the default off-map behaviour, exactly as
        on :class:`~repro.serving.server.PartitionServer`.

    Thread-safety: queries are lock-free apart from the points counter
    (they answer from the read-only flat labels published by reference
    assignment); :meth:`swap_shard` / :meth:`rollback_shard` change one
    tile's history and republish under the deployment's admin mutex, so
    concurrent queries see either the old or the new snapshot, never a
    mix.
    """

    def __init__(
        self,
        partition: Partition,
        shard_rows: int = 2,
        shard_cols: int = 2,
        provenance: Dict[str, Any] | None = None,
        config: ServingConfig | None = None,
    ) -> None:
        grid = partition.grid
        if shard_rows < 1 or shard_cols < 1:
            raise ServingError(
                f"shard counts must be positive, got {shard_rows}x{shard_cols}"
            )
        if shard_rows > grid.rows or shard_cols > grid.cols:
            raise ServingError(
                f"cannot shard a {grid.rows}x{grid.cols} grid into "
                f"{shard_rows}x{shard_cols} tiles"
            )
        self._partition = partition
        self._grid = grid
        self._provenance = dict(provenance or {})
        self._config = config or ServingConfig()
        self._shard_rows = int(shard_rows)
        self._shard_cols = int(shard_cols)
        self._row_edges = np.linspace(0, grid.rows, shard_rows + 1).astype(
            np.int64, copy=False
        )
        self._col_edges = np.linspace(0, grid.cols, shard_cols + 1).astype(
            np.int64, copy=False
        )
        self._range_server = PartitionServer(
            partition, provenance=self._provenance, config=self._config
        )
        labels = partition.label_grid
        # Orders tile mutation + republish against each other; never held
        # by the query path.
        self._admin_lock = new_lock("sharded.admin_lock")
        self._history: List[List[np.ndarray]] = [  # guarded-by: self._admin_lock
            [labels[r0:r1, c0:c1]]
            for r0, r1, c0, c1 in map(
                self._window, range(self._shard_rows * self._shard_cols)
            )
        ]
        self._active = [0] * len(self._history)  # guarded-by: self._admin_lock
        self._flat = partition.flat_labels  # guarded-by(writes): self._admin_lock
        self._counter_lock = new_lock("sharded.counter_lock")
        self._points_served = 0  # guarded-by: self._counter_lock

    # -- introspection -------------------------------------------------------

    @property
    def partition(self) -> Partition:
        return self._partition

    @property
    def provenance(self) -> Dict[str, Any]:
        return dict(self._provenance)

    @property
    def n_regions(self) -> int:
        return len(self._partition)

    @property
    def shards(self) -> Tuple[int, int]:
        return (self._shard_rows, self._shard_cols)

    @property
    def backend(self) -> str:
        return "sharded"

    @property
    def points_served(self) -> int:
        """Total points answered."""
        with self._counter_lock:
            return self._points_served

    def describe(self) -> Dict[str, Any]:
        grid = self._grid
        return {
            "n_regions": len(self._partition),
            "grid_rows": grid.rows,
            "grid_cols": grid.cols,
            "bounds": [
                grid.bounds.min_x, grid.bounds.min_y, grid.bounds.max_x, grid.bounds.max_y,
            ],
            "backend": "sharded",
            "shards": [self._shard_rows, self._shard_cols],
            "shard_versions": self.shard_versions(),
            "index_bytes": int(self._flat.nbytes),
            "provenance": dict(self._provenance),
        }

    def shard_versions(self) -> List[List[int]]:
        """Per-tile serving version (1-based), as a ``shard_rows x shard_cols`` grid."""
        cols = self._shard_cols
        with self._admin_lock:
            return [
                [active + 1 for active in self._active[i * cols:(i + 1) * cols]]
                for i in range(self._shard_rows)
            ]

    def tile_window(self, row: int, col: int) -> Tuple[int, int, int, int]:
        """Cell window ``(r0, r1, c0, c1)`` of the tile at ``(row, col)``."""
        return self._window(self._shard_index(row, col))

    def compose_labels(self) -> np.ndarray:
        """The published flat labels, tile swaps applied (read-only, shared).

        The export path the multiprocess workers use: the
        ``Partition.flat_labels`` layout of the snapshot queries are
        answering from, so a worker publication after :meth:`swap_shard`
        ships the swapped tile, not the construction-time partition.
        """
        # returns: int64[n]
        return self._flat

    def __repr__(self) -> str:
        return (
            f"ShardedDeployment({len(self._partition)} regions over "
            f"{self._grid.rows}x{self._grid.cols} grid, "
            f"{self._shard_rows}x{self._shard_cols} shards)"
        )

    # -- point location and range queries -----------------------------------

    def locate_points(
        self, xs: np.ndarray, ys: np.ndarray, strict: Optional[bool] = None
    ) -> np.ndarray:
        """Region index per coordinate pair, from the published labels.

        Same contract and bits as :meth:`PartitionServer.locate_points`
        (``-1`` for off-map points in non-strict mode,
        :class:`~repro.exceptions.GridError` in strict mode, the input's
        shape out).
        """
        # returns: int64
        strict_mode = self._config.strict if strict is None else strict
        located = self._flat.take(self._grid.cell_ids(xs, ys, strict=strict_mode))
        with self._counter_lock:
            self._points_served += int(located.size)
        return located

    def region_counts(
        self, xs: np.ndarray, ys: np.ndarray, strict: Optional[bool] = None
    ) -> np.ndarray:
        """Points per region for a coordinate batch (off-map points dropped)."""
        return region_counts_from_assignment(
            self.locate_points(xs, ys, strict=strict), len(self._partition)
        )

    def range_query(self, query: BoundingBox) -> List[int]:
        """Regions intersecting ``query`` (delegates to the source partition).

        Range queries read region extents, not the served labels, so they
        are answered exactly like the monolithic server's.  Per-tile label
        swaps deliberately do not reach here: a swapped tile changes
        *point location* only, while region extents stay those of the
        source partition (the documented scope of shard-level hot-swap).
        """
        return self._range_server.range_query(query)

    # -- per-tile hot-swap -----------------------------------------------------

    def _window(self, index: int) -> Tuple[int, int, int, int]:
        i, j = divmod(int(index), self._shard_cols)
        return (
            int(self._row_edges[i]), int(self._row_edges[i + 1]),
            int(self._col_edges[j]), int(self._col_edges[j + 1]),
        )

    def _shard_index(self, row: int, col: int) -> int:
        row, col = int(row), int(col)
        if not (0 <= row < self._shard_rows and 0 <= col < self._shard_cols):
            raise ServingError(
                f"no shard ({row}, {col}) in a "
                f"{self._shard_rows}x{self._shard_cols} tiling; rows span "
                f"0..{self._shard_rows - 1} and cols 0..{self._shard_cols - 1}"
            )
        return row * self._shard_cols + col

    def _validate_tile_labels(self, row: int, col: int, labels: Any) -> np.ndarray:
        labels = np.asarray(labels)
        r0, r1, c0, c1 = self.tile_window(row, col)
        expected = (r1 - r0, c1 - c0)
        if labels.shape != expected:
            raise ServingError(
                f"shard ({int(row)}, {int(col)}) serves a "
                f"{expected[0]}x{expected[1]} cell tile; replacement labels "
                f"have shape {tuple(labels.shape)}"
            )
        if labels.dtype.kind not in "iu":
            raise ServingError(
                f"tile labels must be integer region indices, got dtype "
                f"{labels.dtype}"
            )
        # An own read-only copy: the history must not follow later writes
        # to the caller's array.
        tile = np.array(labels, dtype=np.int64)
        tile.setflags(write=False)
        if tile.size:
            lo, hi = int(tile.min()), int(tile.max())
            if lo < -1 or hi >= len(self._partition):
                raise ServingError(
                    f"tile labels must be -1 (uncovered) or region indices "
                    f"below {len(self._partition)}, got range [{lo}, {hi}]"
                )
        return tile

    def _pasted(self, index: int, tile: np.ndarray) -> np.ndarray:
        """A read-only copy of the published labels with tile ``index`` set."""
        r0, r1, c0, c1 = self._window(index)
        flat = self._flat.copy()
        flat[:-1].reshape(self._grid.shape)[r0:r1, c0:c1] = tile
        flat.setflags(write=False)
        return flat

    def _summary(self, row: int, col: int, version: int, total: int) -> Dict[str, Any]:
        return {
            "shard": [int(row), int(col)],
            "shard_version": version,
            "shard_versions_total": total,
        }

    def swap_shard(self, row: int, col: int, labels: np.ndarray) -> Dict[str, Any]:
        """Atomically replace the labels of the tile at ``(row, col)``.

        The new labels (validated against the tile's cell window and the
        partition's region count) are appended to the tile's version
        history and become its serving version; every other tile keeps
        serving untouched, and in-flight queries finish against the
        pre-swap snapshot.  Returns the tile's version summary.
        """
        index = self._shard_index(row, col)
        tile = self._validate_tile_labels(row, col, labels)
        with self._admin_lock:
            history = self._history[index]
            history.append(tile)
            self._active[index] = len(history) - 1
            self._flat = self._pasted(index, tile)
            return self._summary(row, col, len(history), len(history))

    def rollback_shard(self, row: int, col: int) -> Dict[str, Any]:
        """Step the tile at ``(row, col)`` back one version (its history stays).

        Raises :class:`~repro.exceptions.ServingError` when the tile is
        already serving its original labels.  A later :meth:`swap_shard`
        appends to the history as usual.
        """
        index = self._shard_index(row, col)
        with self._admin_lock:
            active = self._active[index]
            if active == 0:
                raise ServingError(
                    f"shard ({int(row)}, {int(col)}) is already serving its "
                    "original labels; nothing to roll back"
                )
            history = self._history[index]
            self._active[index] = active - 1
            self._flat = self._pasted(index, history[active - 1])
            return self._summary(row, col, active, len(history))
