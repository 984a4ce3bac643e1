"""Spatial sharding: one partition served as a tile grid of shard indexes.

A dense label grid over a continent-scale map does not fit one node.
:class:`ShardedDeployment` models the standard answer: tile the map into a
``shard_rows x shard_cols`` grid of independent cell blocks, give every
shard its own contiguous slice of the label grid, and answer a batch query
by *bucketing* — vectorised arithmetic assigns each query point to its
shard, each touched shard answers its bucket with one gather over its
local slice, and the buckets merge back into one result array in the
original query order.

Region indices are global, so the merged answers are bit-identical to a
monolithic :class:`~repro.serving.server.PartitionServer` over the same
partition (``tests/serving/test_sharding.py`` enforces this;
``benchmarks/test_bench_routing.py`` tracks the dispatch cost).

Dispatch plans
--------------

``locate_points`` picks between three execution plans (``plan="auto"``
chooses per batch):

* ``"sequential"`` — bucket the batch with per-axis routing tables (a
  table lookup per point, no ``searchsorted``), group it with one stable
  radix argsort over compact tile ids, and gather every bucket in sorted
  order from the tiles' concatenated flat index.  The sorted gather walks
  each tile's memory contiguously, which is what makes sharding *win* on
  grids too large for cache (the large-map benchmark's crossover).
* ``"parallel"`` — the same scatter, but every tile's bucket is submitted
  to a shared :class:`~concurrent.futures.ThreadPoolExecutor`
  (:attr:`~repro.config.ServingConfig.shard_workers`); numpy's fancy
  indexing releases the GIL, so buckets gather concurrently where cores
  exist.  Batches below
  :attr:`~repro.config.ServingConfig.parallel_threshold` fall back to the
  sequential plan so small queries never pay pool overhead.  Bucket
  writes land in disjoint slices of one output array, so results are
  deterministic regardless of thread scheduling.
* ``"fused"`` — for tiles that are co-resident in one process, the tiles
  are merged into one flat label array with a ``-1`` slot at the end
  (the layout of ``Partition.flat_labels``) and the whole batch is one
  ``take`` of ``Grid.cell_ids`` — no mask, no sort, no scatter.  This is
  the in-process fast path the routing benchmark holds to parity with a
  monolithic server; a distributed deployment, where tiles live on other
  nodes, would use the ``parallel`` plan's scatter instead.

``auto`` uses the sequential scatter below ``parallel_threshold`` (exact
per-shard load accounting, no pool or fused-index cost for small
batches) and the fused gather above it.

Per-tile hot-swap
-----------------

Every tile is *versioned*: :meth:`ShardedDeployment.swap_shard` replaces
one tile's labels (appending to that tile's history) and
:meth:`ShardedDeployment.rollback_shard` steps one back, while queries
keep flowing — the swap happens under the tile's own writer-preferring
:class:`~repro.serving.locks.ReadWriteLock`, and the serving indexes are
rebuilt copy-on-write and republished by atomic reference assignment, so
an in-flight batch always answers from one consistent snapshot of every
tile (no torn reads across tiles; the stress suite in
``tests/serving/test_shard_concurrency.py`` verifies reads bit-exact
against a single-threaded oracle of the versioned tile states).

Scope note: shards are always *dense* label slices copied out of the
source partition's label grid at construction — the
:attr:`~repro.config.ServingConfig.backend` knob selects the index of
monolithic servers and does not reach inside shard tiles.  In this
in-process model the source partition (and its dense grid) is resident
anyway; the class demonstrates the routing/merge mechanics, while the
per-node memory win only materialises when tiles live on separate nodes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ServingConfig
from ..exceptions import GridError, ServingError
from ..spatial.geometry import BoundingBox
from ..spatial.partition import Partition
from .locks import ReadWriteLock, new_lock, new_rwlock
from .server import PartitionServer, region_counts_from_assignment

__all__ = [
    "ShardedDeployment",
    "TileGeometry",
    "TileGridIndex",
    "build_tile_index",
    "DISPATCH_PLANS",
]

#: The execution plans :meth:`ShardedDeployment.locate_points` accepts.
DISPATCH_PLANS = ("auto", "sequential", "parallel", "fused")


def _axis_tables(n_cells: int, n_tiles: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis of the tiling: edges plus per-cell routing tables.

    Returns ``(edges, tile_of, local_of)`` where ``tile_of[cell]`` is the
    tile index owning that cell row/column and ``local_of[cell]`` its
    offset inside the tile.  A table lookup replaces the per-batch
    ``searchsorted`` the old scatter paid (on a 10^6-point batch the two
    searchsorted calls alone cost more than a monolithic server's whole
    answer).
    """
    edges = np.linspace(0, n_cells, n_tiles + 1).astype(np.int64, copy=False)
    sizes = np.diff(edges)
    tile_of = np.repeat(np.arange(n_tiles, dtype=np.int64), sizes)
    local_of = np.arange(n_cells, dtype=np.int64) - np.repeat(edges[:-1], sizes)
    return edges, tile_of, local_of


class TileGeometry:
    """The tiling itself: how grid cells route to tiles, labels aside.

    Immutable and shared across every :class:`TileGridIndex` snapshot of
    one deployment — tile *contents* change on hot-swap, the tiling never
    does.  Tile ids are compact integers (``int16`` whenever the tile
    count fits), because the stable argsort that groups a batch into
    buckets is a radix sort for narrow integer keys — the difference
    between ~10 ms and ~40 ms on a 10^6-point batch.
    """

    __slots__ = (
        "rows", "cols", "shard_rows", "shard_cols", "n_tiles",
        "row_edges", "col_edges", "row_local", "col_local",
        "row_term", "col_term", "tile_heights", "tile_widths",
        "tile_base", "n_cells_total",
    )

    def __init__(self, rows: int, cols: int, shard_rows: int, shard_cols: int) -> None:
        self.rows, self.cols = int(rows), int(cols)
        self.shard_rows, self.shard_cols = int(shard_rows), int(shard_cols)
        self.n_tiles = self.shard_rows * self.shard_cols
        self.row_edges, row_tile, self.row_local = _axis_tables(rows, shard_rows)
        self.col_edges, col_tile, self.col_local = _axis_tables(cols, shard_cols)
        id_dtype = np.int16 if self.n_tiles <= np.iinfo(np.int16).max else np.int64
        # tile_id = row_term[row] + col_term[col]; the row term pre-folds
        # the `* shard_cols`, so bucketing is two gathers and one add.
        self.row_term = (row_tile * self.shard_cols).astype(id_dtype, copy=False)
        self.col_term = col_tile.astype(id_dtype, copy=False)
        heights = np.diff(self.row_edges)
        widths = np.diff(self.col_edges)
        self.tile_heights = np.repeat(heights, self.shard_cols)
        self.tile_widths = np.tile(widths, self.shard_rows)
        sizes = self.tile_heights * self.tile_widths
        self.tile_base = np.concatenate(([0], np.cumsum(sizes)))[:-1]
        self.n_cells_total = int(sizes.sum())

    def tile_window(self, index: int) -> Tuple[int, int, int, int]:
        """The cell window ``(r0, r1, c0, c1)`` of tile ``index`` (row-major)."""
        i, j = divmod(int(index), self.shard_cols)
        return (
            int(self.row_edges[i]), int(self.row_edges[i + 1]),
            int(self.col_edges[j]), int(self.col_edges[j + 1]),
        )

    def tile_ids(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Tile id per in-grid cell coordinate pair (compact integer dtype)."""
        return self.row_term[rows] + self.col_term[cols]

    def flat_offsets(
        self, rows: np.ndarray, cols: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Per-point offsets into the concatenated-tile flat index."""
        return (
            self.tile_base[ids]
            + self.row_local[rows] * self.tile_widths[ids]
            + self.col_local[cols]
        )


class TileGridIndex:
    """One immutable snapshot of every tile's labels, gatherable by plan.

    The tiles are stored concatenated into a single flat array (row-major
    per tile), so the sequential plan can answer a sorted batch with one
    1-D gather — on grids far beyond cache this walks each tile
    contiguously and beats the monolithic 2-D gather, which is the whole
    point of bucketing.  Snapshots are never mutated: a hot-swap builds a
    new index and publishes it by reference assignment, which is what
    makes the read path lock-free.
    """

    __slots__ = ("geometry", "tiles_flat")

    def __init__(self, geometry: TileGeometry, tiles: Sequence[np.ndarray]) -> None:
        if len(tiles) != geometry.n_tiles:
            raise ServingError(
                f"tile index needs {geometry.n_tiles} tiles, got {len(tiles)}"
            )
        self.geometry = geometry
        flat = np.empty(geometry.n_cells_total, dtype=np.int64)
        for index, tile in enumerate(tiles):
            expected = (
                int(geometry.tile_heights[index]), int(geometry.tile_widths[index])
            )
            if tuple(tile.shape) != expected:
                raise ServingError(
                    f"tile {index} has shape {tuple(tile.shape)}, "
                    f"expected {expected}"
                )
            base = int(geometry.tile_base[index])
            flat[base:base + tile.size] = tile.reshape(-1)
        self.tiles_flat = flat  # array: tiles_flat int64[cells] contiguous

    def tile_view(self, index: int) -> np.ndarray:
        """Tile ``index`` as a 2-D view into the flat index (no copy)."""
        geometry = self.geometry
        base = int(geometry.tile_base[index])
        shape = (int(geometry.tile_heights[index]), int(geometry.tile_widths[index]))
        return self.tiles_flat[base:base + shape[0] * shape[1]].reshape(shape)

    @property
    def nbytes(self) -> int:
        return int(self.tiles_flat.nbytes)

    def gather_into(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        out: np.ndarray,
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> np.ndarray:
        """Answer in-grid cell coordinates into ``out``; returns per-tile counts.

        Sequential (``executor=None``): one stable radix argsort groups
        the batch by tile, then a single sorted 1-D gather answers it.
        Parallel: the sorted order is split into per-tile buckets and each
        bucket is gathered on the executor — buckets write disjoint slices
        of ``out``, so the result is deterministic and identical to the
        sequential plan's.  The returned counts vector (points per tile,
        row-major) is computed vectorised and is what the deployment's
        per-shard load counters consume.
        """
        # array: rows int64[n]
        # array: cols int64[n]
        # array: out int64[n]
        # returns: int64[t]
        geometry = self.geometry
        if rows.size == 0:
            return np.zeros(geometry.n_tiles, dtype=np.int64)
        ids = geometry.tile_ids(rows, cols)
        offsets = geometry.flat_offsets(rows, cols, ids)
        order = np.argsort(ids, kind="stable")
        if executor is None:
            out[order] = self.tiles_flat[offsets[order]]
        else:
            boundaries = np.flatnonzero(np.diff(ids[order])) + 1
            futures = [
                executor.submit(self._gather_bucket, bucket, offsets, out)
                for bucket in np.split(order, boundaries)  # repro: ignore[hot-path-loop] -- one submit per distinct tile in the batch (<= n_tiles), not per point
            ]
            for future in futures:
                future.result()  # propagate any worker failure
        # bincount already yields int64 here, so copy=False makes this a
        # free view instead of a per-batch copy.
        return np.bincount(ids, minlength=geometry.n_tiles).astype(
            np.int64, copy=False
        )

    def _gather_bucket(
        self, bucket: np.ndarray, offsets: np.ndarray, out: np.ndarray
    ) -> None:
        out[bucket] = self.tiles_flat[offsets[bucket]]

    def gather(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> np.ndarray:
        """:meth:`gather_into` a fresh int64 result array (counts dropped)."""
        # array: rows int64[n]
        # array: cols int64[n]
        # returns: int64[n]
        out = np.empty(rows.shape, dtype=np.int64)
        self.gather_into(rows, cols, out, executor=executor)
        return out


def build_tile_index(
    labels: np.ndarray, shard_rows: int, shard_cols: int
) -> TileGridIndex:
    """A :class:`TileGridIndex` over ``labels`` tiled ``shard_rows x shard_cols``.

    The standalone entry point for serving a bare label grid through the
    bucketed kernel — the large-map benchmark uses it to compare the
    sorted tile gather against the monolithic 2-D gather without building
    a full partition around a synthetic 10^8-cell grid.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ServingError(f"label grid must be 2-D, got shape {labels.shape}")
    geometry = TileGeometry(labels.shape[0], labels.shape[1], shard_rows, shard_cols)
    tiles = [
        labels[r0:r1, c0:c1]
        for r0, r1, c0, c1 in map(geometry.tile_window, range(geometry.n_tiles))
    ]
    return TileGridIndex(geometry, tiles)


class _Shard:
    """One tile: its cell window plus a version history of label slices.

    ``lock`` (writer-preferring) serialises swap/rollback on this tile
    against each other and against metadata readers; the query path never
    takes it — queries answer from immutable published index snapshots.
    ``counter_lock`` guards the load counter, which parallel dispatch
    bumps from pool workers.
    """

    __slots__ = (
        "row", "col", "row_start", "col_start",
        "lock", "counter_lock", "points_served", "_history", "_active",
    )

    def __init__(
        self, row: int, col: int, row_start: int, col_start: int, labels: np.ndarray
    ) -> None:
        self.row = row
        self.col = col
        self.row_start = row_start
        self.col_start = col_start
        self.lock = new_rwlock("shard.lock")
        self.counter_lock = new_lock("shard.counter_lock")
        self.points_served = 0  # guarded-by: self.counter_lock
        self._history: List[np.ndarray] = [labels]  # guarded-by(writes): self.lock
        self._active = 0  # guarded-by(writes): self.lock

    @property
    def labels(self) -> np.ndarray:
        return self._history[self._active]

    @property
    def version(self) -> int:
        """1-based version of the labels this tile currently serves."""
        return self._active + 1

    @property
    def n_versions(self) -> int:
        return len(self._history)

    def swap(self, labels: np.ndarray) -> int:
        with self.lock.write():
            self._history.append(labels)
            self._active = len(self._history) - 1
            return self._active + 1

    def rollback(self) -> int:
        with self.lock.write():
            if self._active == 0:
                raise ServingError(
                    f"shard ({self.row}, {self.col}) is already serving its "
                    "original labels; nothing to roll back"
                )
            self._active -= 1
            return self._active + 1


class ShardedDeployment:
    """A partition served as ``shard_rows x shard_cols`` independent tiles.

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
        on :class:`~repro.serving.server.PartitionServer`;
        ``config.parallel_threshold`` is the batch size below which the
        ``auto``/``parallel`` plans stay sequential, and
        ``config.shard_workers`` sizes the shared bucket-gather pool
        (``0`` = one worker per core, capped at the tile count).

    Thread-safety: queries are lock-free (they answer from immutable
    index snapshots published by reference assignment);
    :meth:`swap_shard` / :meth:`rollback_shard` mutate one tile under its
    writer-preferring lock and republish the indexes copy-on-write under
    the deployment's admin mutex, so concurrent queries see either the
    old or the new snapshot, never a mix.
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
        self._geometry = TileGeometry(grid.rows, grid.cols, shard_rows, shard_cols)
        # Kept as attributes for introspection parity with the old layout.
        self._row_edges = self._geometry.row_edges
        self._col_edges = self._geometry.col_edges
        self._range_server: Optional[PartitionServer] = None
        labels = partition.label_grid
        self._shards: List[_Shard] = []
        for index in range(self._geometry.n_tiles):
            r0, r1, c0, c1 = self._geometry.tile_window(index)
            self._shards.append(
                _Shard(
                    index // self._shard_cols,
                    index % self._shard_cols,
                    r0,
                    c0,
                    np.ascontiguousarray(labels[r0:r1, c0:c1], dtype=np.int64),
                )
            )
        # Orders tile mutation + index republish (and lazy singleton
        # builds) against each other; never held by the query path.
        self._admin_lock = new_lock("sharded.admin_lock")
        self._counter_lock = new_lock("sharded.counter_lock")
        self._fused_points = 0  # guarded-by: self._counter_lock
        self._index = TileGridIndex(  # guarded-by(writes): self._admin_lock
            self._geometry, [shard.labels for shard in self._shards]
        )
        self._fused: Optional[np.ndarray] = None  # guarded-by(writes): self._admin_lock
        self._executor: Optional[ThreadPoolExecutor] = None  # guarded-by(writes): self._admin_lock

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
        """Total points answered, across every plan."""
        with self._counter_lock:
            total = self._fused_points
        return total + int(sum(shard.points_served for shard in self._shards))  # repro: ignore[lock-guarded-attrs] -- racy read of monotonic ints is deliberate: stats may lag, never tear (CPython int loads are atomic)

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
            "parallel_threshold": self._config.parallel_threshold,
            "index_bytes": int(sum(shard.labels.nbytes for shard in self._shards)),
            "provenance": dict(self._provenance),
        }

    def shard_loads(self) -> np.ndarray:
        """Points served per shard so far (row-major shard order).

        Per-shard attribution is exact for the scatter plans (sequential
        and parallel), whose bucketing touches every shard's counter under
        its own lock.  The fused plan answers from the merged index
        without visiting shards, so its traffic lands in the deployment
        total (:attr:`points_served`) only — shard loads are a routing
        statistic of scatter dispatch, which is also what a distributed
        deployment would export.
        """
        return np.array([shard.points_served for shard in self._shards], dtype=int)  # repro: ignore[lock-guarded-attrs] -- racy read of monotonic ints is deliberate: stats may lag, never tear (CPython int loads are atomic)

    def shard_versions(self) -> List[List[int]]:
        """Per-tile serving version (1-based), as a ``shard_rows x shard_cols`` grid."""
        versions: List[List[int]] = []
        for i in range(self._shard_rows):
            row = []
            for j in range(self._shard_cols):
                shard = self._shards[i * self._shard_cols + j]
                with shard.lock.read():
                    row.append(shard.version)
            versions.append(row)
        return versions

    def tile_window(self, row: int, col: int) -> Tuple[int, int, int, int]:
        """Cell window ``(r0, r1, c0, c1)`` of the tile at ``(row, col)``."""
        return self._geometry.tile_window(self._shard_index(row, col))

    def compose_labels(self) -> np.ndarray:
        """The effective flat labels, tile swaps applied, freshly built.

        The export path the multiprocess workers use: the
        ``Partition.flat_labels`` layout assembled from the *current* index
        snapshot, so a worker publication after :meth:`swap_shard` ships
        the swapped tile, not the construction-time partition.  Allocates
        fresh on every call — publication-time only, never a query path.
        """
        # returns: int64[n]
        return self._build_fused(self._index)

    def __repr__(self) -> str:
        return (
            f"ShardedDeployment({len(self._partition)} regions over "
            f"{self._grid.rows}x{self._grid.cols} grid, "
            f"{self._shard_rows}x{self._shard_cols} shards)"
        )

    # -- dispatch plumbing ----------------------------------------------------

    def _resolve_strict(self, strict: Optional[bool]) -> bool:
        return self._config.strict if strict is None else strict

    def _resolve_plan(self, plan: Optional[str], n_points: int) -> str:
        if plan is None:
            plan = "auto"
        if plan not in DISPATCH_PLANS:
            raise ServingError(
                f"unknown dispatch plan {plan!r}; expected one of {DISPATCH_PLANS}"
            )
        threshold = self._config.parallel_threshold
        if plan == "auto":
            # Small batches: sequential scatter (no pool, no fused build,
            # exact per-shard accounting).  Large batches: the tiles are
            # co-resident, so the fused single-gather is the fastest
            # correct plan in-process.
            return "sequential" if n_points < threshold else "fused"
        if plan == "parallel" and n_points < threshold:
            return "sequential"  # below the threshold the pool cannot pay
        return plan

    def _pool(self) -> ThreadPoolExecutor:
        executor = self._executor
        if executor is None:
            with self._admin_lock:
                if self._executor is None:
                    workers = self._config.shard_workers or min(
                        self._geometry.n_tiles, os.cpu_count() or 1
                    )
                    self._executor = ThreadPoolExecutor(
                        max_workers=max(1, workers),
                        thread_name_prefix="repro-shard",
                    )
                executor = self._executor
        return executor

    def close(self) -> None:
        """Shut down the bucket-gather pool (idempotent; queries still work
        sequentially afterwards only if no parallel plan is requested)."""
        with self._admin_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def _fused_labels(self) -> np.ndarray:
        fused = self._fused
        if fused is None:
            with self._admin_lock:
                if self._fused is None:
                    self._fused = self._build_fused(self._index)
                fused = self._fused
        return fused

    def _build_fused(self, index: TileGridIndex) -> np.ndarray:
        """The merged flat labels of one index snapshot.

        ``rows * cols`` row-major labels, then ``-1`` where the off-map id
        of :meth:`~repro.spatial.grid.Grid.cell_ids` lands — so the fused
        plan is one ``take`` with no inside-mask, no ``np.full`` result
        scaffold and no masked scatter: the monolithic dense gather.
        """
        # returns: int64[n] contiguous
        grid = self._grid
        fused = np.empty(grid.n_cells + 1, dtype=np.int64)
        labels = fused[:-1].reshape(grid.shape)
        for tile_index in range(self._geometry.n_tiles):
            r0, r1, c0, c1 = self._geometry.tile_window(tile_index)
            labels[r0:r1, c0:c1] = index.tile_view(tile_index)
        fused[-1] = -1
        return fused

    def _charge_shards(self, counts: np.ndarray) -> None:
        for tile_index in np.flatnonzero(counts):  # repro: ignore[hot-path-loop] -- bounded by n_tiles (a handful), not by batch size
            shard = self._shards[int(tile_index)]
            with shard.counter_lock:
                shard.points_served += int(counts[tile_index])

    # -- batched point location ----------------------------------------------

    def locate_points(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool] = None,
        plan: Optional[str] = None,
    ) -> np.ndarray:
        """Region index per coordinate pair, dispatched over the shard tiles.

        Same contract as :meth:`PartitionServer.locate_points` (``-1`` for
        off-map points in non-strict mode,
        :class:`~repro.exceptions.GridError` in strict mode), and the same
        bits out of every ``plan`` (see the module docstring for what the
        plans trade).
        """
        # returns: int64
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise GridError("xs and ys must have the same shape")
        plan = self._resolve_plan(plan, xs.size)
        strict_mode = self._resolve_strict(strict)

        if plan == "fused":
            ids = self._grid.cell_ids(xs, ys, strict=strict_mode)
            located = self._fused_labels().take(ids)
            with self._counter_lock:
                self._fused_points += int(located.size)
            return located

        # Scatter plans flatten the batch; remember the input shape so
        # scalars (0-d) and multi-dimensional batches round-trip like the
        # server's.
        shape = xs.shape
        xs, ys = xs.reshape(-1), ys.reshape(-1)
        if strict_mode:
            rows, cols = self._grid.locate_many(xs, ys)
            inside = None
        else:
            rows, cols = self._grid.locate_many(xs, ys, strict=False)
            inside = rows >= 0
            if bool(np.all(inside)):
                inside = None
            else:
                rows, cols = rows[inside], cols[inside]

        index = self._index  # one immutable snapshot for the whole batch
        located = np.empty(rows.shape, dtype=int)
        if rows.size:
            executor = self._pool() if plan == "parallel" else None
            counts = index.gather_into(rows, cols, located, executor=executor)
            self._charge_shards(counts)

        if inside is None:
            return located.reshape(shape)
        result = np.full(xs.shape, -1, dtype=int)
        result[inside] = located
        return result.reshape(shape)

    def region_counts(
        self, xs: np.ndarray, ys: np.ndarray, strict: Optional[bool] = None
    ) -> np.ndarray:
        """Points per region for a coordinate batch (off-map points dropped)."""
        return region_counts_from_assignment(
            self.locate_points(xs, ys, strict=strict), len(self._partition)
        )

    def range_query(self, query: BoundingBox) -> List[int]:
        """Regions intersecting ``query`` (delegates to the source partition).

        Range queries read region extents, not the sharded cell index, so
        they are answered exactly like the monolithic server's.  Per-tile
        label swaps deliberately do not reach here: a swapped tile changes
        *point location* only, while region extents stay those of the
        source partition (the documented scope of shard-level hot-swap).
        """
        if self._range_server is None:
            self._range_server = PartitionServer(
                self._partition, provenance=self._provenance, config=self._config
            )
        return self._range_server.range_query(query)

    # -- per-tile hot-swap -----------------------------------------------------

    def _shard_index(self, row: int, col: int) -> int:
        row, col = int(row), int(col)
        if not (0 <= row < self._shard_rows and 0 <= col < self._shard_cols):
            raise ServingError(
                f"no shard ({row}, {col}) in a "
                f"{self._shard_rows}x{self._shard_cols} tiling; rows span "
                f"0..{self._shard_rows - 1} and cols 0..{self._shard_cols - 1}"
            )
        return row * self._shard_cols + col

    def _validate_tile_labels(self, shard: _Shard, labels: Any) -> np.ndarray:
        labels = np.asarray(labels)
        expected = shard.labels.shape
        if labels.shape != expected:
            raise ServingError(
                f"shard ({shard.row}, {shard.col}) serves a "
                f"{expected[0]}x{expected[1]} cell tile; replacement labels "
                f"have shape {tuple(labels.shape)}"
            )
        if labels.dtype.kind not in "iu":
            raise ServingError(
                f"tile labels must be integer region indices, got dtype "
                f"{labels.dtype}"
            )
        tile = np.ascontiguousarray(labels, dtype=np.int64)
        if tile.size:
            lo, hi = int(tile.min()), int(tile.max())
            if lo < -1 or hi >= len(self._partition):
                raise ServingError(
                    f"tile labels must be -1 (uncovered) or region indices "
                    f"below {len(self._partition)}, got range [{lo}, {hi}]"
                )
        return tile

    def _republish(self) -> None:
        """Rebuild and atomically publish the serving indexes (admin lock held).

        Copy-on-write: the new :class:`TileGridIndex` (and, when already
        built, the fused grid) is assembled from the now-active tile
        versions and published by reference assignment — queries that
        grabbed the old references keep answering from a consistent
        pre-swap snapshot.
        """
        index = TileGridIndex(
            self._geometry, [shard.labels for shard in self._shards]
        )
        self._index = index  # repro: ignore[lock-guarded-attrs] -- caller holds _admin_lock (see docstring); checked lexically, not interprocedurally
        if self._fused is not None:
            self._fused = self._build_fused(index)  # repro: ignore[lock-guarded-attrs] -- caller holds _admin_lock (see docstring); checked lexically, not interprocedurally

    def swap_shard(self, row: int, col: int, labels: np.ndarray) -> Dict[str, Any]:
        """Atomically replace the labels of the tile at ``(row, col)``.

        The new labels (validated against the tile's cell window and the
        partition's region count) are appended to the tile's version
        history and become its serving version; every other tile keeps
        serving untouched, and in-flight queries finish against the
        pre-swap snapshot.  Returns the tile's version summary.
        """
        shard = self._shards[self._shard_index(row, col)]
        tile = self._validate_tile_labels(shard, labels)
        with self._admin_lock:
            version = shard.swap(tile)
            self._republish()
        return {
            "shard": [int(row), int(col)],
            "shard_version": version,
            "shard_versions_total": shard.n_versions,
        }

    def rollback_shard(self, row: int, col: int) -> Dict[str, Any]:
        """Step the tile at ``(row, col)`` back one version (its history stays).

        Raises :class:`~repro.exceptions.ServingError` when the tile is
        already serving its original labels.  A later :meth:`swap_shard`
        appends to the history as usual.
        """
        shard = self._shards[self._shard_index(row, col)]
        with self._admin_lock:
            version = shard.rollback()
            self._republish()
        return {
            "shard": [int(row), int(col)],
            "shard_version": version,
            "shard_versions_total": shard.n_versions,
        }
