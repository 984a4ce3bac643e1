"""Tests for spatially sharded deployments: the tiling must be invisible."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServingConfig
from repro.exceptions import GridError, ServingError
from repro.serving import PartitionServer, ShardedDeployment
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid
from repro.spatial.partition import uniform_partition


@pytest.fixture()
def partition():
    return uniform_partition(Grid(16, 16, BoundingBox(-2.0, 1.0, 6.0, 5.0)), 4, 4)


class TestShardedLocate:
    def test_matches_monolithic_server(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 2, 2)
        rng = np.random.default_rng(0)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x - 1.0, bounds.max_x + 1.0, 2000)
        ys = rng.uniform(bounds.min_y - 1.0, bounds.max_y + 1.0, 2000)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    def test_uneven_tiling(self, partition):
        # 3 does not divide 16; edge shards get the remainder cells.
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 3, 5)
        rng = np.random.default_rng(1)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x, bounds.max_x, 1000)
        ys = rng.uniform(bounds.min_y, bounds.max_y, 1000)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    def test_map_max_corner_lands_in_last_shard(self, partition):
        bounds = partition.grid.bounds
        sharded = ShardedDeployment(partition, 2, 2)
        result = sharded.locate_points(
            np.array([bounds.max_x]), np.array([bounds.max_y])
        )
        assert int(result[0]) == sharded.n_regions - 1

    def test_scalar_and_2d_inputs_match_monolithic(self, partition):
        """Shape parity with PartitionServer: scalars and N-d batches."""
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 2, 2)
        assert int(sharded.locate_points(0.5, 2.0)) == int(server.locate_points(0.5, 2.0))
        off = partition.grid.bounds.max_x + 1.0
        assert int(sharded.locate_points(off, 2.0)) == -1
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 7.0, (4, 5))
        ys = rng.uniform(0.0, 6.0, (4, 5))
        batch = sharded.locate_points(xs, ys)
        assert batch.shape == (4, 5)
        np.testing.assert_array_equal(batch, server.locate_points(xs, ys))

    def test_shape_mismatch_raises(self, partition):
        from repro.exceptions import GridError

        sharded = ShardedDeployment(partition, 2, 2)
        with pytest.raises(GridError):
            sharded.locate_points(np.zeros(2), np.zeros(3))

    def test_all_off_map_batch(self, partition):
        sharded = ShardedDeployment(partition, 2, 2)
        bounds = partition.grid.bounds
        xs = np.full(4, bounds.max_x + 5.0)
        assert sharded.locate_points(xs, xs).tolist() == [-1] * 4

    def test_strict_mode_raises(self, partition):
        sharded = ShardedDeployment(
            partition, 2, 2, config=ServingConfig(strict=True)
        )
        bounds = partition.grid.bounds
        with pytest.raises(GridError):
            sharded.locate_points(
                np.array([bounds.max_x + 1.0]), np.array([bounds.min_y])
            )

    def test_region_counts_match_monolithic(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 4, 2)
        rng = np.random.default_rng(2)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x - 1.0, bounds.max_x + 1.0, 500)
        ys = rng.uniform(bounds.min_y - 1.0, bounds.max_y + 1.0, 500)
        np.testing.assert_array_equal(
            sharded.region_counts(xs, ys), server.region_counts(xs, ys)
        )

    def test_range_query_matches_monolithic(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 2, 2)
        query = BoundingBox(-1.0, 1.5, 0.0, 3.0)
        assert sharded.range_query(query) == server.range_query(query)

    def test_shard_loads_accumulate(self, partition):
        """Load is counted per deployment: every answered point, off-map too."""
        sharded = ShardedDeployment(partition, 2, 2)
        rng = np.random.default_rng(3)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x - 1.0, bounds.max_x, 100)
        ys = rng.uniform(bounds.min_y, bounds.max_y, 100)
        sharded.locate_points(xs, ys)
        sharded.locate_points(xs[:30], ys[:30])
        assert sharded.points_served == 130

    def test_describe_reports_tiling(self, partition):
        info = ShardedDeployment(partition, 2, 3, provenance={"city": "la"}).describe()
        assert info["backend"] == "sharded"
        assert info["shards"] == [2, 3]
        assert info["provenance"] == {"city": "la"}
        assert info["shard_versions"] == [[1, 1, 1], [1, 1, 1]]
        assert "parallel_threshold" not in info


class TestShardValidation:
    def test_invalid_shard_counts(self, partition):
        with pytest.raises(ServingError, match="positive"):
            ShardedDeployment(partition, 0, 2)
        with pytest.raises(ServingError, match="cannot shard"):
            ShardedDeployment(partition, 17, 2)

    def test_one_shard_per_cell_allowed(self):
        partition = uniform_partition(Grid(4, 4), 2, 2)
        sharded = ShardedDeployment(partition, 4, 4)
        server = PartitionServer(partition)
        rng = np.random.default_rng(4)
        xs, ys = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )


def _label_grid_oracle(partition, xs, ys):
    """Region per point from the label grid alone, ``-1`` off the map.

    Written apart from the program's lookup: cell ``floor(offset / cell
    size)``, points on the far edge clamped into the last row/column.
    """
    grid = partition.grid
    box = grid.bounds
    inside = (xs >= box.min_x) & (xs <= box.max_x) & (ys >= box.min_y) & (ys <= box.max_y)
    cols = np.floor((xs[inside] - box.min_x) / ((box.max_x - box.min_x) / grid.cols))
    rows = np.floor((ys[inside] - box.min_y) / ((box.max_y - box.min_y) / grid.rows))
    expected = np.full(xs.shape, -1, dtype=np.int64)
    expected[inside] = partition.label_grid[
        np.minimum(rows.astype(np.int64), grid.rows - 1),
        np.minimum(cols.astype(np.int64), grid.cols - 1),
    ]
    return expected


class TestShardedProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        shard_rows=st.integers(1, 6),
        shard_cols=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_tiling_matches_monolithic(self, seed, shard_rows, shard_cols):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(shard_rows, 20))
        cols = int(rng.integers(shard_cols, 20))
        blocks_r = int(rng.integers(1, rows + 1))
        blocks_c = int(rng.integers(1, cols + 1))
        partition = uniform_partition(Grid(rows, cols), blocks_r, blocks_c)
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, shard_rows, shard_cols)
        xs = rng.uniform(-0.5, 1.5, 300)
        ys = rng.uniform(-0.5, 1.5, 300)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    @given(
        seed=st.integers(0, 2**31 - 1),
        shard_rows=st.integers(1, 6),
        shard_cols=st.integers(1, 6),
        strict=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_plan_matches_monolithic(
        self, seed, shard_rows, shard_cols, strict
    ):
        """Bit-exactness of the one dispatch path under either strictness,
        off-map points included."""
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(shard_rows, 20))
        cols = int(rng.integers(shard_cols, 20))
        partition = uniform_partition(
            Grid(rows, cols),
            int(rng.integers(1, rows + 1)),
            int(rng.integers(1, cols + 1)),
        )
        config = ServingConfig(strict=strict)
        server = PartitionServer(partition, config=config)
        sharded = ShardedDeployment(partition, shard_rows, shard_cols, config=config)
        if strict:
            xs = rng.uniform(0.0, 1.0, 200)
            ys = rng.uniform(0.0, 1.0, 200)
        else:
            xs = rng.uniform(-0.5, 1.5, 200)
            ys = rng.uniform(-0.5, 1.5, 200)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    @given(
        seed=st.integers(0, 2**31 - 1),
        shard_rows=st.integers(1, 6),
        shard_cols=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_plan_off_map_matches_oracles(self, seed, shard_rows, shard_cols):
        """The merged-label take answers edges, one-ulp misses, NaN and infinities.

        Checked against the monolithic server and an independent
        label-grid oracle, on a map with a negative origin, in 1-D and 2-D.
        """
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(shard_rows, 20))
        cols = int(rng.integers(shard_cols, 20))
        partition = uniform_partition(
            Grid(rows, cols, BoundingBox(-3.0, -1.5, 2.0, 4.0)),
            int(rng.integers(1, rows + 1)),
            int(rng.integers(1, cols + 1)),
        )
        sharded = ShardedDeployment(partition, shard_rows, shard_cols)
        box = partition.grid.bounds
        xs = rng.uniform(box.min_x - 1.0, box.max_x + 1.0, 240)
        ys = rng.uniform(box.min_y - 1.0, box.max_y + 1.0, 240)
        specials = [
            box.min_x, box.max_x, np.nextafter(box.max_x, np.inf),
            np.nextafter(box.min_x, -np.inf), np.nan, np.inf, -np.inf,
        ]
        picks = rng.integers(0, 240, 60)
        xs[picks] = rng.choice(specials, 60)
        ys[rng.integers(0, 240, 30)] = box.max_y
        ys[rng.integers(0, 240, 10)] = np.nan
        expected = _label_grid_oracle(partition, xs, ys)
        located = sharded.locate_points(xs, ys, strict=False)
        assert located.dtype == np.int64
        assert located.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(
            located, PartitionServer(partition).locate_points(xs, ys, strict=False)
        )
        np.testing.assert_array_equal(
            sharded.locate_points(xs.reshape(12, 20), ys.reshape(12, 20), strict=False),
            expected.reshape(12, 20),
        )


class TestDispatchPlans:
    """Edge batches through the one dispatch path: a take from the merged labels."""

    def test_empty_batch_every_plan(self, partition):
        sharded = ShardedDeployment(partition, 2, 2)
        result = sharded.locate_points(np.empty(0), np.empty(0))
        assert result.shape == (0,)
        assert result.dtype == np.int64
        assert sharded.points_served == 0

    def test_empty_buckets_single_tile_batch(self, partition):
        """A batch landing entirely in one tile answers bit-exact."""
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 4, 4)
        bounds = partition.grid.bounds
        rng = np.random.default_rng(9)
        # Points in the grid's lower-left corner cell block only.
        xs = rng.uniform(bounds.min_x, bounds.min_x + 0.5, 64)
        ys = rng.uniform(bounds.min_y, bounds.min_y + 0.5, 64)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    def test_strict_mode_raises_on_every_plan(self, partition):
        sharded = ShardedDeployment(partition, 2, 2)
        bounds = partition.grid.bounds
        with pytest.raises(GridError):
            sharded.locate_points(
                np.array([bounds.max_x + 1.0]), np.array([bounds.min_y]),
                strict=True,
            )


class TestShardSwap:
    def test_swap_changes_only_the_target_tile(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 2, 2)
        bounds = partition.grid.bounds
        rng = np.random.default_rng(31)
        xs = rng.uniform(bounds.min_x, bounds.max_x, 2000)
        ys = rng.uniform(bounds.min_y, bounds.max_y, 2000)
        before = server.locate_points(xs, ys)

        r0, r1, c0, c1 = sharded.tile_window(0, 0)
        new_tile = np.zeros((r1 - r0, c1 - c0), dtype=np.int64)
        info = sharded.swap_shard(0, 0, new_tile)
        assert info["shard_version"] == 2

        # Oracle: the full label grid with only that window replaced.
        labels = partition.label_grid.copy()
        labels[r0:r1, c0:c1] = 0
        rows, cols = partition.grid.locate_many(xs, ys)
        expected = labels[rows, cols]
        np.testing.assert_array_equal(sharded.locate_points(xs, ys), expected)
        # Points outside the swapped window still answer as before.
        outside = ~((rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1))
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys)[outside], before[outside]
        )

    def test_rollback_restores_bit_exact(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 3, 2)
        bounds = partition.grid.bounds
        rng = np.random.default_rng(32)
        xs = rng.uniform(bounds.min_x - 1, bounds.max_x + 1, 1500)
        ys = rng.uniform(bounds.min_y - 1, bounds.max_y + 1, 1500)
        before = sharded.locate_points(xs, ys)
        r0, r1, c0, c1 = sharded.tile_window(2, 1)
        sharded.swap_shard(2, 1, np.full((r1 - r0, c1 - c0), -1, dtype=np.int64))
        assert not np.array_equal(sharded.locate_points(xs, ys), before)
        info = sharded.rollback_shard(2, 1)
        assert info["shard_version"] == 1
        np.testing.assert_array_equal(sharded.locate_points(xs, ys), before)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    def test_swap_then_swap_again_then_double_rollback(self, partition):
        sharded = ShardedDeployment(partition, 2, 2)
        r0, r1, c0, c1 = sharded.tile_window(1, 1)
        shape = (r1 - r0, c1 - c0)
        sharded.swap_shard(1, 1, np.zeros(shape, dtype=np.int64))
        sharded.swap_shard(1, 1, np.ones(shape, dtype=np.int64))
        assert sharded.shard_versions()[1][1] == 3
        sharded.rollback_shard(1, 1)
        sharded.rollback_shard(1, 1)
        assert sharded.shard_versions()[1][1] == 1
        with pytest.raises(ServingError, match="nothing to roll back"):
            sharded.rollback_shard(1, 1)

    def test_swap_validation(self, partition):
        sharded = ShardedDeployment(partition, 2, 2)
        r0, r1, c0, c1 = sharded.tile_window(0, 0)
        shape = (r1 - r0, c1 - c0)
        with pytest.raises(ServingError, match="no shard"):
            sharded.swap_shard(2, 0, np.zeros(shape, dtype=np.int64))
        with pytest.raises(ServingError, match="shape"):
            sharded.swap_shard(0, 0, np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(ServingError, match="integer"):
            sharded.swap_shard(0, 0, np.zeros(shape, dtype=float))
        with pytest.raises(ServingError, match="region indices"):
            sharded.swap_shard(
                0, 0, np.full(shape, sharded.n_regions, dtype=np.int64)
            )
        # A failed swap must leave the tile untouched.
        assert sharded.shard_versions() == [[1, 1], [1, 1]]

    def test_swap_visible_to_fused_plan_built_before_swap(self, partition):
        """The published labels are replaced on swap, not patched in place."""
        sharded = ShardedDeployment(partition, 2, 2)
        bounds = partition.grid.bounds
        xs = np.array([bounds.min_x + 0.1]); ys = np.array([bounds.min_y + 0.1])
        first = sharded.locate_points(xs, ys)
        r0, r1, c0, c1 = sharded.tile_window(0, 0)
        sharded.swap_shard(0, 0, np.zeros((r1 - r0, c1 - c0), dtype=np.int64))
        assert int(sharded.locate_points(xs, ys)[0]) == 0
        assert int(first[0]) == int(partition.label_grid[0, 0])


class TestCopyOnWrite:
    def test_unswapped_deployment_serves_the_partition_labels(self, partition):
        sharded = ShardedDeployment(partition, 3, 2)
        assert sharded.compose_labels() is partition.flat_labels
        assert np.shares_memory(sharded.compose_labels(), partition.flat_labels)

    def test_swap_and_rollback_leave_the_partition_alone(self, partition):
        original = partition.label_grid.copy()
        sharded = ShardedDeployment(partition, 2, 2)
        r0, r1, c0, c1 = sharded.tile_window(1, 0)
        donor = np.zeros((r1 - r0, c1 - c0), dtype=np.int64)
        sharded.swap_shard(1, 0, donor)
        swapped = sharded.compose_labels()
        assert not swapped.flags.writeable
        assert not np.shares_memory(swapped, partition.flat_labels)
        np.testing.assert_array_equal(partition.label_grid, original)
        expected = original.copy()
        expected[r0:r1, c0:c1] = 0
        np.testing.assert_array_equal(
            swapped[:-1].reshape(original.shape), expected
        )
        assert int(swapped[-1]) == -1

        donor[:] = 1  # the history keeps its own copy of the donor
        sharded.rollback_shard(1, 0)
        rolled_back = sharded.compose_labels()
        assert not rolled_back.flags.writeable
        np.testing.assert_array_equal(partition.label_grid, original)
        np.testing.assert_array_equal(rolled_back, partition.flat_labels)
        assert not partition.flat_labels.flags.writeable

        # v3 = ones; rolling back to v2 serves the zeros swapped in first.
        sharded.swap_shard(1, 0, np.ones_like(donor))
        sharded.rollback_shard(1, 0)
        assert sharded.shard_versions()[1][0] == 2
        np.testing.assert_array_equal(
            sharded.compose_labels()[:-1].reshape(original.shape), expected
        )
        np.testing.assert_array_equal(partition.label_grid, original)
        assert not sharded.compose_labels().flags.writeable
