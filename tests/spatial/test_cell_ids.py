"""Property tests for ``Grid.cell_ids``: the serve side's coordinate->cell kernel.

``Grid.locate_many`` is the oracle.  Wherever it places a point
(``rows >= 0``), ``cell_ids`` must give ``rows * cols + cols_``; everywhere
else ``-1``; and ``strict=True`` must raise on exactly the batches
``locate_many`` raises on.  Points are drawn on random bounds (negative
origins included), exactly on the edges, one ulp either side of them, and
as NaN and infinities, in 0-d, 1-D, 2-D and empty batches.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GridError
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid

#: Named coordinates relative to an axis ``[lo, hi]``.
SPECIALS = ("lo", "hi", "below_lo", "above_hi", "inside_hi", "nan", "inf", "-inf")

#: A coordinate: a fraction of the axis extent (over-scanning it) or a special.
AXIS_VALUE = st.one_of(st.floats(-0.25, 1.25), st.sampled_from(SPECIALS))

SHAPES = st.sampled_from([(), (0,), (1,), (9,), (3, 4), (0, 3), (2, 3, 2)])


def _coordinate(value, lo: float, hi: float) -> float:
    if not isinstance(value, str):
        return lo + value * (hi - lo)
    return {
        "lo": lo,
        "hi": hi,
        "below_lo": np.nextafter(lo, -np.inf),
        "above_hi": np.nextafter(hi, np.inf),
        "inside_hi": np.nextafter(hi, -np.inf),
        "nan": np.nan,
        "inf": np.inf,
        "-inf": -np.inf,
    }[value]


@st.composite
def grids_and_points(draw):
    min_x = draw(st.floats(-1e4, 1e4))
    min_y = draw(st.floats(-1e4, 1e4))
    width = draw(st.floats(1e-3, 1e4))
    height = draw(st.floats(1e-3, 1e4))
    grid = Grid(
        draw(st.integers(1, 40)),
        draw(st.integers(1, 40)),
        BoundingBox(min_x, min_y, min_x + width, min_y + height),
    )
    shape = draw(SHAPES)
    size = int(np.prod(shape, dtype=int))
    b = grid.bounds
    pairs = draw(st.lists(st.tuples(AXIS_VALUE, AXIS_VALUE), min_size=size, max_size=size))
    xs = np.array([_coordinate(x, b.min_x, b.max_x) for x, _ in pairs], dtype=float)
    ys = np.array([_coordinate(y, b.min_y, b.max_y) for _, y in pairs], dtype=float)
    return grid, xs.reshape(shape), ys.reshape(shape)


def _expected_ids(grid: Grid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    rows, cols = grid.locate_many(xs, ys, strict=False)
    return np.where(rows >= 0, rows * grid.cols + cols, -1)


class TestCellIdsProperties:
    @given(case=grids_and_points())
    @settings(max_examples=300, deadline=None)
    def test_ids_match_locate_many_and_minus_one_elsewhere(self, case):
        grid, xs, ys = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NaN/inf casts must stay silent
            ids = grid.cell_ids(xs, ys, strict=False)
        assert ids.dtype == np.int64
        assert ids.shape == xs.shape
        np.testing.assert_array_equal(ids, _expected_ids(grid, xs, ys))
        placed = ids[ids >= 0]
        assert placed.size == 0 or int(placed.max()) < grid.n_cells

    @given(case=grids_and_points())
    @settings(max_examples=300, deadline=None)
    def test_strict_raises_exactly_where_locate_many_raises(self, case):
        grid, xs, ys = case
        try:
            grid.locate_many(xs, ys)
        except GridError:
            with pytest.raises(GridError, match="outside the grid bounds"):
                grid.cell_ids(xs, ys)
        else:
            np.testing.assert_array_equal(
                grid.cell_ids(xs, ys), _expected_ids(grid, xs, ys)
            )


class TestCellIdsEdges:
    def test_max_corner_is_the_last_cell_and_one_ulp_out_is_off_map(self):
        grid = Grid(4, 6, BoundingBox(-3.0, -2.0, 5.0, 7.0))
        b = grid.bounds
        xs = np.array([b.max_x, np.nextafter(b.max_x, np.inf), b.min_x, np.nan])
        ys = np.array([b.max_y, b.max_y, np.nextafter(b.min_y, -np.inf), b.min_y])
        assert grid.cell_ids(xs, ys, strict=False).tolist() == [grid.n_cells - 1, -1, -1, -1]

    def test_zero_d_input_keeps_its_shape(self):
        grid = Grid(4, 4)
        ids = grid.cell_ids(0.6, 0.3)
        assert ids.shape == () and int(ids) == 1 * 4 + 2
        assert int(grid.cell_ids(2.0, 0.3, strict=False)) == -1

    def test_shape_mismatch_raises(self):
        with pytest.raises(GridError, match="same shape"):
            Grid(2, 2).cell_ids(np.zeros(3), np.zeros(2))
