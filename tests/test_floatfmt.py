"""The array float formatter against ``repr``, its oracle."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespd._floatfmt import BLOCK, repr_rows
from bayespd.posterior import Grid, write_grid_csv


def assert_matches_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    for width in (1, 3):  # one value per row, and rows of three
        rows = values[:len(values) // width * width].reshape(-1, width)
        expected = "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())
        assert repr_rows(rows) == expected.encode()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), max_size=40))
def test_matches_repr_on_floats(values):
    assert_matches_repr(values)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_matches_repr_on_bit_patterns(patterns):
    assert_matches_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_matches_repr_on_edges():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_matches_repr(np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf)]))
    assert_matches_repr(np.arange(1, 10**4 + 1, dtype=np.uint64).view(np.float64))
    special = [1e-5, 1e-4, 1e15, 1e16, 9999999999999998.0, 0.0, -0.0,
               np.nan, -np.nan, np.inf, -np.inf, 5e-324, 0.1, 0.3, 2.0**53 + 2]
    assert_matches_repr(special + [-v for v in special])
    rng = np.random.default_rng(12)
    assert_matches_repr(rng.integers(0, 2**64, 3 * BLOCK + 5, dtype=np.uint64)
                        .view(np.float64))


def repr_grid_csv(grid: Grid, values: np.ndarray) -> str:
    """The grid CSV text as ``",".join(map(repr, row))`` lines."""
    rows = np.column_stack([grid.y_axis, values]).tolist()
    lines = ["y\\x," + ",".join(map(repr, grid.x_axis.tolist())),
             *(",".join(map(repr, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def test_write_grid_csv_matches_repr_writer(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "grid.csv"
    odd = Grid(-3.0, -0.5, -2.0, 1.0, 7, 5)
    values = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-320, 300, (5, 7))
    values[0, :5] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    # rows longer than a block, and several blocks of rows
    for grid, grid_values in [(odd, values),
                              (Grid(0.0, 1.0, 0.0, 1.0, BLOCK + 3, 2),
                               rng.random((2, BLOCK + 3))),
                              (Grid(0.0, 3.0, -1.0, 2.0, 200, 60),
                               np.exp(-rng.random((60, 200)) * 800.0))]:
        write_grid_csv(path, grid, grid_values)
        assert path.read_bytes() == repr_grid_csv(grid, grid_values).encode()


def test_write_grid_csv_peak_memory(tmp_path):
    rng = np.random.default_rng(4)
    for n in (200, 1000):
        grid = Grid(0.0, 3.0, 0.0, 3.0, n, n)
        values = rng.random((n, n)) * 10.0 ** rng.integers(-300, 3, (n, n))
        tracemalloc.start()
        try:
            write_grid_csv(tmp_path / "grid.csv", grid, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # work arrays are per block, whatever the grid size
        assert peak <= 4 * 2**20, (n, peak)
