import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as scipy_components
from scipy.spatial.distance import pdist, squareform

from bayespd import (FiltrationParams, PointCloud, SimplexBudgetError,
                     ValidationError, read_point_cloud_csv, rips_persistence,
                     write_point_cloud_csv)
from bayespd import rips as rips_module
from bayespd.rips import _distance_matrix


def rips(points, max_dim=1, max_radius=np.inf, quiet=True):
    params = FiltrationParams(max_homology_dim=max_dim, max_radius=max_radius)
    cloud = PointCloud(np.asarray(points, dtype=float))
    if quiet:
        with pytest.warns(UserWarning, match="essential"):
            return rips_persistence(cloud, params)
    return rips_persistence(cloud, params)


# -- hand-checked complexes ----------------------------------------------------

def test_two_points():
    d = rips([[0.0, 0.0], [1.7, 0.0]], max_dim=0)
    assert len(d) == 1
    assert d.dims[0] == 0
    assert d.births[0] == 0.0
    assert d.deaths[0] == 1.7
    assert d.n_dropped_infinite == 1  # the surviving component


def test_unit_square():
    d = rips([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    h1 = d.restrict(1)
    assert len(h1) == 1
    assert abs(h1.births[0] - 1.0) <= 1e-12
    assert abs(h1.deaths[0] - math.sqrt(2.0)) <= 1e-12
    h0 = d.restrict(0)
    assert len(h0) == 3
    np.testing.assert_allclose(h0.deaths, 1.0)


def test_equilateral_triangle_has_no_loop():
    # edges and the filling triangle enter together: zero persistence
    s = 1.3
    pts = [[0.0, 0.0], [s, 0.0], [s / 2, s * math.sqrt(3) / 2]]
    d = rips(pts)
    assert len(d.restrict(1)) == 0
    np.testing.assert_allclose(d.restrict(0).deaths, s, rtol=1e-12)


def test_octahedron_void():
    pts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    d = rips(pts, max_dim=2)
    h2 = d.restrict(2)
    assert len(h2) == 1
    assert abs(h2.births[0] - math.sqrt(2.0)) <= 1e-12
    assert abs(h2.deaths[0] - 2.0) <= 1e-12
    assert len(d.restrict(1)) == 0  # every loop fills immediately
    assert len(d.restrict(0)) == 5


def test_uniform_circle_loop():
    n = 50
    angles = 2.0 * math.pi * np.arange(n) / n
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    d = rips(pts)
    h1 = d.restrict(1)
    assert len(h1) == 1
    assert h1.births[0] == pytest.approx(2.0 * math.sin(math.pi / n), rel=1e-12)
    assert 1.6 < h1.deaths[0] < 1.8  # continuum limit is sqrt(3)


def test_duplicate_points_are_zero_persistence():
    d = rips([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]], max_dim=0)
    assert len(d) == 1  # the duplicate merge at 0 is discarded
    assert d.deaths[0] == 2.0


def test_single_point_and_empty():
    with pytest.warns(UserWarning, match="essential"):
        d = rips_persistence(PointCloud(np.zeros((1, 3))))
    assert len(d) == 0
    assert d.n_dropped_infinite == 1
    with pytest.raises(ValidationError):
        rips_persistence(PointCloud(np.zeros((0, 2))))


# -- H0 against an independent union-find oracle ------------------------------

def brute_components(points, radius):
    dm = squareform(pdist(points))
    adjacency = csr_matrix(dm <= radius)
    count, _ = scipy_components(adjacency, directed=False)
    return int(count)


def test_h0_matches_component_oracle():
    rng = np.random.default_rng(71)
    for trial in range(10):
        pts = rng.uniform(0.0, 1.0, (rng.integers(5, 25), rng.integers(2, 4)))
        d = rips(pts, max_dim=0)
        n = len(pts)
        for radius in [0.05, 0.1, 0.2, 0.4, 0.8]:
            merged = int(np.count_nonzero(d.deaths <= radius))
            assert n - merged == brute_components(pts, radius)


def test_h0_births_all_zero():
    rng = np.random.default_rng(73)
    d = rips(rng.uniform(0, 1, (20, 2)), max_dim=1)
    assert np.all(d.restrict(0).births == 0.0)


# -- invariances ---------------------------------------------------------------

def random_rotation(rng, dim):
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def test_isometry_invariance_and_scale_equivariance():
    rng = np.random.default_rng(79)
    for trial in range(5):
        pts = rng.uniform(0.0, 2.0, (rng.integers(8, 30), 2))
        base = rips(pts)
        rot = random_rotation(rng, 2)
        moved = pts @ rot.T + rng.uniform(-5, 5, 2)
        other = rips(moved)
        assert len(base) == len(other)
        np.testing.assert_array_equal(base.dims[base._canonical_order()],
                                      other.dims[other._canonical_order()])
        np.testing.assert_allclose(
            np.sort(base.births), np.sort(other.births), atol=1e-9, rtol=0)
        np.testing.assert_allclose(
            np.sort(base.deaths), np.sort(other.deaths), atol=1e-9, rtol=0)

        scale = float(rng.uniform(0.5, 3.0))
        scaled = rips(pts * scale)
        np.testing.assert_allclose(
            np.sort(scaled.births), scale * np.sort(base.births), rtol=1e-9)
        np.testing.assert_allclose(
            np.sort(scaled.deaths), scale * np.sort(base.deaths), rtol=1e-9)


def test_point_order_invariance():
    rng = np.random.default_rng(83)
    pts = rng.uniform(0.0, 1.0, (15, 2))
    base = rips(pts)
    shuffled = rips(pts[rng.permutation(15)])
    assert base == shuffled


def test_determinism():
    rng = np.random.default_rng(89)
    pts = rng.uniform(0.0, 1.0, (20, 3))
    a, b = rips(pts, max_dim=2), rips(pts, max_dim=2)
    np.testing.assert_array_equal(a.births, b.births)
    np.testing.assert_array_equal(a.deaths, b.deaths)
    np.testing.assert_array_equal(a.dims, b.dims)


# -- truncation, budget, validation --------------------------------------------

def test_max_radius_truncates_and_counts_essentials():
    # unit square at radius 1.2: the loop never fills, both H1 and extra H0
    # classes become essential
    pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    with pytest.warns(UserWarning, match="essential"):
        d = rips_persistence(PointCloud(np.asarray(pts)),
                             FiltrationParams(max_radius=1.2))
    assert len(d.restrict(1)) == 0
    assert d.n_dropped_infinite == 2  # component + unfilled loop


def test_simplex_budget_error():
    rng = np.random.default_rng(97)
    pts = rng.uniform(0, 1, (30, 2))
    with pytest.raises(SimplexBudgetError, match="needs at least"):
        rips_persistence(PointCloud(pts),
                         FiltrationParams(simplex_budget=100))


def test_budget_error_fires_before_the_complex_is_built():
    # 400 points: C(400, 2) edges and C(400, 3) triangles (243 MiB as an
    # index array) exceed both budgets; only the distance matrix may exist
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (400, 3))
    for budget, limit in ((1000, 3 * 2**20), (400 + 400 * 399 // 2, 6 * 2**20)):
        tracemalloc.start()
        try:
            with pytest.raises(SimplexBudgetError, match="^filtration needs at least"):
                rips_persistence(PointCloud(pts),
                                 FiltrationParams(simplex_budget=budget))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (budget, peak)


def test_top_dimension_cofaces_are_walked_not_stored():
    # H1 of 200 points: building their ~1M triangles and sorting the
    # incidences peaked near 100 MiB; the (face, vertex) walk stays near the
    # size of the distance matrix
    pts = np.random.default_rng(17).uniform(0.0, 1.0, (200, 2))
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="essential"):
            rips_persistence(PointCloud(pts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


def test_union_find_reads_only_the_edges_it_uses():
    # H0 of 1,000 uniform points makes its last merge near edge 4,400 of
    # about 363,000; listing every edge as Python ints peaked near 70 MiB
    pts = np.random.default_rng(23).uniform(0.0, 1.0, (1000, 2))
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="essential"):
            diagram = rips_persistence(PointCloud(pts), FiltrationParams(max_homology_dim=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(diagram) == 999
    assert peak < 48 * 2**20, peak


def test_one_distance_matrix_per_rips_call(monkeypatch):
    # the enclosing radius, the filtration and diameter() share one matrix
    calls, build = [], rips_module._distance_matrix
    monkeypatch.setattr(rips_module, "_distance_matrix",
                        lambda points: calls.append(len(points)) or build(points))
    pts = np.random.default_rng(31).uniform(0.0, 1.0, (20, 2))
    for max_dim in (0, 1, 2):
        cloud = PointCloud(pts)
        with pytest.warns(UserWarning, match="essential"):
            rips_persistence(cloud, FiltrationParams(max_homology_dim=max_dim))
        assert cloud.diameter() == np.max(pdist(pts))
    assert calls == [20, 20, 20]
    assert not cloud._distances.flags.writeable


def test_keys_past_int64_are_exact_python_ints(monkeypatch):
    # a coface key is below n_ranks * n**width; where that passes 2**63 the
    # keys are Python ints, and forcing them on small clouds changes nothing
    weights = rips_module._key_weights
    assert weights(7_000, 7_000**2 // 2, 3).dtype == np.int64
    assert weights(17_000, 2_000_000, 3).dtype == object
    rng = np.random.default_rng(29)
    clouds = [rng.integers(0, 3, (14, 3)).astype(float), rng.uniform(0.0, 1.0, (30, 2))]
    expected = [rips(cloud, max_dim=2) for cloud in clouds]
    monkeypatch.setattr(rips_module, "_key_weights",
                        lambda n, n_ranks, width: weights(n, 2**64, width))
    for cloud, diagram in zip(clouds, expected):
        got = rips(cloud, max_dim=2)
        assert got.births.tobytes() == diagram.births.tobytes()
        assert got.deaths.tobytes() == diagram.deaths.tobytes()
        assert got.dims.tobytes() == diagram.dims.tobytes()


def test_filtration_is_cut_at_the_enclosing_radius(monkeypatch):
    # an infinite radius arrives as min_i max_j d(i, j); a smaller one, and
    # the zero enclosing radius of coincident points, arrive unchanged
    radii, build = [], rips_module._build_filtration

    def spy(cloud, params):
        radii.append(params.max_radius)
        return build(cloud, params)

    monkeypatch.setattr(rips_module, "_build_filtration", spy)
    pts = np.random.default_rng(11).uniform(0.0, 1.0, (25, 2))
    enclosing = squareform(pdist(pts)).max(axis=1).min()
    with pytest.warns(UserWarning, match=r"max_radius=inf$"):
        rips_persistence(PointCloud(pts), FiltrationParams())
    with pytest.warns(UserWarning, match="essential"):
        rips_persistence(PointCloud(pts), FiltrationParams(max_radius=0.1))
        rips_persistence(PointCloud(np.zeros((3, 2))), FiltrationParams())
    assert radii == [enclosing, 0.1, np.inf]


def test_filtration_params_validation():
    with pytest.raises(ValidationError):
        FiltrationParams(max_homology_dim=3)
    with pytest.raises(ValidationError):
        FiltrationParams(max_radius=0.0)


def test_filtration_params_store_the_integers_they_check():
    # max_homology_dim=1.5 used to pass the range check and fail inside
    # rips_persistence with a TypeError; True was taken as 1, and a budget
    # of 1e6 stayed a float
    for dim in (1.5, True, "1"):
        with pytest.raises(ValidationError, match="max_homology_dim must be an integer"):
            FiltrationParams(max_homology_dim=dim)
    params = FiltrationParams(max_homology_dim=np.float64(2.0), simplex_budget=1e6)
    assert (params.max_homology_dim, params.simplex_budget) == (2, 1_000_000)
    assert type(params.max_homology_dim) is int and type(params.simplex_budget) is int
    with pytest.warns(UserWarning, match="essential"):
        diagram = rips_persistence(PointCloud(np.eye(3)), FiltrationParams(max_homology_dim=1.0))
    assert len(diagram) == 2  # the two H0 deaths of three equidistant points


def test_point_cloud_validation():
    with pytest.raises(ValidationError):
        PointCloud(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValidationError):
        PointCloud(np.zeros(3))
    cloud = PointCloud(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert cloud.diameter() == 5.0
    assert cloud.n_points == 2
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       dim=st.integers(1, 3), scale=st.floats(1e-3, 1e3))
def test_distance_matrix_is_pdist_bit_for_bit(seed, n, dim, scale):
    # the filtration values and the radius cut both come from these distances
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, scale, (n, dim)) + rng.uniform(-scale, scale, dim)
    points[rng.random(n) < 0.1] = points[0]
    expected = squareform(pdist(points))
    assert _distance_matrix(points).tobytes() == expected.tobytes()
    assert PointCloud(points).diameter() == np.max(pdist(points), initial=0.0)


# -- disk round trip -----------------------------------------------------------

def test_point_cloud_csv_round_trip(tmp_path):
    rng = np.random.default_rng(101)
    cloud = PointCloud(rng.standard_normal((12, 3)))
    path = tmp_path / "cloud.csv"
    write_point_cloud_csv(cloud, path)
    back = read_point_cloud_csv(path)
    np.testing.assert_array_equal(back.points, cloud.points)


def test_point_cloud_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,0.0\n1.0\n")
    with pytest.raises(ValidationError, match="line 2"):
        read_point_cloud_csv(path)
    path.write_text("0.0,zap\n")
    with pytest.raises(ValidationError, match="line 1"):
        read_point_cloud_csv(path)
    path.write_text("x,y\n0.5,0.5\n")
    parsed = read_point_cloud_csv(path, skip_header=True)
    assert parsed.points.tolist() == [[0.5, 0.5]]


@pytest.mark.parametrize("text, skip_header, message", [
    ("0,0\n\n1,2,3\nzap,1\n", False, "line 3: expected 2 coordinates, got 3"),
    ("0,0\n 1 , zap \n", False, "line 2: could not convert string to float: 'zap'"),
    ("\n\n", False, "no points found"),
    ("", True, "no points found"),
    ("\n0,inf\n", True, "point coordinates must be finite"),
], ids=["width-before-a-later-parse-error", "parse", "blank", "empty-with-header",
        "non-finite"])
def test_point_cloud_csv_error_messages(tmp_path, text, skip_header, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        read_point_cloud_csv(path, skip_header=skip_header)
    assert str(info.value) == f"{path}: {message}"


# -- differential test against the boundary-matrix reducer ----------------------

def oracle_filtration(cloud, params):
    """Every simplex with diameter <= max_radius up to dim K+1, as tuples."""
    n = cloud.n_points
    top_dim = params.max_homology_dim + 1
    dist = squareform(pdist(cloud.points)) if n > 1 else np.zeros((1, 1))
    adjacency = dist <= params.max_radius
    np.fill_diagonal(adjacency, False)
    simplices = [(i,) for i in range(n)]
    values = [0.0] * n
    edges = [(i, int(j)) for i in range(n)
             for j in np.nonzero(adjacency[i, i + 1:])[0] + i + 1]
    for i, j in edges:
        simplices.append((i, j))
        values.append(float(dist[i, j]))
    if top_dim >= 2:
        for i, j in edges:
            common = np.nonzero(adjacency[i] & adjacency[j])[0]
            for k in common[common > j]:
                simplices.append((i, j, int(k)))
                values.append(float(max(dist[i, j], dist[i, k], dist[j, k])))
    if top_dim >= 3:
        for i, j, k in [s for s in simplices if len(s) == 3]:
            common = np.nonzero(adjacency[i] & adjacency[j] & adjacency[k])[0]
            for m in common[common > k]:
                simplices.append((i, j, k, int(m)))
                values.append(float(max(
                    dist[i, j], dist[i, k], dist[i, m],
                    dist[j, k], dist[j, m], dist[k, m])))
    return simplices, values


def oracle_reduce(sorted_simplices, index_of):
    """Boundary-matrix column reduction over Z/2 with clearing, dimensions
    high to low; columns are Python-int bitsets whose pivot is the highest
    set bit. Returns (birth_index, death_index) pairs in the sorted order."""
    by_dim = {}
    for rank, s in enumerate(sorted_simplices):
        by_dim.setdefault(len(s) - 1, []).append(rank)
    pivot_col, cleared, pairs = {}, set(), []
    for p in sorted(by_dim, reverse=True):
        if p == 0:
            continue
        for j in by_dim[p]:
            if j in cleared:
                continue
            col = 0
            for facet in combinations(sorted_simplices[j], p):
                col |= 1 << index_of[facet]
            while col:
                other = pivot_col.get(col.bit_length() - 1)
                if other is None:
                    break
                col ^= other
            if col:
                low = col.bit_length() - 1
                pivot_col[low] = col
                cleared.add(low)
                pairs.append((low, j))
    return pairs


def oracle_rips(cloud, params):
    """(births, deaths, dims, n_essential) of the boundary-matrix reducer, in
    the order it emits them."""
    simplices, values = oracle_filtration(cloud, params)
    order = sorted(range(len(simplices)),
                   key=lambda i: (values[i], len(simplices[i]), simplices[i]))
    index_of = {simplices[i]: rank for rank, i in enumerate(order)}
    sorted_simplices = [simplices[i] for i in order]
    sorted_values = [values[i] for i in order]
    paired, births, deaths, dims = set(), [], [], []
    for i, j in oracle_reduce(sorted_simplices, index_of):
        paired.update((i, j))
        if sorted_values[j] > sorted_values[i]:
            births.append(sorted_values[i])
            deaths.append(sorted_values[j])
            dims.append(len(sorted_simplices[i]) - 1)
    n_essential = sum(1 for rank, s in enumerate(sorted_simplices)
                      if len(s) - 1 <= params.max_homology_dim
                      and rank not in paired)
    return births, deaths, dims, n_essential


@st.composite
def rips_inputs(draw):
    """A cloud of 2-40 points in 2-D or 3-D (at most 20 for H2, whose oracle
    is slow), with 0-3 duplicated points, coordinates on a coarse integer
    grid (ties) or in [0, 1], and no radius cut or one below the diameter."""
    max_dim = draw(st.sampled_from([0, 1, 2]))
    dim = draw(st.sampled_from([2, 3]))
    copies = draw(st.integers(0, 3))
    n = draw(st.integers(max(1, 2 - copies), (20 if max_dim == 2 else 40) - copies))
    coordinate = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.0))
    points = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                           min_size=n, max_size=n))
    points += [points[draw(st.integers(0, n - 1))] for _ in range(copies)]
    cloud = PointCloud(np.asarray(points))
    fraction = draw(st.one_of(st.none(), st.floats(0.2, 0.95)))
    radius = np.inf if fraction is None or cloud.diameter() == 0 else (
        fraction * cloud.diameter())
    return cloud, FiltrationParams(max_homology_dim=max_dim, max_radius=radius)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(rips_inputs())
def test_coboundary_reduction_matches_the_boundary_matrix_oracle(inputs):
    cloud, params = inputs
    births, deaths, dims, n_essential = oracle_rips(cloud, params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = rips_persistence(cloud, params)
    np.testing.assert_array_equal(d.births, births)
    np.testing.assert_array_equal(d.deaths, deaths)
    np.testing.assert_array_equal(d.dims, dims)
    assert d.n_dropped_infinite == n_essential


def test_tied_deaths_keep_the_oracle_order():
    # 5x5 squares (H1 born at 5) and 1x7 rectangles (born at 7) all die at
    # sqrt(50): the output order of the tied deaths follows the filtration's
    # tie-break on vertex indices
    square = np.array([[0, 0], [5, 0], [5, 5], [0, 5]], dtype=float)
    rectangle = np.array([[0, 0], [7, 0], [7, 1], [0, 1]], dtype=float)
    cloud = PointCloud(np.concatenate(
        [(square if i % 2 else rectangle) + [40.0 * i, 0.0] for i in range(12)]))
    births, deaths, dims, n_essential = oracle_rips(cloud, FiltrationParams())
    d = rips(cloud.points)
    assert d.births[d.dims == 1].tolist() == [7.0, 5.0] * 6
    np.testing.assert_array_equal(d.births, births)
    np.testing.assert_array_equal(d.deaths, deaths)
    np.testing.assert_array_equal(d.dims, dims)
    assert d.n_dropped_infinite == n_essential == 1
