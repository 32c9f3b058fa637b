"""Vietoris-Rips persistent homology from point clouds.

A simplex enters the filtration at its diameter (closed convention: a
simplex with diameter exactly equal to the threshold is included); equal
diameters are ordered by dimension, then by vertex indices. Homology is
over Z/2: H0 by union-find over the edges in filtration order, each higher
dimension by reducing coboundary columns with clearing and apparent pairs
(Bauer 2021, "Ripser"; de Silva, Morozov & Vejdemo-Johansson 2011).

Simplices are built up to dimension ``max_homology_dim`` only; the layer
above stays implicit. A face's cofaces are its (face, vertex) cells, walked
in blocks, each named by an integer key (the dense rank of its diameter
among the edge lengths, then its vertices as base-n digits) that sorts in
filtration order. One argmin per face over those cells finds its first
coface, and so its apparent pair; only the other faces' columns are cut
from their rows and reduced.

The complex stops at the enclosing radius min_i max_j d(i, j) if that is
below ``max_radius``: there it is a cone on one vertex, so no class dies
later, and the cut skips most simplices of a full filtration (Bauer 2021).

Zero-persistence pairs are discarded. Classes still alive at ``max_radius``
(essential classes in the truncated filtration) are dropped and counted on
the returned diagram.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce
from itertools import chain, combinations

import numpy as np

from ._util import as_finite, as_float_array, as_integer, key_path, read_csv_rows, write_csv
from .diagrams import MAX_HOMOLOGY_DIM, PersistenceDiagram
from .errors import SimplexBudgetError, ValidationError

DEFAULT_SIMPLEX_BUDGET = 2_000_000
_BLOCK_CELLS = 1 << 16  # (face, vertex) cells per block of coface enumeration


@dataclass(frozen=True)
class PointCloud:
    """Finite point set in R^d, stored as an (n, d) float64 array."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_float_array(self.points, "points").copy()
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValidationError(
                f"points must form an (n, d) array with d >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("point coordinates must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _distances(self) -> np.ndarray:
        """The read-only (n, n) ``_distance_matrix`` of the points, built once."""
        dist = _distance_matrix(self.points)
        dist.flags.writeable = False
        return dist

    def diameter(self) -> float:
        return float(self._distances.max(initial=0.0))


@dataclass(frozen=True)
class FiltrationParams:
    """Rips parameters: top homology dimension, radius cutoff, budget."""

    max_homology_dim: int = 1
    max_radius: float = np.inf
    simplex_budget: int = DEFAULT_SIMPLEX_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "max_homology_dim",
                           as_integer(self.max_homology_dim, "max_homology_dim", ge=0))
        if self.max_homology_dim > MAX_HOMOLOGY_DIM:
            raise ValidationError(f"max_homology_dim must be in 0..{MAX_HOMOLOGY_DIM}")
        if self.max_radius != np.inf:  # the one radius that need not be finite
            object.__setattr__(self, "max_radius", as_finite(self.max_radius, "max_radius", gt=0))
        object.__setattr__(self, "simplex_budget",
                           as_integer(self.simplex_budget, "simplex_budget", ge=1))


def rips_persistence(cloud: PointCloud,
                     params: FiltrationParams = FiltrationParams()) -> PersistenceDiagram:
    """Persistence diagram of the Rips filtration of ``cloud``.

    Simplices up to dimension ``max_homology_dim`` are built (only those
    with diameter <= max_radius, or the enclosing radius if that is smaller);
    those one dimension up count against the budget but are never stored.
    H0 features are born at 0; the essential class per connected
    component is dropped and counted. Features come in descending death
    dimension, then in the filtration order of their death.
    """
    if cloud.n_points == 0:
        raise ValidationError("cannot build a filtration on an empty cloud")

    top = params.max_homology_dim
    enclosing = float(cloud._distances.max(axis=1).min())
    cut = 0 < enclosing < params.max_radius  # not for coincident points
    simplices, values = _build_filtration(cloud, replace(
        params, max_homology_dim=max(top - 1, 0),
        max_radius=enclosing if cut else params.max_radius))
    starts = [*(len(simplices) - np.count_nonzero(simplices >= 0, axis=0)),
              len(simplices)]
    layers = []  # per dimension: lexicographic rows, filtration order, sorted values
    for d, (a, b) in enumerate(zip(starts, starts[1:])):
        order = np.argsort(values[a:b], kind="stable")
        layers.append((simplices[a:b, :d + 1], order, values[a:b][order]))

    n, (edges, edge_order, edge_values) = cloud.n_points, layers[1]
    ticks = np.unique(edge_values)  # every diameter above dimension 0; its index is its rank
    rank_of = np.full((n, n), len(ticks), dtype=np.min_scalar_type(len(ticks)))  # no edge
    rank_of[edges[:, 0], edges[:, 1]] = rank_of[edges[:, 1], edges[:, 0]] = np.searchsorted(
        ticks, values[starts[1]:starts[2]])
    count, step = len(simplices), max(1, _BLOCK_CELLS // n)
    if top and count + math.comb(n, top + 2) > params.simplex_budget:  # it might not fit:
        for lo in range(0, len(layers[top][0]), step):  # count the top layer, block by block
            count += len(_cofaces(layers[top][0][lo:lo + step], rank_of < len(ticks), count,
                                  params.simplex_budget))
    edges = edges[edge_order]  # in filtration order
    n_essential, cleared, found = 0, [], []
    for d in range(top + 1):
        faces, order, face_values = layers[d]
        if d == 0:
            born, died = _union_find(n, edges)
            deaths = edge_values[died]
        else:
            ranks = np.searchsorted(ticks, face_values).astype(rank_of.dtype)
            if d > 1:  # the keys of the cofaces that killed a class, as face ranks
                weights = _key_weights(n, len(ticks), d + 1)
                cleared = np.searchsorted(ranks * weights[:1] + faces[order] @ weights[1:],
                                          cleared)
            born, died = _coboundary_pairs(faces[order], ranks, rank_of, cleared)
            deaths = ticks[(died // n ** (d + 2)).astype(np.intp)]
        n_essential += len(faces) - len(cleared) - len(born)
        found.append((face_values[born], deaths, np.full(len(born), d)))
        cleared = died

    if n_essential:
        warnings.warn(
            f"dropping {n_essential} essential class(es) still alive at "
            f"max_radius={params.max_radius}", stacklevel=2)
    births, deaths, dims = map(np.concatenate, zip(*reversed(found)))
    keep = deaths > births
    return PersistenceDiagram(births[keep], deaths[keep], dims[keep],
                              n_dropped_infinite=n_essential)


def _build_filtration(cloud: PointCloud, params: FiltrationParams):
    """Every simplex of diameter <= max_radius up to dimension K+1, as an
    (N, K+2) vertex array padded with -1 (the vertices, then the edges and
    so on, each dimension in lexicographic order) and the N diameters,
    each the largest of its vertices' ``_distance_matrix`` entries."""
    n = cloud.n_points
    _check_budget(n, params.simplex_budget)
    dist = cloud._distances
    adjacency = dist <= params.max_radius
    np.fill_diagonal(adjacency, False)
    layers = [np.arange(n)[:, None]]
    for _ in range(params.max_homology_dim + 1):
        layers.append(_cofaces(layers[-1], adjacency, sum(map(len, layers)),
                               params.simplex_budget))
    ends = np.cumsum([len(layer) for layer in layers])
    simplices = np.full((ends[-1], len(layers)), -1, dtype=np.int64)
    for end, layer in zip(ends, layers):
        simplices[end - len(layer):end, :layer.shape[1]] = layer
    values = np.concatenate([np.zeros(n)] + [
        np.max([dist[layer[:, a], layer[:, b]]
                for a, b in combinations(range(layer.shape[1]), 2)], axis=0)
        for layer in layers[1:]])
    return simplices, values


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``points`` as an (n, n)
    matrix, bit for bit ``squareform(pdist(points))``: from zero, the squared
    difference along each axis is added in axis order, then one square root
    is taken. Peak memory is two (n, n) arrays, whatever the dimension."""
    n = len(points)
    dist, term = np.zeros((n, n)), np.empty((n, n))
    for axis in points.T:
        np.subtract(axis[:, None], axis, out=term)
        np.multiply(term, term, out=term)
        dist += term
    return np.sqrt(dist, out=dist)


def _cofaces(faces: np.ndarray, adjacency: np.ndarray, count: int,
             budget: int) -> np.ndarray:
    """Each row of ``faces`` extended by each vertex above its last that is
    adjacent to all of its vertices, in lexicographic order. A block of rows
    is extended only once ``count`` plus the cofaces found fits the budget."""
    n = len(adjacency)
    step = max(1, _BLOCK_CELLS // n)
    parts = [np.empty((0, faces.shape[1] + 1), dtype=np.int64)]
    for lo in range(0, len(faces), step):
        block = faces[lo:lo + step]
        mask = (np.logical_and.reduce(adjacency[block], axis=1)
                & (np.arange(n) > block[:, -1:]))
        count += np.count_nonzero(mask)
        _check_budget(count, budget)
        rows, vertex = np.nonzero(mask)
        parts.append(np.column_stack((faces[lo + rows], vertex)))
    return np.concatenate(parts)


def _check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise SimplexBudgetError(
            f"filtration needs at least {count} simplices, exceeding the "
            f"budget of {budget}; raise simplex_budget or lower "
            "max_radius/max_homology_dim")


def _union_find(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adds the (m, 2) ``edges`` in order to ``n`` singletons; returns, for
    each edge that joins two components, the younger component's oldest
    vertex and the edge's position."""
    parent, born, died = list(range(n)), [], []

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    slices = (edges[lo:lo + n].tolist() for lo in range(0, len(edges), n))  # listed as read
    for position, (a, b) in enumerate(chain.from_iterable(slices)):
        if len(died) == n - 1:
            break
        a, b = sorted((root(a), root(b)))
        if a != b:
            parent[b] = a
            born.append(b)
            died.append(position)
    return np.array(born, dtype=np.int64), np.array(died, dtype=np.int64)


def _key_weights(n: int, n_ranks: int, width: int) -> np.ndarray:
    """Weights of the diameter rank and the sorted vertices in the key of a
    simplex of ``width`` vertices. A key is below n_ranks * n**width: int64
    up to 2**63 (with n_ranks <= n**2 / 2, every cloud of up to 7,000 points
    at dimension 2), exact Python ints past it, so keys never overflow."""
    dtype = np.int64 if n_ranks * n ** width <= 2 ** 63 else object
    return np.array([n ** k for k in range(width, -1, -1)], dtype=dtype)


def _coboundary_pairs(faces, ranks, rank_of, cleared):
    """Persistence pairs (face ranks, coface keys) of one dimension d >= 1,
    ordered by coface key, of ``faces`` in filtration order with diameter
    ranks ``ranks``; ``rank_of[u, v]`` is the rank of edge uv, or absent.

    Columns are coboundaries, reduced from the last face to the first; a
    pivot is a column's first coface, found by one argmin over the added
    vertex w (for one face, the order of w is the lexicographic order). An
    apparent pair has equal diameters, and no facet after the face (one
    without a vertex below w) with that diameter too; its column is cut only
    when a pivot lands on it. ``cleared`` faces killed a class one dimension
    down, so their columns are zero. A column is a heap of coface keys in
    which equal pairs cancel."""
    n, width, absent = len(rank_of), faces.shape[1], int(rank_of[0, 0])
    first, first_rank = np.empty(len(faces), dtype=np.intp), np.empty_like(ranks)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, len(faces), step):
        cell = reduce(np.maximum, rank_of[faces[lo:lo + step].T], ranks[lo:lo + step, None])
        first[lo:lo + step], first_rank[lo:lo + step] = cell.argmin(axis=1), cell.min(axis=1)
    coface = [*faces.T, first]
    apparent = first_rank == ranks
    for i in range(width):
        facet = [rank_of[coface[a], coface[b]]
                 for a, b in combinations(range(width + 1), 2) if i not in (a, b)]
        apparent &= (faces[:, i] > first) | (reduce(np.maximum, facet) < ranks)
    # key of face + w: rank * weights[0] + heads[face, p] + w * weights[p + 1], p = #(face < w)
    weights = _key_weights(n, absent, width + 1)
    below, place = np.arange(width)[:, None], np.arange(width + 1)
    heads = faces @ weights[below + 1 + (below >= place)]
    rank_weight, digit = weights[:1], weights[1:]  # arrays, so ranks promote to their dtype
    pairs = np.flatnonzero(apparent)
    p = (faces[pairs] < first[pairs, None]).sum(1)
    owner = dict(zip((ranks[pairs] * rank_weight + heads[pairs, p]
                      + first[pairs] * digit[p]).tolist(), pairs.tolist()))
    vertices = np.arange(n)

    @cache
    def column(face: int) -> list:  # sorted, so the pivot comes first
        cell = reduce(np.maximum, rank_of[faces[face]], ranks[face])
        p = faces[face].searchsorted(vertices)
        keys = cell * rank_weight + heads[face][p] + vertices * digit[p]
        return np.sort(keys[cell < absent]).tolist()

    todo = first_rank < absent
    todo[cleared] = todo[apparent] = False
    reduced = {}
    for face in np.flatnonzero(todo)[::-1].tolist():
        heap = list(column(face))
        while heap:
            pivot = heapq.heappop(heap)
            if heap and heap[0] == pivot:  # a pair cancels
                heapq.heappop(heap)
            elif pivot in owner:  # add the owner's column, whose first key cancels the pivot
                other = owner[pivot]
                for key in (reduced.get(other) or column(other))[1:]:
                    heapq.heappush(heap, key)
            else:
                owner[pivot] = face
                reduced[face] = [pivot, *heap]  # the pivot first, as in a cut column
                break
    died = np.fromiter(owner, dtype=weights.dtype, count=len(owner))
    order = np.argsort(died)
    return np.fromiter(owner.values(), dtype=np.int64, count=len(owner))[order], died[order]


# -- point-cloud file I/O ----------------------------------------------------

def write_point_cloud_csv(cloud: PointCloud, path) -> None:
    """One point per line, comma-separated coordinates, no header."""
    write_csv(path, cloud.points.tolist())


def read_point_cloud_csv(path, *, skip_header: bool = False) -> PointCloud:
    widths = []  # every row must have the width of the first

    def parse(fields):
        row = [float(f) for f in fields]
        widths.append(len(row))
        if len(row) != widths[0]:
            raise ValidationError(f"expected {widths[0]} coordinates, got {len(row)}")
        return row

    rows = [row for _, row in read_csv_rows(path, parse, header=list if skip_header else None)]
    if not rows:
        raise ValidationError(f"{path}: no points found")
    with key_path(path):
        return PointCloud(np.asarray(rows, dtype=np.float64))
