"""Per-layer spans for the bayespd benchmark, recorded from outside the package.

A ``Tracer`` replaces, for the duration of a ``with`` block, each public
function listed by ``bindings()`` at the module attribute its caller looks up
(``presets.h1_diagram``, ``classify.posterior_closed_form`` and so on) by a
wrapper that records a span and returns the wrapped result unchanged. No file
under ``src/`` is modified.

A span is ``[layer, start, end, parent]``, with ``parent`` the index of the
innermost span open when it started (-1 at top level). A call into a layer
that is already open, such as ``rips_persistence`` inside ``h1_diagram``,
records no second span, so each layer counts its outermost calls only.
Work counts (simplices, bytes, components) are computed from the captured
arguments and results after the run, outside every span.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np
from scipy.spatial.distance import pdist, squareform


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def rips_simplex_count(points: np.ndarray, radius: float, top_dim: int) -> int:
    """Closed simplices of dimension <= ``top_dim`` whose diameter is at most
    ``radius``: the complex the Rips layer has to build. Distances come from
    ``pdist``, as in ``bayespd.rips``, so a radius equal to the diameter
    admits the same edges."""
    n = len(points)
    dist = squareform(pdist(points)) if n > 1 else np.zeros((1, 1))
    adjacency = dist <= radius
    np.fill_diagonal(adjacency, False)
    count = n
    if top_dim >= 1:
        count += int(adjacency.sum()) // 2
    if top_dim >= 2:
        a = adjacency.astype(np.int64)
        count += int(np.trace(a @ a @ a)) // 6
    if top_dim >= 3:
        # each 3-simplex has six edges, and for each of them its other two
        # vertices are an edge inside that edge's common neighbourhood
        quads = 0
        for i, j in zip(*np.nonzero(np.triu(adjacency))):
            common = adjacency[i] & adjacency[j]
            quads += int(adjacency[np.ix_(common, common)].sum()) // 2
        count += quads // 6
    return count


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _components(intensity) -> int:
    return len(intensity.coefficients) + len(intensity.prior)


# -- work counters: (args, kwargs, result) -> {metric suffix: value} -----------

def _count_h1_diagram(args, kwargs, result):
    cloud = _arg(args, kwargs, 0, "cloud")
    return {"points": cloud.n_points, "features_out": len(result),
            "simplices": rips_simplex_count(cloud.points, cloud.diameter(), 2)}


def _count_rips_persistence(args, kwargs, result):
    cloud = _arg(args, kwargs, 0, "cloud")
    params = _arg(args, kwargs, 1, "params")
    radius, top_dim = ((np.inf, 2) if params is None else
                       (params.max_radius, params.max_homology_dim + 1))
    return {"points": cloud.n_points, "features_out": len(result),
            "simplices": rips_simplex_count(cloud.points, radius, top_dim)}


def _count_kmeans(args, kwargs, result):
    return {"points": np.size(_arg(args, kwargs, 0, "points")) // 2}


def _count_closed_form(args, kwargs, result):
    observations = _arg(args, kwargs, 2, "observations")
    return {"points_in": sum(len(d) for d in observations),
            "components_out": len(result.coefficients)}


def _count_bayes_factor(args, kwargs, result):
    return {"undecidable": int(result.undecidable)}


def _count_scaled_grid(args, kwargs, result):
    intensity = _arg(args, kwargs, 0, "intensity")
    grid = _arg(args, kwargs, 1, "grid")
    return {"cell_components": grid.nx * grid.ny * _components(intensity)}


def _count_mesh_evaluate(args, kwargs, result):
    posterior, mesh = args[0], _arg(args, kwargs, 1, "x")
    cells = int(np.prod(np.shape(mesh)[:-1]))
    return {"cell_components": cells * _components(posterior)}


def _count_written(path_index, path_name):
    def count(args, kwargs, result):
        return {"bytes": _file_bytes(_arg(args, kwargs, path_index, path_name))}
    return count


def _count_read(args, kwargs, result):
    return {"bytes": _file_bytes(_arg(args, kwargs, 0, "path"))}


def _is_mesh(args, kwargs):
    return np.ndim(_arg(args, kwargs, 1, "x")) >= 3


def bindings():
    """(owner, attribute, layer, counter, condition) for every traced call.

    Each function is wrapped at every module that imports it, because a
    caller looks the name up in its own module. ``PosteriorIntensity.evaluate``
    counts as grid evaluation only when given a mesh, which is how the
    unscaled ``bayespd posterior`` path evaluates its grid.
    """
    from bayespd import (classify, cli, diagrams, intensity, posterior,
                         presets, quadrature, rips, simulate)

    out = []

    def add(owners, attr, layer, counter=None, condition=None):
        for owner in owners:
            out.append((owner, attr, layer, counter, condition))

    add([presets], "h1_diagram", "rips", _count_h1_diagram)
    add([presets, cli, rips], "rips_persistence", "rips",
        _count_rips_persistence)
    add([presets, cli, simulate], "sample_lattice", "simulate")
    add([presets, cli, simulate], "sample_noisy_circle", "simulate")
    add([classify], "kmeans", "classify.kmeans", _count_kmeans)
    add([classify, presets, cli, posterior], "posterior_closed_form",
        "posterior.closed_form", _count_closed_form)
    add([classify], "bayes_factor", "classify.bayes_factor",
        _count_bayes_factor)
    add([presets, cli, classify], "cross_validate", "classify.cross_validate")
    add([presets, cli, posterior], "scaled_intensity_grid",
        "posterior.grid_eval", _count_scaled_grid)
    add([posterior.PosteriorIntensity], "evaluate", "posterior.grid_eval",
        _count_mesh_evaluate, _is_mesh)
    add([presets, cli, posterior], "write_grid_csv", "posterior.grid_csv",
        _count_written(0, "path"))
    add([presets, diagrams], "write_diagram_csv", "diagrams.write",
        _count_written(1, "path"))
    add([cli, diagrams], "write_diagram", "diagrams.write",
        _count_written(1, "path"))
    add([diagrams], "write_diagram_json", "diagrams.write",
        _count_written(1, "path"))
    add([cli, diagrams], "read_diagram", "diagrams.read", _count_read)
    add([cli, diagrams], "read_diagram_json", "diagrams.read", _count_read)
    add([diagrams], "read_diagram_csv", "diagrams.read", _count_read)
    add([intensity.GaussianMixtureIntensity], "evaluate", "intensity.evaluate")
    add([posterior, quadrature], "adaptive_quad_2d", "quadrature")
    return out


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._work: list[tuple] = []  # (span index, counter, args, kwargs, result)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, layer, counter, condition in bindings():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, counter, condition))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, layer, counter, condition):
        spans, work, stack, open_layers = (self.spans, self._work, self._stack,
                                           self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_layers[layer] or (condition and not condition(args, kwargs)):
                return fn(*args, **kwargs)
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            open_layers[layer] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_layers[layer] -= 1
                stack.pop()
            if counter is not None:
                work.append((index, counter, args, kwargs, result))
            return result

        return wrapper

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer calls, busy and self seconds and work counts of the spans
        recorded so far, with ``cli.self_s`` the part of ``wall_s`` that no
        top-level span covers."""
        metrics: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        covered = 0.0
        for (name, start, end, parent), children in zip(self.spans, child_s):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.busy_s"] += end - start
            metrics[f"{name}.self_s"] += end - start - children
            if parent < 0:
                covered += end - start
        for index, counter, args, kwargs, result in self._work:
            for key, value in counter(args, kwargs, result).items():
                metrics[f"{self.spans[index][0]}.{key}"] += value
        metrics["cli.self_s"] = wall_s - covered
        metrics["trace.coverage"] = covered / wall_s
        return dict(metrics)
