"""Each input rule holds whichever way the input comes in: the diagram
readers, the Python constructors and the functions that take sizes, radii
and dimensions refuse the same inputs with the same messages."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespd import (FiltrationParams, GaussianMixtureIntensity, PersistenceDiagram,
                     PointCloud, ValidationError, kmeans, lattice_sites, read_diagram_csv,
                     read_diagram_json, sample_poisson_pp)

INF, NAN = math.inf, math.nan

#: (rows, index of the first bad row, message) of diagram rows every reader
#: and ``from_birth_death`` refuse; an essential row is checked as if it died
#: at birth
BAD_ROWS = [
    ([(-1.0, INF, 1.0)], 0, "birth must be finite and >= 0, got -1.0"),
    ([(NAN, INF, 1.0)], 0, "birth must be finite and >= 0, got nan"),
    ([(0.0, INF, 7.0)], 0, "homology dimension must be in 0..2, got 7"),
    ([(0.0, INF, 1.5)], 0, "homology dimension must be an integer, got 1.5"),
    ([(0.0, INF, 0.0), (1.0, 0.5, 0.0)], 1, "death < birth (0.5 < 1.0)"),
]


def write_rows(directory, name, rows):
    """The CSV and the JSON file of ``rows``, every number written as a float."""
    csv, js = directory / f"{name}.csv", directory / f"{name}.json"
    csv.write_text("".join(["birth,death,dim\n", *(f"{b!r},{d!r},{k!r}\n" for b, d, k in rows)]))
    js.write_text(json.dumps([{"birth": b, "death": d, "dim": k} for b, d, k in rows]))
    return csv, js


def refusals(tmp_path):
    """(way in, call, message) of each refused input, through each way in."""
    for n, (rows, i, message) in enumerate(BAD_ROWS):
        csv, js = write_rows(tmp_path, f"rows{n}", rows)
        columns = [list(column) for column in zip(*rows)]
        yield "from_birth_death", lambda c=columns: PersistenceDiagram.from_birth_death(*c), \
            f"feature {i}: {message}"
        yield "CSV reader", lambda p=csv: read_diagram_csv(p), f"{csv}: line {i + 2}: {message}"
        yield "JSON reader", lambda p=js: read_diagram_json(p), f"{js}: feature {i}: {message}"
    for args, kwargs, message in (
            ((["0.5"], [1.0], [1]), {}, "births must be numbers, got '0.5'"),
            (([True], [2.0], [1]), {}, "births must be numbers, got True"),
            (([0.5], [1.0], [True]), {}, "dims must be numbers, got True"),
            (([0.5], [1.0], ["1"]), {}, "dims must be numbers, got '1'"),
            (([0.5], [1.0], [1.5]), {}, "feature 0: homology dimension must be an integer, got 1.5"),
            (([0.5], [1.0], [1]), {"n_dropped_infinite": "3"},
             "n_dropped_infinite must be an integer, got '3'")):
        yield "constructor", lambda a=args, k=kwargs: PersistenceDiagram(*a, **k), message
    yield ("from_tilted", lambda: PersistenceDiagram.from_tilted([0.5], ["1"], [1]),
           "persistences must be numbers, got '1'")
    ragged = "must be a rectangular array, got rows of different lengths"
    for args, what in ((([[0.5], 1.0], [1.0, 2.0], [1, 1]), "births"),
                       (([0.5], [1.0], [[1, 1], [1]]), "dims")):
        yield "constructor", lambda a=args: PersistenceDiagram(*a), f"{what} {ragged}"
    for points, message in (([["0.5", "1"], ["2", "3"]], "points must be numbers, got '0.5'"),
                            ([[True, False], [0.0, 1.0]], "points must be numbers, got True"),
                            ([[0.0, 1.0], [2.0]], f"points {ragged}"),
                            ([[0.0, [1.0]], [2.0, 3.0]], f"points {ragged}")):
        yield "PointCloud", lambda p=points: PointCloud(p), message
    for args, message in ((("bcc", 1.5), "cells must be an integer, got 1.5"),
                          (("bcc", 0), "cells must be >= 1, got 0"),
                          (("fcc", 1, 0.0), "lattice_constant must be > 0, got 0.0"),
                          (("hcp", 1), "structure must be 'bcc' or 'fcc', got 'hcp'")):
        yield "lattice_sites", lambda a=args: lattice_sites(*a), message
    for radius, message in ((True, "max_radius must be a number, got True"),
                            ("1", "max_radius must be a number, got '1'"),
                            (0, "max_radius must be > 0, got 0.0"),
                            (NAN, "max_radius must be finite, got nan"),
                            (-INF, "max_radius must be finite, got -inf")):
        yield "FiltrationParams", lambda r=radius: FiltrationParams(max_radius=r), message
    for dim in (3, -1):
        yield ("FiltrationParams", lambda k=dim: FiltrationParams(max_homology_dim=k),
               f"max_homology_dim must be in 0..2, got {dim}")
    diagram = PersistenceDiagram([0.0, 1.0], [1.0, 2.0], [0, 1])
    for dim, shown in ((1.5, "1.5"), ("1", "'1'"), (True, "True")):
        yield ("restrict", lambda k=dim: diagram.restrict(k),
               f"homology dimension must be an integer, got {shown}")
    for dim in (5, -1, 3.0):
        yield ("restrict", lambda k=dim: diagram.restrict(k),
               f"homology dimension must be in 0..2, got {int(dim)}")
    yield ("sample_poisson_pp",  # an empty draw used to pass, any other to name a feature 0
           lambda: sample_poisson_pp(GaussianMixtureIntensity(), 1, homology_dim=7),
           "homology dimension must be in 0..2, got 7")
    far = np.random.default_rng(0).uniform(0.0, 1e153, (400, 2))
    span = math.dist(far.max(axis=0), far.min(axis=0))
    for points, n, shown in ((far, 400, span), ([[0.0, 1.0], [NAN, 0.0], [1.0, 1.0]], 3, NAN)):
        yield ("kmeans", lambda p=points: kmeans(p, 2, 0),
               f"points: n * span**2 must be finite, got n={n}, span={shown}")
    yield "kmeans", lambda: kmeans([[True, 0.5], [0.0, 1.0]], 1, 0), \
        "points must be numbers, got True"


def test_every_way_in_refuses_with_the_message_of_its_rule(tmp_path):
    wrong = []
    for way, call, message in refusals(tmp_path):
        try:
            got = f"accepted: {call()!r}"
        except Exception as exc:  # the wrong kind of error is a refusal too
            got = f"{type(exc).__name__}: {exc}"
        if got != f"ValidationError: {message}":
            wrong.append((way, got, message))
    assert wrong == []


def test_valid_inputs_are_stored_as_the_rules_read_them():
    assert FiltrationParams(max_radius=np.inf).max_radius == INF
    radius = FiltrationParams(max_radius=np.int64(2)).max_radius
    assert radius == 2.0 and type(radius) is float
    assert lattice_sites("bcc", 2.0, 2).tobytes() == lattice_sites("bcc", 2, 2.0).tobytes()
    diagram = PersistenceDiagram([0.0, 1.0], [1.0, 2.0], np.array([0, 1], dtype=np.int8),
                                 n_dropped_infinite=np.int64(2))
    assert diagram.dims.dtype == np.int64 and type(diagram.n_dropped_infinite) is int
    assert diagram.restrict(1.0) == diagram.restrict(np.int64(1)) == diagram.restrict(1)
    cloud = np.array([[0.0, 1.0], [2.0, 3.0]])
    stored = PointCloud(cloud).points
    assert stored.tobytes() == cloud.tobytes() and not np.shares_memory(stored, cloud)
    assert cloud.flags.writeable


def mostly(valid, refused):
    """A draw of ``valid``, or about one time in ten one of the ``refused`` values."""
    return st.tuples(valid, st.integers(0, 9), st.sampled_from(refused)).map(
        lambda drawn: drawn[2] if drawn[1] == 0 else drawn[0])


#: (birth, birth + lifetime, dim) rows: valid ones, essential classes (an
#: infinite lifetime) and rows that break each rule
ROWS = st.lists(st.tuples(mostly(st.floats(0.0, 4.0), [-1.0, NAN, INF, -INF]),
                          mostly(st.floats(0.0, 4.0) | st.just(INF), [-0.5, NAN, -INF]),
                          mostly(st.sampled_from([0.0, 1.0, 2.0]), [3.0, 1.5, -1.0, NAN]))
                .map(lambda row: (row[0], row[0] + row[1], row[2])), max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=ROWS)
def test_readers_and_from_birth_death_agree_row_for_row(tmp_path_factory, rows):
    directory = tmp_path_factory.getbasetemp() / "drawn-rows"  # one for every example
    directory.mkdir(exist_ok=True)
    csv, js = write_rows(directory, "rows", rows)
    columns = [list(column) for column in zip(*rows)] or [[], [], []]
    results = []
    for build, label, first in ((lambda: PersistenceDiagram.from_birth_death(*columns),
                                 "feature ", 0),
                                (lambda: read_diagram_csv(csv), f"{csv}: line ", 2),
                                (lambda: read_diagram_json(js), f"{js}: feature ", 0)):
        try:
            d = build()
        except ValidationError as exc:  # (row, message), the row counted from 0
            assert str(exc).startswith(label), exc
            row, message = str(exc).removeprefix(label).split(": ", 1)
            results.append((int(row) - first, message))
        else:
            results.append((d.births.tobytes(), d.deaths.tobytes(), d.dims.tobytes(),
                            d.n_dropped_infinite))
    assert results[0] == results[1] == results[2]
