"""Persistence diagrams: finite multisets of (birth, death, dim) features.

All computation in this package happens in tilted coordinates, where a
feature (birth b, death d) becomes the point (b, d - b) in the closed first
quadrant (the "wedge"). Files on disk use birth-death coordinates.

A diagram stores one (n, 2) array of (birth, persistence) rows and the
deaths beside it, the persistences derived once, which makes the coordinate
transforms lossless: in binary64, ``b + fl(d - b)`` can differ from ``d`` on
round-half-even ties, so recomputing on every conversion would break exact
round trips. Carrying the deaths too sidesteps that entirely.
"""

from __future__ import annotations

import numpy as np

from ._util import (as_finite, as_float_array, as_integer, json_object, key_path,
                    read_csv_rows, read_json, write_csv, write_json)
from .errors import ValidationError

#: Largest homology dimension handled anywhere in the package.
MAX_HOMOLOGY_DIM = 2

CSV_HEADER = "birth,death,dim"


def _columns(births, deaths, dims, second="deaths"):
    """Float births, deaths (or ``second``) and dims, as 1-D arrays of one length."""
    births, deaths, dims = map(as_float_array, (births, deaths, dims), ("births", second, "dims"))
    if births.ndim != 1 or births.shape != deaths.shape or births.shape != dims.shape:
        raise ValidationError("births, deaths and dims must be 1-D arrays of equal length")
    return births, deaths, dims


def _check_rows(births, deaths, dims, label="feature {}".format) -> None:
    """Raise a ValidationError naming ``label(i)`` of the first row i that
    breaks a rule, and the first rule it breaks."""
    broken = (~np.isfinite(births) | (births < 0), ~np.isfinite(deaths), deaths < births,
              dims != np.floor(dims), (dims < 0) | (dims > MAX_HOMOLOGY_DIM))
    bad = np.logical_or.reduce(broken)
    if bad.any():
        i = int(np.argmax(bad))
        b, d, k = float(births[i]), float(deaths[i]), float(dims[i])
        messages = (f"birth must be finite and >= 0, got {b}",
                    f"death must be finite, got {d} (drop infinite deaths with "
                    "from_birth_death)",
                    f"death < birth ({d} < {b})",
                    f"homology dimension must be an integer, got {k}",
                    f"homology dimension must be in 0..{MAX_HOMOLOGY_DIM}, got {k:.0f}")
        message = next(m for m, mask in zip(messages, broken) if mask[i])
        raise ValidationError(f"{label(i)}: {message}")


def _from_birth_death(births, deaths, dims, label="feature {}".format):
    """``PersistenceDiagram.from_birth_death``, naming a bad row i ``label(i)``."""
    births, deaths, dims = _columns(births, deaths, dims)
    essential = np.isposinf(deaths)  # checked as if it died at birth, then dropped
    _check_rows(births, np.where(essential, births, deaths), dims, label)
    keep = ~essential
    return _stored(births[keep], deaths[keep], dims[keep], int(np.count_nonzero(essential)))


def _stored(births, deaths, dims, n_dropped_infinite=0) -> "PersistenceDiagram":
    """A new diagram of float columns that passed ``_check_rows``, not checked again."""
    return object.__new__(PersistenceDiagram)._store(births, deaths, dims, n_dropped_infinite)


class PersistenceDiagram:
    """Immutable multiset of persistence features.

    Parameters
    ----------
    births, deaths : array_like
        Feature coordinates, ``0 <= birth <= death < inf``.
    dims : array_like
        Integer homology dimensions in ``0..MAX_HOMOLOGY_DIM``.

    Notes
    -----
    ``tilted_points`` is one read-only (n, 2) array of (birth, persistence)
    rows whose columns are ``births`` and ``persistences = deaths - births``,
    so two diagrams with identical (birth, death, dim) triples are identical
    in every view. Equality is multiset equality over those triples, bit exact.
    """

    __slots__ = ("tilted_points", "births", "persistences", "deaths", "dims",
                 "n_dropped_infinite")

    def __init__(self, births, deaths, dims, *, n_dropped_infinite: int = 0):
        births, deaths, dims = _columns(births, deaths, dims)
        _check_rows(births, deaths, dims)
        self._store(births, deaths, dims, n_dropped_infinite)

    def _store(self, births, deaths, dims, n_dropped_infinite) -> "PersistenceDiagram":
        """Keep checked float columns as read-only copies, built once."""
        self.tilted_points = np.column_stack([births, deaths - births])
        self.deaths, self.dims = deaths.copy(), dims.astype(np.int64)
        for arr in (self.tilted_points, self.deaths, self.dims):
            arr.flags.writeable = False
        self.births, self.persistences = self.tilted_points.T  # read-only views
        self.n_dropped_infinite = as_integer(n_dropped_infinite, "n_dropped_infinite", ge=0)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_birth_death(cls, births, deaths, dims) -> "PersistenceDiagram":
        """Build a diagram from birth-death triples (the on-disk convention).

        Every row is checked, one with an infinite death (an essential class)
        as if it died at birth; those rows are then dropped and counted in
        ``n_dropped_infinite``. An error names a row by its input position.
        """
        return _from_birth_death(births, deaths, dims)

    @classmethod
    def from_tilted(cls, births, persistences, dims) -> "PersistenceDiagram":
        """Build a diagram from tilted (birth, persistence) pairs.

        The stored death is ``birth + persistence``; persistence is then
        re-derived from it, so coordinates may shift by one ulp relative to
        the inputs but all views of the resulting diagram are consistent.
        """
        births, persistences, dims = _columns(births, persistences, dims, "persistences")
        bad = ~np.isfinite(persistences) | (persistences < 0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValidationError(f"feature {i}: persistence must be finite and >= 0, "
                                  f"got {float(persistences[i])}")
        deaths = births + persistences
        _check_rows(births, deaths, dims)
        return _stored(births, deaths, dims)

    @classmethod
    def empty(cls) -> "PersistenceDiagram":
        return _stored(np.empty(0), np.empty(0), np.empty(0))

    # -- views -------------------------------------------------------------

    def restrict(self, homology_dim: int) -> "PersistenceDiagram":
        """The sub-diagram of features in a single homology dimension."""
        keep = self.dims == as_integer(homology_dim, "homology dimension")
        return _stored(self.births[keep], self.deaths[keep], self.dims[keep])

    @property
    def homology_dims(self) -> np.ndarray:
        return np.unique(self.dims)

    def __len__(self) -> int:
        return self.births.shape[0]

    def _canonical_order(self) -> np.ndarray:
        return np.lexsort((self.deaths, self.births, self.dims))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        if len(self) != len(other):
            return False
        a, b = self._canonical_order(), other._canonical_order()
        return (np.array_equal(self.dims[a], other.dims[b])
                and np.array_equal(self.births[a], other.births[b])
                and np.array_equal(self.deaths[a], other.deaths[b]))

    def __hash__(self):
        order = self._canonical_order()
        return hash((self.births[order].tobytes(),
                     self.deaths[order].tobytes(),
                     self.dims[order].tobytes()))

    def __repr__(self):
        return (f"PersistenceDiagram(n={len(self)}, "
                f"dims={sorted(set(self.dims.tolist()))})")


# -- file I/O ---------------------------------------------------------------

def _to_rows(diagram: PersistenceDiagram):
    """(birth, death, dim) of each feature, as Python floats and ints."""
    return zip(diagram.births.tolist(), diagram.deaths.tolist(), diagram.dims.tolist())


def write_diagram_csv(diagram: PersistenceDiagram, path) -> None:
    """Write ``birth,death,dim`` rows in birth-death coordinates."""
    write_csv(path, _to_rows(diagram), header=CSV_HEADER)


def read_diagram_csv(path) -> PersistenceDiagram:
    """Read a ``birth,death,dim`` CSV, converting to tilted form on ingest.

    Parse and validation errors name the offending line. Features with
    infinite death are dropped (counted on the returned diagram).
    """
    def header(fields):
        if fields != ["birth", "death", "dim"]:
            raise ValidationError(f"expected header '{CSV_HEADER}'")

    def parse(fields):
        if len(fields) != 3:
            raise ValidationError(f"expected 3 fields, got {len(fields)}")
        return [float(f) for f in fields]

    lines = read_csv_rows(path, parse, header)
    with key_path(path):
        return _from_birth_death(*np.array([row for _, row in lines]).reshape(-1, 3).T,
                                 label=lambda i: f"line {lines[i][0]}")


def write_diagram_json(diagram: PersistenceDiagram, path) -> None:
    """Write the JSON form: an array of {birth, death, dim} objects."""
    records = [{"birth": b, "death": d, "dim": k} for b, d, k in _to_rows(diagram)]
    write_json(path, records)


def read_diagram_json(path) -> PersistenceDiagram:
    records = read_json(path)
    if not isinstance(records, list):
        raise ValidationError(f"{path}: expected a JSON array of features")
    rows = []
    for i, rec in enumerate(records):
        with json_object(rec, f"{path}: feature {i}", ("birth", "death", "dim")):
            # a float, NaN and +-inf included, is left to the feature rules
            birth, death = (rec[key] if isinstance(rec[key], float) else as_finite(rec[key], key)
                            for key in ("birth", "death"))
            dim = rec["dim"] if isinstance(rec["dim"], float) else as_finite(
                as_integer(rec["dim"], "homology dimension"), "homology dimension")
            rows.append((birth, death, dim))
    with key_path(path):
        return _from_birth_death(*np.array(rows).reshape(-1, 3).T)


def _is_json(path) -> bool:
    return str(path).lower().endswith(".json")


def write_diagram(diagram: PersistenceDiagram, path) -> None:
    """Write JSON to a ``.json`` path, CSV to any other."""
    (write_diagram_json if _is_json(path) else write_diagram_csv)(diagram, path)


def read_diagram(path) -> PersistenceDiagram:
    """Read JSON from a ``.json`` path, CSV from any other."""
    return (read_diagram_json if _is_json(path) else read_diagram_csv)(path)
