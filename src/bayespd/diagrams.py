"""Persistence diagrams: finite multisets of (birth, death, dim) features.

All computation in this package happens in tilted coordinates, where a
feature (birth b, death d) becomes the point (b, d - b) in the closed first
quadrant (the "wedge"). Files on disk use birth-death coordinates.

A diagram stores births, deaths AND persistences. The redundant coordinate
is filled in exactly once at construction, which makes the coordinate
transforms lossless: in binary64, ``b + fl(d - b)`` can differ from ``d`` on
round-half-even ties, so recomputing on every conversion would break exact
round trips. Carrying both arrays sidesteps that entirely.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._util import atomic_write_text, read_json
from .errors import ValidationError

#: Largest homology dimension handled anywhere in the package.
MAX_HOMOLOGY_DIM = 2

CSV_HEADER = "birth,death,dim"


@dataclass(frozen=True)
class PersistenceFeature:
    """A single feature, in tilted coordinates plus its exact death value."""

    birth: float
    persistence: float
    homology_dim: int
    death: float | None = None

    def __post_init__(self):
        if self.death is None:
            object.__setattr__(self, "death", self.birth + self.persistence)


class PersistenceDiagram:
    """Immutable multiset of persistence features.

    Parameters
    ----------
    births, deaths : array_like
        Feature coordinates, ``0 <= birth <= death < inf``.
    dims : array_like
        Integer homology dimensions in ``0..MAX_HOMOLOGY_DIM``.
    metadata : str, optional
        Free-form source label. Ignored by equality and never written to disk.

    Notes
    -----
    ``persistences`` is always derived as ``deaths - births`` so that two
    diagrams with identical (birth, death, dim) triples are identical in
    every view. Equality is multiset equality over those triples, bit exact.
    """

    __slots__ = ("births", "deaths", "persistences", "dims", "metadata",
                 "n_dropped_infinite")

    def __init__(self, births, deaths, dims, *, metadata: str | None = None,
                 n_dropped_infinite: int = 0):
        births = np.atleast_1d(np.asarray(births, dtype=np.float64)).copy()
        deaths = np.atleast_1d(np.asarray(deaths, dtype=np.float64)).copy()
        dims_arr = np.atleast_1d(np.asarray(dims))
        if births.ndim != 1 or births.shape != deaths.shape or births.shape != dims_arr.shape:
            raise ValidationError(
                "births, deaths and dims must be 1-D arrays of equal length")
        if dims_arr.size and not np.issubdtype(dims_arr.dtype, np.integer):
            if not np.all(dims_arr == np.floor(dims_arr)):
                raise ValidationError("homology dimensions must be integers")
        dims_arr = dims_arr.astype(np.int64)

        self._validate(births, deaths, dims_arr)

        self.births = births
        self.deaths = deaths
        self.persistences = deaths - births
        self.dims = dims_arr
        self.metadata = metadata
        self.n_dropped_infinite = int(n_dropped_infinite)
        for arr in (self.births, self.deaths, self.persistences, self.dims):
            arr.flags.writeable = False

    @staticmethod
    def _validate(births, deaths, dims):
        bad = ~np.isfinite(births) | (births < 0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValidationError(
                f"feature {i}: birth must be finite and >= 0, got {births[i]!r}")
        bad = ~np.isfinite(deaths)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValidationError(
                f"feature {i}: death must be finite, got {deaths[i]!r} "
                "(drop infinite deaths with from_birth_death)")
        bad = deaths < births
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValidationError(
                f"feature {i}: death < birth ({deaths[i]!r} < {births[i]!r})")
        bad = (dims < 0) | (dims > MAX_HOMOLOGY_DIM)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValidationError(
                f"feature {i}: homology dimension must be in "
                f"0..{MAX_HOMOLOGY_DIM}, got {dims[i]}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_birth_death(cls, births, deaths, dims, *,
                         metadata: str | None = None) -> "PersistenceDiagram":
        """Build a diagram from birth-death triples (the on-disk convention).

        Features with infinite death (essential classes) are dropped; the
        count is kept in ``n_dropped_infinite`` and a warning is emitted.
        """
        births = np.atleast_1d(np.asarray(births, dtype=np.float64))
        deaths = np.atleast_1d(np.asarray(deaths, dtype=np.float64))
        dims = np.atleast_1d(np.asarray(dims))
        if births.shape != deaths.shape or births.shape != dims.shape:
            raise ValidationError(
                "births, deaths and dims must have equal length")
        infinite = np.isposinf(deaths)
        n_dropped = int(np.count_nonzero(infinite))
        if n_dropped:
            warnings.warn(
                f"dropping {n_dropped} feature(s) with infinite death",
                stacklevel=2)
            keep = ~infinite
            births, deaths, dims = births[keep], deaths[keep], dims[keep]
        return cls(births, deaths, dims, metadata=metadata,
                   n_dropped_infinite=n_dropped)

    @classmethod
    def from_tilted(cls, births, persistences, dims, *,
                    metadata: str | None = None) -> "PersistenceDiagram":
        """Build a diagram from tilted (birth, persistence) pairs.

        The stored death is ``birth + persistence``; persistence is then
        re-derived from it, so coordinates may shift by one ulp relative to
        the inputs but all views of the resulting diagram are consistent.
        """
        births = np.atleast_1d(np.asarray(births, dtype=np.float64))
        persistences = np.atleast_1d(np.asarray(persistences, dtype=np.float64))
        bad = ~np.isfinite(persistences) | (persistences < 0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValidationError(
                f"feature {i}: persistence must be finite and >= 0, "
                f"got {persistences[i]!r}")
        return cls(births, births + persistences, dims, metadata=metadata)

    @classmethod
    def empty(cls, *, metadata: str | None = None) -> "PersistenceDiagram":
        return cls(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64),
                   metadata=metadata)

    # -- views -------------------------------------------------------------

    @property
    def tilted_points(self) -> np.ndarray:
        """(n, 2) array of (birth, persistence) points in the wedge."""
        return np.column_stack([self.births, self.persistences])

    @property
    def birth_death_points(self) -> np.ndarray:
        """(n, 2) array of (birth, death) points."""
        return np.column_stack([self.births, self.deaths])

    def restrict(self, homology_dim: int) -> "PersistenceDiagram":
        """The sub-diagram of features in a single homology dimension."""
        keep = self.dims == int(homology_dim)
        return PersistenceDiagram(self.births[keep], self.deaths[keep],
                                  self.dims[keep], metadata=self.metadata)

    @property
    def homology_dims(self) -> np.ndarray:
        return np.unique(self.dims)

    def __len__(self) -> int:
        return self.births.shape[0]

    def __iter__(self) -> Iterator[PersistenceFeature]:
        for b, d, p, k in zip(self.births, self.deaths, self.persistences,
                              self.dims):
            yield PersistenceFeature(float(b), float(p), int(k), float(d))

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
                f"dims={sorted(set(self.dims.tolist()))}, "
                f"metadata={self.metadata!r})")


# -- coordinate maps on raw points ----------------------------------------

def tilt(birth_death: Sequence) -> np.ndarray:
    """Map (birth, death) pairs to tilted (birth, death - birth) pairs.

    Rejects pairs with death < birth or birth < 0.
    """
    pts = np.atleast_2d(np.asarray(birth_death, dtype=np.float64))
    if pts.shape[-1] != 2:
        raise ValidationError("expected (n, 2) array of (birth, death) pairs")
    if np.any(pts[:, 0] < 0) or np.any(~np.isfinite(pts)):
        raise ValidationError("births must be finite and >= 0, deaths finite")
    if np.any(pts[:, 1] < pts[:, 0]):
        i = int(np.argmax(pts[:, 1] < pts[:, 0]))
        raise ValidationError(
            f"pair {i}: death < birth ({pts[i, 1]!r} < {pts[i, 0]!r})")
    return np.column_stack([pts[:, 0], pts[:, 1] - pts[:, 0]])


def untilt(tilted: Sequence) -> np.ndarray:
    """Map tilted (birth, persistence) pairs back to (birth, death) pairs."""
    pts = np.atleast_2d(np.asarray(tilted, dtype=np.float64))
    if pts.shape[-1] != 2:
        raise ValidationError(
            "expected (n, 2) array of (birth, persistence) pairs")
    if np.any(pts < 0) or np.any(~np.isfinite(pts)):
        raise ValidationError(
            "births and persistences must be finite and >= 0")
    return np.column_stack([pts[:, 0], pts[:, 0] + pts[:, 1]])


# -- file I/O ---------------------------------------------------------------

def _format_float(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips binary64
    return repr(float(x))


def write_diagram_csv(diagram: PersistenceDiagram, path) -> None:
    """Write ``birth,death,dim`` rows in birth-death coordinates."""
    lines = [CSV_HEADER]
    for b, d, k in zip(diagram.births, diagram.deaths, diagram.dims):
        lines.append(f"{_format_float(b)},{_format_float(d)},{int(k)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_diagram_csv(path, *, metadata: str | None = None) -> PersistenceDiagram:
    """Read a ``birth,death,dim`` CSV, converting to tilted form on ingest.

    Parse and validation errors name the offending line. Features with
    infinite death are dropped (counted on the returned diagram).
    """
    with open(path, "r") as handle:
        lines = handle.read().splitlines()
    if not lines or [f.strip() for f in lines[0].split(",")] != ["birth", "death", "dim"]:
        raise ValidationError(
            f"{path}: line 1: expected header '{CSV_HEADER}'")
    births, deaths, dims = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise ValidationError(
                f"{path}: line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            b, d, k = float(fields[0]), float(fields[1]), int(fields[2])
        except ValueError as exc:
            raise ValidationError(
                f"{path}: line {lineno}: {exc}") from None
        try:
            _check_triple(b, d, k)
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
        births.append(b)
        deaths.append(d)
        dims.append(k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PersistenceDiagram.from_birth_death(
            np.asarray(births), np.asarray(deaths),
            np.asarray(dims, dtype=np.int64), metadata=metadata)


def _check_triple(b: float, d: float, k: int) -> None:
    if not np.isfinite(b) or b < 0:
        raise ValidationError(f"birth must be finite and >= 0, got {b!r}")
    if np.isnan(d):
        raise ValidationError("death is NaN")
    if not np.isposinf(d) and d < b:
        raise ValidationError(f"death < birth ({d!r} < {b!r})")
    if k < 0 or k > MAX_HOMOLOGY_DIM:
        raise ValidationError(
            f"homology dimension must be in 0..{MAX_HOMOLOGY_DIM}, got {k}")


def write_diagram_json(diagram: PersistenceDiagram, path) -> None:
    """Write the JSON form: an array of {birth, death, dim} objects."""
    records = [
        {"birth": float(b), "death": float(d), "dim": int(k)}
        for b, d, k in zip(diagram.births, diagram.deaths, diagram.dims)
    ]
    atomic_write_text(path, json.dumps(records, indent=2) + "\n")


def read_diagram_json(path, *, metadata: str | None = None) -> PersistenceDiagram:
    records = read_json(path)
    if not isinstance(records, list):
        raise ValidationError(f"{path}: expected a JSON array of features")
    births, deaths, dims = [], [], []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or set(rec) != {"birth", "death", "dim"}:
            raise ValidationError(
                f"{path}: feature {i}: expected keys birth, death, dim")
        try:
            b, d, k = float(rec["birth"]), float(rec["death"]), int(rec["dim"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: feature {i}: {exc}") from None
        try:
            _check_triple(b, d, k)
        except ValidationError as exc:
            raise ValidationError(f"{path}: feature {i}: {exc}") from None
        births.append(b)
        deaths.append(d)
        dims.append(k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PersistenceDiagram.from_birth_death(
            np.asarray(births), np.asarray(deaths),
            np.asarray(dims, dtype=np.int64), metadata=metadata)


def write_diagram(diagram: PersistenceDiagram, path, fmt: str = "auto") -> None:
    """Write CSV or JSON, picked by extension when ``fmt='auto'``."""
    fmt = _resolve_format(path, fmt)
    if fmt == "csv":
        write_diagram_csv(diagram, path)
    else:
        write_diagram_json(diagram, path)


def read_diagram(path, fmt: str = "auto", *,
                 metadata: str | None = None) -> PersistenceDiagram:
    """Read CSV or JSON, picked by extension when ``fmt='auto'``."""
    fmt = _resolve_format(path, fmt)
    if fmt == "csv":
        return read_diagram_csv(path, metadata=metadata)
    return read_diagram_json(path, metadata=metadata)


def _resolve_format(path, fmt: str) -> str:
    if fmt == "auto":
        fmt = "json" if str(path).lower().endswith(".json") else "csv"
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown diagram format {fmt!r}")
    return fmt
