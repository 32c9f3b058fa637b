"""Small shared helpers: RNG plumbing, JSON reading and field conversion,
CSV reading, atomic file writes of bytes, CSV and JSON."""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import numpy as np

from .errors import ValidationError

# All randomness in the package flows through numpy's default_rng (PCG64),
# which is seedable and produces the same 64-bit stream on every platform.


def as_generator(seed) -> np.random.Generator:
    """Coerce a seed (int, sequence of ints, or Generator) to a Generator.

    Passing a Generator returns it unchanged so callers can continue a
    stream; anything else is fed to ``np.random.default_rng``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministically derive an independent stream for a subtask.

    ``derived_rng(seed, i, j)`` seeds PCG64 with the tuple ``(seed, i, j)``,
    so parallel or reordered subtasks cannot perturb each other's draws.
    """
    return np.random.default_rng([int(seed), *[int(p) for p in path]])


def read_json(path: str | os.PathLike):
    """Parse the JSON file at ``path``. A directory or malformed JSON raises
    ValidationError naming the path (and the line and column of a syntax
    error)."""
    try:
        with open(path, "r") as handle:
            return json.load(handle)
    except IsADirectoryError:
        raise ValidationError(f"{path}: is a directory, expected a JSON file") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, a 4301-digit int, deep nesting
        raise ValidationError(f"{path}: {exc}") from None


def from_json(path: str | os.PathLike, build):
    """``build`` applied to the JSON file at ``path``; a ValidationError it
    raises is given the path as a prefix unless it already has it."""
    data = read_json(path)
    try:
        return build(data)
    except ValidationError as exc:
        message = str(exc)
        raise ValidationError(message if message.startswith(f"{path}: ")
                              else f"{path}: {message}") from None


def as_integer(value, what: str, *, ge: int | None = None) -> int:
    """``int(value)`` of a whole real number, not a bool, ``>= ge`` if given."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer())):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if ge is not None and value < ge:
        raise ValidationError(f"{what} must be >= {ge}, got {int(value)}")
    return int(value)


def as_finite(value, what: str, *, gt=None, ge=None) -> float:
    """``float(value)`` of a finite real number, not a bool, ``> gt`` or ``>= ge`` if given."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    number = (float(value) if not isinstance(value, int) or abs(value) <= sys.float_info.max
              else math.inf)  # a JSON integer of 309 digits overflows binary64
    if not math.isfinite(number):
        raise ValidationError(f"{what} must be finite, got {number!r}")
    if not ((gt is None or number > gt) and (ge is None or number >= ge)):
        bound = f"> {gt}" if gt is not None else f">= {ge}"
        raise ValidationError(f"{what} must be {bound}, got {number!r}")
    return number


def as_float_array(values, what: str) -> np.ndarray:
    """At least 1-D float64 array of real numbers; a bool is refused, even in a list."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        items = np.asarray(values, dtype=object).ravel().tolist()
        types = list(map(type, items))  # numpy alone reads [True, 0.5] as floats
        for kind in dict.fromkeys(types):  # each type once, in order of first use
            if issubclass(kind, (list, tuple, np.ndarray)):  # how numpy holds ragged rows
                raise ValidationError(
                    f"{what} must be a rectangular array, got rows of different lengths")
            if kind is bool or not issubclass(kind, (int, float, np.integer, np.floating)):
                raise ValidationError(f"{what} must be numbers, got {items[types.index(kind)]!r}")
    return np.atleast_1d(np.asarray(values, dtype=np.float64))


class key_path:
    """Run the block on ``data``; its ValidationErrors get ``what`` as a key-path prefix."""

    def __init__(self, what, data=None):
        self.what, self.data = what, data

    def __enter__(self):
        return self.data

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValidationError):
            raise ValidationError(f"{self.what}: {exc}") from None


class json_object(key_path):
    """Run the block on ``data``, a JSON object with every ``required`` key and no
    others but ``optional``; its ValidationErrors get ``what`` as a key-path prefix."""

    def __init__(self, data, what: str, required=(), optional=()):
        if not isinstance(data, dict):
            raise ValidationError(f"{what} must be a JSON object, got {type(data).__name__}")
        if data.keys() != set(required):  # else no key is missing or unknown
            for kind, keys in (("unknown", data.keys() - {*required, *optional}),
                               ("missing", set(required) - data.keys())):
                if keys:
                    raise ValidationError(f"{what}: {kind} keys {sorted(keys)}")
        super().__init__(what, data)


def read_csv_rows(path: str | os.PathLike, parse, header=None) -> list:
    """(line number, ``parse(fields)``) of each non-blank line of the CSV file
    at ``path``, fields stripped; line 1, blank or not, goes to ``header`` if
    given. Their ValueErrors name the path and the line."""
    with open(path, "r") as handle:
        lines = handle.read().splitlines() or [""]
    rows = []
    for lineno, line in enumerate(lines, start=1):
        read = header if lineno == 1 and header else parse
        if read is header or line.strip():
            try:
                rows.append((lineno, read([f.strip() for f in line.split(",")])))
            except (ValueError, OverflowError) as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from None
    return rows[1:] if header else rows


def atomic_write(path: str | os.PathLike, chunks) -> None:
    """Write the byte strings ``chunks`` to ``path`` via a temp file + rename
    in the same dir. Readers never observe a partially written file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path: str | os.PathLike, rows, *, header: str | None = None) -> None:
    """Write ``rows`` of Python floats and ints atomically as CSV lines, after
    ``header`` when given. A float's ``repr`` is the shortest string that
    round-trips binary64."""
    lines = [",".join(map(repr, row)) for row in rows]
    text = "\n".join([header, *lines] if header else lines) + "\n"
    atomic_write(path, [text.encode()])


def write_json(path: str | os.PathLike, data, *, sort_keys: bool = False) -> None:
    """Write ``data`` atomically as JSON indented by two spaces, ending in a
    newline."""
    atomic_write(path, [(json.dumps(data, indent=2, sort_keys=sort_keys) + "\n").encode()])
