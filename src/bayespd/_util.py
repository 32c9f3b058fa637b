"""Small shared helpers: RNG plumbing, JSON reading and field conversion,
atomic file writes of bytes, CSV and JSON."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager

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


def as_integer(value, what: str) -> int:
    """``int(value)`` of a JSON number, refusing strings, booleans and floats
    with a fractional part."""
    if isinstance(value, (str, bool)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_finite(value, what: str) -> float:
    """``float(value)``, refusing NaN and +-inf."""
    number = float(value)
    if not np.isfinite(number):
        raise ValidationError(f"{what} must be finite, got {number!r}")
    return number


@contextmanager
def field_errors(what: str):
    """Turn the TypeError, ValueError, AttributeError or OverflowError of a
    malformed field met while building ``what`` into ValidationError."""
    try:
        yield
    except ValidationError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"{what}: {exc}") from None


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
