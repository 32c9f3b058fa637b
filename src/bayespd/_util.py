"""Small shared helpers: RNG plumbing, stable summation, JSON reading,
atomic file writes."""

from __future__ import annotations

import json
import os
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


def stable_sum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along ``axis`` after sorting, making the result independent of
    the order in which contributions were assembled.

    Sorting canonicalizes the operand order and numpy then applies pairwise
    summation, so permuting the inputs can never change the rounded result.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[axis] == 0:
        return np.sum(values, axis=axis)
    return np.sum(np.sort(values, axis=axis), axis=axis)


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


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same dir.

    Readers never observe a partially written file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
