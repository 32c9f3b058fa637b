"""Adaptive tensor-product Gauss-Legendre quadrature on rectangles.

Used by the posterior oracle to integrate sharply peaked Gaussian products.
Each panel is estimated at two Legendre orders; panels whose order-doubling
difference dominates the error budget are split in four. Initial panel cuts
can be seeded at known peak locations so narrow bumps are never missed by a
coarse first pass.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

#: Legendre order of each panel's coarse estimate; the fine one doubles it.
BASE_ORDER = 12


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panel_estimates(f: Callable[[np.ndarray], np.ndarray],
                     panels: np.ndarray, order: int) -> np.ndarray:
    """Tensor Gauss-Legendre estimates for a batch of panels (P, 4)."""
    nodes, weights = _gl_rule(order)
    x0, x1, y0, y1 = panels.T
    hx = 0.5 * (x1 - x0)
    hy = 0.5 * (y1 - y0)
    # node grids per panel: (P, order) each axis
    gx = (x0 + hx)[:, None] + hx[:, None] * nodes
    gy = (y0 + hy)[:, None] + hy[:, None] * nodes
    pts = np.empty((panels.shape[0], order, order, 2))
    pts[..., 0] = gx[:, :, None]
    pts[..., 1] = gy[:, None, :]
    vals = np.asarray(f(pts.reshape(-1, 2)), dtype=np.float64)
    vals = vals.reshape(panels.shape[0], order, order)
    w2 = weights[:, None] * weights[None, :]
    return (hx * hy) * np.einsum("pij,ij->p", vals, w2)


def _estimates(f, panels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each panel's fine estimate and its distance to the coarse one."""
    fine = _panel_estimates(f, panels, 2 * BASE_ORDER)
    return fine, np.abs(fine - _panel_estimates(f, panels, BASE_ORDER))


def adaptive_quad_2d(f: Callable[[np.ndarray], np.ndarray],
                     box: Sequence[float], *,
                     atol: float = 1e-9,
                     rtol: float = 1e-10,
                     initial_cuts_x: Sequence[float] = (),
                     initial_cuts_y: Sequence[float] = (),
                     max_panels: int = 40000) -> tuple[float, float]:
    """Integrate ``f`` over the rectangle ``box = (x0, x1, y0, y1)``.

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping an (N, 2) array to (N,) values.
    atol, rtol : float
        Refinement stops once the summed panel error estimates drop below
        ``max(atol, rtol * |integral|)``.
    initial_cuts_x, initial_cuts_y : sequence of float
        Coordinates at which the box is pre-split. Bracket narrow peaks
        (cuts at peak +- a few sigma); a cut exactly at a peak parks it on
        panel corners whose neighbours may sample it as identically zero.
        Cuts outside the box are ignored.
    max_panels : int
        Hard cap; exceeding it raises QuadratureError with the achieved
        error estimate.

    Returns
    -------
    (value, error_estimate)
    """
    x0, x1, y0, y1 = (float(v) for v in box)
    if not (x1 > x0 and y1 > y0):
        return 0.0, 0.0

    xs = _grid_coords(x0, x1, initial_cuts_x)
    ys = _grid_coords(y0, y1, initial_cuts_y)
    panels = np.asarray([(a, b, c, d)
                         for a, b in zip(xs[:-1], xs[1:])
                         for c, d in zip(ys[:-1], ys[1:])], dtype=np.float64)

    fine, errs = _estimates(f, panels)

    while True:
        total = math.fsum(fine)
        err = math.fsum(errs)
        target = max(atol, rtol * abs(total))
        if err <= target:
            return total, err
        if panels.shape[0] >= max_panels:
            raise QuadratureError(
                f"quadrature did not reach tolerance {target:g} within "
                f"{max_panels} panels (achieved error estimate {err:g})")
        # split every panel whose error exceeds its fair share of the budget
        split = errs > max(target / (2 * panels.shape[0]), 1e-300)
        if not np.any(split):
            split[np.argmax(errs)] = True
        children = _split_panels(panels[split])
        child_fine, child_errs = _estimates(f, children)
        panels = np.concatenate([panels[~split], children])
        fine = np.concatenate([fine[~split], child_fine])
        errs = np.concatenate([errs[~split], child_errs])


def _grid_coords(lo: float, hi: float, cuts: Sequence[float]) -> np.ndarray:
    inner = [c for c in cuts if lo < c < hi]
    return np.unique(np.asarray([lo, hi, *inner], dtype=np.float64))


def _split_panels(panels: np.ndarray) -> np.ndarray:
    x0, x1, y0, y1 = panels.T
    xm = 0.5 * (x0 + x1)
    ym = 0.5 * (y0 + y1)
    quads = [
        np.stack([x0, xm, y0, ym], axis=1),
        np.stack([xm, x1, y0, ym], axis=1),
        np.stack([x0, xm, ym, y1], axis=1),
        np.stack([xm, x1, ym, y1], axis=1),
    ]
    return np.concatenate(quads)
