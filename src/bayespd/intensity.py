"""Gaussian-mixture intensities on the wedge (closed first quadrant).

An intensity is a weighted sum of isotropic 2-D Gaussians restricted to the
wedge: lambda(x) = sum_i c_i N(x; mu_i, v_i I) 1[x >= 0 componentwise].
Weights are expected counts, not probabilities, so they need not sum to 1.

The restriction is implemented as a hard indicator; component masses are the
weights times the Gaussian mass of the quadrant, which factorizes exactly for
isotropic covariance: Phi(m1/sqrt(v)) * Phi(m2/sqrt(v)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._util import BLOCK_CELLS, as_finite, from_json, json_object, write_json
from .errors import ValidationError

TWO_PI = 2.0 * math.pi
SQRT_HALF = math.sqrt(0.5)


def squared_distance(x, mean) -> np.ndarray:
    """Squared Euclidean distance over a trailing axis of length 2, added per
    axis; broadcasts over the leading axes of the arrays ``x`` and ``mean``."""
    return (x[..., 0] - mean[..., 0]) ** 2 + (x[..., 1] - mean[..., 1]) ** 2


def gaussian_density(x, mean, variance):
    """Unrestricted isotropic 2-D Gaussian density N(x; mean, variance*I).

    Broadcasts: ``x`` has shape (..., 2), ``mean`` (..., 2), ``variance``
    (...); the trailing point axis is reduced.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    sq = squared_distance(x, mean)
    return np.exp(-0.5 * sq / variance) / (TWO_PI * variance)


def in_wedge(x) -> np.ndarray:
    """Indicator of the closed first quadrant, shape (...,) for x (..., 2)."""
    x = np.asarray(x, dtype=np.float64)
    return (x[..., 0] >= 0.0) & (x[..., 1] >= 0.0)


def canonical_terms(weights, means, variances) -> tuple:
    """The terms sorted by (mean0, mean1, weight, variance). Equal keys are
    equal terms, so every permutation of the terms gives one operand order."""
    order = np.lexsort((variances, weights, means[:, 1], means[:, 0]))
    return weights[order], means[order], variances[order]


def _blockwise(points, means, variances, reduce, outside) -> np.ndarray:
    """``reduce`` of each point's exponents -|x - mean|^2 / (2 variance),
    and ``outside`` off the wedge, at the points (..., 2); returns shape
    (...), a float for (2,). Points are walked in blocks of about
    ``BLOCK_CELLS`` point-component cells, with ``squared_distance`` formed
    in place, and ``reduce`` gets each block's (points, components) array."""
    x = np.asarray(points, dtype=np.float64)
    if x.shape[-1:] != (2,):
        raise ValidationError(f"points must have shape (..., 2), got {x.shape}")
    pts = x.reshape(-1, 2)
    out = np.full(len(pts), outside)
    if len(means):
        step = max(1, BLOCK_CELLS // len(means))
        for start in range(0, len(pts), step):
            block = pts[start:start + step]
            with np.errstate(over="ignore"):  # an overflowing square is inf: exp 0
                terms = (block[:, 0, None] - means[:, 0]) ** 2
                terms += (block[:, 1, None] - means[:, 1]) ** 2
            terms *= -0.5
            terms /= variances
            out[start:start + step] = reduce(terms)
    out = np.where(in_wedge(pts), out, outside).reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


def mixture_sum(points, weights, means, variances) -> np.ndarray:
    """Wedge-restricted sum_k weights[k] N(x; means[k], variances[k] I) at
    each point x of ``points`` (..., 2), by ``_blockwise``. Each term is
    ``gaussian_density``'s arithmetic, and each point's terms are added in
    the order given, which the intensities fix once with ``canonical_terms``.
    """
    norm = TWO_PI * variances

    def total(terms):
        np.exp(terms, out=terms)
        terms /= norm
        terms *= weights
        return terms.sum(axis=-1)

    return _blockwise(points, means, variances, total, 0.0)


def grid_mixture_sum(xs, ys, weights, means, variances) -> np.ndarray:
    """``mixture_sum`` on the tensor grid of the axis arrays ``xs`` (nx,) and
    ``ys`` (ny,), shape (ny, nx). An isotropic Gaussian factors over the
    axes, so each block of ``BLOCK_CELLS // (nx + ny)`` components, in the
    order given, costs one exp per axis value and component and one BLAS-free
    ``np.einsum`` over the components: no thread count changes a bit."""
    out = np.zeros((len(ys), len(xs)))
    step = max(1, BLOCK_CELLS // (len(xs) + len(ys)))
    with np.errstate(over="ignore"):  # an overflowing square is inf: exp 0
        for start in range(0, len(weights), step):
            part = slice(start, start + step)
            v = variances[part]
            e_x = np.exp(-0.5 * (xs[:, None] - means[part, 0]) ** 2 / v)
            e_y = (np.exp(-0.5 * (ys[:, None] - means[part, 1]) ** 2 / v)
                   * (weights[part] / (TWO_PI * v)))
            out += np.einsum("yk,xk->yx", e_y, e_x)
    return np.where((ys[:, None] >= 0.0) & (xs >= 0.0), out, 0.0)


def log_mixture_sum(points, weights, means, variances) -> np.ndarray:
    """Natural log of ``mixture_sum`` for positive ``weights``, without
    underflow: a log-sum-exp per point that shifts each point's log terms by
    their maximum, then adds them in the order given (Blanchard, Higham &
    Higham 2021, "Accurately computing the log-sum-exp and softmax
    functions"). It is -inf outside the wedge and for an empty mixture.
    """
    log_norm = np.log(weights) - np.log(TWO_PI * variances)

    def log_total(terms):
        terms += log_norm
        peak = terms.max(axis=-1, keepdims=True)
        peak[np.isneginf(peak)] = 0.0  # every term vanishes: log 0
        terms -= peak
        np.exp(terms, out=terms)
        return peak[:, 0] + np.log(terms.sum(axis=-1))

    with np.errstate(divide="ignore"):
        return _blockwise(points, means, variances, log_total, -np.inf)


def wedge_gaussian_mass(mean, variance):
    """Mass of an isotropic Gaussian inside the closed first quadrant.

    For mean (m1, m2) and variance v this is Phi(m1/sqrt(v)) * Phi(m2/sqrt(v)),
    exact because the isotropic density factorizes over coordinates. Phi(z)
    is 0.5 * erfc(-z * sqrt(1/2)) by ``math.erfc`` on each value: within
    about 6e-14 relative of the Cephes ``ndtr`` wherever it is a normal
    float, and exact at 0, +-inf and NaN. Broadcasts over leading axes of
    ``mean`` (..., 2) and ``variance`` (...); a 0-d result is a ``float``.
    """
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if np.any(variance <= 0) or np.any(~np.isfinite(variance)):
        raise ValidationError("variance must be finite and > 0")
    with np.errstate(over="ignore"):  # a mean near the float limit: z is +-inf, Phi exact
        z = mean / np.sqrt(variance)[..., None]
    erfc = np.fromiter(map(math.erfc, (z * -SQRT_HALF).ravel().tolist()),
                       np.float64, z.size)
    phi = 0.5 * erfc.reshape(z.shape)
    out = phi[..., 0] * phi[..., 1]
    return float(out) if out.ndim == 0 else out


def gaussian_product(y, likelihood_variance, prior_mean, prior_variance):
    """Combine N(y; x, lv*I) * N(x; pm, pv*I) into weight * N(x; m, v*I).

    Returns ``(post_mean, post_variance, marginal_weight)`` where the
    marginal weight is the unrestricted density N(y; pm, (lv + pv) I).
    Broadcasts over component axes of ``prior_mean``/``prior_variance``;
    ``y`` of shape (P, 1, 2) gives means (P, K, 2) and marginals (P, K) for
    K components, while ``post_variance`` does not depend on ``y``.
    """
    y = np.asarray(y, dtype=np.float64)
    pm = np.asarray(prior_mean, dtype=np.float64)
    pv = np.asarray(prior_variance, dtype=np.float64)
    lv = float(likelihood_variance)
    if lv <= 0 or np.any(pv <= 0):
        raise ValidationError("variances must be > 0")
    total = lv + pv
    post_mean = (pv[..., None] * y + lv * pm) / total[..., None]
    post_variance = lv * pv / total
    marginal = gaussian_density(y, pm, total)
    return post_mean, post_variance, marginal


@dataclass(frozen=True)
class MixtureComponent:
    """One mixture term: weight c > 0, mean in R^2, isotropic variance > 0."""

    weight: float
    mean: tuple[float, float]
    variance: float

    def __post_init__(self):
        if not isinstance(self.mean, (list, tuple, np.ndarray)) or len(self.mean) != 2:
            raise ValidationError(f"mean must be a 2-vector, got {self.mean!r}")
        object.__setattr__(self, "mean", tuple(as_finite(m, "mean") for m in self.mean))
        object.__setattr__(self, "weight", as_finite(self.weight, "weight", gt=0))
        object.__setattr__(self, "variance", as_finite(self.variance, "variance", gt=0))

    def to_dict(self) -> dict:
        return {"weight": self.weight, "mean": list(self.mean),
                "variance": self.variance}

    @classmethod
    def from_dict(cls, data: dict, what: str = "mixture component") -> "MixtureComponent":
        with json_object(data, what, ("weight", "mean", "variance")):
            return cls(data["weight"], data["mean"], data["variance"])


class GaussianMixtureIntensity:
    """Finite Gaussian-mixture intensity restricted to the wedge.

    The empty mixture is the zero intensity (useful as "no clutter").
    """

    __slots__ = ("components", "weights", "means", "variances", "_terms",
                 "_wedge_masses", "_masses", "_total")

    def __init__(self, components: Iterable[MixtureComponent] = ()):
        components = tuple(components)
        for comp in components:
            if not isinstance(comp, MixtureComponent):
                raise ValidationError(
                    f"expected MixtureComponent, got {type(comp).__name__}")
        self.components = components
        self.weights = np.asarray([c.weight for c in components], dtype=np.float64)
        self.means = (np.asarray([c.mean for c in components], dtype=np.float64)
                      .reshape(len(components), 2))
        self.variances = np.asarray([c.variance for c in components],
                                    dtype=np.float64)
        for arr in (self.weights, self.means, self.variances):
            arr.flags.writeable = False
        self._terms = canonical_terms(self.weights, self.means, self.variances)
        self._wedge_masses = wedge_gaussian_mass(self.means, self.variances)  # Q_i
        self._masses = self.weights * self._wedge_masses
        self._masses.flags.writeable = False
        self._total = math.fsum(self._masses)

    def __len__(self) -> int:
        return len(self.components)

    def evaluate(self, x) -> np.ndarray:
        """Intensity at points ``x`` of shape (..., 2); zero outside the wedge.

        Components are added in ``canonical_terms`` order, fixed at
        construction, so the result is bitwise invariant under component
        permutation.
        """
        return mixture_sum(x, *self._terms)

    def evaluate_grid(self, grid) -> np.ndarray:
        """``evaluate`` on the (ny, nx) cells of ``grid``, separably."""
        return grid_mixture_sum(grid.x_axis, grid.y_axis, *self._terms)

    def log_evaluate(self, x) -> np.ndarray:
        """Natural log of ``evaluate``, finite wherever the mixture is
        nonempty and ``x`` is in the wedge; see ``log_mixture_sum``."""
        return log_mixture_sum(x, *self._terms)

    def component_masses(self) -> np.ndarray:
        """Per-component wedge masses c_i * Q_i, read only; Q_i, the wedge
        integral of N(mu_i, v_i I), is kept for the sampler."""
        return self._masses

    def total_mass(self) -> float:
        """Expected feature count: integral of the intensity over the wedge.

        Uses exactly rounded summation, so the value does not depend on
        component order.
        """
        return self._total

    def __eq__(self, other):
        if not isinstance(other, GaussianMixtureIntensity):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"GaussianMixtureIntensity(n_components={len(self)})"

    def to_list(self) -> list[dict]:
        return [c.to_dict() for c in self.components]

    @classmethod
    def from_list(cls, data: list, what: str = "mixture") -> "GaussianMixtureIntensity":
        if not isinstance(data, (list, tuple)):
            raise ValidationError(f"{what} must be a JSON array of components")
        return cls(MixtureComponent.from_dict(d, f"{what}: component {i}")
                   for i, d in enumerate(data))


def write_mixture_json(mixture: GaussianMixtureIntensity, path) -> None:
    write_json(path, mixture.to_list())


def read_mixture_json(path) -> GaussianMixtureIntensity:
    return from_json(path, GaussianMixtureIntensity.from_list)
