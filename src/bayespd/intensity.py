"""Gaussian-mixture intensities on the wedge (closed first quadrant).

An intensity is a weighted sum of isotropic 2-D Gaussians restricted to the
wedge: lambda(x) = sum_i c_i N(x; mu_i, v_i I) 1[x >= 0 componentwise].
Weights are expected counts, not probabilities, so they need not sum to 1.

The restriction is implemented as a hard indicator; component masses are the
weights times the Gaussian mass of the quadrant, which factorizes exactly for
isotropic covariance: Phi(m1/sqrt(v)) * Phi(m2/sqrt(v)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtr

from ._util import atomic_write_text, read_json, stable_sum
from .errors import ValidationError

TWO_PI = 2.0 * math.pi

#: Point-component cells ``mixture_sum`` evaluates at once. It bounds the
#: kernel's working memory whatever the number of points and components.
BLOCK_CELLS = 1 << 16


def gaussian_density(x, mean, variance):
    """Unrestricted isotropic 2-D Gaussian density N(x; mean, variance*I).

    Broadcasts: ``x`` has shape (..., 2), ``mean`` (..., 2), ``variance``
    (...); the trailing point axis is reduced.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    sq = np.sum((x - mean) ** 2, axis=-1)
    return np.exp(-0.5 * sq / variance) / (TWO_PI * variance)


def in_wedge(x) -> np.ndarray:
    """Indicator of the closed first quadrant, shape (...,) for x (..., 2)."""
    x = np.asarray(x, dtype=np.float64)
    return (x[..., 0] >= 0.0) & (x[..., 1] >= 0.0)


def restricted_gaussian_density(x, mean, variance):
    """Wedge-restricted Gaussian: the density above, zero outside the wedge."""
    return gaussian_density(x, mean, variance) * in_wedge(x)


def mixture_sum(points, weights, means, variances) -> np.ndarray:
    """Wedge-restricted sum_k weights[k] N(x; means[k], variances[k] I) at
    each point x of ``points`` (..., 2); returns shape (...).

    Points are walked in blocks of about ``BLOCK_CELLS`` point-component
    cells, each evaluated in place. Each term is ``gaussian_density``'s
    arithmetic, with the squared distance added per axis as the length-2
    reduction adds it, and each point's terms are added with ``stable_sum``.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.shape[-1:] != (2,):
        raise ValidationError(f"points must have shape (..., 2), got {x.shape}")
    pts = x.reshape(-1, 2)
    out = np.zeros(len(pts))
    if len(weights):
        norm = TWO_PI * variances
        step = max(1, BLOCK_CELLS // len(weights))
        for start in range(0, len(pts), step):
            block = pts[start:start + step]
            terms = (block[:, 0, None] - means[:, 0]) ** 2
            terms += (block[:, 1, None] - means[:, 1]) ** 2
            terms *= -0.5
            terms /= variances
            np.exp(terms, out=terms)
            terms /= norm
            terms *= weights
            out[start:start + step] = stable_sum(terms, axis=-1)
    return (out * in_wedge(pts)).reshape(x.shape[:-1])


def wedge_gaussian_mass(mean, variance):
    """Mass of an isotropic Gaussian inside the closed first quadrant.

    For mean (m1, m2) and variance v this is Phi(m1/sqrt(v)) * Phi(m2/sqrt(v)),
    exact because the isotropic density factorizes over coordinates.
    Broadcasts over leading axes of ``mean`` (..., 2) and ``variance`` (...).
    """
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if np.any(variance <= 0) or np.any(~np.isfinite(variance)):
        raise ValidationError("variance must be finite and > 0")
    sd = np.sqrt(variance)
    out = ndtr(mean[..., 0] / sd) * ndtr(mean[..., 1] / sd)
    return float(out) if out.ndim == 0 else out


def gaussian_product(y, likelihood_variance, prior_mean, prior_variance):
    """Combine N(y; x, lv*I) * N(x; pm, pv*I) into weight * N(x; m, v*I).

    Returns ``(post_mean, post_variance, marginal_weight)`` where the
    marginal weight is the unrestricted density N(y; pm, (lv + pv) I).
    Broadcasts over component axes of ``prior_mean``/``prior_variance``.
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
        mean = tuple(float(m) for m in self.mean)
        if len(mean) != 2 or not all(np.isfinite(mean)):
            raise ValidationError(f"component mean must be a finite 2-vector, got {self.mean!r}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "variance", float(self.variance))
        if not np.isfinite(self.weight) or self.weight <= 0:
            raise ValidationError(f"component weight must be > 0, got {self.weight!r}")
        if not np.isfinite(self.variance) or self.variance <= 0:
            raise ValidationError(f"component variance must be > 0, got {self.variance!r}")

    def to_dict(self) -> dict:
        return {"weight": self.weight, "mean": list(self.mean),
                "variance": self.variance}

    @classmethod
    def from_dict(cls, data: dict) -> "MixtureComponent":
        if not isinstance(data, dict) or set(data) != {"weight", "mean", "variance"}:
            raise ValidationError(
                f"mixture component must have keys weight, mean, variance, got {data!r}")
        return cls(data["weight"], tuple(data["mean"]), data["variance"])


class GaussianMixtureIntensity:
    """Finite Gaussian-mixture intensity restricted to the wedge.

    The empty mixture is the zero intensity (useful as "no clutter").
    """

    __slots__ = ("components", "weights", "means", "variances")

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

    def __len__(self) -> int:
        return len(self.components)

    def evaluate(self, x) -> np.ndarray:
        """Intensity at points ``x`` of shape (..., 2); zero outside the wedge.

        Component contributions are accumulated with order-canonicalized
        summation, so the result is invariant under component permutation.
        """
        out = mixture_sum(x, self.weights, self.means, self.variances)
        return float(out) if out.ndim == 0 else out

    def component_masses(self) -> np.ndarray:
        """Per-component wedge masses c_i * integral of N*(mu_i, v_i)."""
        if not len(self.components):
            return np.zeros(0)
        return self.weights * wedge_gaussian_mass(self.means, self.variances)

    def total_mass(self) -> float:
        """Expected feature count: integral of the intensity over the wedge.

        Uses exactly rounded summation, so the value does not depend on
        component order.
        """
        return math.fsum(self.component_masses())

    def concat(self, other: "GaussianMixtureIntensity") -> "GaussianMixtureIntensity":
        """Superposition: the mixture with both component lists."""
        return GaussianMixtureIntensity(self.components + other.components)

    def __add__(self, other):
        if not isinstance(other, GaussianMixtureIntensity):
            return NotImplemented
        return self.concat(other)

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
    def from_list(cls, data: Sequence[dict]) -> "GaussianMixtureIntensity":
        if not isinstance(data, (list, tuple)):
            raise ValidationError("mixture JSON must be an array of components")
        return cls(MixtureComponent.from_dict(d) for d in data)


def write_mixture_json(mixture: GaussianMixtureIntensity, path) -> None:
    atomic_write_text(path, json.dumps(mixture.to_list(), indent=2) + "\n")


def read_mixture_json(path) -> GaussianMixtureIntensity:
    data = read_json(path)
    try:
        return GaussianMixtureIntensity.from_list(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
