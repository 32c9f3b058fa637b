"""Posterior intensity of a latent diagram process given observed diagrams.

The generative picture: a latent Poisson process with Gaussian-mixture
intensity ``lambda`` on the wedge; each latent point survives with
probability ``alpha`` and, if it survives, is observed through an isotropic
Gaussian kernel with shared ``likelihood_variance``; spurious features are
added by an independent Poisson clutter process. Given m observed diagrams
the posterior intensity is again in closed form:

    lambda_post(x) = (1 - alpha) lambda(x)
        + (alpha / m) sum_i sum_{y in D_i} sum_j C_j^y N*(x; m_j^y, v_j^y I)

where each (m_j^y, v_j^y) comes from the Gaussian product of the likelihood
at y with prior component j, and

    C_j^y = w_j^y / (clutter(y) + alpha sum_j' w_j'^y Q_j'^y),

with w_j^y the product's marginal weight times the prior weight and Q_j^y
the wedge mass of the product component. The (1 - alpha) prior-retention
term is kept structurally intact, so alpha = 0 reproduces the prior bitwise.

``posterior_numeric_oracle`` evaluates the same posterior directly from the
defining formula, computing each denominator integral by adaptive
quadrature. It shares no algebra with the closed form beyond the Gaussian
density itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import as_finite, field_errors, write_csv
from .diagrams import PersistenceDiagram
from .errors import DegenerateObservationError, ValidationError
from .intensity import (GaussianMixtureIntensity, canonical_terms, gaussian_density,
                        gaussian_product, grid_mixture_sum, in_wedge, log_mixture_sum,
                        mixture_sum, wedge_gaussian_mass)
from .quadrature import adaptive_quad_2d

#: Gaussian support is truncated at mean +- TAIL_SIGMAS standard deviations
#: when bounding integration boxes; the neglected mass is < 1e-15 relative.
TAIL_SIGMAS = 8.0


@dataclass(frozen=True)
class ObservationModel:
    """Corruption model: retention alpha, mark variance, clutter intensity."""

    alpha: float
    likelihood_variance: float
    clutter: GaussianMixtureIntensity = GaussianMixtureIntensity()

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "likelihood_variance",
                           float(self.likelihood_variance))
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha!r}")
        if as_finite(self.likelihood_variance, "likelihood_variance") <= 0:
            raise ValidationError("likelihood_variance must be > 0")
        if not isinstance(self.clutter, GaussianMixtureIntensity):
            raise ValidationError("clutter must be a GaussianMixtureIntensity")

    def to_dict(self) -> dict:
        return {"alpha": self.alpha,
                "likelihood_variance": self.likelihood_variance,
                "clutter": self.clutter.to_list()}

    @classmethod
    @field_errors("observation model")
    def from_dict(cls, data: dict) -> "ObservationModel":
        if not isinstance(data, dict) or set(data) != {
                "alpha", "likelihood_variance", "clutter"}:
            raise ValidationError(
                "observation model must have keys alpha, likelihood_variance, clutter")
        return cls(data["alpha"], data["likelihood_variance"],
                   GaussianMixtureIntensity.from_list(data["clutter"]))


class PosteriorIntensity:
    """Structural posterior: scaled prior plus per-observation components.

    Attributes
    ----------
    prior : GaussianMixtureIntensity
    alpha : float
    observation_count : int
        Number of observed diagrams m.
    coefficients, means, variances : ndarray
        Flattened data components (C_j^y, m_j^y, v_j^y); the intensity
        contribution of component t is ``alpha/m * coefficients[t] *
        N*(x; means[t], variances[t] I)``.
    """

    __slots__ = ("prior", "alpha", "observation_count", "coefficients", "means",
                 "variances", "_component_masses", "_terms", "_log_terms")

    def __init__(self, prior: GaussianMixtureIntensity, alpha: float,
                 observation_count: int, coefficients: np.ndarray,
                 means: np.ndarray, variances: np.ndarray):
        self.prior = prior
        self.alpha = float(alpha)
        self.observation_count = int(observation_count)
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        self.means = np.asarray(means, dtype=np.float64).reshape(-1, 2)
        self.variances = np.asarray(variances, dtype=np.float64)
        self._component_masses = self.coefficients * wedge_gaussian_mass(
            self.means, self.variances)
        self._terms = canonical_terms(self.coefficients, self.means, self.variances)
        # one term list for log_evaluate: retained prior and data together
        weights = np.concatenate([(1.0 - self.alpha) * prior.weights,
                                  self.alpha / self.observation_count
                                  * self.coefficients])
        keep = weights > 0.0
        self._log_terms = canonical_terms(
            weights[keep], np.concatenate([prior.means, self.means])[keep],
            np.concatenate([prior.variances, self.variances])[keep])

    def evaluate(self, x) -> np.ndarray:
        """Posterior intensity at ``x`` (..., 2); zero outside the wedge.

        Permutation invariant: data components are added in
        ``canonical_terms`` order, fixed at construction, so reordering
        observed diagrams, their points or the prior's components never
        changes a bit.
        """
        data = mixture_sum(x, *self._terms)
        return ((1.0 - self.alpha) * self.prior.evaluate(x)
                + (self.alpha / self.observation_count) * data)

    def evaluate_grid(self, grid) -> np.ndarray:
        """``evaluate`` on ``grid``, separably; alpha = 0 gives the prior's bits."""
        data = grid_mixture_sum(grid.x_axis, grid.y_axis, *self._terms)
        return ((1.0 - self.alpha) * self.prior.evaluate_grid(grid)
                + (self.alpha / self.observation_count) * data)

    def log_evaluate(self, x) -> np.ndarray:
        """Natural log of ``evaluate`` by ``log_mixture_sum`` over the
        retained prior and data terms, sorted together once at construction;
        finite wherever some term is nonzero and ``x`` is in the wedge."""
        return log_mixture_sum(x, *self._log_terms)

    def prior_retention_mass(self) -> float:
        """Mass of the (1 - alpha) * prior term."""
        return (1.0 - self.alpha) * self.prior.total_mass()

    def data_term_mass(self) -> float:
        """Mass of the observation-driven term, alpha/m * sum C_t Q_t."""
        return (self.alpha / self.observation_count) * math.fsum(
            self._component_masses)

    def total_mass(self) -> float:
        """Expected posterior feature count over the wedge."""
        return self.prior_retention_mass() + self.data_term_mass()

    def __repr__(self):
        return (f"PosteriorIntensity(alpha={self.alpha}, "
                f"m={self.observation_count}, "
                f"n_data_components={len(self.coefficients)})")


def _tilted_observations(observations: Sequence[PersistenceDiagram]) -> list[np.ndarray]:
    if not observations:
        raise ValidationError("need at least one observed diagram")
    dims = set()
    for d in observations:
        if not isinstance(d, PersistenceDiagram):
            raise ValidationError(
                f"observations must be PersistenceDiagram, got {type(d).__name__}")
        dims.update(d.dims.tolist())
    if len(dims) > 1:
        raise ValidationError(
            f"observed diagrams mix homology dimensions {sorted(dims)}; "
            "restrict() to a single dimension first")
    return [d.tilted_points for d in observations]


def posterior_closed_form(prior: GaussianMixtureIntensity,
                          model: ObservationModel,
                          observations: Sequence[PersistenceDiagram]) -> PosteriorIntensity:
    """Conjugate posterior intensity given observed diagrams.

    Raises DegenerateObservationError when some observed point has a zero
    denominator (no clutter density and fully vanished likelihood overlap).
    """
    if not isinstance(prior, GaussianMixtureIntensity) or len(prior) == 0:
        raise ValidationError("prior must be a nonempty GaussianMixtureIntensity")
    point_sets = _tilted_observations(observations)
    m = len(observations)
    alpha = model.alpha
    lv = model.likelihood_variance

    if alpha == 0.0:
        return PosteriorIntensity(prior, alpha, m, np.zeros(0), np.zeros((0, 2)),
                                  np.zeros(0))

    # One row per observed point in diagram order, one column per prior
    # component; raveling row-major gives the per-point concatenation order.
    points = np.concatenate(point_sets)
    post_mean, post_var, marginal = gaussian_product(
        points[:, None, :], lv, prior.means, prior.variances)
    w = prior.weights * marginal
    wq = w * wedge_gaussian_mass(post_mean, post_var)
    denom = model.clutter.evaluate(points) + alpha * np.array(
        [math.fsum(row) for row in wq])
    bad = denom <= 0.0
    if bad.any():
        first = int(np.argmax(bad))
        d_index = int(np.searchsorted(
            np.cumsum([len(pts) for pts in point_sets]), first, side="right"))
        raise DegenerateObservationError(
            f"diagram {d_index}: observed point {tuple(points[first])} has zero "
            "posterior denominator; it is unexplainable under this "
            "prior/clutter (likely far outside their support)")
    return PosteriorIntensity(prior, alpha, m, (w / denom[:, None]).ravel(),
                              post_mean.reshape(-1, 2),
                              np.tile(post_var, len(points)))


# -- evaluation grids --------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Rectangular evaluation grid: nx columns over [x0, x1], ny rows over
    [y0, y1], both endpoint-inclusive."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        for extent in (self.x0, self.x1, self.y0, self.y1):
            as_finite(extent, "grid extents")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValidationError("grid extents must satisfy x1 > x0, y1 > y0")
        if self.nx < 2 or self.ny < 2:
            raise ValidationError("grid needs at least 2 points per axis")

    @property
    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    @property
    def y_axis(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.ny)

    def mesh(self) -> np.ndarray:
        """(ny, nx, 2) array of grid points; rows index y, columns index x."""
        out = np.empty((self.ny, self.nx, 2))
        out[..., 0] = self.x_axis[None, :]
        out[..., 1] = self.y_axis[:, None]
        return out


def scaled_intensity_grid(intensity, grid: Grid) -> np.ndarray:
    """Evaluate on the grid and scale so the maximum is 1 (zero field stays
    zero)."""
    values = intensity.evaluate_grid(grid)
    peak = float(np.max(values))
    if peak > 0.0:
        values = values / peak
    return values


def grid_argmax(grid: Grid, values: np.ndarray, value_key: str) -> dict:
    """Coordinates of the first grid cell holding the maximum of ``values``,
    with that maximum stored under ``value_key``."""
    iy, ix = divmod(int(np.argmax(values)), grid.nx)
    return {"x": float(grid.x_axis[ix]), "y": float(grid.y_axis[iy]),
            value_key: float(values[iy, ix])}


def mass_summary(posterior: PosteriorIntensity) -> dict:
    """Expected feature counts: prior, retained prior, data term, total."""
    return {"prior": posterior.prior.total_mass(),
            "prior_retention": posterior.prior_retention_mass(),
            "data_term": posterior.data_term_mass(),
            "total": posterior.total_mass()}


def write_grid_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Write grid values as CSV: header row ``y\\x`` then the x coordinates,
    one row per y starting with its coordinate. Floats use shortest
    round-trip decimals."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.ny, grid.nx):
        raise ValidationError(
            f"values shape {values.shape} does not match grid "
            f"({grid.ny}, {grid.nx})")
    rows = np.column_stack([grid.y_axis, values])
    write_csv(path, (row.tolist() for row in rows),
              header="y\\x," + ",".join(map(repr, grid.x_axis.tolist())))


# -- independent oracle ------------------------------------------------------

def _bracket_cuts(centers, sds) -> list[float]:
    """Panel cuts bracketing Gaussian peaks at +-4 and +-8 sigma."""
    return [float(c + k * sd) for c, sd in zip(centers, sds)
            for k in (-TAIL_SIGMAS, -4.0, 4.0, TAIL_SIGMAS)]


def posterior_numeric_oracle(prior: GaussianMixtureIntensity,
                             model: ObservationModel,
                             observations: Sequence[PersistenceDiagram],
                             grid: Grid) -> np.ndarray:
    """Evaluate the posterior intensity on ``grid`` straight from its
    defining formula, with denominators computed by adaptive quadrature.

    Returns the (ny, nx) posterior intensity values. Per-point kernels are
    added in lexicographic point order, so the result does not depend on the
    order of the observations.
    """
    if not isinstance(prior, GaussianMixtureIntensity) or len(prior) == 0:
        raise ValidationError("prior must be a nonempty GaussianMixtureIntensity")
    points = np.concatenate(_tilted_observations(observations))
    m = len(observations)
    alpha = model.alpha
    lv = model.likelihood_variance

    def denominator(y: np.ndarray) -> float:
        # The integrand is kernel(y, x) * prior(x). Per mixture component
        # that product is a single Gaussian bump centred between y and the
        # component mean and narrower than either factor, so the box must
        # cover the bumps themselves. Boxing the prior's own support instead
        # clips any bump that a far observed point drags toward the support
        # edge, and the panel error estimates never see the truncated tail.
        bump_sd = np.sqrt(prior.variances * lv / (prior.variances + lv))
        centers = ((prior.variances[:, None] * y + lv * prior.means)
                   / (prior.variances + lv)[:, None])
        half = TAIL_SIGMAS * bump_sd
        box = (max(0.0, float(np.min(centers[:, 0] - half))),
               float(np.max(centers[:, 0] + half)),
               max(0.0, float(np.min(centers[:, 1] - half))),
               float(np.max(centers[:, 1] + half)))

        def integrand(pts):
            return (gaussian_density(pts, y, lv) * alpha
                    * prior.evaluate(pts) * in_wedge(pts))

        # 0.0 over an empty box. The tolerance is relative, because a barely
        # explained point divides by a denominator far below 1.
        integral, _ = adaptive_quad_2d(
            integrand, box, atol=1e-280, rtol=1e-9,
            initial_cuts_x=_bracket_cuts(centers[:, 0], bump_sd),
            initial_cuts_y=_bracket_cuts(centers[:, 1], bump_sd))
        value = float(model.clutter.evaluate(y)) + integral
        if value <= 0.0:
            raise DegenerateObservationError(
                f"observed point {tuple(y)} has zero posterior denominator")
        return value

    mesh = grid.mesh().reshape(-1, 2)
    prior_vals = prior.evaluate(mesh)
    out = (1.0 - alpha) * prior_vals
    if alpha != 0.0 and len(points):  # otherwise the data term is zero
        points = points[np.lexsort((points[:, 1], points[:, 0]))]
        kernels = np.stack([gaussian_density(mesh, y, lv) / denominator(y)
                            for y in points], axis=-1)
        out = out + (alpha / m) * prior_vals * kernels.sum(axis=-1)
    return out.reshape(grid.ny, grid.nx)
