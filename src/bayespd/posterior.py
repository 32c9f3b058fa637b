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
density itself, and also accepts a spatially varying retention profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import atomic_write_text, stable_sum
from .diagrams import PersistenceDiagram
from .errors import DegenerateObservationError, ValidationError
from .intensity import (GaussianMixtureIntensity, gaussian_density,
                        gaussian_product, in_wedge, mixture_sum,
                        wedge_gaussian_mass)
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
        if not self.likelihood_variance > 0:
            raise ValidationError("likelihood_variance must be > 0")
        if not isinstance(self.clutter, GaussianMixtureIntensity):
            raise ValidationError("clutter must be a GaussianMixtureIntensity")

    def to_dict(self) -> dict:
        return {"alpha": self.alpha,
                "likelihood_variance": self.likelihood_variance,
                "clutter": self.clutter.to_list()}

    @classmethod
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
    alpha, likelihood_variance : float
    observation_count : int
        Number of observed diagrams m.
    coefficients, means, variances : ndarray
        Flattened data components (C_j^y, m_j^y, v_j^y); the intensity
        contribution of component t is ``alpha/m * coefficients[t] *
        N*(x; means[t], variances[t] I)``.
    """

    __slots__ = ("prior", "alpha", "likelihood_variance", "observation_count",
                 "coefficients", "means", "variances", "_component_masses")

    def __init__(self, prior: GaussianMixtureIntensity, alpha: float,
                 likelihood_variance: float, observation_count: int,
                 coefficients: np.ndarray, means: np.ndarray,
                 variances: np.ndarray):
        self.prior = prior
        self.alpha = float(alpha)
        self.likelihood_variance = float(likelihood_variance)
        self.observation_count = int(observation_count)
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        self.means = np.asarray(means, dtype=np.float64).reshape(-1, 2)
        self.variances = np.asarray(variances, dtype=np.float64)
        if len(self.coefficients):
            self._component_masses = self.coefficients * wedge_gaussian_mass(
                self.means, self.variances)
        else:
            self._component_masses = np.zeros(0)

    def evaluate(self, x) -> np.ndarray:
        """Posterior intensity at ``x`` (..., 2); zero outside the wedge.

        Permutation invariant: contributions are summed in canonical order,
        so reordering observed diagrams or points never changes the result.
        """
        out = (1.0 - self.alpha) * self.prior.evaluate(x)
        if len(self.coefficients):
            data = mixture_sum(x, self.coefficients, self.means, self.variances)
            out = out + (self.alpha / self.observation_count) * data
        return float(out) if np.ndim(out) == 0 else out

    def prior_retention_mass(self) -> float:
        """Mass of the (1 - alpha) * prior term."""
        return (1.0 - self.alpha) * self.prior.total_mass()

    def data_term_mass(self) -> float:
        """Mass of the observation-driven term, alpha/m * sum C_t Q_t."""
        if not len(self.coefficients):
            return 0.0
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
        return PosteriorIntensity(prior, alpha, lv, m,
                                  np.zeros(0), np.zeros((0, 2)), np.zeros(0))

    coeffs, means, variances = [], [], []
    for d_index, pts in enumerate(point_sets):
        for y in pts:
            post_mean, post_var, marginal = gaussian_product(
                y, lv, prior.means, prior.variances)
            w = prior.weights * marginal
            q = wedge_gaussian_mass(post_mean, post_var)
            denom = float(model.clutter.evaluate(y)) + alpha * math.fsum(w * q)
            if denom <= 0.0:
                raise DegenerateObservationError(
                    f"diagram {d_index}: observed point {tuple(y)} has zero "
                    "posterior denominator; it is unexplainable under this "
                    "prior/clutter (likely far outside their support)")
            coeffs.append(w / denom)
            means.append(post_mean)
            variances.append(post_var)

    if coeffs:
        coefficients = np.concatenate(coeffs)
        mean_arr = np.concatenate(means)
        var_arr = np.concatenate(variances)
    else:
        coefficients, mean_arr, var_arr = np.zeros(0), np.zeros((0, 2)), np.zeros(0)
    return PosteriorIntensity(prior, alpha, lv, m,
                              coefficients, mean_arr, var_arr)


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
    values = intensity.evaluate(grid.mesh())
    peak = float(np.max(values))
    if peak > 0.0:
        values = values / peak
    return values


def write_grid_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Write grid values as CSV: header row ``y\\x`` then the x coordinates,
    one row per y starting with its coordinate. Floats use shortest
    round-trip decimals."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.ny, grid.nx):
        raise ValidationError(
            f"values shape {values.shape} does not match grid "
            f"({grid.ny}, {grid.nx})")
    lines = ["y\\x," + ",".join(repr(float(x)) for x in grid.x_axis)]
    for y, row in zip(grid.y_axis, values):
        lines.append(repr(float(y)) + "," +
                     ",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- independent oracle ------------------------------------------------------

def _bracket_cuts(centers, sds) -> list[float]:
    """Panel cuts bracketing Gaussian peaks at +-4 and +-8 sigma."""
    cuts: list[float] = []
    for c, sd in zip(centers, sds):
        for k in (-TAIL_SIGMAS, -4.0, 4.0, TAIL_SIGMAS):
            cuts.append(float(c + k * sd))
    return cuts


def posterior_numeric_oracle(prior, model: ObservationModel,
                             observations: Sequence[PersistenceDiagram],
                             grid: Grid, *,
                             alpha_fn: Callable[[np.ndarray], np.ndarray] | None = None,
                             rtol: float = 1e-9,
                             support_box: Sequence[float] | None = None) -> np.ndarray:
    """Evaluate the posterior intensity on ``grid`` straight from its
    defining formula, with denominators computed by adaptive quadrature.

    Parameters
    ----------
    prior : GaussianMixtureIntensity or callable
        Latent intensity. A callable must map (N, 2) points to values and be
        accompanied by ``support_box`` bounding its support.
    alpha_fn : callable, optional
        Spatially varying retention profile alpha(x) mapping (N, 2) points
        to values in [0, 1]. Defaults to the constant ``model.alpha``.
    rtol : float
        Relative tolerance for each denominator integral. Relative, because
        barely explained observations make the posterior divide by a
        denominator that can be many orders of magnitude below 1; only a
        deep-underflow absolute floor is applied.

    Returns
    -------
    (ny, nx) array of posterior intensity values.
    """
    point_sets = _tilted_observations(observations)
    m = len(observations)
    lv = model.likelihood_variance

    if isinstance(prior, GaussianMixtureIntensity):
        prior_fn = prior.evaluate

        def quad_domain(y: np.ndarray):
            # The integrand is kernel(y, x) * prior(x). Per mixture
            # component that product is a single Gaussian bump centred
            # between y and the component mean and narrower than either
            # factor, so the box must cover the bumps themselves. Boxing
            # the prior's own support instead clips any bump that a far
            # observed point drags toward the support edge, and the panel
            # error estimates never see the truncated tail.
            bump_var = prior.variances * lv / (prior.variances + lv)
            bump_sd = np.sqrt(bump_var)
            centers = ((prior.variances[:, None] * y + lv * prior.means)
                       / (prior.variances + lv)[:, None])
            half = TAIL_SIGMAS * bump_sd
            box = (max(0.0, float(np.min(centers[:, 0] - half))),
                   float(np.max(centers[:, 0] + half)),
                   max(0.0, float(np.min(centers[:, 1] - half))),
                   float(np.max(centers[:, 1] + half)))
            return (box, _bracket_cuts(centers[:, 0], bump_sd),
                    _bracket_cuts(centers[:, 1], bump_sd))
    else:
        if support_box is None:
            raise ValidationError(
                "a callable prior requires an explicit support_box")
        prior_fn = prior
        support = tuple(float(v) for v in support_box)

        def quad_domain(y: np.ndarray):
            sd = math.sqrt(lv)
            box = (max(0.0, support[0], y[0] - TAIL_SIGMAS * sd),
                   min(support[1], y[0] + TAIL_SIGMAS * sd),
                   max(0.0, support[2], y[1] - TAIL_SIGMAS * sd),
                   min(support[3], y[1] + TAIL_SIGMAS * sd))
            return box, _bracket_cuts([y[0]], [sd]), _bracket_cuts([y[1]], [sd])

    if alpha_fn is None:
        const_alpha = model.alpha
        alpha_eval = lambda pts: np.full(pts.shape[:-1], const_alpha)  # noqa: E731
    else:
        alpha_eval = alpha_fn

    def denominator(y: np.ndarray) -> float:
        box, dcuts_x, dcuts_y = quad_domain(y)
        integral = 0.0
        if box[1] > box[0] and box[3] > box[2]:
            def integrand(pts):
                return (gaussian_density(pts, y, lv) * alpha_eval(pts)
                        * prior_fn(pts) * in_wedge(pts))

            integral, _ = adaptive_quad_2d(
                integrand, box, atol=1e-280, rtol=rtol,
                initial_cuts_x=dcuts_x, initial_cuts_y=dcuts_y)
        value = float(model.clutter.evaluate(y)) + integral
        if value <= 0.0:
            raise DegenerateObservationError(
                f"observed point {tuple(y)} has zero posterior denominator")
        return value

    all_points = [y for pts in point_sets for y in pts]
    if alpha_fn is None and model.alpha == 0.0:
        all_points = []  # data term vanishes identically; skip denominators
    denominators = [denominator(y) for y in all_points]

    mesh = grid.mesh().reshape(-1, 2)
    prior_vals = np.asarray(prior_fn(mesh), dtype=np.float64) * in_wedge(mesh)
    alphas = np.asarray(alpha_eval(mesh), dtype=np.float64)
    out = (1.0 - alphas) * prior_vals
    if all_points:
        kernels = np.stack([gaussian_density(mesh, y, lv) / d
                            for y, d in zip(all_points, denominators)], axis=-1)
        out = out + (alphas / m) * prior_vals * stable_sum(kernels, axis=-1)
    return out.reshape(grid.ny, grid.nx)
