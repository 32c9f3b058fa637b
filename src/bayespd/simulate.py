"""Samplers: Poisson diagram processes, observation corruption, point clouds.

Every sampler accepts either an integer seed or a ``numpy.random.Generator``
(PCG64 via ``default_rng``). With an integer seed results are identical on
every platform; pass a Generator to continue an existing stream. Subtask
streams should be derived with ``bayespd._util.derived_rng(seed, index)``
so task order cannot perturb draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_finite, as_generator, as_integer
from .diagrams import PersistenceDiagram, as_homology_dim
from .errors import SamplingError, ValidationError
from .intensity import GaussianMixtureIntensity, in_wedge
from .posterior import ObservationModel
from .rips import PointCloud

#: Rejection sampling gives up after this many total proposals.
MAX_PROPOSALS = 10_000_000

#: Components whose wedge acceptance rate is below this are refused upfront.
MIN_ACCEPTANCE = 1e-6


@dataclass(frozen=True)
class LatticeSpec:
    """Synthetic crystal-lattice cloud parameters.

    ``noise_sd`` defaults to 5% of the lattice constant; ``retention`` is
    the probability each site survives (mimicking heavy detector loss).
    """

    structure: str
    cells: int = 2
    lattice_constant: float = 2.0
    retention: float = 0.35
    noise_sd: float | None = None

    def __post_init__(self):
        if self.structure not in ("bcc", "fcc"):
            raise ValidationError(f"structure must be 'bcc' or 'fcc', got {self.structure!r}")
        object.__setattr__(self, "cells", as_integer(self.cells, "cells", ge=1))
        object.__setattr__(self, "lattice_constant", as_finite(
            self.lattice_constant, "lattice_constant", gt=0))
        object.__setattr__(self, "retention", as_finite(self.retention, "retention"))
        if not 0.0 < self.retention <= 1.0:
            raise ValidationError("retention must be in (0, 1]")
        object.__setattr__(self, "noise_sd", as_finite(self.noise_sd, "noise_sd", ge=0)
                           if self.noise_sd is not None else 0.05 * self.lattice_constant)


def _sample_wedge_gaussian(rng: np.random.Generator, mean, variance,
                           count: int, acceptance: float) -> np.ndarray:
    """Draw ``count`` points from N(mean, variance I) conditioned on the
    closed first quadrant, of mass ``acceptance``, by batched rejection."""
    if count == 0:
        return np.zeros((0, 2))
    if acceptance < MIN_ACCEPTANCE:
        raise SamplingError(
            f"wedge acceptance rate {acceptance:.3g} for component at "
            f"{tuple(np.asarray(mean))} is below {MIN_ACCEPTANCE}; move the "
            "mean into the wedge or shrink the variance")
    sd = math.sqrt(variance)
    out = np.empty((count, 2))
    filled = 0
    proposals = 0
    while filled < count:
        batch = max(64, int(1.2 * (count - filled) / acceptance))
        batch = min(batch, MAX_PROPOSALS - proposals)
        if batch <= 0:
            raise SamplingError(
                f"rejection sampling exhausted {MAX_PROPOSALS} proposals")
        draw = rng.normal(np.asarray(mean, dtype=np.float64), sd, (batch, 2))
        proposals += batch
        good = draw[in_wedge(draw)]
        take = min(len(good), count - filled)
        out[filled:filled + take] = good[:take]
        filled += take
    return out


def _sample_marks(rng: np.random.Generator, centers: np.ndarray,
                  variance: float) -> np.ndarray:
    """One wedge-truncated Gaussian mark per center, batched rejection.

    Centers lie in the wedge (diagram invariant), so per-point acceptance is
    at least 0.25 and the proposal cap is effectively unreachable.
    """
    sd = math.sqrt(variance)
    out = np.empty_like(centers)
    pending = np.arange(len(centers))
    proposals = 0
    while len(pending):
        if proposals >= MAX_PROPOSALS:
            raise SamplingError(
                f"mark sampling exhausted {MAX_PROPOSALS} proposals")
        draw = rng.normal(centers[pending], sd)
        proposals += len(pending)
        ok = in_wedge(draw)
        out[pending[ok]] = draw[ok]
        pending = pending[~ok]
    return out


def sample_poisson_pp(intensity: GaussianMixtureIntensity, rng_seed, *,
                      homology_dim: int = 1) -> PersistenceDiagram:
    """Sample a diagram from the Poisson process with the given intensity.

    The count is Poisson(total mass); each point picks a component with
    probability proportional to its wedge mass and is then drawn from that
    component's wedge-truncated Gaussian.
    """
    homology_dim = as_homology_dim(homology_dim)
    rng = as_generator(rng_seed)
    masses, total = intensity.component_masses(), intensity.total_mass()
    n = int(rng.poisson(total))  # Poisson(0) is 0 and draws nothing
    if n == 0:
        return PersistenceDiagram.empty()
    which = rng.choice(len(masses), size=n, p=masses / total)
    counts = np.bincount(which, minlength=len(masses))
    pieces = []
    for i, c in enumerate(counts):
        pieces.append(_sample_wedge_gaussian(
            rng, intensity.means[i], intensity.variances[i], int(c), intensity._wedge_masses[i]))
    pts = np.concatenate(pieces)
    return PersistenceDiagram.from_tilted(
        pts[:, 0], pts[:, 1], np.full(n, homology_dim, dtype=np.int64))


def sample_observation(model: ObservationModel, latent: PersistenceDiagram,
                       rng_seed) -> PersistenceDiagram:
    """Corrupt a latent diagram: alpha-thinning, Gaussian marks, clutter.

    Each retained latent point emits one mark from the wedge-truncated
    Gaussian centered at it; an independent clutter diagram is superposed.
    """
    if not isinstance(model, ObservationModel):
        raise ValidationError(
            f"expected ObservationModel, got {type(model).__name__}")
    dims = latent.homology_dims.tolist()
    if len(dims) > 1:
        raise ValidationError(f"latent diagram mixes homology dimensions {dims}; "
                              "restrict() to a single dimension first")
    rng = as_generator(rng_seed)
    homology_dim = dims[0] if dims else 1
    kept_mask = rng.random(len(latent)) < model.alpha
    kept = latent.tilted_points[kept_mask]
    marks = _sample_marks(rng, kept, model.likelihood_variance)
    clutter = sample_poisson_pp(model.clutter, rng, homology_dim=homology_dim)

    pts = np.concatenate([marks, clutter.tilted_points])
    return PersistenceDiagram.from_tilted(
        pts[:, 0], pts[:, 1], np.full(len(pts), homology_dim, dtype=np.int64))


def sample_noisy_circle(n: int = 50, noise_variance: float = 0.01,
                        rng_seed=0) -> PointCloud:
    """``n`` points at uniform angles on the unit circle plus isotropic
    Gaussian noise of the given variance per coordinate."""
    n = as_integer(n, "n", ge=1)
    as_finite(noise_variance, "noise_variance", ge=0)
    rng = as_generator(rng_seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    pts = pts + rng.normal(0.0, math.sqrt(noise_variance), (n, 2))
    return PointCloud(pts)


def lattice_sites(structure: str, cells: int,
                  lattice_constant: float = 1.0) -> np.ndarray:
    """Site coordinates of a cells^3 supercell, in lexicographic order.

    BCC: cube corners plus body centers, (n+1)^3 + n^3 sites.
    FCC: cube corners plus face centers, (n+1)^3 + 3 n^2 (n+1) sites.
    Sites are picked on the doubled integer grid, where a corner has no odd
    coordinate, a face center two and a body center three, then scaled.
    """
    spec = LatticeSpec(structure, cells, lattice_constant)  # checks all three
    doubled = np.indices((2 * spec.cells + 1,) * 3).reshape(3, -1).T
    odd = np.count_nonzero(doubled % 2, axis=1)
    keep = (odd == 0) | (odd == (3 if spec.structure == "bcc" else 2))
    return doubled[keep] * (0.5 * spec.lattice_constant)


def sample_lattice(spec: LatticeSpec, rng_seed) -> PointCloud:
    """Thin and jitter a perfect lattice into a synthetic measured cloud."""
    rng = as_generator(rng_seed)
    sites = lattice_sites(spec.structure, spec.cells, spec.lattice_constant)
    keep = rng.random(len(sites)) < spec.retention
    kept = sites[keep]
    if len(kept) == 0:
        raise SamplingError(
            f"lattice thinning retained no sites (retention={spec.retention}, "
            f"{len(sites)} sites); raise retention or cells")
    noisy = kept + rng.normal(0.0, spec.noise_sd, kept.shape)
    return PointCloud(noisy)
