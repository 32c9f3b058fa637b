import numpy as np
import pytest
from scipy import stats

from bayespd import (GaussianMixtureIntensity, LatticeSpec, MixtureComponent,
                     ObservationModel, PersistenceDiagram, SamplingError,
                     ValidationError, lattice_sites, sample_lattice,
                     sample_noisy_circle, sample_observation, sample_poisson_pp)
from bayespd._util import derived_rng

WEDGE_MIXTURE = GaussianMixtureIntensity([
    MixtureComponent(3.0, (0.5, 1.2), 0.04),
    MixtureComponent(2.0, (1.5, 0.5), 0.09),
])


# -- latent diagram process -------------------------------------------------

def test_poisson_pp_determinism_and_wedge():
    d1 = sample_poisson_pp(WEDGE_MIXTURE, 42)
    d2 = sample_poisson_pp(WEDGE_MIXTURE, 42)
    np.testing.assert_array_equal(d1.births, d2.births)
    np.testing.assert_array_equal(d1.deaths, d2.deaths)
    assert np.all(d1.births >= 0) and np.all(d1.persistences >= 0)
    assert np.all(d1.dims == 1)
    d0 = sample_poisson_pp(WEDGE_MIXTURE, 42, homology_dim=0)
    assert np.all(d0.dims == 0)


def test_poisson_pp_cardinality_tracks_mass():
    total = WEDGE_MIXTURE.total_mass()
    counts = [len(sample_poisson_pp(WEDGE_MIXTURE, derived_rng(1, i)))
              for i in range(2000)]
    mean = np.mean(counts)
    se = np.sqrt(total / len(counts))
    assert abs(mean - total) < 4 * se
    assert sample_poisson_pp(GaussianMixtureIntensity(), 5) == PersistenceDiagram.empty()


def test_poisson_pp_component_proportions():
    # component choice is proportional to wedge mass, not raw weight
    mixture = GaussianMixtureIntensity([
        MixtureComponent(3.0, (0.5, 2.5), 0.01),
        MixtureComponent(2.0, (2.5, 0.5), 0.01),
    ])
    masses = mixture.component_masses()
    rng = derived_rng(9, 0)
    pts = np.concatenate([sample_poisson_pp(mixture, rng).tilted_points
                          for _ in range(400)])
    frac = (pts[:, 0] < 1.5).mean()
    expect = masses[0] / masses.sum()
    assert abs(frac - expect) < 0.05


def test_wedge_rejection_refuses_hopeless_component():
    from bayespd.intensity import wedge_gaussian_mass
    from bayespd.simulate import _sample_wedge_gaussian

    # mean 5 sigma into the third quadrant: wedge mass ~8e-14, refused upfront
    with pytest.raises(SamplingError, match="acceptance"):
        _sample_wedge_gaussian(derived_rng(0), (-0.5, -0.5), 0.01, 5,
                               wedge_gaussian_mass((-0.5, -0.5), 0.01))
    # literally unreachable component (mass exactly 0) never draws a count
    far = GaussianMixtureIntensity([MixtureComponent(5.0, (-9.0, -9.0), 0.01)])
    assert sample_poisson_pp(far, 0) == PersistenceDiagram.empty()


# -- observation corruption ---------------------------------------------------

def latent_diagram(n, seed=0):
    rng = derived_rng(seed, 17)
    pts = rng.uniform(0.5, 2.0, (n, 2))
    return PersistenceDiagram.from_tilted(pts[:, 0], pts[:, 1],
                                          np.ones(n, dtype=int))


def test_observation_thinning_rate():
    latent = latent_diagram(200)
    model = ObservationModel(0.3, 1e-6)
    kept = [len(sample_observation(model, latent, derived_rng(2, i)))
            for i in range(300)]
    binom = stats.binomtest(int(np.sum(kept)), 200 * 300, 0.3)
    assert binom.pvalue > 1e-4


def test_observation_marks_stay_near_latent():
    latent = latent_diagram(50, seed=3)
    model = ObservationModel(1.0, 1e-8)
    obs = sample_observation(model, latent, 11)
    assert len(obs) == 50
    # tiny mark variance: each observed point sits on top of a latent one
    d = np.linalg.norm(obs.tilted_points[:, None] - latent.tilted_points[None],
                       axis=-1).min(axis=1)
    assert d.max() < 1e-3
    assert np.all(obs.tilted_points >= 0.0)


def test_observation_adds_clutter():
    clutter = GaussianMixtureIntensity([MixtureComponent(6.0, (0.5, 0.1), 0.01)])
    model = ObservationModel(0.0, 0.01, clutter)
    counts = [len(sample_observation(model, latent_diagram(5), derived_rng(4, i)))
              for i in range(500)]
    mass = clutter.total_mass()
    assert abs(np.mean(counts) - mass) < 4 * np.sqrt(mass / 500)


def test_observation_homology_dim_inherited():
    latent = PersistenceDiagram.from_tilted([1.0], [1.0], [2])
    obs = sample_observation(ObservationModel(1.0, 1e-6), latent, 0)
    assert np.all(obs.dims == 2)
    empty = sample_observation(ObservationModel(1.0, 1e-6),
                               PersistenceDiagram.empty(), 0)
    assert len(empty) == 0 and empty.homology_dims.tolist() == []


def test_observation_refuses_a_latent_diagram_of_mixed_dimensions():
    # every mark and clutter point used to be labelled with the first dimension
    latent = PersistenceDiagram.from_tilted([1.0, 0.5], [1.0, 2.0], [0, 1])
    with pytest.raises(ValidationError) as info:
        sample_observation(ObservationModel(1.0, 1e-6), latent, 0)
    assert str(info.value) == ("latent diagram mixes homology dimensions [0, 1]; "
                               "restrict() to a single dimension first")


def test_observation_rejects_non_model():
    with pytest.raises(ValidationError, match="ObservationModel"):
        sample_observation(WEDGE_MIXTURE, latent_diagram(4), 8)


# -- point clouds --------------------------------------------------------------

def test_noisy_circle_shape_and_radius():
    cloud = sample_noisy_circle(200, 0.0001, 5)
    assert cloud.points.shape == (200, 2)
    radii = np.linalg.norm(cloud.points, axis=1)
    assert abs(radii.mean() - 1.0) < 0.01
    again = sample_noisy_circle(200, 0.0001, 5)
    np.testing.assert_array_equal(cloud.points, again.points)
    exact = sample_noisy_circle(10, 0.0, 1)
    np.testing.assert_allclose(np.linalg.norm(exact.points, axis=1), 1.0,
                               rtol=1e-12)
    with pytest.raises(ValidationError):
        sample_noisy_circle(0)
    with pytest.raises(ValidationError):
        sample_noisy_circle(10, -0.1)
    with pytest.raises(ValidationError, match="noise_variance must be finite, got nan"):
        sample_noisy_circle(10, float("nan"))


def test_lattice_site_counts():
    # corners plus body centers: (n+1)^3 + n^3
    assert len(lattice_sites("bcc", 1)) == 9
    assert len(lattice_sites("bcc", 2)) == 35
    # corners plus face centers: (n+1)^3 + 3 n^2 (n+1)
    assert len(lattice_sites("fcc", 1)) == 14
    assert len(lattice_sites("fcc", 2)) == 63
    with pytest.raises(ValidationError, match="structure"):
        lattice_sites("hcp", 1)


def test_lattice_sites_geometry():
    sites = lattice_sites("bcc", 1, 2.0)
    assert sites.min() == 0.0 and sites.max() == 2.0
    assert [1.0, 1.0, 1.0] in sites.tolist()
    # nearest-neighbour distance in BCC is sqrt(3)/2 * a
    d = np.linalg.norm(sites[:, None] - sites[None], axis=-1)
    np.testing.assert_allclose(np.sort(np.unique(d))[1], np.sqrt(3.0),
                               rtol=1e-12)
    scaled = lattice_sites("bcc", 1, 4.0)
    np.testing.assert_allclose(scaled, 2.0 * sites, rtol=0, atol=0)


def test_sample_lattice_thins_and_jitters():
    spec = LatticeSpec("fcc", cells=2, lattice_constant=2.0, retention=0.5,
                       noise_sd=0.01)
    cloud = sample_lattice(spec, 3)
    assert 0 < len(cloud.points) <= 63
    sites = lattice_sites("fcc", 2, 2.0)
    d = np.linalg.norm(cloud.points[:, None] - sites[None], axis=-1).min(axis=1)
    assert d.max() < 0.1
    np.testing.assert_array_equal(cloud.points, sample_lattice(spec, 3).points)


def test_sample_lattice_default_noise_and_empty():
    spec = LatticeSpec("bcc")
    assert spec.noise_sd == pytest.approx(0.1)
    starved = LatticeSpec("bcc", cells=1, retention=1e-9)
    with pytest.raises(SamplingError, match="retained no sites"):
        sample_lattice(starved, 12)


def test_lattice_spec_validation():
    with pytest.raises(ValidationError):
        LatticeSpec("bcc", cells=0)
    with pytest.raises(ValidationError):
        LatticeSpec("bcc", lattice_constant=0.0)
    with pytest.raises(ValidationError):
        LatticeSpec("bcc", retention=0.0)
    with pytest.raises(ValidationError):
        LatticeSpec("bcc", noise_sd=-1.0)
    with pytest.raises(ValidationError, match="noise_sd must be finite, got nan"):
        LatticeSpec("bcc", noise_sd=float("nan"))
