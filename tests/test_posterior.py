import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayespd import (DegenerateObservationError, GaussianMixtureIntensity,
                     Grid, MixtureComponent, ObservationModel,
                     PersistenceDiagram, PosteriorIntensity, ValidationError,
                     gaussian_density, gaussian_product,
                     posterior_closed_form, posterior_numeric_oracle,
                     scaled_intensity_grid, wedge_gaussian_mass,
                     write_grid_csv)

TABLE_CLUTTER = GaussianMixtureIntensity([MixtureComponent(1.0, (0.5, 0.0), 0.1)])


def informative_prior():
    return GaussianMixtureIntensity([MixtureComponent(1.0, (0.5, 1.2), 0.01)])


def diagram_at(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return PersistenceDiagram.from_tilted(pts[:, 0], pts[:, 1],
                                          np.ones(len(pts), dtype=int))


# -- observation model ----------------------------------------------------------

def test_observation_model_validation():
    with pytest.raises(ValidationError):
        ObservationModel(-0.1, 0.01)
    with pytest.raises(ValidationError):
        ObservationModel(1.1, 0.01)
    with pytest.raises(ValidationError):
        ObservationModel(0.5, 0.0)
    model = ObservationModel(0.5, 0.01)
    assert model.clutter.total_mass() == 0.0


def test_observation_model_dict_round_trip():
    model = ObservationModel(0.5, 0.01, TABLE_CLUTTER)
    assert ObservationModel.from_dict(model.to_dict()) == model
    with pytest.raises(ValidationError, match="keys"):
        ObservationModel.from_dict({"alpha": 1.0})


# -- closed form ----------------------------------------------------------------

def test_alpha_zero_returns_prior_bitwise():
    prior = informative_prior()
    model = ObservationModel(0.0, 0.01, TABLE_CLUTTER)
    post = posterior_closed_form(prior, model, [diagram_at([(1.0, 1.0)])])
    assert len(post.coefficients) == 0
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 3.0, (40, 2))
    np.testing.assert_array_equal(post.evaluate(pts), prior.evaluate(pts))
    assert post.total_mass() == prior.total_mass()
    assert post.data_term_mass() == 0.0


def test_single_observation_conjugate_parameters():
    # variances 0.01/0.01: posterior component sits halfway with var 0.005
    prior = informative_prior()
    model = ObservationModel(1.0, 0.01)
    y = (0.6, 1.0)
    post = posterior_closed_form(prior, model, [diagram_at([y])])
    assert post.means.shape == (1, 2)
    np.testing.assert_allclose(post.means[0], [(0.6 + 0.5) / 2, (1.0 + 1.2) / 2],
                               rtol=1e-14)
    assert post.variances[0] == pytest.approx(0.005, rel=1e-14)
    # with no clutter the lone data component carries unit mass
    assert post.coefficients[0] * wedge_gaussian_mass(
        post.means[0], post.variances[0]) == pytest.approx(1.0, rel=1e-12)
    assert post.data_term_mass() == pytest.approx(1.0, rel=1e-12)


def test_zero_clutter_data_mass_counts_points_for_any_alpha():
    # sum_j C_j Q_j = 1/alpha per observed point, so the alpha factor cancels
    prior = GaussianMixtureIntensity([
        MixtureComponent(1.0, (0.5, 1.2), 0.04),
        MixtureComponent(2.0, (1.5, 0.5), 0.09),
    ])
    diagrams = [diagram_at([(0.4, 1.1), (1.4, 0.6)]),
                diagram_at([(0.6, 1.3)]),
                diagram_at([(1.6, 0.4), (0.5, 1.2), (1.0, 1.0)])]
    for alpha in (0.25, 0.5, 1.0):
        post = posterior_closed_form(prior, ObservationModel(alpha, 0.02),
                                     diagrams)
        assert post.data_term_mass() == pytest.approx(6.0 / 3.0, rel=1e-12)
        assert post.total_mass() == pytest.approx(
            (1 - alpha) * prior.total_mass() + 2.0, rel=1e-12)


def test_mass_bookkeeping_with_clutter():
    prior = informative_prior()
    model = ObservationModel(0.5, 0.01, TABLE_CLUTTER)
    post = posterior_closed_form(prior, model,
                                 [diagram_at([(0.5, 1.2), (0.5, 0.05)])])
    assert post.prior_retention_mass() == 0.5 * prior.total_mass()
    assert post.total_mass() == post.prior_retention_mass() + post.data_term_mass()
    # clutter absorbs part of each observation: data mass < one per point
    assert post.data_term_mass() < 2.0


def test_evaluate_vanishes_outside_wedge_only():
    prior = informative_prior()
    model = ObservationModel(1.0, 0.01, TABLE_CLUTTER)
    post = posterior_closed_form(prior, model, [diagram_at([(0.5, 1.2)])])
    assert post.evaluate((-1e-12, 1.0)) == 0.0
    assert post.evaluate((0.5, -1e-12)) == 0.0
    assert post.evaluate((0.0, 0.0)) >= 0.0
    assert post.evaluate((0.5, 1.2)) > 0.0
    assert isinstance(post.evaluate((0.5, 1.2)), float)


def test_permutation_invariance_is_bitwise():
    prior = GaussianMixtureIntensity([
        MixtureComponent(1.0, (0.5, 1.2), 0.04),
        MixtureComponent(0.5, (1.5, 0.5), 0.2),
    ])
    model = ObservationModel(1.0, 0.05, TABLE_CLUTTER)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 2.0, (6, 2))
    d1, d2 = diagram_at(pts[:3]), diagram_at(pts[3:])
    grid_pts = rng.uniform(0.0, 3.0, (100, 2))

    a = posterior_closed_form(prior, model, [d1, d2])
    b = posterior_closed_form(prior, model, [d2, d1])
    np.testing.assert_array_equal(a.evaluate(grid_pts), b.evaluate(grid_pts))
    assert a.data_term_mass() == b.data_term_mass()

    shuffled = diagram_at(pts[:3][::-1])
    c = posterior_closed_form(prior, model, [shuffled, d2])
    np.testing.assert_array_equal(a.evaluate(grid_pts), c.evaluate(grid_pts))


def test_mixed_dimension_observations_rejected():
    prior = informative_prior()
    model = ObservationModel(1.0, 0.01)
    mixed = PersistenceDiagram([0.0, 0.5], [1.0, 1.5], [0, 1])
    with pytest.raises(ValidationError, match="restrict"):
        posterior_closed_form(prior, model, [mixed])
    with pytest.raises(ValidationError, match="at least one"):
        posterior_closed_form(prior, model, [])
    with pytest.raises(ValidationError, match="prior"):
        posterior_closed_form(GaussianMixtureIntensity([]), model,
                              [diagram_at([(1.0, 1.0)])])


def test_empty_observed_diagrams_are_legal():
    # m counts diagrams, including empty ones: mass drops accordingly
    prior = informative_prior()
    model = ObservationModel(1.0, 0.01)
    post = posterior_closed_form(
        prior, model, [diagram_at([(0.5, 1.2)]), PersistenceDiagram.empty()])
    assert post.observation_count == 2
    assert post.data_term_mass() == pytest.approx(0.5, rel=1e-12)


def test_unexplainable_point_raises():
    prior = informative_prior()
    model = ObservationModel(1.0, 0.0001)  # no clutter, tiny likelihood reach
    with pytest.raises(DegenerateObservationError, match="diagram 0"):
        posterior_closed_form(prior, model, [diagram_at([(300.0, 300.0)])])



def per_point_posterior(prior, model, observations):
    """Reference update: one observed point at a time, each row's
    denominator from its own clutter evaluation and ``math.fsum``, the
    rows concatenated in diagram order; alpha = 0 keeps no data rows."""
    lv, alpha, m = model.likelihood_variance, model.alpha, len(observations)
    coeffs, means, variances = [np.zeros(0)], [np.zeros((0, 2))], [np.zeros(0)]
    for d_index, diagram in enumerate(observations if alpha else []):
        for y in diagram.tilted_points:
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
    return PosteriorIntensity(prior, alpha, m, np.concatenate(coeffs),
                              np.concatenate(means), np.concatenate(variances))


def random_components(rng, n):
    return [MixtureComponent(float(rng.uniform(0.1, 3.0)),
                             tuple(rng.uniform(0.0, 2.5, 2)),
                             float(rng.uniform(0.01, 1.0)))
            for _ in range(n)]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1),
       n_prior=st.integers(1, 4),
       n_clutter=st.sampled_from([0, 2, 3]),
       alpha=st.sampled_from([0.0, 0.5, 1.0]),
       sizes=st.lists(st.integers(0, 5), min_size=1, max_size=5))
@example(seed=1, n_prior=3, n_clutter=2, alpha=0.5, sizes=[0, 3, 0, 2])
@example(seed=2, n_prior=2, n_clutter=0, alpha=1.0, sizes=[0, 0])
def test_closed_form_matches_per_point_update_bitwise(seed, n_prior, n_clutter,
                                                      alpha, sizes):
    rng = np.random.default_rng(seed)
    prior = GaussianMixtureIntensity(random_components(rng, n_prior))
    model = ObservationModel(alpha, float(rng.uniform(0.01, 0.5)),
                             GaussianMixtureIntensity(
                                 random_components(rng, n_clutter)))
    observations = [diagram_at(rng.uniform(0.0, 2.5, (n, 2))) if n
                    else PersistenceDiagram.empty() for n in sizes]

    got = posterior_closed_form(prior, model, observations)
    expected = per_point_posterior(prior, model, observations)
    np.testing.assert_array_equal(got.coefficients, expected.coefficients)
    np.testing.assert_array_equal(got.means, expected.means)
    np.testing.assert_array_equal(got.variances, expected.variances)
    assert got.total_mass() == expected.total_mass()
    pts = rng.uniform(-0.5, 3.0, (30, 2))
    np.testing.assert_array_equal(got.evaluate(pts), expected.evaluate(pts))


def test_unexplainable_point_names_its_diagram():
    prior = informative_prior()
    model = ObservationModel(1.0, 0.0001)
    observations = [diagram_at([(0.5, 1.2)]), PersistenceDiagram.empty(),
                    diagram_at([(0.5, 1.2), (300.0, 300.0)])]
    with pytest.raises(DegenerateObservationError, match="diagram 2") as got:
        posterior_closed_form(prior, model, observations)
    with pytest.raises(DegenerateObservationError) as expected:
        per_point_posterior(prior, model, observations)
    assert str(got.value) == str(expected.value)

# -- grids ----------------------------------------------------------------------

@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(0, 4), min_size=2, max_size=6),
       alpha=st.sampled_from([0.5, 1.0]))
def test_diagram_permutation_leaves_the_posterior_bitwise_unchanged(
        seed, sizes, alpha):
    # Points come from a few locations, so diagrams share points and some
    # diagrams repeat outright.
    rng = np.random.default_rng(seed)
    prior = GaussianMixtureIntensity(random_components(rng, 3))
    model = ObservationModel(alpha, 0.05, TABLE_CLUTTER)
    locations = rng.uniform(0.0, 2.5, (5, 2))
    observations = [diagram_at(locations[rng.integers(0, 5, n)]) if n
                    else PersistenceDiagram.empty() for n in sizes]
    observations.append(observations[0])
    perm = rng.permutation(len(observations))
    pts = rng.uniform(-0.5, 3.0, (60, 2))
    expected = posterior_closed_form(prior, model, observations).evaluate(pts)
    got = posterior_closed_form(prior, model, [observations[i] for i in perm])
    np.testing.assert_array_equal(got.evaluate(pts), expected)


def test_grid_axes_and_mesh():
    grid = Grid(0.0, 3.0, 1.0, 2.0, 4, 3)
    np.testing.assert_allclose(grid.x_axis, [0, 1, 2, 3])
    np.testing.assert_allclose(grid.y_axis, [1, 1.5, 2])
    mesh = grid.mesh()
    assert mesh.shape == (3, 4, 2)
    np.testing.assert_allclose(mesh[0, :, 0], [0, 1, 2, 3])
    np.testing.assert_allclose(mesh[:, 2, 1], [1, 1.5, 2])
    with pytest.raises(ValidationError):
        Grid(0.0, 0.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValidationError):
        Grid(0.0, 1.0, 0.0, 1.0, 1, 4)


def test_grid_stores_floats_and_whole_point_counts():
    grid = Grid(np.int64(0), 3, np.float32(0.5), 2, np.int64(4), 3.0)
    assert astuple(grid) == (0.0, 3.0, 0.5, 2.0, 4, 3)
    assert [type(v) for v in astuple(grid)] == [float] * 4 + [int] * 2
    for nx, ny, message in ((2.5, 3, "grid nx must be an integer, got 2.5"),
                            (3, True, "grid ny must be an integer, got True"),
                            (1, 3, "grid nx must be >= 2, got 1"),
                            (3, 0, "grid ny must be >= 2, got 0")):
        with pytest.raises(ValidationError) as info:
            Grid(0.0, 1.0, 0.0, 1.0, nx, ny)
        assert str(info.value) == message


def test_scaled_grid_peaks_at_one():
    prior = informative_prior()
    model = ObservationModel(1.0, 0.01, TABLE_CLUTTER)
    post = posterior_closed_form(prior, model, [diagram_at([(0.5, 1.2)])])
    grid = Grid(0.0, 3.0, 0.0, 3.0, 60, 50)
    values = scaled_intensity_grid(post, grid)
    assert values.shape == (50, 60)
    assert values.max() == 1.0
    unscaled = post.evaluate_grid(grid)
    np.testing.assert_array_equal(values, unscaled / unscaled.max())


def test_scaled_grid_of_zero_field_stays_zero():
    prior = informative_prior()
    values = scaled_intensity_grid(prior, Grid(50.0, 53.0, 50.0, 53.0, 8, 8))
    assert np.all(values == 0.0)


def test_write_grid_csv(tmp_path):
    grid = Grid(0.0, 1.0, 0.0, 2.0, 3, 2)
    values = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "y\\x,0.0,0.5,1.0"
    assert lines[1] == "0.0,0.0,1.0,2.0"
    assert lines[2] == "2.0,3.0,4.0,5.0"
    with pytest.raises(ValidationError, match="shape"):
        write_grid_csv(path, grid, np.zeros((3, 2)))


# -- numeric oracle -------------------------------------------------------------

def oracle_vs_closed(prior, model, diagrams, grid=None):
    grid = grid or Grid(0.0, 3.0, 0.0, 3.0, 40, 40)
    closed = posterior_closed_form(prior, model, diagrams).evaluate(grid.mesh())
    numeric = posterior_numeric_oracle(prior, model, diagrams, grid)
    big = np.maximum(closed, numeric)
    mask = big > 1e-12
    assert mask.any()
    return float((np.abs(closed - numeric)[mask] / big[mask]).max())


def test_oracle_matches_closed_form():
    prior = GaussianMixtureIntensity([
        MixtureComponent(1.0, (0.5, 1.2), 0.01),
        MixtureComponent(2.0, (1.5, 1.5), 0.2),
    ])
    model = ObservationModel(1.0, 0.01, TABLE_CLUTTER)
    diagrams = [diagram_at([(0.5, 1.1), (1.4, 1.6)]), diagram_at([(0.6, 1.2)])]
    assert oracle_vs_closed(prior, model, diagrams) < 1e-6


def test_oracle_matches_with_partial_alpha():
    prior = informative_prior()
    model = ObservationModel(0.5, 0.1, TABLE_CLUTTER)
    assert oracle_vs_closed(prior, model, [diagram_at([(0.7, 0.9)])]) < 1e-6
    assert oracle_vs_closed(prior, model, [PersistenceDiagram.empty()]) == 0.0


def test_oracle_alpha_zero_short_circuits():
    prior = informative_prior()
    model = ObservationModel(0.0, 0.1)
    grid = Grid(0.0, 3.0, 0.0, 3.0, 20, 20)
    numeric = posterior_numeric_oracle(prior, model,
                                       [diagram_at([(0.5, 1.2)])], grid)
    np.testing.assert_array_equal(numeric, prior.evaluate(grid.mesh()))


def test_oracle_rejects_callable_prior():
    with pytest.raises(ValidationError, match="GaussianMixtureIntensity"):
        posterior_numeric_oracle(informative_prior().evaluate,
                                 ObservationModel(1.0, 0.05, TABLE_CLUTTER),
                                 [diagram_at([(0.5, 1.2)])],
                                 Grid(0.0, 3.0, 0.0, 3.0, 30, 30))


def test_oracle_flags_unexplainable_point():
    prior = informative_prior()
    model = ObservationModel(1.0, 0.0001)
    grid = Grid(0.0, 3.0, 0.0, 3.0, 10, 10)
    with pytest.raises(DegenerateObservationError):
        posterior_numeric_oracle(prior, model, [diagram_at([(300.0, 300.0)])],
                                 grid)
