import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespd import (GaussianMixtureIntensity, Grid, MixtureComponent,
                     PosteriorIntensity, ValidationError, gaussian_density,
                     gaussian_product, in_wedge, read_mixture_json,
                     restricted_gaussian_density, wedge_gaussian_mass,
                     write_mixture_json)
from bayespd.intensity import BLOCK_CELLS


def random_mixture(rng, n=3):
    return GaussianMixtureIntensity([
        MixtureComponent(float(rng.uniform(0.1, 3.0)),
                         (float(rng.uniform(0.0, 2.5)),
                          float(rng.uniform(0.0, 2.5))),
                         float(rng.uniform(0.01, 1.0)))
        for _ in range(n)
    ])


# -- densities -----------------------------------------------------------------

def test_gaussian_density_peak_value():
    assert gaussian_density((0.0, 0.0), (0.0, 0.0), 1.0) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-15)
    assert gaussian_density((1.0, 2.0), (1.0, 2.0), 0.5) == pytest.approx(
        1.0 / (2.0 * math.pi * 0.5), rel=1e-15)


def test_gaussian_density_broadcasts():
    pts = np.zeros((4, 5, 2))
    out = gaussian_density(pts, (0.0, 0.0), 2.0)
    assert out.shape == (4, 5)
    assert np.all(out == out[0, 0])


def test_gaussian_density_integrates_to_one():
    # midpoint rule over a wide box
    xs = np.linspace(-8, 8, 801)
    step = xs[1] - xs[0]
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    total = gaussian_density(grid, (0.3, -0.2), 0.7).sum() * step * step
    assert total == pytest.approx(1.0, abs=1e-6)


def test_in_wedge_includes_boundary():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1e-300, 0.5],
                    [0.5, -1e-300], [1.0, 1.0]])
    np.testing.assert_array_equal(in_wedge(pts),
                                  [True, True, True, False, False, True])


def test_restricted_density_zero_outside_wedge():
    assert restricted_gaussian_density((-0.1, 0.5), (0.0, 0.5), 1.0) == 0.0
    inside = restricted_gaussian_density((0.0, 0.5), (0.0, 0.5), 1.0)
    assert inside == gaussian_density((0.0, 0.5), (0.0, 0.5), 1.0)


# -- wedge mass ----------------------------------------------------------------

def test_wedge_mass_origin_exact_quarter():
    assert wedge_gaussian_mass((0.0, 0.0), 1.0) == 0.25
    assert wedge_gaussian_mass((0.0, 0.0), 0.37) == 0.25


def test_wedge_mass_deep_interior_is_one():
    assert wedge_gaussian_mass((5.0, 5.0), 0.01) == pytest.approx(1.0, abs=1e-15)
    assert wedge_gaussian_mass((-5.0, -5.0), 0.01) == pytest.approx(0.0, abs=1e-15)


def test_wedge_mass_factorizes():
    # independence across coordinates: mass((a,b)) = mass_x(a) * mass_y(b)
    from scipy.special import ndtr

    mean, var = (0.3, -0.7), 0.2
    sd = math.sqrt(var)
    expected = float(ndtr(mean[0] / sd) * ndtr(mean[1] / sd))
    assert wedge_gaussian_mass(mean, var) == pytest.approx(expected, rel=1e-15)


def test_wedge_mass_monte_carlo_small():
    rng = np.random.default_rng(17)
    for _ in range(5):
        mean = rng.uniform(-1.0, 2.0, 2)
        var = float(rng.uniform(0.05, 1.0))
        n = 200_000
        samples = rng.normal(mean, math.sqrt(var), (n, 2))
        hits = np.count_nonzero((samples[:, 0] >= 0) & (samples[:, 1] >= 0))
        p = hits / n
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(wedge_gaussian_mass(tuple(mean), var) - p) < 4 * se + 1e-9


def test_wedge_mass_validates_variance():
    with pytest.raises(ValidationError):
        wedge_gaussian_mass((0.0, 0.0), 0.0)


# -- product lemma -------------------------------------------------------------

def test_gaussian_product_identity_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        y = rng.uniform(-1.0, 3.0, 2)
        mu = rng.uniform(-1.0, 3.0, 2)
        lv = float(rng.uniform(0.01, 1.0))
        v = float(rng.uniform(0.01, 1.0))
        post_mean, post_var, weight = gaussian_product(y, lv, mu, v)
        for _ in range(5):
            x = rng.uniform(-2.0, 4.0, 2)
            lhs = gaussian_density(x, y, lv) * gaussian_density(x, mu, v)
            rhs = weight * gaussian_density(x, post_mean, post_var)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_gaussian_product_parameter_formulas():
    y, mu = np.array([1.0, 2.0]), np.array([0.0, 0.0])
    lv, v = 0.5, 1.5
    post_mean, post_var, weight = gaussian_product(y, lv, mu, v)
    np.testing.assert_allclose(post_mean, (v * y + lv * mu) / (v + lv),
                               rtol=1e-15)
    assert post_var == pytest.approx(lv * v / (lv + v), rel=1e-15)
    assert weight == pytest.approx(gaussian_density(y, mu, lv + v), rel=1e-15)


# -- mixtures ------------------------------------------------------------------

def test_mixture_evaluate_known_value():
    mix = GaussianMixtureIntensity([MixtureComponent(2.0, (1.0, 1.0), 0.5)])
    assert mix.evaluate((1.0, 1.0)) == pytest.approx(
        2.0 / (2.0 * math.pi * 0.5), rel=1e-15)
    assert isinstance(mix.evaluate((1.0, 1.0)), float)


def test_mixture_zero_outside_wedge_boundary_included():
    mix = GaussianMixtureIntensity([MixtureComponent(1.0, (0.0, 0.0), 1.0)])
    assert mix.evaluate((-1e-12, 0.0)) == 0.0
    assert mix.evaluate((0.0, -1e-12)) == 0.0
    assert mix.evaluate((0.0, 0.0)) > 0.0


def test_mixture_evaluate_permutation_invariant_exactly():
    rng = np.random.default_rng(43)
    comps = list(random_mixture(rng, 7).components)
    pts = rng.uniform(0.0, 3.0, (50, 2))
    base = GaussianMixtureIntensity(comps).evaluate(pts)
    for _ in range(10):
        rng.shuffle(comps)
        np.testing.assert_array_equal(
            GaussianMixtureIntensity(comps).evaluate(pts), base)


def one_shot_mixture(x, weights, means, variances):
    """Reference evaluator: one (points x components x 2) difference array,
    reduced over its last axis, then a sorted sum per point."""
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    sq = np.sum((pts[..., None, :] - means) ** 2, axis=-1)
    dens = np.exp(-0.5 * sq / variances) / (2.0 * math.pi * variances)
    out = np.sum(np.sort(weights * dens, axis=-1), axis=-1) * in_wedge(pts)
    return out.reshape(np.shape(x)[:-1])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       n_components=st.one_of(st.integers(1, 300),
                              st.integers(BLOCK_CELLS // 2 - 1, BLOCK_CELLS + 2)),
       count=st.sampled_from(["0", "1", "block-1", "block", "block+1"]),
       layout=st.sampled_from(["scalar", "flat", "grid"]))
def test_blocked_evaluation_matches_one_shot_formula_bitwise(
        seed, n_components, count, layout):
    # Point counts sit at the edges of the kernel's blocks; beyond
    # BLOCK_CELLS // 2 components a block is a single point.
    rng = np.random.default_rng(seed)
    distinct = [MixtureComponent(float(rng.uniform(0.01, 3.0)),
                                 tuple(rng.uniform(-0.5, 3.0, 2)),
                                 float(rng.uniform(0.001, 1.0)))
                for _ in range(min(n_components, 200))]
    mix = GaussianMixtureIntensity(
        distinct[i] for i in rng.integers(0, len(distinct), n_components))
    block = max(1, BLOCK_CELLS // n_components)
    n_points = {"0": 0, "1": 1, "block-1": block - 1, "block": block,
                "block+1": block + 1}[count]
    pts = rng.uniform(-1.0, 3.5, (n_points, 2))
    pts[rng.random(pts.shape) < 0.05] = 0.0
    if layout == "scalar":
        x = pts[0] if n_points else np.array([0.0, -0.0])
    elif layout == "grid" and n_points % 2 == 0:
        x = pts.reshape(2, n_points // 2, 2)
    else:
        x = pts
    expected = one_shot_mixture(x, mix.weights, mix.means, mix.variances)
    got = mix.evaluate(x)
    np.testing.assert_array_equal(got, expected)
    assert isinstance(got, float) == (layout == "scalar")

    prior = random_mixture(rng, 3)
    alpha, m = float(rng.uniform(0.0, 1.0)), int(rng.integers(1, 50))
    post = PosteriorIntensity(prior, alpha, 0.01, m, mix.weights, mix.means,
                              mix.variances)
    expected = ((1.0 - alpha) * one_shot_mixture(x, prior.weights, prior.means,
                                                 prior.variances)
                + (alpha / m) * one_shot_mixture(x, mix.weights, mix.means,
                                                 mix.variances))
    np.testing.assert_array_equal(post.evaluate(x), expected)


def test_grid_evaluation_memory_is_bounded():
    mix = random_mixture(np.random.default_rng(71), 500)
    mesh = Grid(0.0, 3.0, 0.0, 3.0, 100, 100).mesh()
    tracemalloc.start()
    try:
        mix.evaluate(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_mixture_masses_and_concat():
    rng = np.random.default_rng(47)
    a, b = random_mixture(rng, 2), random_mixture(rng, 3)
    both = a + b
    assert len(both) == 5
    assert both.total_mass() == pytest.approx(a.total_mass() + b.total_mass(),
                                              rel=1e-14)
    expected = [c.weight * wedge_gaussian_mass(c.mean, c.variance)
                for c in a.components]
    np.testing.assert_allclose(a.component_masses(), expected, rtol=1e-15)


def test_mixture_superposition_evaluates_as_sum():
    rng = np.random.default_rng(53)
    a, b = random_mixture(rng, 2), random_mixture(rng, 2)
    pts = rng.uniform(0.0, 3.0, (20, 2))
    np.testing.assert_allclose((a + b).evaluate(pts),
                               a.evaluate(pts) + b.evaluate(pts), rtol=1e-14)


def test_empty_mixture():
    empty = GaussianMixtureIntensity([])
    assert empty.total_mass() == 0.0
    assert empty.evaluate((1.0, 1.0)) == 0.0
    assert empty.evaluate(np.ones((3, 2))).tolist() == [0.0, 0.0, 0.0]
    assert len(empty) == 0


def test_component_validation():
    with pytest.raises(ValidationError):
        MixtureComponent(0.0, (0.0, 0.0), 1.0)
    with pytest.raises(ValidationError):
        MixtureComponent(1.0, (0.0, 0.0), 0.0)
    with pytest.raises(ValidationError):
        MixtureComponent(1.0, (0.0, 0.0, 0.0), 1.0)


def test_component_dict_round_trip():
    c = MixtureComponent(1.5, (0.5, 1.2), 0.01)
    assert MixtureComponent.from_dict(c.to_dict()) == c
    with pytest.raises(ValidationError, match="keys"):
        MixtureComponent.from_dict({"weight": 1.0, "mean": [0, 0]})


def test_mixture_equality_and_hash():
    rng = np.random.default_rng(59)
    mix = random_mixture(rng, 3)
    same = GaussianMixtureIntensity(list(mix.components))
    assert mix == same and hash(mix) == hash(same)
    assert mix != random_mixture(rng, 3)


def test_mixture_json_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    mix = random_mixture(rng, 4)
    path = tmp_path / "mix.json"
    write_mixture_json(mix, path)
    assert read_mixture_json(path) == mix


def test_mixture_json_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[{]")
    with pytest.raises(ValidationError, match="line 1 column 3"):
        read_mixture_json(path)
    path.write_text('[{"weight": -1, "mean": [0, 0], "variance": 1}]')
    with pytest.raises(ValidationError, match=str(path)):
        read_mixture_json(path)
