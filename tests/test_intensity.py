import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespd import (GaussianMixtureIntensity, Grid, MixtureComponent,
                     PosteriorIntensity, ValidationError, gaussian_density,
                     gaussian_product, in_wedge, read_mixture_json,
                     wedge_gaussian_mass, write_mixture_json)
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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       special_fraction=st.sampled_from([0.0, 0.1, 0.5]))
def test_wedge_mass_matches_scipy_ndtr(seed, n, special_fraction):
    # scipy's ndtr is the oracle only; the package computes Phi by math.erfc
    from scipy.special import ndtr

    rng = np.random.default_rng(seed)
    variance = 10.0 ** rng.uniform(-4.0, 4.0, n)
    sd = np.sqrt(variance)
    # standardized coordinates from the far lower tail, where the product
    # leaves the normal floats, to where each factor rounds to 1
    mean = rng.uniform(-40.0, 10.0, (n, 2)) * sd[:, None]
    special = rng.random((n, 2)) < special_fraction
    mean[special] = rng.choice([0.0, -0.0, np.inf, -np.inf], np.count_nonzero(special))
    expected = ndtr(mean[:, 0] / sd) * ndtr(mean[:, 1] / sd)
    got = wedge_gaussian_mass(mean, variance)
    assert got.shape == (n,)

    normal = expected >= np.finfo(np.float64).tiny
    rel = np.abs(got[normal] - expected[normal]) / expected[normal]
    assert np.all(rel <= 1e-13), rel.max()
    both = special.all(axis=1)
    np.testing.assert_array_equal(got[both], expected[both])
    assert np.all((got >= 0.0) & (got <= 1.0))

    scalar = wedge_gaussian_mass(tuple(mean[0]), variance[0])
    assert type(scalar) is float
    assert scalar == got[0]


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
    reduced over its last axis, then each point's terms summed in the
    canonical (mean0, mean1, weight, variance) component order."""
    order = np.lexsort((variances, weights, means[:, 1], means[:, 0]))
    weights, means, variances = weights[order], means[order], variances[order]
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    sq = np.sum((pts[..., None, :] - means) ** 2, axis=-1)
    dens = np.exp(-0.5 * sq / variances) / (2.0 * math.pi * variances)
    out = np.sum(weights * dens, axis=-1) * in_wedge(pts)
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
    post = PosteriorIntensity(prior, alpha, m, mix.weights, mix.means,
                              mix.variances)
    expected = ((1.0 - alpha) * one_shot_mixture(x, prior.weights, prior.means,
                                                 prior.variances)
                + (alpha / m) * one_shot_mixture(x, mix.weights, mix.means,
                                                 mix.variances))
    np.testing.assert_array_equal(post.evaluate(x), expected)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       n_components=st.integers(1, 300),
       edge=st.sampled_from([-1, 0, 1]))
def test_evaluate_is_bitwise_invariant_under_component_permutation(
        seed, n_components, edge):
    # Coordinates, weights and variances come from three values each, so
    # components share a mean, a mean and weight, or repeat outright.
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.01, 2.5, (4, 3))
    weights = rng.choice(values[2], n_components)
    variances = rng.choice(values[3], n_components)
    means = np.column_stack([rng.choice(values[0], n_components),
                             rng.choice(values[1], n_components)])
    perm = rng.permutation(n_components)
    pts = rng.uniform(-0.5, 3.0, (max(1, BLOCK_CELLS // n_components) + edge, 2))

    def mixture(order):
        return GaussianMixtureIntensity(
            MixtureComponent(weights[i], tuple(means[i]), variances[i])
            for i in order)

    identity = np.arange(n_components)
    expected = mixture(identity).evaluate(pts)
    np.testing.assert_array_equal(mixture(perm).evaluate(pts), expected)

    prior_order = rng.permutation(min(n_components, 4))

    def posterior(order, prior_order):
        return PosteriorIntensity(mixture(prior_order), 0.5, 3,
                                  weights[order], means[order], variances[order])

    expected = posterior(identity, np.arange(len(prior_order))).evaluate(pts)
    np.testing.assert_array_equal(
        posterior(perm, prior_order).evaluate(pts), expected)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_components=st.integers(1, 60),
       alpha=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
       spread=st.sampled_from([1.0, 10.0, 40.0]))
def test_log_evaluate_matches_log_of_evaluate(seed, n_components, alpha, spread):
    # compared wherever evaluate is a normal float; elsewhere log_evaluate
    # stays finite inside the wedge and is -inf outside it
    rng = np.random.default_rng(seed)
    prior = random_mixture(rng, int(rng.integers(1, 4)))
    data = random_mixture(rng, n_components)
    post = PosteriorIntensity(prior, alpha, int(rng.integers(1, 20)), data.weights,
                              data.means, data.variances)
    pts = rng.uniform(-0.5, spread, (500, 2))
    pts[rng.random(pts.shape) < 0.05] = 0.0
    for intensity in (data, post):
        values, logs = intensity.evaluate(pts), intensity.log_evaluate(pts)
        normal = values >= np.finfo(np.float64).tiny
        assert np.all(np.abs(logs[normal] - np.log(values[normal]))
                      <= 1e-14 * np.maximum(1.0, np.abs(np.log(values[normal]))))
        inside = in_wedge(pts)
        assert np.all(np.isfinite(logs[inside]))
        assert np.all(logs[~inside] == -np.inf)
    assert GaussianMixtureIntensity().log_evaluate((1.0, 1.0)) == -np.inf
    with np.errstate(divide="ignore"):
        # squared distances are inf here, so every term is exactly 0
        far = (1e200, 1e200)
        assert post.log_evaluate(far) == np.log(post.evaluate(far)) == -np.inf
    assert isinstance(post.log_evaluate(pts[0]), float)


def random_posterior(rng, n_components, alpha):
    prior = random_mixture(rng, int(rng.integers(1, 4)))
    data = random_mixture(rng, n_components)
    return PosteriorIntensity(prior, alpha, int(rng.integers(1, 20)),
                              data.weights, data.means, data.variances)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       n_components=st.one_of(st.integers(1, 60), st.integers(300, 1200)),
       nx=st.integers(10, 60), ny=st.integers(10, 60),
       alpha=st.sampled_from([0.0, 0.3, 1.0]),
       zero_line=st.booleans())
def test_evaluate_grid_matches_evaluate_on_the_mesh(seed, n_components, nx, ny,
                                                    alpha, zero_line):
    # Grids straddle 0, with a grid line on 0 itself when zero_line is set;
    # above 300 components the separable kernel walks several blocks.
    rng = np.random.default_rng(seed)
    post = random_posterior(rng, n_components, alpha)
    data = GaussianMixtureIntensity(
        MixtureComponent(w, tuple(m), v)
        for w, m, v in zip(post.coefficients, post.means, post.variances))
    if zero_line:  # steps of 1/16 from -1/4: the fifth line is exactly 0
        grid = Grid(-0.25, (nx - 5) / 16, -0.25, (ny - 5) / 16, nx, ny)
    else:
        x0, y0 = rng.uniform(-1.0, -0.01, 2)
        x1, y1 = rng.uniform(2.5, 3.5, 2)
        grid = Grid(float(x0), float(x1), float(y0), float(y1), nx, ny)
    for intensity in (post.prior, data, post):
        got = intensity.evaluate_grid(grid)
        ref = intensity.evaluate(grid.mesh())
        assert got.shape == (ny, nx)
        rel = np.abs(got - ref) / np.where(ref > 0.0, ref, 1.0)
        assert np.all(rel[ref >= 1e-12 * ref.max()] <= 1e-14)
        assert np.all(rel[ref >= 1e-300] <= 1e-12)
        negative = (grid.y_axis[:, None] < 0.0) | (grid.x_axis < 0.0)
        assert np.all(got[negative] == 0.0)
        assert np.all(got[~negative] >= 0.0)
    np.testing.assert_array_equal(
        PosteriorIntensity(post.prior, 0.0, post.observation_count,
                           post.coefficients, post.means,
                           post.variances).evaluate_grid(grid),
        post.prior.evaluate_grid(grid))
    perm = rng.permutation(n_components)
    np.testing.assert_array_equal(
        GaussianMixtureIntensity(data.components[i] for i in perm).evaluate_grid(grid),
        data.evaluate_grid(grid))
    prior = GaussianMixtureIntensity(post.prior.components[::-1])
    shuffled = PosteriorIntensity(prior, alpha, post.observation_count,
                                  post.coefficients[perm], post.means[perm],
                                  post.variances[perm])
    np.testing.assert_array_equal(shuffled.evaluate_grid(grid),
                                  post.evaluate_grid(grid))


def test_far_points_evaluate_to_zero_without_warnings():
    # coordinates whose squared distances overflow to inf
    post = random_posterior(np.random.default_rng(5), 4, 0.5)
    grid = Grid(1e200, 2e200, 1e200, 2e200, 4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for intensity in (post.prior, post):
            assert intensity.evaluate((1e200, 1e200)) == 0.0
            assert intensity.log_evaluate((1e200, 1e200)) == -np.inf
            np.testing.assert_array_equal(intensity.evaluate_grid(grid),
                                          np.zeros((4, 4)))


GRID_DIGEST = """
import hashlib, sys
import numpy as np
from bayespd import Grid
sys.path.insert(0, sys.argv[1])
from test_intensity import random_posterior
post = random_posterior(np.random.default_rng(13), 972, 0.7)
for n in (200, 100):
    grid = post.evaluate_grid(Grid(-0.1, 3.0, -0.1, 3.0, n, n))
    print(hashlib.sha256(grid.tobytes()).hexdigest())
"""


def test_evaluate_grid_bits_do_not_depend_on_blas_threads():
    # With OpenBLAS 0.3.31 on a 2-core x86_64 host, a BLAS matmul over
    # blocks of 327 components (the 100x100 grid) or over all 972 at once
    # gave different bits at 1 and 2 threads.
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", GRID_DIGEST, here], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.add(out.stdout)
    assert len(digests) == 1


def test_evaluate_grid_memory_is_bounded():
    # unblocked, the two (axis x components) exp tables alone take 16 MB
    mix = random_mixture(np.random.default_rng(73), 5000)
    grid = Grid(0.0, 3.0, 0.0, 3.0, 200, 200)
    tracemalloc.start()
    try:
        mix.evaluate_grid(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    both = GaussianMixtureIntensity(a.components + b.components)
    assert len(both) == 5
    assert both.total_mass() == pytest.approx(a.total_mass() + b.total_mass(),
                                              rel=1e-14)
    expected = [c.weight * wedge_gaussian_mass(c.mean, c.variance)
                for c in a.components]
    np.testing.assert_allclose(a.component_masses(), expected, rtol=1e-15)


def test_mass_of_a_mean_near_the_float_limit_is_exact_without_a_warning():
    # z = 1e308 / sqrt(1e-6) overflows: Phi(inf) = 1, and Phi(1000) = 1 too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixture = GaussianMixtureIntensity([MixtureComponent(1.0, (1e308, 1.0), 1e-6)])
        assert mixture.total_mass() == 1.0
        assert mixture.component_masses().tolist() == [1.0]


def test_mixture_superposition_evaluates_as_sum():
    rng = np.random.default_rng(53)
    a, b = random_mixture(rng, 2), random_mixture(rng, 2)
    pts = rng.uniform(0.0, 3.0, (20, 2))
    both = GaussianMixtureIntensity(a.components + b.components)
    np.testing.assert_allclose(both.evaluate(pts),
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


def test_component_mean_error_prints_plain_floats():
    with pytest.raises(ValidationError) as got:
        MixtureComponent(1.0, (np.float64(0.5), np.nan), 1.0)
    assert str(got.value) == "mean must be finite, got nan"


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
