"""End-to-end acceptance suite.

One test per shipped guarantee, ordered; each prints a single
``ACCEPTANCE PASS`` line (visible with ``pytest -s`` or ``-rA``). The
tolerances and runtime ceilings asserted here are the package's contract;
loosening them is a behavior change, not a test fix.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from bayespd import (GaussianMixtureIntensity, Grid, MixtureComponent,
                     ObservationModel, PersistenceDiagram, PointCloud,
                     adaptive_quad_2d, bootstrap_auc, experiment_preset,
                     experiment_presets, gaussian_density, gaussian_product,
                     posterior_closed_form, posterior_numeric_oracle,
                     rips_persistence, run_experiment, sample_observation,
                     sample_poisson_pp, wedge_gaussian_mass)
from bayespd._util import derived_rng
from bayespd.cli import main
from bayespd.rips import FiltrationParams

TABLE_CLUTTER = GaussianMixtureIntensity([MixtureComponent(1.0, (0.5, 0.0), 0.1)])


def diagram_at(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return PersistenceDiagram.from_tilted(pts[:, 0], pts[:, 1],
                                          np.ones(len(pts), dtype=int))


def test_criterion_01_closed_form_matches_quadrature_oracle():
    # 50 random configurations: priors of <= 3 components, alpha in
    # {0, 0.5, 1}, <= 3 observed diagrams of <= 10 points, default clutter;
    # closed form and oracle agree within 1e-6 relative wherever the
    # intensity exceeds 1e-12, on a 100x100 grid, in under 5 minutes.
    grid = Grid(0.0, 3.0, 0.0, 3.0, 100, 100)
    mesh = grid.mesh()
    worst = 0.0
    start = time.monotonic()
    for k in range(50):
        rng = derived_rng(101, k)
        n_comp = int(rng.integers(1, 4))
        prior = GaussianMixtureIntensity([
            MixtureComponent(rng.uniform(0.5, 3.0),
                             tuple(rng.uniform(0.1, 2.0, 2)),
                             10.0 ** rng.uniform(-3.0, -0.3))
            for _ in range(n_comp)])
        alpha = (0.0, 0.5, 1.0)[k % 3]
        lv = (0.01, 0.1)[k % 2]
        model = ObservationModel(alpha, lv, TABLE_CLUTTER)
        diagrams = [diagram_at(rng.uniform(0.05, 2.5, (int(rng.integers(1, 11)), 2)))
                    for _ in range(int(rng.integers(1, 4)))]
        post = posterior_closed_form(prior, model, diagrams)
        numeric = posterior_numeric_oracle(prior, model, diagrams, grid)
        # the point evaluator on the mesh and the separable grid evaluator
        for closed in (post.evaluate(mesh), post.evaluate_grid(grid)):
            big = np.maximum(closed, numeric)
            mask = big > 1e-12
            assert mask.any()
            worst = max(worst, float((np.abs(closed - numeric)[mask] / big[mask]).max()))
    elapsed = time.monotonic() - start
    assert worst < 1e-6, f"worst relative error {worst:.3e}"
    assert elapsed < 300.0
    print(f"ACCEPTANCE PASS: 1 closed form vs quadrature oracle, 50 configs, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_mass_bookkeeping():
    # zero clutter, alpha = 1: posterior mass is the mean observed feature
    # count, confirmed by integrating the posterior numerically; alpha = 0
    # returns the prior bitwise.
    prior = GaussianMixtureIntensity([
        MixtureComponent(1.0, (0.5, 1.2), 0.04),
        MixtureComponent(2.0, (1.5, 0.8), 0.09),
    ])
    model = ObservationModel(1.0, 0.01)
    diagrams = [diagram_at([(0.4, 1.1), (1.4, 0.9)]),
                diagram_at([(0.6, 1.3)]),
                diagram_at([(1.6, 0.7), (0.5, 1.2), (1.0, 1.0)])]
    expected = 6.0 / 3.0
    post = posterior_closed_form(prior, model, diagrams)
    assert post.total_mass() == pytest.approx(expected, rel=1e-12)

    cuts = []
    for mean, var in zip(post.means, post.variances):
        sd = math.sqrt(var)
        cuts.append([float(mean[0] + s * sd) for s in (-8, -4, 4, 8)]
                    + [float(mean[1] + s * sd) for s in (-8, -4, 4, 8)])
    cuts_x = [c for row in cuts for c in row[:4]]
    cuts_y = [c for row in cuts for c in row[4:]]
    integral, _ = adaptive_quad_2d(post.evaluate, (0.0, 4.0, 0.0, 4.0),
                                   atol=1e-9, rtol=1e-9,
                                   initial_cuts_x=cuts_x, initial_cuts_y=cuts_y)
    assert integral == pytest.approx(expected, rel=1e-3)

    frozen = posterior_closed_form(prior, ObservationModel(0.0, 0.01), diagrams)
    assert frozen.prior == prior and len(frozen.coefficients) == 0
    pts = derived_rng(102).uniform(0.0, 3.0, (64, 2))
    np.testing.assert_array_equal(frozen.evaluate(pts), prior.evaluate(pts))
    print(f"ACCEPTANCE PASS: 2 mass bookkeeping, quadrature {integral:.6f} "
          f"vs {expected:.6f}; alpha=0 returns the prior bitwise")


def test_criterion_03_wedge_mass_monte_carlo():
    # 20 random (mean, variance) pairs against 10^7-sample Monte Carlo,
    # within 3 standard errors; the centered case is exactly 1/4.
    n = 10_000_000
    chunk = 1_000_000
    worst_sigma = 0.0
    for k in range(20):
        rng = derived_rng(103, k)
        mean = rng.uniform(-0.5, 1.5, 2)
        variance = rng.uniform(0.1, 1.0)
        sd = math.sqrt(variance)
        hits = 0
        for _ in range(n // chunk):
            z = rng.standard_normal((chunk, 2))
            pts = mean + sd * z
            hits += int(np.count_nonzero((pts[:, 0] >= 0.0)
                                         & (pts[:, 1] >= 0.0)))
        p_hat = hits / n
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)
        gap = abs(wedge_gaussian_mass(mean, variance) - p_hat)
        assert gap <= 3.0 * se, (mean, variance, gap, se)
        worst_sigma = max(worst_sigma, gap / se)
    assert abs(wedge_gaussian_mass((0.0, 0.0), 0.7) - 0.25) <= 1e-15
    print(f"ACCEPTANCE PASS: 3 wedge mass vs 1e7-sample MC on 20 pairs, "
          f"worst gap {worst_sigma:.2f} SE; centered case = 1/4 exactly")


def test_criterion_04_gaussian_product_identity():
    # product of likelihood and prior component equals the weighted
    # posterior component at 100 random points per parameter draw.
    worst = 0.0
    for k in range(20):
        rng = derived_rng(104, k)
        y = rng.uniform(-1.0, 3.0, 2)
        lv = 10.0 ** rng.uniform(-3.0, 0.0)
        mean = rng.uniform(-1.0, 3.0, 2)
        variance = 10.0 ** rng.uniform(-3.0, 0.5)
        post_mean, post_var, weight = gaussian_product(y, lv, mean, variance)
        x = rng.uniform(-2.0, 4.0, (100, 2))
        lhs = gaussian_density(x, y, lv) * gaussian_density(x, mean, variance)
        rhs = weight * gaussian_density(x, post_mean, post_var)
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        err = np.abs(lhs - rhs)[scale > 0] / scale[scale > 0]
        worst = max(worst, float(err.max()))
    assert worst < 1e-12
    print(f"ACCEPTANCE PASS: 4 Gaussian product identity at 20x100 points, "
          f"worst rel err {worst:.2e}")


def test_criterion_05_rips_correctness():
    start = time.monotonic()
    params = FiltrationParams(max_homology_dim=1)

    with pytest.warns(UserWarning, match="essential"):
        square = rips_persistence(PointCloud([[0.0, 0.0], [1.0, 0.0],
                                              [1.0, 1.0], [0.0, 1.0]]), params)
    h1 = square.restrict(1)
    assert len(h1) == 1
    assert abs(h1.births[0] - 1.0) <= 1e-12
    assert abs(h1.deaths[0] - math.sqrt(2.0)) <= 1e-12

    with pytest.warns(UserWarning, match="essential"):
        pair = rips_persistence(PointCloud([[0.0, 0.0], [0.0, 1.7]]), params)
    h0 = pair.restrict(0)
    assert len(h0) == 1 and h0.births[0] == 0.0
    assert h0.deaths[0] == pytest.approx(1.7, rel=1e-12)

    def canonical(diagram):
        order = np.lexsort((diagram.deaths, diagram.births, diagram.dims))
        return (diagram.dims[order], diagram.births[order],
                diagram.deaths[order])

    for k in range(20):
        rng = derived_rng(105, k)
        pts = rng.uniform(0.0, 2.0, (int(rng.integers(5, 31)), 2))
        with pytest.warns(UserWarning, match="essential"):
            base = rips_persistence(PointCloud(pts), params)

        theta = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = pts @ rot.T + rng.uniform(-3.0, 3.0, 2)
        with pytest.warns(UserWarning, match="essential"):
            iso = rips_persistence(PointCloud(moved), params)
        for a, b in zip(canonical(base), canonical(iso)):
            np.testing.assert_allclose(a, b, atol=1e-9)

        scale = rng.uniform(0.5, 2.0)
        with pytest.warns(UserWarning, match="essential"):
            scaled = rips_persistence(PointCloud(scale * pts), params)
        dims_s, births_s, deaths_s = canonical(scaled)
        dims_b, births_b, deaths_b = canonical(base)
        np.testing.assert_array_equal(dims_s, dims_b)
        np.testing.assert_allclose(births_s, scale * births_b, atol=1e-9)
        np.testing.assert_allclose(deaths_s, scale * deaths_b, atol=1e-9)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE PASS: 5 rips unit square (1, sqrt 2), two-point H0, "
          f"isometry/scale on 20 clouds, {elapsed:.1f}s")


def test_criterion_06_sampler_statistics():
    # Poisson cardinality (3 sigma over 10,000 draws), superposition
    # chi-square (p > 0.001), thinning Binomial chi-square; all seeded.
    def count_gof_pvalue(counts, pmf):
        counts = np.asarray(counts)
        top = int(counts.max()) + 1
        observed = np.bincount(counts, minlength=top).astype(float)
        expected = len(counts) * np.array([pmf(v) for v in range(top)])
        expected[-1] += len(counts) * (1.0 - sum(pmf(v) for v in range(top)))
        while len(expected) > 2 and expected[-1] < 5.0:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        return float(stats.chi2.sf(statistic, len(expected) - 1))

    mixture = GaussianMixtureIntensity([
        MixtureComponent(3.0, (0.6, 2.2), 0.01),
        MixtureComponent(2.0, (2.0, 0.8), 0.04),
    ])
    total = mixture.total_mass()
    counts = np.array([len(sample_poisson_pp(mixture, derived_rng(106, 0, i)))
                       for i in range(10_000)])
    gap = abs(counts.mean() - total)
    assert gap <= 3.0 * math.sqrt(total / len(counts))

    part_a = GaussianMixtureIntensity([MixtureComponent(1.5, (0.6, 2.2), 0.01)])
    part_b = GaussianMixtureIntensity([MixtureComponent(2.5, (2.0, 0.8), 0.04)])
    lam = part_a.total_mass() + part_b.total_mass()
    super_counts = np.array([
        len(sample_poisson_pp(part_a, derived_rng(106, 1, i)))
        + len(sample_poisson_pp(part_b, derived_rng(106, 2, i)))
        for i in range(10_000)])
    p_super = count_gof_pvalue(super_counts, lambda v: stats.poisson.pmf(v, lam))
    assert p_super > 0.001

    latent = diagram_at(derived_rng(106, 3).uniform(0.5, 2.0, (40, 2)))
    model = ObservationModel(0.35, 1e-6)
    kept = np.array([len(sample_observation(model, latent, derived_rng(106, 4, i)))
                     for i in range(10_000)])
    p_thin = count_gof_pvalue(kept, lambda v: stats.binom.pmf(v, 40, 0.35))
    assert p_thin > 0.001
    keep_all = ObservationModel(1.0, 1e-6)
    assert all(len(sample_observation(keep_all, latent, derived_rng(106, 5, i))) == 40
               for i in range(50))
    print(f"ACCEPTANCE PASS: 6 sampler statistics, cardinality gap "
          f"{gap:.4f}, superposition p {p_super:.3f}, thinning p {p_thin:.3f}")


def test_criterion_07_informative_prior_case_studies(tmp_path):
    # sharpest observation case: the posterior peak tracks the most
    # persistent observed loop; half-retention case: the manifest keeps
    # exactly half of the prior mass.
    manifest = run_experiment(experiment_preset("case1-informative"),
                              tmp_path / "case1")
    top = manifest["most_persistent_feature"]
    peak = manifest["posterior_argmax"]
    dist = math.hypot(peak["x"] - top["birth"], peak["y"] - top["persistence"])
    assert dist <= 0.2, f"argmax {dist:.3f} from the dominant feature"

    manifest4 = run_experiment(experiment_preset("case4-informative"),
                               tmp_path / "case4")
    masses = manifest4["masses"]
    assert masses["prior_retention"] == 0.5 * masses["prior"]
    print(f"ACCEPTANCE PASS: 7 posterior argmax within {dist:.4f} of the "
          f"dominant loop; half-retention mass exact")


def test_criterion_08_lattice_classification(tmp_path):
    # 200 + 200 synthetic BCC/FCC diagrams, 10-fold CV: both the k-means
    # and the flat prior reach mean AUC >= 0.90 and differ by <= 0.05.
    start = time.monotonic()
    manifest = run_experiment(experiment_preset("aptlike-cv"), tmp_path / "cv")
    elapsed = time.monotonic() - start
    kmeans_auc = manifest["results"]["kmeans"]["mean_auc"]
    flat_auc = manifest["results"]["flat"]["mean_auc"]
    assert kmeans_auc >= 0.90
    assert flat_auc >= 0.90
    assert abs(kmeans_auc - flat_auc) <= 0.05
    assert elapsed < 900.0
    print(f"ACCEPTANCE PASS: 8 lattice CV, kmeans AUC {kmeans_auc:.4f}, "
          f"flat AUC {flat_auc:.4f}, gap {abs(kmeans_auc - flat_auc):.4f}, "
          f"{elapsed:.1f}s")


def test_criterion_09_bootstrap_degenerate_exactness():
    assert bootstrap_auc([0.75, 0.75, 0.75], rng_seed=9) == (0.75, 0.75, 0.75)
    assert bootstrap_auc([0.941] * 5, rng_seed=9) == (0.941, 0.941, 0.941)
    print("ACCEPTANCE PASS: 9 bootstrap on constant folds returns the "
          "constant exactly")


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    # every experiment preset, run twice through the CLI with the same
    # seed, produces byte-identical files.
    def tree(root: Path) -> dict:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    presets = sorted(experiment_presets())
    assert len(presets) == 17
    for name in presets:
        a = tmp_path / "a" / name
        b = tmp_path / "b" / name
        assert main(["experiment", "--preset", name, "--outdir", str(a)]) == 0
        assert main(["experiment", "--preset", name, "--outdir", str(b)]) == 0
        ta, tb = tree(a), tree(b)
        assert ta.keys() == tb.keys()
        diff = [k for k in ta if ta[k] != tb[k]]
        assert not diff, f"{name}: {diff}"
    print(f"ACCEPTANCE PASS: 10 all {len(presets)} experiment presets rerun "
          f"byte-identical through the CLI")
