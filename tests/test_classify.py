import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespd import classify, intensity, posterior
from bayespd import (BayesFactorResult, ClassModel, CrossValidationConfig,
                     FlatPrior, GaussianMixtureIntensity, KMeansPrior,
                     MixtureComponent, ObservationModel, PersistenceDiagram,
                     ValidationError, aptlike_observation_model,
                     bayes_factor, bootstrap_auc, cross_validate, kmeans,
                     log_poisson_density, roc_curve, sample_poisson_pp)
from bayespd._util import derived_rng
from bayespd.classify import KMEANS_RESTARTS, PRIOR_SPECS, _kmeans_restarts

UNIT_MASS = GaussianMixtureIntensity([MixtureComponent(1.0, (10.0, 10.0), 1.0)])


def diagram_at(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return PersistenceDiagram.from_tilted(pts[:, 0], pts[:, 1],
                                          np.ones(len(pts), dtype=int))


# -- Poisson log density -------------------------------------------------------

def test_log_density_pinned_value():
    # mean 10 sigma inside the wedge: total mass exactly 1; one point at
    # distance 1 contributes log(1/(2 pi)) - 1/2
    assert UNIT_MASS.total_mass() == 1.0
    value = log_poisson_density(UNIT_MASS, diagram_at([(11.0, 10.0)]))
    assert value == pytest.approx(-1.5 - math.log(2 * math.pi), rel=1e-15)


def test_log_density_empty_diagram_is_minus_mass():
    assert log_poisson_density(UNIT_MASS, PersistenceDiagram.empty()) == -1.0


def test_log_density_counts_permutations():
    d2 = diagram_at([(11.0, 10.0), (10.0, 11.0)])
    single = -math.log(2 * math.pi) - 0.5
    assert log_poisson_density(UNIT_MASS, d2) == pytest.approx(
        -1.0 + 2 * single - math.log(2), rel=1e-14)


def test_log_density_is_minus_inf_on_unsupported_feature():
    # the zero intensity supports no feature; a far one stays finite
    zero = GaussianMixtureIntensity([])
    assert log_poisson_density(zero, diagram_at([(10.0, 10.0)])) == -math.inf
    far = log_poisson_density(UNIT_MASS, diagram_at([(1000.0, 1000.0)]))
    assert far == pytest.approx(-1.0 - 990.0 ** 2 - math.log(2 * math.pi),
                                rel=1e-15)


def test_log_density_modes_agree_on_plain_mixture():
    d = diagram_at([(10.5, 10.5)])
    assert (log_poisson_density(UNIT_MASS, d, "paper-literal")
            == log_poisson_density(UNIT_MASS, d, "mass-consistent"))
    with pytest.raises(ValidationError, match="mode"):
        log_poisson_density(UNIT_MASS, d, "bayes")


def test_log_density_modes_differ_by_mass_on_posterior():
    clutter = GaussianMixtureIntensity([MixtureComponent(1.0, (10.0, 10.0), 1.0)])
    model = ClassModel("a", UNIT_MASS, ObservationModel(0.5, 0.5, clutter),
                       (diagram_at([(10.0, 10.0)]),))
    post = model.posterior
    d = diagram_at([(10.2, 10.2)])
    gap = (log_poisson_density(post, d, "paper-literal")
           - log_poisson_density(post, d, "mass-consistent"))
    assert gap == pytest.approx(post.total_mass() - post.prior.total_mass(),
                                rel=1e-12)


# -- Bayes factors ---------------------------------------------------------------

def class_pair(mean1=(9.0, 10.0), mean2=(11.0, 10.0)):
    obs = ObservationModel(0.5, 0.5)
    prior1 = GaussianMixtureIntensity([MixtureComponent(1.0, mean1, 1.0)])
    prior2 = GaussianMixtureIntensity([MixtureComponent(1.0, mean2, 1.0)])
    m1 = ClassModel("left", prior1, obs, (diagram_at([mean1]),))
    m2 = ClassModel("right", prior2, obs, (diagram_at([mean2]),))
    return m1, m2


def test_bayes_factor_antisymmetry_and_assignment():
    m1, m2 = class_pair()
    d = diagram_at([(9.1, 10.0)])
    fwd = bayes_factor(m1, m2, d)
    rev = bayes_factor(m2, m1, d)
    assert fwd.log_bf == -rev.log_bf
    assert fwd.log_bf > 0 and fwd.assignment == "left"
    assert rev.assignment == "left" and not fwd.undecidable
    assert isinstance(fwd, BayesFactorResult)


def test_bayes_factor_equal_masses_cancel_exactly():
    # both priors sit 9+ sigma inside the wedge: identical unit masses, so
    # the mass terms cancel and only the data terms remain
    m1, m2 = class_pair()
    assert m1.posterior.prior.total_mass() == m2.posterior.prior.total_mass() == 1.0
    d = diagram_at([(10.0, 10.0)])
    result = bayes_factor(m1, m2, d)
    assert result.log_bf == (result.log_density_1 - result.log_density_2)


def test_bayes_factor_identical_models_tie_goes_to_second():
    m1, _ = class_pair()
    m2 = ClassModel("other", m1.prior, m1.observation, m1.training)
    result = bayes_factor(m1, m2, diagram_at([(9.5, 10.0)]))
    assert result.log_bf == 0.0
    assert result.assignment == "other"


def test_bayes_factor_threshold():
    m1, m2 = class_pair()
    d = diagram_at([(9.4, 10.0)])
    base = bayes_factor(m1, m2, d)
    assert base.assignment == "left"
    strict = bayes_factor(m1, m2, d, threshold=math.exp(base.log_bf + 1))
    assert strict.assignment == "right"
    with pytest.raises(ValidationError, match="threshold"):
        bayes_factor(m1, m2, d, threshold=0.0)


def test_bayes_factor_undecidable():
    # alpha = 1 drops the prior, and the training point is explained by
    # clutter alone, so its data coefficient underflows to 0: neither
    # posterior has a term left
    clutter = GaussianMixtureIntensity([MixtureComponent(1.0, (1000.0, 1000.0), 1.0)])
    observation = ObservationModel(1.0, 0.5, clutter)
    m1, m2 = (ClassModel(m.label, m.prior, observation,
                         (diagram_at([(1000.0, 1000.0)]),))
              for m in class_pair())
    result = bayes_factor(m1, m2, diagram_at([(9.1, 10.0)]))
    assert math.isnan(result.log_bf)
    assert result.assignment is None and result.undecidable
    assert result.log_density_1 == -math.inf


def test_far_features_are_decided():
    # Each posterior is one Gaussian of variance 2/21 (alpha 1), with means
    # 20/21 (0.5, 0.5) apart, so log_bf grows by exactly 10 per unit of t
    # along (t, t). Without log-sum-exp both densities underflow from t = 10.
    prior = GaussianMixtureIntensity([MixtureComponent(1.0, (1.0, 1.0), 2.0)])
    observation = aptlike_observation_model()
    m1 = ClassModel("a", prior, observation, (diagram_at([(1.0, 1.0)]),))
    m2 = ClassModel("b", prior, observation, (diagram_at([(0.5, 0.5)]),))
    near = bayes_factor(m1, m2, diagram_at([(5.0, 5.0)]))
    assert near.assignment == "a"
    for t in (10.0, 20.0, 40.0):
        result = bayes_factor(m1, m2, diagram_at([(t, t)]))
        assert not result.undecidable and result.assignment == "a"
        assert math.isfinite(result.log_density_1)
        assert math.isfinite(result.log_density_2)
        assert result.log_bf == pytest.approx(near.log_bf + 10.0 * (t - 5.0),
                                              abs=1e-9)


def random_class_specs(rng, n_components):
    """(label, prior components, training point sets) of two classes."""
    return [(label,
             [MixtureComponent(float(rng.uniform(0.1, 3.0)),
                               tuple(rng.uniform(0.0, 3.0, 2)),
                               float(rng.uniform(0.05, 1.0)))
              for _ in range(n_components)],
             [rng.uniform(0.0, 3.0, (int(rng.integers(1, 6)), 2))
              for _ in range(int(rng.integers(1, 4)))])
            for label in ("one", "two")]


def class_model(spec, alpha, order=None):
    """The class model of ``spec``; a generator ``order`` reorders its prior
    components, its training diagrams and the points of each."""
    label, components, training = spec
    if order is not None:
        components = [components[i] for i in order.permutation(len(components))]
        training = [training[i][order.permutation(len(training[i]))]
                    for i in order.permutation(len(training))]
    observation = ObservationModel(alpha, 0.1, GaussianMixtureIntensity(
        [MixtureComponent(0.5, (0.5, 0.0), 0.2)]))
    return ClassModel(label, GaussianMixtureIntensity(components), observation,
                      tuple(diagram_at(pts) for pts in training))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
       n_components=st.integers(1, 6), n_features=st.integers(1, 6))
def test_log_bf_is_invariant_under_permutation(seed, alpha, n_components,
                                               n_features):
    rng = np.random.default_rng(seed)
    specs = random_class_specs(rng, n_components)
    # mostly near the training data, where many terms share the sum
    pts = rng.uniform(0.0, rng.choice([4.0, 40.0], p=[0.8, 0.2]), (n_features, 2))
    result = bayes_factor(*(class_model(spec, alpha) for spec in specs),
                          diagram_at(pts))
    permuted = bayes_factor(*(class_model(spec, alpha, rng) for spec in specs),
                            diagram_at(pts[rng.permutation(n_features)]))
    assert np.sign(permuted.log_bf) == np.sign(result.log_bf)
    assert permuted == result


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
       scale=st.sampled_from([1.0, 1e2, 1e4]),
       mode=st.sampled_from(["paper-literal", "mass-consistent"]))
def test_no_in_wedge_feature_is_undecidable(seed, alpha, scale, mode):
    rng = np.random.default_rng(seed)
    m1, m2 = (class_model(spec, alpha)
              for spec in random_class_specs(rng, int(rng.integers(1, 4))))
    pts = rng.uniform(0.0, scale, (int(rng.integers(1, 5)), 2))
    pts[rng.random(pts.shape) < 0.2] = 0.0  # features on the wedge's edges
    result = bayes_factor(m1, m2, diagram_at(pts), mode=mode)
    assert not result.undecidable and math.isfinite(result.log_bf)


def test_class_model_requires_training():
    with pytest.raises(ValidationError, match="training"):
        ClassModel("x", UNIT_MASS, ObservationModel(0.5, 0.5), ())


# -- k-means ---------------------------------------------------------------------

def cluster_points():
    return np.array([[0.0, 0.0]] * 5 + [[1.0, 2.0]] * 5 + [[3.0, 1.0]] * 5)


def test_kmeans_recovers_exact_clusters():
    centers = kmeans(cluster_points(), 3, 0)
    np.testing.assert_array_equal(centers, [[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    np.testing.assert_array_equal(kmeans(cluster_points(), 3, 123), centers)


def test_kmeans_k1_is_mean_and_lexsort_breaks_ties():
    pts = np.array([[0.0, 2.0], [0.0, 0.0], [4.0, 1.0], [4.0, 3.0]])
    np.testing.assert_allclose(kmeans(pts, 1, 0), [pts.mean(axis=0)], rtol=1e-15)
    centers = kmeans(np.array([[0.0, 2.0]] * 4 + [[0.0, 0.0]] * 4), 2, 0)
    np.testing.assert_array_equal(centers, [[0.0, 0.0], [0.0, 2.0]])


def test_kmeans_validation():
    with pytest.raises(ValidationError, match="k="):
        kmeans(cluster_points(), 4, 0)  # only 3 distinct locations
    # KMeansPrior's rule for k, in its words
    for k in (0, 2.5, True):
        with pytest.raises(ValidationError) as info:
            kmeans(cluster_points(), k, 0)
        assert str(info.value) == f"k must be an integer >= 1, got {k!r}"


def oracle_kmeans_once(points, k, rng):
    """k-means++ seeding then Lloyd, one restart at a time, with each squared
    distance summed over an (n, k, 2) difference array. Returns the centers,
    the inertia, the number of Lloyd steps and the number of empty-cluster
    re-seeds."""
    n = len(points)
    centers = np.empty((k, 2))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = math.fsum(d2)
        if total <= 0.0:
            centers[j] = points[rng.integers(n)]
        else:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))

    assign = np.zeros(n, dtype=np.int64)
    steps = reseeds = 0
    for _ in range(300):
        steps += 1
        dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(dists, axis=1)
        for j in range(k):
            members = new_assign == j
            if np.any(members):
                centers[j] = points[members].mean(axis=0)
            else:
                reseeds += 1
                worst = int(np.argmax(np.min(dists, axis=1)))
                centers[j] = points[worst]
                new_assign[worst] = j
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    inertia = float(np.sum(np.min(
        np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)))
    return centers, inertia, steps, reseeds


def oracle_kmeans(points, k, seed):
    rng = np.random.default_rng(seed)
    best, best_inertia = None, math.inf
    for _ in range(50):
        centers, inertia, _, _ = oracle_kmeans_once(points, k, rng)
        if inertia < best_inertia:
            best, best_inertia = centers, inertia
    return best[np.lexsort((best[:, 1], best[:, 0]))]


COORDINATES = (st.floats(0.0, 5.0).map(lambda v: v + 0.0)  # no -0.0
               | st.integers(0, 3).map(float))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_kmeans_matches_oracle_bitwise(data):
    k = data.draw(st.integers(1, 4), label="k")
    distinct = data.draw(st.lists(st.tuples(COORDINATES, COORDINATES),
                                  min_size=k, max_size=k + 4, unique=True),
                         label="distinct points")
    copies = data.draw(st.lists(st.integers(1, 3), min_size=len(distinct),
                                max_size=len(distinct)), label="copies")
    points = np.repeat(np.asarray(distinct), copies, axis=0)
    points = points[data.draw(st.permutations(range(len(points))), label="order")]
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    assert_restarts_match_oracle(points, k, seed)
    np.testing.assert_array_equal(kmeans(points, k, seed),
                                  oracle_kmeans(points, k, seed))


def assert_restarts_match_oracle(points, k, seed):
    """Every restart, so that one the best-of-50 would discard still counts,
    against the oracle's restarts in turn on the same generator. Returns
    each oracle restart's Lloyd steps and its empty-cluster re-seeds."""
    centers, inertias = _kmeans_restarts(points, k, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    steps, reseeds = [], []
    for r in range(KMEANS_RESTARTS):
        expected, expected_inertia, n_steps, n_reseeds = oracle_kmeans_once(
            points, k, rng)
        np.testing.assert_array_equal(centers[:, :, r], expected)
        assert inertias[r] == expected_inertia
        steps.append(n_steps)
        reseeds.append(n_reseeds)
    return steps, reseeds


def test_kmeans_last_live_restart_matches_oracle():
    # several hundred pooled points, and one restart steps on alone at the
    # end: a sum over a single restart column would turn pairwise
    rng = np.random.default_rng(0)
    points = np.abs(np.concatenate([rng.normal(m, 0.6, (150, 2))
                                    for m in ((1, 1), (3, 1.5), (2, 3))]))
    steps, _ = assert_restarts_match_oracle(points, 3, 0)
    assert sorted(steps)[-1] > sorted(steps)[-2]


def test_kmeans_empty_cluster_reseed_matches_oracle():
    # moving the re-seeded point's label changes this set's centers
    points = np.array([[5, 6], [3, 4], [5, 7], [7, 6], [1, 4], [2, 5], [5, 1],
                       [1, 0], [1, 5], [1, 2], [3, 2], [1, 1], [1, 2], [2, 4],
                       [5, 1], [6, 2], [0, 6], [5, 6]], dtype=float)
    _, reseeds = assert_restarts_match_oracle(points, 5, 138)
    assert sum(reseeds) > 0


def test_kmeans_tied_inertia_keeps_the_first_restart():
    # both halvings of a square have inertia 1.0; at seed 3 the first
    # restart to reach it splits left from right, the last top from bottom
    square = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    centers = kmeans(square, 2, 3)
    np.testing.assert_array_equal(centers, [[0.0, 0.5], [1.0, 0.5]])
    np.testing.assert_array_equal(centers, oracle_kmeans(square, 2, 3))


def test_kmeans_negative_zero_cluster_matches_oracle_bitwise():
    # the hypothesis strategy draws no -0.0; a cluster whose members all have
    # birth -0.0 averages to +0.0 in the oracle's mean, and so must here
    points = np.array([[-0.0, 1.0], [-0.0, 1.5], [-0.0, 2.0],
                       [3.0, 0.5], [3.5, 0.5], [3.0, 1.0]])
    assert_restarts_match_oracle(points, 2, 4)
    centers = kmeans(points, 2, 4)
    assert centers.tobytes() == oracle_kmeans(points, 2, 4).tobytes()
    assert centers[0, 0] == 0.0 and not np.signbit(centers[0, 0])


def test_kmeans_refuses_points_it_cannot_cluster():
    # 400 points spread over [0, 1e153]^2 used to end in an OverflowError of
    # math.fsum, and a NaN point in numpy's "Probabilities contain NaN"
    far = np.random.default_rng(0).uniform(0.0, 1e153, (400, 2))
    for points in (far, np.vstack([far[:3], [[np.nan, 0.0]]]), [[0.0, 1.0], [np.inf, 1.0]]):
        with pytest.raises(ValidationError, match=r"^points: n \* span\*\*2 must be finite"):
            kmeans(points, 2, 0)
    with pytest.raises(ValidationError, match="^points must be numbers, got True$"):
        kmeans([[True, 1.0], [0.5, 0.5]], 1, 0)
    # n * span**2 = 1e308, below the largest float: every sum stays finite
    near = far[:4] * (5e153 / math.dist(far[:4].max(axis=0), far[:4].min(axis=0)))
    centers = kmeans(near, 2, 0)
    assert np.all(np.isfinite(centers))
    np.testing.assert_array_equal(centers, oracle_kmeans(near, 2, 0))


def test_kmeans_peak_memory():
    # the Lloyd work arrays are (restarts, n) and allocated once
    points = np.random.default_rng(3).uniform(0.0, 5.0, (5000, 2))
    tracemalloc.start()
    try:
        kmeans(points, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


def test_kmeans_prior_builds_mixture():
    training = [diagram_at([(0.0, 0.0), (1.0, 2.0)]),
                diagram_at([(3.0, 1.0)]),
                PersistenceDiagram.empty()]
    prior = KMeansPrior(k=3, variance=2.0, weight=1.5).build(training, 0)
    np.testing.assert_array_equal(prior.means, [[0, 0], [1, 2], [3, 1]])
    assert np.all(prior.variances == 2.0) and np.all(prior.weights == 1.5)
    # more centers asked for than distinct locations: one per location
    np.testing.assert_array_equal(KMeansPrior(k=5, variance=2.0).build(training, 0).means,
                                  prior.means)
    with pytest.raises(ValidationError, match="no features"):
        KMeansPrior(k=2, variance=1.0).build([PersistenceDiagram.empty()], 0)


def test_kmeans_prior_retries_only_when_k_exceeds_the_locations(monkeypatch):
    # a refusal for another reason (an unclusterable 1e200 feature) used to
    # run k-means, and sort the points, a second time
    calls = []

    def spy(points, k, rng_seed):
        calls.append(k)
        return kmeans(points, k, rng_seed)

    monkeypatch.setattr(classify, "kmeans", spy)
    far = [diagram_at([(0.5, 1e200), (0.5, 1.0)]), diagram_at([(1.0, 1.0)])]
    with pytest.raises(ValidationError, match=r"^points: n \* span\*\*2 must be finite"):
        KMeansPrior(k=2, variance=1.0).build(far, 0)
    assert calls == [2]
    KMeansPrior(k=3, variance=1.0).build([diagram_at([(0.0, 1.0), (2.0, 1.0)])], 0)
    assert calls == [2, 3, 2]


@pytest.mark.parametrize("prior, fields", [
    (KMeansPrior, {"variance": math.nan}), (KMeansPrior, {"weight": math.inf}),
    (FlatPrior, {"variance": math.nan}), (FlatPrior, {"weight": math.inf}),
    (FlatPrior, {"mean": (1.0, -math.inf)}),
], ids=["kmeans-variance-nan", "kmeans-weight-inf", "flat-variance-nan",
        "flat-weight-inf", "flat-mean-minus-inf"])
def test_priors_reject_non_finite_fields(prior, fields):
    with pytest.raises(ValidationError, match="must be finite"):
        prior(**fields)


@pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, True, "3"])
def test_kmeans_prior_rejects_a_k_that_is_not_a_positive_integer(k):
    # k=0 used to fail only inside k-means, after cross-validation started;
    # k=2.5 with a TypeError from numpy
    with pytest.raises(ValidationError, match="k must be an integer >= 1"):
        KMeansPrior(k=k)
    k = KMeansPrior(k=np.int64(2)).k
    assert k == 2 and type(k) is int


def test_each_prior_kind_takes_only_its_own_fields():
    # a k-means prior has no mean, a flat prior no k: naming one is an error,
    # not a value silently ignored or checked for nothing
    with pytest.raises(TypeError, match="mean"):
        KMeansPrior(mean=(5.0, 5.0))
    with pytest.raises(TypeError, match="'k'"):
        FlatPrior(k=0)
    # the defaults are the lattice study's priors
    assert PRIOR_SPECS == {"kmeans": KMeansPrior(k=3, variance=2.0, weight=1.0),
                           "flat": FlatPrior(mean=(1.0, 1.0), variance=20.0, weight=1.0)}


def test_flat_prior_checks_by_the_rules_of_its_component():
    # mean first, then weight, then variance, as MixtureComponent reports them
    with pytest.raises(ValidationError, match="mean must be a 2-vector"):
        FlatPrior(mean=(1.0, 2.0, 3.0))
    with pytest.raises(ValidationError, match="weight must be > 0"):
        FlatPrior(variance=-1.0, weight=-1.0)
    prior = FlatPrior(mean=[np.float32(0.5), np.int64(2)], variance=np.int64(5))
    assert (prior.mean, prior.variance) == ((0.5, 2.0), 5.0)
    assert all(type(v) is float for v in (*prior.mean, prior.variance, prior.weight))
    assert prior.build([], 0) == GaussianMixtureIntensity(
        [MixtureComponent(1.0, (0.5, 2.0), 5.0)])


# -- ROC / AUC ---------------------------------------------------------------------

def oracle_roc_curve(positive_scores, negative_scores):
    """The ROC by one count per threshold, as ``roc_curve`` once computed it."""
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    points = [(0.0, 0.0)]
    for t in thresholds:
        tpr = float(np.count_nonzero(pos >= t)) / len(pos)
        fpr = float(np.count_nonzero(neg >= t)) / len(neg)
        points.append((fpr, tpr))
    xs = np.asarray([p[0] for p in points])
    ys = np.asarray([p[1] for p in points])
    return points, float(np.trapezoid(ys, xs))


# few distinct values, so classes tie within and across themselves
ROC_SCORES = st.lists(st.sampled_from([-math.inf, -2.5, -0.0, 0.0, 1e-300, 0.7, 3.0,
                                       1e300, math.inf]), min_size=1, max_size=40)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pos=ROC_SCORES, neg=ROC_SCORES)
def test_roc_matches_threshold_loop_oracle_bitwise(pos, neg):
    points, auc = roc_curve(pos, neg)
    expected_points, expected_auc = oracle_roc_curve(pos, neg)
    assert points == expected_points
    assert all(type(v) is float for point in points for v in point)
    assert np.array(points).tobytes() == np.array(expected_points).tobytes()
    assert np.float64(auc).tobytes() == np.float64(expected_auc).tobytes()


def test_roc_perfect_and_reversed():
    points, auc = roc_curve([3.0, 4.0], [1.0, 2.0])
    assert auc == 1.0
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
    _, auc_rev = roc_curve([1.0, 2.0], [3.0, 4.0])
    assert auc_rev == 0.0


def test_roc_all_tied_is_diagonal():
    points, auc = roc_curve([1.0, 1.0], [1.0, 1.0, 1.0])
    assert points == [(0.0, 0.0), (1.0, 1.0)]
    assert auc == 0.5


def test_roc_rank_invariance():
    rng = derived_rng(21)
    pos = np.round(rng.normal(0.5, 1.0, 30), 1)  # rounding forces ties
    neg = np.round(rng.normal(0.0, 1.0, 40), 1)
    _, auc = roc_curve(pos, neg)
    _, auc_exp = roc_curve(np.exp(pos), np.exp(neg))
    assert auc == pytest.approx(auc_exp, abs=1e-15)


def test_roc_matches_pairwise_probability():
    # AUC equals P(pos > neg) + 0.5 P(pos == neg) over all pairs
    for trial in range(20):
        rng = derived_rng(33, trial)
        pos = rng.integers(0, 6, rng.integers(1, 25)).astype(float)
        neg = rng.integers(0, 6, rng.integers(1, 25)).astype(float)
        _, auc = roc_curve(pos, neg)
        diff = pos[:, None] - neg[None, :]
        naive = (np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0))
        assert auc == pytest.approx(naive / diff.size, abs=1e-12)


def test_roc_validation():
    with pytest.raises(ValidationError, match="at least one"):
        roc_curve([], [1.0])
    with pytest.raises(ValidationError, match="NaN"):
        roc_curve([1.0, math.nan], [0.0])


def test_bootstrap_degenerate_and_deterministic():
    assert bootstrap_auc([0.75, 0.75, 0.75], rng_seed=4) == (0.75, 0.75, 0.75)
    # exact even when float accumulation of the mean would wobble
    assert bootstrap_auc([0.941] * 5, rng_seed=4) == (0.941, 0.941, 0.941)
    a = bootstrap_auc([0.6, 0.7, 0.9, 1.0], rng_seed=11)
    assert a == bootstrap_auc([0.6, 0.7, 0.9, 1.0], rng_seed=11)
    assert a[0] <= a[1] <= a[2]
    with pytest.raises(ValidationError):
        bootstrap_auc([])


# -- cross-validation -----------------------------------------------------------

def synthetic_classes(n=12, separated=True):
    mix1 = GaussianMixtureIntensity([MixtureComponent(4.0, (0.5, 1.5), 0.02)])
    mix2 = GaussianMixtureIntensity(
        [MixtureComponent(4.0, (1.5, 0.5), 0.02)]) if separated else mix1
    class1 = [sample_poisson_pp(mix1, derived_rng(50, 0, i)) for i in range(n)]
    class2 = [sample_poisson_pp(mix2, derived_rng(50, 1, i)) for i in range(n)]
    return class1, class2


def test_cross_validate_separates_classes():
    class1, class2 = synthetic_classes()
    config = CrossValidationConfig(
        observation=ObservationModel(1.0, 0.05),
        prior=KMeansPrior(k=1, variance=0.5), folds=3,
        labels=("ring", "blob"), rng_seed=2)
    report = cross_validate(class1, class2, config)
    assert report.auc > 0.9
    assert len(report.fold_aucs) == 3 and len(report.roc_points) == 3
    assert len(report.entries) == 24
    assert {e["true_label"] for e in report.entries} == {"ring", "blob"}
    assert report.n_undecidable == 0
    assert report.auc == pytest.approx(np.mean(report.fold_aucs), rel=1e-15)
    p5, mean, p95 = report.bootstrap_summary
    assert p5 <= mean <= p95


def test_cross_validate_is_deterministic():
    class1, class2 = synthetic_classes(n=8)
    config = CrossValidationConfig(
        observation=ObservationModel(1.0, 0.05),
        prior=FlatPrior(mean=(1.0, 1.0), variance=5.0), folds=2)
    r1 = cross_validate(class1, class2, config)
    r2 = cross_validate(class1, class2, config)
    assert r1.to_dict() == r2.to_dict()


def test_cross_validate_identical_distributions_near_chance():
    class1, class2 = synthetic_classes(n=20, separated=False)
    config = CrossValidationConfig(
        observation=ObservationModel(1.0, 0.05),
        prior=KMeansPrior(k=1, variance=0.5), folds=5, rng_seed=6)
    report = cross_validate(class1, class2, config)
    assert 0.2 < report.auc < 0.8


def test_cross_validate_kmeans_prior_on_few_distinct_features():
    # every training fold pools two distinct locations per class, fewer
    # than the k=3 centers asked for
    class1 = [diagram_at([(0.5, 1.5), (1.0, 1.0)])] * 4
    class2 = [diagram_at([(1.5, 0.5), (2.0, 1.0)])] * 4
    config = CrossValidationConfig(
        observation=ObservationModel(1.0, 0.05),
        prior=KMeansPrior(k=3, variance=0.5), folds=2)
    report = cross_validate(class1, class2, config)
    assert report.prior_description == {"kind": "kmeans", "k": 3,
                                        "variance": 0.5, "weight": 1.0}
    assert len(report.entries) == 8 and report.n_undecidable == 0
    assert report.auc == 1.0


def test_cross_validate_computes_each_mass_once(monkeypatch):
    # per fold: each class's prior masses once, on first total_mass, and one
    # call per posterior update; scoring a diagram computes no mass
    calls, wedge_gaussian_mass = [], intensity.wedge_gaussian_mass

    def counting(mean, variance):
        calls.append(1)
        return wedge_gaussian_mass(mean, variance)

    class1, class2 = synthetic_classes(n=6)  # the sampler's masses not counted
    monkeypatch.setattr(intensity, "wedge_gaussian_mass", counting)
    monkeypatch.setattr(posterior, "wedge_gaussian_mass", counting)
    config = CrossValidationConfig(
        observation=ObservationModel(1.0, 0.05),
        prior=KMeansPrior(k=1, variance=0.5), folds=3)
    report = cross_validate(class1, class2, config)
    assert len(report.entries) == 12
    assert len(calls) == 4 * config.folds


def test_cross_validate_fold_validation():
    class1, class2 = synthetic_classes(n=3)
    config = CrossValidationConfig(observation=ObservationModel(1.0, 0.05),
                                   prior=FlatPrior(), folds=4)
    with pytest.raises(ValidationError, match="folds"):
        cross_validate(class1, class2, config)
    with pytest.raises(ValidationError, match="folds"):
        CrossValidationConfig(observation=ObservationModel(1.0, 0.05),
                              prior=FlatPrior(), folds=1)


def test_cross_validation_rejects_equal_labels():
    # equal labels used to merge both classes' scores, so every fold read AUC 0.5
    with pytest.raises(ValidationError, match="two distinct names"):
        CrossValidationConfig(observation=ObservationModel(1.0, 0.05),
                              prior=FlatPrior(), labels=("a", "a"))


def test_cross_validate_entries_follow_the_folds():
    class1, class2 = synthetic_classes(n=7)
    config = CrossValidationConfig(
        observation=ObservationModel(1.0, 0.05),
        prior=FlatPrior(mean=(1.0, 1.0), variance=5.0), folds=3,
        labels=("a", "b"), rng_seed=4)
    report = cross_validate(class1, class2, config)
    # within a fold, class 1's held-out diagrams, then class 2's, each in
    # the fold's order; together every diagram once
    order = [(e["fold"], e["true_label"]) for e in report.entries]
    assert order == sorted(order)
    for label in "ab":
        assert sorted(e["index"] for e in report.entries
                      if e["true_label"] == label) == list(range(7))
    assert set(report.entries[0]) == {"fold", "true_label", "index", "log_bf",
                                      "assignment", "log_density_1",
                                      "log_density_2"}


def test_non_finite_threshold_is_rejected():
    # log(nan) would assign every diagram to the second class
    with pytest.raises(ValidationError, match="threshold must be finite, got nan"):
        CrossValidationConfig(observation=ObservationModel(1.0, 0.05),
                              prior=FlatPrior(), threshold=math.nan)
    model = ClassModel("a", UNIT_MASS, ObservationModel(1.0, 0.05),
                       [diagram_at([(10.0, 10.0)])])
    with pytest.raises(ValidationError, match="threshold must be finite, got inf"):
        bayes_factor(model, model, diagram_at([(10.0, 10.0)]), threshold=math.inf)


def test_report_json_round_trip(tmp_path):
    class1, class2 = synthetic_classes(n=6)
    config = CrossValidationConfig(
        observation=ObservationModel(0.8, 0.05),
        prior=KMeansPrior(k=2, variance=1.0), folds=2)
    report = cross_validate(class1, class2, config)
    path = tmp_path / "report.json"
    report.write_json(path)
    data = json.loads(path.read_text())
    assert data == report.to_dict()
    assert set(data["bootstrap_summary"]) == {"p5", "mean", "p95"}
    assert data["prior"] == {"kind": "kmeans", "k": 2, "variance": 1.0, "weight": 1.0}
    flat = CrossValidationConfig(observation=ObservationModel(0.8, 0.05),
                                 prior=FlatPrior(), folds=2)
    cross_validate(class1, class2, flat).write_json(path)
    assert json.loads(path.read_text())["prior"] == {
        "kind": "flat", "mean": [1.0, 1.0], "variance": 20.0, "weight": 1.0}


def test_cross_validation_config_stores_what_it_checks():
    # folds=3.0 used to reach range() as a float and threshold=np.float32(2)
    # to reach the report, whose JSON could then not be written
    class1, class2 = synthetic_classes(n=6)
    config = CrossValidationConfig(observation=ObservationModel(0.8, 0.05),
                                   prior=KMeansPrior(k=np.int64(2), variance=1.0),
                                   folds=3.0, threshold=np.float32(2))
    assert (type(config.folds), type(config.threshold)) == (int, float)
    report = cross_validate(class1, class2, config)
    assert len(report.fold_aucs) == 3
    data = json.loads(json.dumps(report.to_dict()))
    assert (data["folds"], data["threshold"], data["prior"]["k"]) == (3, 2.0, 2)
