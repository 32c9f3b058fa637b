"""Bayes-factor classification of persistence diagrams.

A diagram D under an intensity lambda has Poisson-process log density

    log p(D) = -Lambda + sum_{d in D} log lambda(d) - log |D|!

with Lambda the total mass of the normalizing intensity. Two normalization
modes exist for posterior intensities:

* ``paper-literal`` (default): Lambda is the total mass of the *prior*
  intensity regardless of which intensity is evaluated pointwise.
* ``mass-consistent``: Lambda is the evaluated intensity's own total mass.

For plain mixture intensities the modes coincide. A class model carries a
prior, an observation model and its training diagrams; the trained posterior
is computed once and cached. Classification compares the posterior
predictive densities of two class models; ``log_bf > log(threshold)``
assigns the first class.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

from ._util import as_finite, as_float_array, as_generator, as_integer, derived_rng, write_json
from .diagrams import PersistenceDiagram
from .errors import ValidationError
from .intensity import GaussianMixtureIntensity, MixtureComponent, squared_distance
from .posterior import ObservationModel, PosteriorIntensity, posterior_closed_form

DENSITY_MODES = ("paper-literal", "mass-consistent")

#: k-means restarts; the best-inertia run wins.
KMEANS_RESTARTS = 50

#: Resampled fold sets behind the bootstrap AUC summary.
BOOTSTRAP_RESAMPLES = 2000


def _check_mode(mode: str) -> None:
    if mode not in DENSITY_MODES:
        raise ValidationError(
            f"mode must be one of {DENSITY_MODES}, got {mode!r}")


def _log_density_parts(intensity, diagram: PersistenceDiagram,
                       mode: str) -> tuple[float, float]:
    """Split log p(D) into (mass, data) with log p = -mass + data.

    Each log intensity is a log-sum-exp, so ``data`` is -inf only when a
    feature lies outside the wedge or the intensity has no terms; that is a
    reportable value, not an error.
    """
    _check_mode(mode)
    if mode == "paper-literal" and isinstance(intensity, PosteriorIntensity):
        mass = intensity.prior.total_mass()
    else:
        mass = intensity.total_mass()
    logs = intensity.log_evaluate(diagram.tilted_points)
    return mass, math.fsum(logs) - math.lgamma(len(diagram) + 1)


def log_poisson_density(intensity, diagram: PersistenceDiagram,
                        mode: str = "paper-literal") -> float:
    """Poisson-process log density of ``diagram`` under ``intensity``.

    Returns -inf (no exception) when a feature lies outside the wedge or
    the intensity has no terms.
    """
    mass, data = _log_density_parts(intensity, diagram, mode)
    return -mass + data


@dataclass(frozen=True)
class ClassModel:
    """A labeled class: prior, observation model, training diagrams."""

    label: str
    prior: GaussianMixtureIntensity
    observation: ObservationModel
    training: tuple[PersistenceDiagram, ...]

    def __post_init__(self):
        object.__setattr__(self, "training", tuple(self.training))
        if not self.training:
            raise ValidationError(f"class {self.label!r} has no training diagrams")

    @cached_property
    def posterior(self) -> PosteriorIntensity:
        return posterior_closed_form(self.prior, self.observation, self.training)


@dataclass(frozen=True)
class BayesFactorResult:
    """Outcome of one comparison: log Bayes factor and the assignment.

    ``assignment`` is None (and ``undecidable`` True) when both densities
    are -inf, in which case ``log_bf`` is NaN.
    """

    log_bf: float
    assignment: str | None
    log_density_1: float
    log_density_2: float

    @property
    def undecidable(self) -> bool:
        return self.assignment is None


def bayes_factor(model1: ClassModel, model2: ClassModel,
                 diagram: PersistenceDiagram, threshold: float = 1.0,
                 mode: str = "paper-literal") -> BayesFactorResult:
    """Compare two class models on one diagram.

    Works in log scale. The mass terms are differenced directly, so with
    equal prior masses they cancel exactly. Assigns ``model1.label`` when
    ``log_bf > log(threshold)``, else ``model2.label``.
    """
    as_finite(threshold, "threshold", gt=0)
    m1, d1 = _log_density_parts(model1.posterior, diagram, mode)
    m2, d2 = _log_density_parts(model2.posterior, diagram, mode)
    if math.isinf(d1) and math.isinf(d2):
        return BayesFactorResult(math.nan, None, -m1 + d1, -m2 + d2)
    log_bf = (d1 - d2) + (m2 - m1)
    assignment = model1.label if log_bf > math.log(threshold) else model2.label
    return BayesFactorResult(log_bf, assignment, -m1 + d1, -m2 + d2)


# -- k-means prior elicitation ----------------------------------------------

def _kmeans_restarts(points: np.ndarray, k: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Every restart's centers, shape (k, 2, restarts), and inertias. The
    k-means++ seedings are drawn in turn; Lloyd draws no random numbers, so
    all restarts then step together, each leaving at the step its labels stop
    changing. The (restarts, n) work arrays are allocated once, live restarts
    in their leading rows. A cluster mean adds its members in point order from
    +0.0, as ``points[members].mean(axis=0)`` does, by ``np.bincount``."""
    n = len(points)
    centers = np.empty((KMEANS_RESTARTS, k, 2))
    for seeds in centers:
        seeds[0] = points[rng.integers(n)]
        d2 = squared_distance(points, seeds[0])
        for j in range(1, k):
            total = math.fsum(d2.tolist())
            if total <= 0.0:
                seeds[j] = points[rng.integers(n)]
            else:
                seeds[j] = points[rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, squared_distance(points, seeds[j]))

    px, py = np.ascontiguousarray(points.T)
    d2, dj, scratch = np.empty((3, KMEANS_RESTARTS, n))
    labels, previous = np.zeros((2, KMEANS_RESTARTS, n), dtype=np.int64)
    mask = np.empty((KMEANS_RESTARTS, n), dtype=bool)
    bins = k * np.arange(KMEANS_RESTARTS)[:, None]  # each restart's first bin

    def nearest(c):  # first closest of the (L, k, 2) centers into labels[:L]
        L = len(c)  # and the distance to it into d2[:L], as squared_distance
        labels[:L], tmp = 0, scratch[:L]
        for j in range(k):
            out = dj[:L] if j else d2[:L]
            np.square(np.subtract(px, c[:, j, 0, None], out=out), out=out)
            out += np.square(np.subtract(py, c[:, j, 1, None], out=tmp), out=tmp)
            if j:
                np.copyto(labels[:L], j, where=np.less(out, d2[:L], out=mask[:L]))
                np.minimum(d2[:L], out, out=d2[:L])

    live, c = np.arange(KMEANS_RESTARTS), centers.copy()
    for _ in range(300):
        L = len(live)
        nearest(c)
        new = np.add(labels[:L], bins[:L], out=labels[:L])  # bin of each label
        counts = np.bincount(new.ravel(), minlength=k * L).reshape(L, k)
        for axis, weights in enumerate((px, py)):
            np.copyto(dj[:L], weights)  # each row's copy of the coordinate
            sums = np.bincount(new.ravel(), dj[:L].ravel(), k * L).reshape(L, k)
            np.divide(sums, counts, out=c[:, :, axis], where=counts > 0)
        new -= bins[:L]
        for r in np.flatnonzero(np.any(counts == 0, axis=1)):
            # redo it cluster by cluster: an empty one takes the farthest
            # point, whose label moves before later clusters average
            for j in range(k):
                members = new[r] == j
                if members.any():
                    c[r, j] = points[members].mean(axis=0)
                else:
                    worst = int(np.argmax(d2[r]))
                    c[r, j] = points[worst]
                    new[r, worst] = j
        moved = np.any(np.not_equal(new, previous[:L], out=mask[:L]), axis=1)
        centers[live] = c
        live, c = live[moved], c[moved]
        np.compress(moved, new, axis=0, out=previous[:len(live)])
        if not len(live):
            break
    # each restart's inertia is a pairwise sum over a contiguous row
    nearest(centers)
    return np.moveaxis(centers, 0, 2), d2.sum(axis=1)


def _check_k(k) -> int:
    """The rule for a k-means cluster count: an int >= 1, not a bool or a float."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"k must be an integer >= 1, got {k!r}")
    return int(k)


class _TooFewLocations(ValidationError):
    """More clusters asked of ``kmeans`` than there are distinct points."""


def kmeans(points: np.ndarray, k: int, rng_seed) -> np.ndarray:
    """Deterministic k-means: ``KMEANS_RESTARTS`` restarts, the first of least
    inertia wins, its centers sorted lexicographically."""
    _check_k(k)
    points = as_float_array(points, "points").reshape(-1, 2)
    n_distinct = len(np.unique(points, axis=0))
    if k > n_distinct:
        raise _TooFewLocations(f"k={k} exceeds the {n_distinct} distinct feature location(s)")
    n, span = len(points), math.dist(points.max(axis=0).tolist(), points.min(axis=0).tolist())
    if not math.isfinite(n * span * span):  # bounds each squared distance, sum and inertia
        raise ValidationError(f"points: n * span**2 must be finite, got n={n}, span={span}")
    centers, inertias = _kmeans_restarts(points, k, as_generator(rng_seed))
    best = centers[:, :, int(np.argmin(inertias))]
    return best[np.lexsort((best[:, 1], best[:, 0]))]


# -- ROC / AUC ----------------------------------------------------------------

def roc_curve(positive_scores, negative_scores) -> tuple[list[tuple[float, float]], float]:
    """ROC by sweeping a decision threshold over all observed scores.

    Tied scores are handled as a single threshold (one diagonal segment).
    Returns the (fpr, tpr) points from (0, 0) to (1, 1) and the trapezoid
    AUC, which is rank-based and so invariant under strictly increasing
    transformations of the scores.
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise ValidationError("need at least one score per class")
    if np.any(np.isnan(pos)) or np.any(np.isnan(neg)):
        raise ValidationError("NaN scores cannot be ranked; filter them first")
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    # each class's share of scores >= each threshold, from integer counts
    tpr, fpr = ((len(s) - np.searchsorted(np.sort(s), thresholds)) / len(s)
                for s in (pos, neg))
    xs, ys = np.concatenate([[0.0], fpr]), np.concatenate([[0.0], tpr])
    return list(zip(xs.tolist(), ys.tolist())), float(np.trapezoid(ys, xs))


def bootstrap_auc(fold_aucs, rng_seed=0) -> tuple[float, float, float]:
    """Bootstrap the mean of per-fold AUCs.

    Resamples the folds with replacement ``BOOTSTRAP_RESAMPLES`` times and
    returns the (5th percentile, mean, 95th percentile) of the resampled
    means. With all fold AUCs equal to a, every statistic equals a.
    """
    aucs = np.asarray(fold_aucs, dtype=np.float64)
    if aucs.ndim != 1 or len(aucs) == 0:
        raise ValidationError("fold_aucs must be a nonempty 1-D sequence")
    if np.all(aucs == aucs[0]):
        # every resampled mean equals the common value; computing it would
        # only add ulp-level accumulation noise
        return (float(aucs[0]),) * 3
    rng = as_generator(rng_seed)
    idx = rng.integers(0, len(aucs), size=(BOOTSTRAP_RESAMPLES, len(aucs)))
    draws = aucs[idx].mean(axis=1)
    return (float(np.percentile(draws, 5)), float(np.mean(draws)),
            float(np.percentile(draws, 95)))


# -- cross-validation ----------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class KMeansPrior:
    """Each class's prior, elicited per fold by clustering its training
    features into ``k`` components of the given variance and weight."""

    kind: ClassVar[str] = "kmeans"
    k: int = 3
    variance: float = 2.0
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "k", _check_k(self.k))
        object.__setattr__(self, "variance", as_finite(self.variance, "variance", gt=0))
        object.__setattr__(self, "weight", as_finite(self.weight, "weight", gt=0))

    def build(self, training: Sequence[PersistenceDiagram], rng_seed) -> GaussianMixtureIntensity:
        """Pool the tilted features of ``training`` and cluster them into ``k``
        centers, or one per location when fewer are distinct."""
        pooled = [d.tilted_points for d in training if len(d)]
        if not pooled:
            raise ValidationError("no features in the training diagrams")
        pooled = np.concatenate(pooled)
        try:
            centers = kmeans(pooled, self.k, rng_seed)
        except _TooFewLocations:  # sorts the points again, then clusters one per location
            centers = kmeans(pooled, len(np.unique(pooled, axis=0)), rng_seed)
        return GaussianMixtureIntensity(
            [MixtureComponent(self.weight, tuple(c), self.variance) for c in centers])


@dataclass(frozen=True, kw_only=True)
class FlatPrior:
    """One broad component shared by both classes, under ``MixtureComponent``'s rules."""

    kind: ClassVar[str] = "flat"
    mean: tuple[float, float] = (1.0, 1.0)
    variance: float = 20.0
    weight: float = 1.0

    def __post_init__(self):
        for name, value in asdict(MixtureComponent(self.weight, self.mean, self.variance)).items():
            object.__setattr__(self, name, value)

    def build(self, training: Sequence[PersistenceDiagram], rng_seed) -> GaussianMixtureIntensity:
        return GaussianMixtureIntensity([MixtureComponent(self.weight, self.mean, self.variance)])


#: The priors of the lattice study (each class's defaults), by kind.
PRIOR_SPECS = {prior.kind: prior for prior in (KMeansPrior(), FlatPrior())}


@dataclass(frozen=True)
class CrossValidationConfig:
    observation: ObservationModel
    prior: KMeansPrior | FlatPrior
    folds: int = 10
    threshold: float = 1.0
    mode: str = "paper-literal"
    rng_seed: int = 0
    labels: tuple[str, str] = ("class1", "class2")

    def __post_init__(self):
        _check_mode(self.mode)
        object.__setattr__(self, "folds", as_integer(self.folds, "folds", ge=2))
        object.__setattr__(self, "threshold", as_finite(self.threshold, "threshold", gt=0))
        if len(self.labels) != 2 or self.labels[0] == self.labels[1]:
            raise ValidationError(f"labels must be two distinct names, got {self.labels!r}")


@dataclass(frozen=True)
class BayesFactorReport:
    """Cross-validation outcome: per-diagram scores, fold ROC/AUCs,
    the mean AUC and its bootstrap summary."""

    labels: tuple[str, str]
    folds: int
    threshold: float
    mode: str
    rng_seed: int
    entries: tuple[dict, ...]
    fold_aucs: tuple[float, ...]
    roc_points: tuple[tuple[tuple[float, float], ...], ...]
    auc: float
    bootstrap_summary: tuple[float, float, float]
    n_undecidable: int = 0
    prior_description: dict = field(default_factory=dict)

    @property
    def bootstrap_percentiles(self) -> dict:
        """``bootstrap_summary`` keyed p5, mean, p95, as the JSON files hold it."""
        return dict(zip(("p5", "mean", "p95"), self.bootstrap_summary))

    def to_dict(self) -> dict:
        """The fields as JSON data: tuples become lists, ``prior_description``
        is keyed "prior" and the bootstrap summary is keyed by percentile."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(prior=out.pop("prior_description"),
                   bootstrap_summary=self.bootstrap_percentiles)
        return _as_lists(out)

    def write_json(self, path) -> None:
        write_json(path, self.to_dict(), sort_keys=True)


def _as_lists(value):
    """``value`` with its tuples turned into lists, at every depth."""
    if isinstance(value, dict):
        return {key: _as_lists(v) for key, v in value.items()}
    return [_as_lists(v) for v in value] if isinstance(value, tuple) else value


def _stratified_folds(n: int, folds: int,
                      rng: np.random.Generator) -> list[np.ndarray]:
    if n < folds:
        raise ValidationError(
            f"cannot split {n} diagrams into {folds} non-empty folds")
    return np.array_split(rng.permutation(n), folds)


def cross_validate(class1: Sequence[PersistenceDiagram],
                   class2: Sequence[PersistenceDiagram],
                   config: CrossValidationConfig) -> BayesFactorReport:
    """Stratified k-fold cross-validation of the Bayes-factor classifier.

    Per fold, both class models (priors included) are fit on the training
    portion only; held-out diagrams of both classes are scored by log Bayes
    factor, from which the fold's ROC and AUC are computed (class 1 is the
    positive class). Fully deterministic given ``config.rng_seed``.
    """
    classes = (list(class1), list(class2))
    folds = [_stratified_folds(len(diagrams), config.folds,
                               derived_rng(config.rng_seed, c))
             for c, diagrams in enumerate(classes)]

    entries: list[dict] = []
    fold_aucs: list[float] = []
    roc_all: list[tuple] = []
    n_undecidable = 0

    for f in range(config.folds):
        models = []
        for c, (label, diagrams, split) in enumerate(zip(config.labels, classes, folds)):
            train = [diagrams[i] for i in np.concatenate(split[:f] + split[f + 1:])]
            prior = config.prior.build(train, derived_rng(config.rng_seed, 2, f, c))
            models.append(ClassModel(label, prior, config.observation, train))

        scores = ([], [])  # log Bayes factors of each class's decided diagrams
        for c, (label, diagrams, split) in enumerate(zip(config.labels, classes, folds)):
            for i in split[f]:
                result = bayes_factor(*models, diagrams[i], config.threshold,
                                      config.mode)
                entries.append({"fold": f, "true_label": label, "index": int(i),
                                **vars(result)})
                if result.undecidable:
                    n_undecidable += 1
                else:
                    scores[c].append(result.log_bf)

        points, auc = roc_curve(*scores)
        roc_all.append(tuple(points))
        fold_aucs.append(auc)

    mean_auc = math.fsum(fold_aucs) / len(fold_aucs)
    summary = bootstrap_auc(fold_aucs, derived_rng(config.rng_seed, 3))
    return BayesFactorReport(
        labels=config.labels, folds=config.folds, threshold=config.threshold,
        mode=config.mode, rng_seed=config.rng_seed, entries=tuple(entries),
        fold_aucs=tuple(fold_aucs), roc_points=tuple(roc_all), auc=mean_auc,
        bootstrap_summary=summary, n_undecidable=n_undecidable,
        prior_description={"kind": config.prior.kind, **asdict(config.prior)})
