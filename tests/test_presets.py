import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespd import (CASE_PRESETS, PRIOR_PRESETS, CircleExperiment,
                     ExperimentConfig, GaussianMixtureIntensity, Grid,
                     LatticeExperiment, MixtureComponent, ObservationModel,
                     PointCloud, UsageError, ValidationError,
                     aptlike_observation_model, case_observation_model,
                     experiment_preset, experiment_presets, h1_diagram,
                     prior_preset, run_experiment, sample_noisy_circle)


def test_prior_presets_complete():
    assert set(PRIOR_PRESETS) == {"informative", "weakly-informative",
                                  "unimodal-uninformative",
                                  "bimodal-uninformative"}
    informative = prior_preset("informative")
    assert len(informative) == 1
    np.testing.assert_array_equal(informative.means, [[0.5, 1.2]])
    assert informative.variances[0] == 0.01
    bimodal = prior_preset("bimodal-uninformative")
    assert len(bimodal) == 2 and bimodal.weights.tolist() == [1.0, 2.0]
    with pytest.raises(UsageError, match="informative"):
        prior_preset("vague")


def test_case_presets_complete():
    assert set(CASE_PRESETS) == {"case1", "case2", "case3", "case4"}
    model, noise = case_observation_model("case1")
    assert (model.alpha, model.likelihood_variance, noise) == (1.0, 0.01, 0.001)
    np.testing.assert_array_equal(model.clutter.means, [[0.5, 0.0]])
    assert model.clutter.variances[0] == 0.1
    model4, noise4 = case_observation_model("case4")
    assert (model4.alpha, model4.likelihood_variance, noise4) == (0.5, 0.1, 0.001)
    with pytest.raises(UsageError, match="case1"):
        case_observation_model("case9")


def test_aptlike_observation_model():
    model = aptlike_observation_model()
    assert model.alpha == 1.0 and model.likelihood_variance == 0.1
    assert model.clutter.weights.tolist() == [5.0]
    np.testing.assert_array_equal(model.clutter.means, [[0.0, 0.0]])


def test_experiment_presets_enumerate_cases_and_priors():
    presets = experiment_presets()
    assert len(presets) == 17
    assert "case1-informative" in presets and "aptlike-cv" in presets
    assert all(cfg.name == name for name, cfg in presets.items())
    assert presets["case3-weakly-informative"].noise_variance == 0.1
    assert presets["aptlike-cv"].kind == "lattice-cv"
    with pytest.raises(UsageError, match="aptlike-cv"):
        experiment_preset("case5-informative")


def test_experiment_config_validation():
    with pytest.raises(ValidationError, match="kind"):
        ExperimentConfig.from_dict({"name": "x", "kind": "bootstrap"})
    with pytest.raises(ValidationError, match="prior"):
        CircleExperiment(name="x", prior=None, observation=None)
    with pytest.raises(ValidationError, match="^data: n must be >= 4, got 2$"):
        CircleExperiment(name="x", prior=prior_preset("informative"),
                         observation=case_observation_model("case1")[0], n=2)
    with pytest.raises(ValidationError, match="n_per_class"):
        LatticeExperiment(name="x", n_per_class=5, folds=10)


def test_experiment_config_round_trips():
    for name in ("case2-bimodal-uninformative", "aptlike-cv"):
        config = experiment_preset(name)
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone == config
    with pytest.raises(ValidationError, match="kind"):
        ExperimentConfig.from_dict({"kind": "who-knows"})
    with pytest.raises(ValidationError, match="keys"):
        ExperimentConfig.from_dict({"kind": "circle-posterior", "prior": []})
    with pytest.raises(ValidationError, match="grid"):
        ExperimentConfig.from_dict({
            **experiment_preset("case1-informative").to_dict(),
            "grid": [0, 3, 0, 3]})


@pytest.mark.parametrize("data, message", [
    ({"n": 2}, "experiment config: data: n must be >= 4, got 2"),
    ({"noise_variance": -1}, "experiment config: data: noise_variance must be >= 0, got -1.0"),
], ids=["n", "noise-variance"])
def test_circle_data_rules_name_their_key_path(data, message):
    config = {**experiment_preset("case1-informative").to_dict(), "data": data}
    with pytest.raises(ValidationError) as info:
        ExperimentConfig.from_dict(config)
    assert str(info.value) == message


POSITIVE = st.floats(0.0, 1e6, exclude_min=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
MIXTURES = st.lists(st.builds(MixtureComponent, POSITIVE, st.tuples(FINITE, FINITE), POSITIVE),
                    max_size=3).map(GaussianMixtureIntensity)
MODELS = st.builds(ObservationModel, st.floats(0.0, 1.0), POSITIVE, MIXTURES)
EXTENTS = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True).map(sorted)
GRIDS = st.builds(lambda xs, ys, nx, ny: Grid(*xs, *ys, nx, ny), EXTENTS, EXTENTS,
                  st.integers(2, 500), st.integers(2, 500))
NAMED = {"name": st.text(max_size=8), "seed": st.integers(0, 2**64)}
CIRCLES = st.builds(CircleExperiment, **NAMED, prior=MIXTURES, observation=MODELS,
                    n=st.integers(4, 10**6), noise_variance=st.floats(0.0, 1e6), grid=GRIDS)
LATTICES = st.integers(2, 50).flatmap(lambda folds: st.builds(
    LatticeExperiment, **NAMED, observation=st.none() | MODELS,
    n_per_class=st.integers(folds, 10**4), cells=st.integers(1, 10), lattice_constant=POSITIVE,
    retention=st.floats(0.0, 1.0, exclude_min=True), folds=st.just(folds)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(config=CIRCLES | LATTICES)
def test_experiment_configs_are_their_json_form(config):
    data = config.to_dict()
    assert ExperimentConfig.from_dict(data) == config
    assert ExperimentConfig.from_dict(json.loads(json.dumps(data))) == config
    # every field is a top-level key or a key of the data or lattice section
    sections = {**data.pop("data", {}), **data.pop("lattice", {})}
    names = {field.name for field in fields(config)}
    assert {**data, **sections}.keys() == names | {"kind"}
    # a field of the other kind is refused, not kept and then dropped
    other = experiment_preset("case1-informative" if config.kind == "lattice-cv"
                              else "aptlike-cv")
    for name in {field.name for field in fields(other)} - names:
        with pytest.raises(TypeError, match=name):
            replace(config, **{name: getattr(other, name)})


def test_h1_diagram_is_quiet_and_restricted():
    cloud = sample_noisy_circle(30, 0.001, 4)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagram = h1_diagram(cloud)
    assert diagram.homology_dims.tolist() in ([], [1])
    assert len(diagram) >= 1


def test_h1_diagram_of_a_point_or_coincident_points_is_empty():
    for points in ([[0.5, 1.0, 2.0]], [[0.5, 1.0], [0.5, 1.0]]):
        diagram = h1_diagram(PointCloud(np.array(points)))
        assert len(diagram) == 0


def small_circle_config(name="case1-informative", **overrides):
    from dataclasses import replace

    from bayespd import Grid
    config = experiment_preset(name)
    return replace(config, n=25, grid=Grid(0.0, 3.0, 0.0, 3.0, 60, 60),
                   **overrides)


def test_run_circle_posterior_manifest(tmp_path):
    config = small_circle_config()
    manifest = run_experiment(config, tmp_path / "out")
    for fname in ("manifest.json", "point_cloud.csv", "observed_diagram.csv",
                  "posterior_grid.csv"):
        assert (tmp_path / "out" / fname).exists()
    assert manifest["config"]["name"] == "case1-informative"
    assert manifest["n_observed_features"] >= 1
    top = manifest["most_persistent_feature"]
    assert top["persistence"] > 0.5  # the circle's loop dominates
    peak = manifest["posterior_argmax"]
    assert peak["scaled_value"] == 1.0
    # alpha = 1 discards the prior: the peak reflects the data components,
    # which sit between the observed features and the prior mean
    assert 0.0 <= peak["x"] <= 1.0 and 1.0 <= peak["y"] <= 2.0
    disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert disk == manifest


def test_run_circle_posterior_mass_bookkeeping(tmp_path):
    # alpha = 1/2 keeps exactly half of the prior mass
    manifest = run_experiment(small_circle_config("case4-informative"),
                              tmp_path / "out")
    masses = manifest["masses"]
    assert masses["prior_retention"] == 0.5 * masses["prior"]
    assert masses["total"] == masses["prior_retention"] + masses["data_term"]


def test_run_experiment_rerun_is_byte_identical(tmp_path):
    config = small_circle_config()
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    for fname in ("manifest.json", "point_cloud.csv", "observed_diagram.csv",
                  "posterior_grid.csv"):
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes())
    # an explicit seed overrides the config seed
    changed = run_experiment(config, tmp_path / "c", seed=8)
    assert changed["config"]["seed"] == 8
    assert ((tmp_path / "c" / "point_cloud.csv").read_bytes()
            != (tmp_path / "a" / "point_cloud.csv").read_bytes())


def test_run_lattice_cv_manifest(tmp_path):
    from dataclasses import replace
    config = replace(experiment_preset("aptlike-cv"), n_per_class=8, folds=2)
    manifest = run_experiment(config, tmp_path / "cv")
    diagrams = sorted(p.name for p in (tmp_path / "cv" / "diagrams").iterdir())
    assert len(diagrams) == 16
    assert diagrams[0] == "bcc_000.csv" and diagrams[-1] == "fcc_007.csv"
    for prior_name in ("kmeans", "flat"):
        section = manifest["results"][prior_name]
        assert 0.0 <= section["mean_auc"] <= 1.0
        assert len(section["fold_aucs"]) == 2
        assert set(section["bootstrap"]) == {"p5", "mean", "p95"}
        report = json.loads((tmp_path / "cv" / f"cv_{prior_name}.json").read_text())
        assert report["auc"] == section["mean_auc"]
        assert report["labels"] == ["bcc", "fcc"]
