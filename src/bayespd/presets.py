"""Named experiment presets and the experiment runner.

Each experiment kind is one class: ``CircleExperiment`` (``circle-posterior``,
the circle posterior case studies) and ``LatticeExperiment`` (``lattice-cv``,
the BCC/FCC Bayes-factor study). Presets combine four named priors with four
observation "cases" plus the ``aptlike-cv`` classification study. Reruns
with the same seed write byte-identical files.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from ._util import as_finite, as_integer, derived_rng, json_object, key_path, write_json
from .classify import PRIOR_SPECS, CrossValidationConfig, cross_validate
from .diagrams import write_diagram_csv
from .errors import UsageError, ValidationError
from .intensity import GaussianMixtureIntensity, MixtureComponent
from .posterior import (Grid, ObservationModel, grid_argmax, mass_summary,
                        posterior_closed_form, scaled_intensity_grid,
                        write_grid_csv)
from .rips import FiltrationParams, rips_persistence, write_point_cloud_csv
from .simulate import LatticeSpec, sample_lattice, sample_noisy_circle

DEFAULT_GRID = Grid(0.0, 3.0, 0.0, 3.0, 200, 200)

#: Named priors over tilted coordinates (weight, mean, variance).
PRIOR_PRESETS: dict[str, tuple[tuple[float, tuple[float, float], float], ...]] = {
    "informative": ((1.0, (0.5, 1.2), 0.01),),
    "weakly-informative": ((1.0, (0.5, 1.2), 0.2),),
    "unimodal-uninformative": ((1.0, (1.0, 1.0), 1.0),),
    "bimodal-uninformative": ((1.0, (0.5, 0.5), 0.2), (2.0, (1.5, 1.5), 0.2)),
}

#: Observation cases: (likelihood_variance, clutter_variance, alpha,
#: circle noise variance). The clutter is always one component of weight 1
#: at (0.5, 0) with the stated variance.
CASE_PRESETS: dict[str, tuple[float, float, float, float]] = {
    "case1": (0.01, 0.1, 1.0, 0.001),
    "case2": (0.1, 0.1, 1.0, 0.01),
    "case3": (0.01, 0.1, 1.0, 0.1),
    "case4": (0.1, 0.1, 0.5, 0.001),
}


def _lookup(kind: str, presets: dict, name: str):
    """``presets[name]``; an unknown name is a UsageError listing the names."""
    try:
        return presets[name]
    except KeyError:
        raise UsageError(f"unknown {kind} preset {name!r}; available: "
                         f"{', '.join(sorted(presets))}") from None


def prior_preset(name: str) -> GaussianMixtureIntensity:
    spec = _lookup("prior", PRIOR_PRESETS, name)
    return GaussianMixtureIntensity([MixtureComponent(w, m, v) for w, m, v in spec])


def case_observation_model(name: str) -> tuple[ObservationModel, float]:
    """The observation model and circle noise variance of a named case."""
    lv, clutter_var, alpha, noise_var = _lookup("case", CASE_PRESETS, name)
    clutter = GaussianMixtureIntensity(
        [MixtureComponent(1.0, (0.5, 0.0), clutter_var)])
    return ObservationModel(alpha, lv, clutter), noise_var


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """What every experiment kind has: a name and a seed, from which all of its
    randomness derives. Each kind's class names its ``kind`` and its
    ``json_keys``, the required and the optional keys of its JSON form."""

    name: str = "custom"
    seed: int = 7

    def __post_init__(self):
        object.__setattr__(self, "seed", as_integer(self.seed, "seed", ge=0))

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "seed": self.seed}

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """The experiment of the JSON object ``data``, of the class its ``kind``
        names. Each other key, and each key of a ``data`` or ``lattice``
        section, is the class's field of the same name."""
        kinds = {config.kind: config for config in (CircleExperiment, LatticeExperiment)}
        with json_object(data, "experiment config", ("kind",), data):
            if not isinstance(data["kind"], str) or data["kind"] not in kinds:
                raise ValidationError(f"experiment kind must be {' or '.join(map(repr, kinds))}"
                                      f", got {data['kind']!r}")
        experiment = kinds[data["kind"]]
        with json_object(data, "experiment config", *experiment.json_keys):
            fields = {key: value for key, value in data.items() if key != "kind"}
            if fields.get("observation") is not None:
                fields["observation"] = ObservationModel.from_dict(fields["observation"],
                                                                   "observation")
            return experiment(**experiment.read_sections(fields))


@dataclass(frozen=True, kw_only=True)
class CircleExperiment(ExperimentConfig):
    """Sample a noisy circle of ``n`` points, take its H1 rips diagram as the
    observed diagram, and write the observed diagram, the peak-scaled
    posterior grid under ``prior`` and ``observation``, and a manifest with
    masses and the posterior argmax."""

    kind = "circle-posterior"
    json_keys = (("kind", "prior", "observation", "data"), ("name", "seed", "grid"))

    prior: GaussianMixtureIntensity
    observation: ObservationModel
    n: int = 50
    noise_variance: float = 0.001
    grid: Grid = DEFAULT_GRID

    def __post_init__(self):
        super().__post_init__()
        if self.prior is None or self.observation is None:
            raise ValidationError("circle-posterior experiments need a prior and an "
                                  "observation model")
        object.__setattr__(self, "n", as_integer(self.n, "data: n", ge=4))
        object.__setattr__(self, "noise_variance", as_finite(
            self.noise_variance, "data: noise_variance", ge=0))

    def to_dict(self) -> dict:
        return {**super().to_dict(), "prior": self.prior.to_list(),
                "observation": self.observation.to_dict(),
                "data": {"n": self.n, "noise_variance": self.noise_variance},
                "grid": list(astuple(self.grid))}

    @staticmethod
    def read_sections(fields: dict) -> dict:
        fields["prior"] = GaussianMixtureIntensity.from_list(fields["prior"], "prior")
        with json_object(fields.pop("data"), "data", (), ("n", "noise_variance")) as sample:
            fields.update(sample)
        if "grid" in fields:
            if not isinstance(fields["grid"], list) or len(fields["grid"]) != 6:
                raise ValidationError("grid must be [x0, x1, y0, y1, nx, ny]")
            fields["grid"] = Grid(*fields["grid"])
        return fields

    def run(self, outdir: Path) -> dict:
        """Write the outputs into ``outdir``; return the manifest."""
        cloud = sample_noisy_circle(self.n, self.noise_variance, derived_rng(self.seed, 0))
        observed = h1_diagram(cloud)
        posterior = posterior_closed_form(self.prior, self.observation, [observed])
        values = scaled_intensity_grid(posterior, self.grid)

        most_persistent = None
        if len(observed):
            top = int(np.argmax(observed.persistences))
            most_persistent = {"birth": float(observed.births[top]),
                               "persistence": float(observed.persistences[top])}

        write_point_cloud_csv(cloud, outdir / "point_cloud.csv")
        write_diagram_csv(observed, outdir / "observed_diagram.csv")
        write_grid_csv(outdir / "posterior_grid.csv", self.grid, values)

        return {
            "config": self.to_dict(),
            "outputs": {"point_cloud": "point_cloud.csv", "posterior_grid": "posterior_grid.csv",
                        "observed_diagram": "observed_diagram.csv"},
            "n_observed_features": len(observed),
            "most_persistent_feature": most_persistent,
            "posterior_argmax": grid_argmax(self.grid, values, "scaled_value"),
            "masses": mass_summary(posterior),
        }

    def summary(self, manifest: dict, outdir) -> str:
        """What ``bayespd experiment`` prints after the run."""
        argmax = manifest["posterior_argmax"]
        return (f"{self.name}: posterior argmax ({argmax['x']:.4f}, {argmax['y']:.4f}), "
                f"total mass {manifest['masses']['total']:.6g}; outputs in {outdir}")


@dataclass(frozen=True, kw_only=True)
class LatticeExperiment(ExperimentConfig):
    """Sample ``n_per_class`` BCC and FCC clouds of ``cells`` unit cells per
    axis, write their H1 diagrams, and run the ``folds``-fold Bayes-factor
    cross-validation under the k-means-elicited and the flat prior, writing
    both reports and a manifest. No ``observation`` means the study's own,
    ``aptlike_observation_model()``."""

    kind = "lattice-cv"
    json_keys = (("kind",), ("name", "seed", "observation", "n_per_class", "lattice", "folds"))

    observation: ObservationModel | None = None
    n_per_class: int = 200
    cells: int = 2
    lattice_constant: float = 2.0
    retention: float = 0.35
    folds: int = 10

    def __post_init__(self):
        super().__post_init__()
        with key_path("lattice"):
            spec = LatticeSpec("bcc", self.cells, self.lattice_constant, self.retention)
        for key in ("cells", "lattice_constant", "retention"):
            object.__setattr__(self, key, getattr(spec, key))
        object.__setattr__(self, "n_per_class", as_integer(self.n_per_class, "n_per_class"))
        object.__setattr__(self, "folds", as_integer(self.folds, "folds", ge=2))
        if self.n_per_class < self.folds:
            raise ValidationError("n_per_class must be >= folds")

    def to_dict(self) -> dict:
        return {**super().to_dict(),
                "observation": self.observation.to_dict() if self.observation else None,
                "n_per_class": self.n_per_class, "folds": self.folds,
                "lattice": {"cells": self.cells, "lattice_constant": self.lattice_constant,
                            "retention": self.retention}}

    @staticmethod
    def read_sections(fields: dict) -> dict:
        with json_object(fields.pop("lattice", {}), "lattice", (),
                         ("cells", "lattice_constant", "retention")) as lattice:
            fields.update(lattice)
        return fields

    def cv_configs(self) -> dict[str, CrossValidationConfig]:
        """The study's cross-validation under each of its priors, by name."""
        observation = self.observation or aptlike_observation_model()
        return {name: CrossValidationConfig(observation=observation, prior=prior,
                                            folds=self.folds, rng_seed=self.seed,
                                            labels=("bcc", "fcc"))
                for name, prior in PRIOR_SPECS.items()}

    def run(self, outdir: Path) -> dict:
        """Write the outputs into ``outdir``; return the manifest."""
        diagrams_dir = outdir / "diagrams"
        diagrams_dir.mkdir(parents=True, exist_ok=True)

        populations: dict[str, list] = {}
        for class_index, structure in enumerate(("bcc", "fcc")):
            spec = LatticeSpec(structure, self.cells, self.lattice_constant, self.retention)
            diagrams = []
            for i in range(self.n_per_class):
                cloud = sample_lattice(spec, derived_rng(self.seed, class_index, i))
                diagram = h1_diagram(cloud)
                write_diagram_csv(diagram, diagrams_dir / f"{structure}_{i:03d}.csv")
                diagrams.append(diagram)
            populations[structure] = diagrams

        reports = {}
        for prior_name, cv_config in self.cv_configs().items():
            report = cross_validate(populations["bcc"], populations["fcc"], cv_config)
            report.write_json(outdir / f"cv_{prior_name}.json")
            reports[prior_name] = report

        return {
            "config": self.to_dict(),
            "outputs": {"diagrams_dir": "diagrams",
                        "cv_reports": {name: f"cv_{name}.json" for name in reports}},
            "results": {name: {"mean_auc": rep.auc, "fold_aucs": list(rep.fold_aucs),
                               "bootstrap": rep.bootstrap_percentiles}
                        for name, rep in reports.items()},
        }

    def summary(self, manifest: dict, outdir) -> str:
        """What ``bayespd experiment`` prints after the run."""
        lines = [f"{self.name} [{prior_name}]: mean AUC {result['mean_auc']:.4f}"
                 for prior_name, result in sorted(manifest["results"].items())]
        return "\n".join([*lines, f"outputs in {outdir}"])


def aptlike_observation_model() -> ObservationModel:
    """Observation model of the lattice study: alpha 1, mark variance 0.1,
    clutter 5 N*((0,0), 0.2 I)."""
    clutter = GaussianMixtureIntensity([MixtureComponent(5.0, (0.0, 0.0), 0.2)])
    return ObservationModel(1.0, 0.1, clutter)


#: the name of every experiment preset: each case under each prior, then the lattice study
_EXPERIMENT_NAMES = (*(f"{case}-{prior}" for case in sorted(CASE_PRESETS)
                        for prior in sorted(PRIOR_PRESETS)), "aptlike-cv")


def experiment_presets() -> dict[str, ExperimentConfig]:
    return {name: experiment_preset(name) for name in _EXPERIMENT_NAMES}


def experiment_preset(name: str) -> ExperimentConfig:
    _lookup("experiment", dict.fromkeys(_EXPERIMENT_NAMES), name)  # lists them all if unknown
    if name == "aptlike-cv":
        return LatticeExperiment(name=name, observation=aptlike_observation_model())
    case, _, prior_name = name.partition("-")
    model, noise_var = case_observation_model(case)
    return CircleExperiment(name=name, prior=prior_preset(prior_name), observation=model,
                            noise_variance=noise_var)


# -- runner -------------------------------------------------------------------

def h1_diagram(cloud):
    """H1 rips diagram of a cloud over its full filtration, so every loop
    closes; a cloud of one point, or of coincident points, has none."""
    with warnings.catch_warnings():
        # the lone essential H0 component is structural in the full complex
        warnings.filterwarnings("ignore", message=".*essential class.*")
        params = FiltrationParams(max_homology_dim=1)
        return rips_persistence(cloud, params).restrict(1)


def run_experiment(config: ExperimentConfig, outdir,
                   seed: int | None = None) -> dict:
    """Run one experiment into ``outdir`` and return the manifest (also
    written as manifest.json). All randomness derives from the config seed,
    so reruns are byte-identical."""
    if seed is not None:
        config = replace(config, seed=int(seed))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = config.run(outdir)
    write_json(outdir / "manifest.json", manifest, sort_keys=True)
    return manifest
