"""Named experiment presets and the experiment runner.

Two experiment kinds exist:

* ``circle-posterior``: sample a noisy circle, take its H1 rips diagram as
  the observed diagram, compute the closed-form posterior under a named
  prior/observation pair, and write the observed diagram, the peak-scaled
  posterior grid, and a manifest with masses and the posterior argmax.
* ``lattice-cv``: build synthetic BCC and FCC diagram populations and run
  the 10-fold Bayes-factor cross-validation under both a k-means-elicited
  prior and a flat prior, writing both reports and a manifest.

Presets combine four named priors with four observation "cases" plus the
``aptlike-cv`` classification study. Reruns with the same seed write
byte-identical files.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from ._util import as_finite, as_integer, derived_rng, json_object, write_json
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one experiment deterministically."""

    name: str
    kind: str  # "circle-posterior" | "lattice-cv"
    seed: int = 7
    # circle-posterior section
    prior: GaussianMixtureIntensity | None = None
    observation: ObservationModel | None = None
    circle_n: int = 50
    circle_noise_variance: float = 0.001
    grid: Grid = DEFAULT_GRID
    # lattice-cv section
    n_per_class: int = 200
    lattice_cells: int = 2
    lattice_constant: float = 2.0
    lattice_retention: float = 0.35
    folds: int = 10

    def __post_init__(self):
        if self.kind not in ("circle-posterior", "lattice-cv"):
            raise ValidationError(
                f"experiment kind must be 'circle-posterior' or 'lattice-cv', "
                f"got {self.kind!r}")
        as_integer(self.seed, "seed", ge=0)
        if self.kind == "circle-posterior":
            if self.prior is None or self.observation is None:
                raise ValidationError("circle-posterior experiments need a prior and an "
                                      "observation model")
            as_integer(self.circle_n, "circle_n", ge=4)
            as_finite(self.circle_noise_variance, "circle_noise_variance", ge=0)
        else:
            # the run's own specs check their fields before anything is written
            self.lattice_spec("bcc")
            self.cv_configs()
            if self.n_per_class < self.folds:
                raise ValidationError("n_per_class must be >= folds")

    def lattice_spec(self, structure: str) -> LatticeSpec:
        """The spec every ``structure`` cloud of the study is sampled from."""
        return LatticeSpec(structure=structure, cells=self.lattice_cells,
                           lattice_constant=self.lattice_constant,
                           retention=self.lattice_retention)

    def cv_configs(self) -> dict[str, CrossValidationConfig]:
        """The study's cross-validation under each of its priors, by name."""
        observation = self.observation or aptlike_observation_model()
        return {name: CrossValidationConfig(observation=observation, prior=prior,
                                            folds=self.folds, rng_seed=self.seed,
                                            labels=("bcc", "fcc"))
                for name, prior in PRIOR_SPECS.items()}

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind, "seed": self.seed}
        if self.kind == "circle-posterior":
            out.update({
                "prior": self.prior.to_list(),
                "observation": self.observation.to_dict(),
                "data": {"n": self.circle_n,
                         "noise_variance": self.circle_noise_variance},
                "grid": list(astuple(self.grid)),
            })
        else:
            out.update({
                "observation": self.observation.to_dict()
                if self.observation else None,
                "n_per_class": self.n_per_class,
                "lattice": {"cells": self.lattice_cells,
                            "lattice_constant": self.lattice_constant,
                            "retention": self.lattice_retention},
                "folds": self.folds,
            })
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        kind = data.get("kind") if isinstance(data, dict) else None
        circle = kind == "circle-posterior"
        required = ("kind", "prior", "observation", "data") if circle else ("kind",)
        optional = (("name", "seed", "grid") if circle else
                    ("name", "seed", "observation", "n_per_class", "lattice", "folds")
                    if kind == "lattice-cv" else data)  # the constructor refuses the kind
        with json_object(data, "experiment config", required, optional):
            fields = dict(name=data.get("name", "custom"), kind=kind,
                          seed=as_integer(data.get("seed", 7), "seed"))
            if data.get("observation") is not None:
                fields["observation"] = ObservationModel.from_dict(data["observation"],
                                                                   "observation")
            if circle:
                grid = data.get("grid", list(astuple(DEFAULT_GRID)))
                if not isinstance(grid, list) or len(grid) != 6:
                    raise ValidationError("grid must be [x0, x1, y0, y1, nx, ny]")
                with json_object(data["data"], "data", (), ("n", "noise_variance")) as sample:
                    n, noise_variance = sample.get("n", 50), sample.get("noise_variance", 0.001)
                    fields.update(circle_n=as_integer(n, "n"), circle_noise_variance=as_finite(
                        noise_variance, "noise_variance"))
                fields.update(
                    prior=GaussianMixtureIntensity.from_list(data["prior"], "prior"),
                    grid=Grid(*[as_finite(v, "grid extents") for v in grid[:4]],
                              as_integer(grid[4], "grid nx"), as_integer(grid[5], "grid ny")))
            elif kind == "lattice-cv":
                with json_object(data.get("lattice", {}), "lattice", (),
                                 ("cells", "lattice_constant", "retention")) as lattice:
                    spec = LatticeSpec("bcc", **lattice)
                fields.update(
                    lattice_cells=spec.cells, lattice_constant=spec.lattice_constant,
                    lattice_retention=spec.retention,
                    n_per_class=as_integer(data.get("n_per_class", 200), "n_per_class"),
                    folds=as_integer(data.get("folds", 10), "folds"))
            return cls(**fields)


def aptlike_observation_model() -> ObservationModel:
    """Observation model of the lattice study: alpha 1, mark variance 0.1,
    clutter 5 N*((0,0), 0.2 I)."""
    clutter = GaussianMixtureIntensity([MixtureComponent(5.0, (0.0, 0.0), 0.2)])
    return ObservationModel(1.0, 0.1, clutter)


def experiment_presets() -> dict[str, ExperimentConfig]:
    presets: dict[str, ExperimentConfig] = {}
    for case in sorted(CASE_PRESETS):
        model, noise_var = case_observation_model(case)
        for prior_name in sorted(PRIOR_PRESETS):
            name = f"{case}-{prior_name}"
            presets[name] = ExperimentConfig(
                name=name, kind="circle-posterior",
                prior=prior_preset(prior_name), observation=model,
                circle_noise_variance=noise_var)
    presets["aptlike-cv"] = ExperimentConfig(
        name="aptlike-cv", kind="lattice-cv",
        observation=aptlike_observation_model())
    return presets


def experiment_preset(name: str) -> ExperimentConfig:
    return _lookup("experiment", experiment_presets(), name)


# -- runner -------------------------------------------------------------------

def h1_diagram(cloud):
    """H1 rips diagram of a cloud over its full filtration, so every loop
    closes; a cloud of one point, or of coincident points, has none."""
    with warnings.catch_warnings():
        # the lone essential H0 component is structural in the full complex
        warnings.filterwarnings("ignore", message=".*essential class.*")
        params = FiltrationParams(max_homology_dim=1)
        return rips_persistence(cloud, params).restrict(1)


def _run_circle_posterior(config: ExperimentConfig, outdir: Path) -> dict:
    cloud = sample_noisy_circle(config.circle_n, config.circle_noise_variance,
                                derived_rng(config.seed, 0))
    observed = h1_diagram(cloud)
    posterior = posterior_closed_form(config.prior, config.observation,
                                      [observed])
    values = scaled_intensity_grid(posterior, config.grid)

    if len(observed):
        top = int(np.argmax(observed.persistences))
        most_persistent = {"birth": float(observed.births[top]),
                           "persistence": float(observed.persistences[top])}
    else:
        most_persistent = None

    write_point_cloud_csv(cloud, outdir / "point_cloud.csv")
    write_diagram_csv(observed, outdir / "observed_diagram.csv")
    write_grid_csv(outdir / "posterior_grid.csv", config.grid, values)

    return {
        "config": config.to_dict(),
        "outputs": {
            "point_cloud": "point_cloud.csv",
            "observed_diagram": "observed_diagram.csv",
            "posterior_grid": "posterior_grid.csv",
        },
        "n_observed_features": len(observed),
        "most_persistent_feature": most_persistent,
        "posterior_argmax": grid_argmax(config.grid, values, "scaled_value"),
        "masses": mass_summary(posterior),
    }


def _run_lattice_cv(config: ExperimentConfig, outdir: Path) -> dict:
    diagrams_dir = outdir / "diagrams"
    diagrams_dir.mkdir(parents=True, exist_ok=True)

    populations: dict[str, list] = {}
    for class_index, structure in enumerate(("bcc", "fcc")):
        spec = config.lattice_spec(structure)
        diagrams = []
        for i in range(config.n_per_class):
            cloud = sample_lattice(spec, derived_rng(config.seed, class_index, i))
            diagram = h1_diagram(cloud)
            write_diagram_csv(diagram,
                              diagrams_dir / f"{structure}_{i:03d}.csv")
            diagrams.append(diagram)
        populations[structure] = diagrams

    reports = {}
    for prior_name, cv_config in config.cv_configs().items():
        report = cross_validate(populations["bcc"], populations["fcc"], cv_config)
        report.write_json(outdir / f"cv_{prior_name}.json")
        reports[prior_name] = report

    return {
        "config": config.to_dict(),
        "outputs": {
            "diagrams_dir": "diagrams",
            "cv_reports": {name: f"cv_{name}.json" for name in reports},
        },
        "results": {
            name: {
                "mean_auc": rep.auc,
                "fold_aucs": list(rep.fold_aucs),
                "bootstrap": rep.bootstrap_percentiles,
            } for name, rep in reports.items()
        },
    }


def run_experiment(config: ExperimentConfig, outdir,
                   seed: int | None = None) -> dict:
    """Run one experiment into ``outdir`` and return the manifest (also
    written as manifest.json). All randomness derives from the config seed,
    so reruns are byte-identical."""
    if seed is not None:
        config = replace(config, seed=int(seed))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if config.kind == "circle-posterior":
        manifest = _run_circle_posterior(config, outdir)
    else:
        manifest = _run_lattice_cv(config, outdir)
    write_json(outdir / "manifest.json", manifest, sort_keys=True)
    return manifest
