"""Workloads of the bayespd benchmark: generated inputs, jobs and output checks.

A job is one ``bayespd.cli.main(argv)`` call that writes into its own output
directory, plus a check of what it wrote. Inputs are generated from the
workload seed before anything is timed; the program receives only those
inputs and ``--seed``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CIRCLE_CASES = ("case1", "case2", "case3", "case4")
CIRCLE_PRIORS = ("bimodal-uninformative", "informative",
                 "unimodal-uninformative", "weakly-informative")
CIRCLE_SEEDS_PER_PRESET = 2

#: observed points over all diagrams, fixed so that the posterior has the
#: same number of data components (3 per point) at every seed
DENSE_POINTS = 324
DENSE_GRID = (0.0, 3.0, 0.0, 3.0, 200, 200)
#: the oracle compares every ORACLE_STEP-th grid line: 12 of the 200
ORACLE_STEP = 18
ORACLE_RTOL = 1e-6
DENSE_PRIOR = [
    {"weight": 3.0, "mean": [0.6, 1.2], "variance": 0.05},
    {"weight": 3.0, "mean": [1.4, 0.6], "variance": 0.05},
    {"weight": 2.0, "mean": [1.0, 1.8], "variance": 0.05},
]
DENSE_MODEL = {
    "alpha": 0.95,
    "likelihood_variance": 0.02,
    "clutter": [{"weight": 1.0, "mean": [0.5, 0.0], "variance": 0.1}],
}


@dataclass
class Job:
    name: str
    argv: list[str]
    outdir: Path
    #: problems found in ``outdir`` after the job; empty when it is correct
    check: Callable[[Path], list[str]] = lambda outdir: []


@dataclass
class Workload:
    jobs: list[Job]
    #: small untimed jobs through the same code, run once before timing
    warmup: list[Job]
    #: run once per invocation on the last timed run's outputs
    final_check: Callable[[], list[str]] | None = None


def read_grid_csv(path: Path) -> np.ndarray:
    """Values of a ``write_grid_csv`` file, without its axis row and column."""
    rows = Path(path).read_text().splitlines()[1:]
    return np.array([row.split(",")[1:] for row in rows], dtype=np.float64)


def _finite_masses(masses: dict) -> list[str]:
    return [f"mass {key} = {value!r} is not finite and >= 0"
            for key, value in sorted(masses.items())
            if not (math.isfinite(value) and value >= 0.0)]


def _check_lattice(outdir: Path) -> list[str]:
    manifest = json.loads((outdir / "manifest.json").read_text())
    aucs = {name: result["mean_auc"]
            for name, result in manifest["results"].items()}
    problems = [f"{name} mean AUC {auc:.4f} < 0.90"
                for name, auc in sorted(aucs.items()) if not auc >= 0.90]
    if not abs(aucs["kmeans"] - aucs["flat"]) <= 0.05:
        problems.append(f"AUC gap {abs(aucs['kmeans'] - aucs['flat']):.4f} > 0.05")
    for name in ("kmeans", "flat"):
        report = json.loads((outdir / f"cv_{name}.json").read_text())
        if report["n_undecidable"] != 0:
            problems.append(f"{name}: {report['n_undecidable']} undecidable")
    return problems


def _check_circle(outdir: Path) -> list[str]:
    manifest = json.loads((outdir / "manifest.json").read_text())
    masses = manifest["masses"]
    problems = _finite_masses(masses)
    peak = float(read_grid_csv(outdir / "posterior_grid.csv").max())
    if peak != 1.0:
        problems.append(f"scaled grid maximum {peak!r} != 1.0")
    if (manifest["config"]["name"].startswith("case4-")
            and masses["prior_retention"] != 0.5 * masses["prior"]):
        problems.append(f"prior_retention {masses['prior_retention']!r} != "
                        f"0.5 * prior {masses['prior']!r}")
    return problems


def _check_dense(scaled: bool) -> Callable[[Path], list[str]]:
    def check(outdir: Path) -> list[str]:
        values = read_grid_csv(outdir / "grid.csv")
        summary = json.loads((outdir / "summary.json").read_text())
        problems = _finite_masses(summary["masses"])
        if values.shape != (DENSE_GRID[5], DENSE_GRID[4]):
            problems.append(f"grid shape {values.shape}")
        if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
            problems.append("grid has negative or non-finite values")
        if scaled and float(values.max()) != 1.0:
            problems.append(f"scaled grid maximum {values.max()!r} != 1.0")
        return problems
    return check


def _lattice_cv(seed: int, inputs: Path, out: Path) -> Workload:
    warmup_config = inputs / "warmup-cv.json"
    warmup_config.write_text(json.dumps(
        {"name": "warmup", "kind": "lattice-cv", "seed": seed,
         "n_per_class": 20, "folds": 10}))
    job = Job("aptlike-cv", ["experiment", "--preset", "aptlike-cv",
                             "--seed", str(seed), "--outdir",
                             str(out / "aptlike-cv")],
              out / "aptlike-cv", _check_lattice)
    warm = Job("warmup", ["experiment", "--config", str(warmup_config),
                          "--outdir", str(out / "warmup")], out / "warmup")
    return Workload([job], [warm])


def _circle_sweep(seed: int, inputs: Path, out: Path) -> Workload:
    jobs = []
    for case in CIRCLE_CASES:
        for prior in CIRCLE_PRIORS:
            for k in range(CIRCLE_SEEDS_PER_PRESET):
                job_seed = CIRCLE_SEEDS_PER_PRESET * seed + k
                name = f"{case}-{prior}-s{job_seed}"
                jobs.append(Job(name, ["experiment", "--preset",
                                       f"{case}-{prior}", "--seed",
                                       str(job_seed), "--outdir",
                                       str(out / name)],
                                out / name, _check_circle))
    warm = Job("warmup", ["experiment", "--preset", "case1-informative",
                          "--seed", str(seed), "--outdir",
                          str(out / "warmup")], out / "warmup")
    return Workload(jobs, [warm])


def dense_observations(seed: int):
    """The observed diagrams of ``dense-posterior``: latent diagrams drawn
    from DENSE_PRIOR and pushed through DENSE_MODEL until DENSE_POINTS
    points are observed (about 40 diagrams); the last one is cut short."""
    from bayespd.diagrams import PersistenceDiagram
    from bayespd.intensity import GaussianMixtureIntensity
    from bayespd.posterior import ObservationModel
    from bayespd.simulate import sample_observation, sample_poisson_pp

    prior = GaussianMixtureIntensity.from_list(DENSE_PRIOR)
    model = ObservationModel.from_dict(DENSE_MODEL)
    observations, remaining = [], DENSE_POINTS
    while remaining:
        rng = np.random.default_rng([seed, len(observations)])
        observed = sample_observation(model, sample_poisson_pp(prior, rng), rng)
        if len(observed) > remaining:
            observed = PersistenceDiagram(observed.births[:remaining],
                                          observed.deaths[:remaining],
                                          observed.dims[:remaining])
        remaining -= len(observed)
        observations.append(observed)
    return prior, model, observations


def _dense_posterior(seed: int, inputs: Path, out: Path) -> Workload:
    from bayespd.diagrams import write_diagram
    from bayespd.posterior import Grid, posterior_numeric_oracle

    prior, model, observations = dense_observations(seed)
    prior_path, model_path = inputs / "prior.json", inputs / "model.json"
    prior_path.write_text(json.dumps(DENSE_PRIOR))
    model_path.write_text(json.dumps(DENSE_MODEL))
    obs_paths = []
    for i, diagram in enumerate(observations):
        path = inputs / f"obs_{i:02d}.{'csv' if i % 2 == 0 else 'json'}"
        write_diagram(diagram, path)
        obs_paths.append(str(path))

    def job(name, grid, extra=()):
        outdir = out / name
        argv = ["posterior", "--prior", str(prior_path), "--model",
                str(model_path), "--obs", *obs_paths, "--grid",
                ",".join(str(v) for v in grid), "--out",
                str(outdir / "grid.csv"), "--summary",
                str(outdir / "summary.json"), *extra]
        return Job(name, argv, outdir, _check_dense("--scaled" in extra))

    jobs = [job("unscaled", DENSE_GRID), job("scaled", DENSE_GRID, ["--scaled"])]
    warmup = [job("warmup-unscaled", (0.0, 3.0, 0.0, 3.0, 20, 20)),
              job("warmup-scaled", (0.0, 3.0, 0.0, 3.0, 20, 20), ["--scaled"])]

    def oracle_check() -> list[str]:
        """Unscaled grid against the quadrature oracle on a 12x12 sub-grid."""
        closed = read_grid_csv(jobs[0].outdir / "grid.csv")
        closed = closed[::ORACLE_STEP, ::ORACLE_STEP]
        full = Grid(*DENSE_GRID)
        xs, ys = full.x_axis[::ORACLE_STEP], full.y_axis[::ORACLE_STEP]
        sub = Grid(xs[0], xs[-1], ys[0], ys[-1], len(xs), len(ys))
        numeric = posterior_numeric_oracle(prior, model, observations, sub)
        big = np.maximum(closed, numeric)
        mask = big > 1e-12
        worst = float((np.abs(closed - numeric)[mask] / big[mask]).max())
        if not worst < ORACLE_RTOL:
            return [f"oracle relative error {worst:.3e} >= {ORACLE_RTOL}"]
        return []

    return Workload(jobs, warmup, oracle_check)


_WORKLOADS = {"lattice-cv": _lattice_cv, "circle-sweep": _circle_sweep,
             "dense-posterior": _dense_posterior}
NAMES = tuple(_WORKLOADS)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` under ``workdir/inputs`` and
    return its jobs, which write under ``workdir/out``."""
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    return _WORKLOADS[name](seed, inputs, workdir / "out")
