"""Bayesian inference over persistence diagrams as Poisson point processes.

The package computes Vietoris-Rips persistence diagrams, models diagram
populations as Poisson point processes with Gaussian-mixture intensities,
evaluates the closed-form posterior intensity given noisy observed
diagrams, samples from the generative observation model, and classifies
diagrams by Bayes factors with a cross-validation harness. A quadrature
oracle evaluates the posterior straight from its defining formula for
verification.
"""

from .classify import (BayesFactorReport, BayesFactorResult, ClassModel,
                       CrossValidationConfig, FlatPrior, KMeansPrior,
                       bayes_factor, bootstrap_auc, cross_validate, kmeans,
                       kmeans_prior, log_poisson_density, roc_curve)
from .diagrams import (PersistenceDiagram, read_diagram, read_diagram_csv,
                       read_diagram_json, write_diagram, write_diagram_csv,
                       write_diagram_json)
from .errors import (BayesPDError, DegenerateObservationError, NumericalError,
                     QuadratureError, SamplingError, SimplexBudgetError,
                     UsageError, ValidationError)
from .intensity import (GaussianMixtureIntensity, MixtureComponent,
                        gaussian_density, gaussian_product, in_wedge,
                        read_mixture_json, wedge_gaussian_mass,
                        write_mixture_json)
from .posterior import (Grid, ObservationModel, PosteriorIntensity,
                        posterior_closed_form, posterior_numeric_oracle,
                        scaled_intensity_grid, write_grid_csv)
from .presets import (CASE_PRESETS, PRIOR_PRESETS, CircleExperiment,
                      ExperimentConfig, LatticeExperiment,
                      aptlike_observation_model, case_observation_model,
                      experiment_preset, experiment_presets, h1_diagram,
                      prior_preset, run_experiment)
from .quadrature import adaptive_quad_2d
from .rips import (FiltrationParams, PointCloud, read_point_cloud_csv,
                   rips_persistence, write_point_cloud_csv)
from .simulate import (LatticeSpec, lattice_sites, sample_lattice,
                       sample_noisy_circle, sample_observation,
                       sample_poisson_pp)

__version__ = "0.1.0"

__all__ = [
    "BayesFactorReport", "BayesFactorResult", "BayesPDError", "CASE_PRESETS",
    "CircleExperiment", "ClassModel", "CrossValidationConfig", "DegenerateObservationError",
    "ExperimentConfig", "FiltrationParams", "FlatPrior", "GaussianMixtureIntensity",
    "Grid", "KMeansPrior", "LatticeExperiment", "LatticeSpec", "MixtureComponent",
    "NumericalError", "ObservationModel", "PRIOR_PRESETS", "PersistenceDiagram",
    "PointCloud", "PosteriorIntensity", "QuadratureError", "SamplingError",
    "SimplexBudgetError", "UsageError", "ValidationError", "adaptive_quad_2d",
    "aptlike_observation_model", "bayes_factor", "bootstrap_auc",
    "case_observation_model", "cross_validate", "experiment_preset",
    "experiment_presets", "gaussian_density", "gaussian_product",
    "h1_diagram", "in_wedge", "kmeans", "kmeans_prior", "lattice_sites",
    "log_poisson_density", "posterior_closed_form",
    "posterior_numeric_oracle", "prior_preset", "read_diagram",
    "read_diagram_csv", "read_diagram_json", "read_mixture_json",
    "read_point_cloud_csv", "rips_persistence", "roc_curve", "run_experiment",
    "sample_lattice", "sample_noisy_circle", "sample_observation",
    "sample_poisson_pp", "scaled_intensity_grid", "wedge_gaussian_mass",
    "write_diagram", "write_diagram_csv", "write_diagram_json",
    "write_grid_csv", "write_mixture_json", "write_point_cloud_csv",
]
