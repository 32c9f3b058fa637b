"""Command-line interface.

Subcommands: ``compute-pd``, ``posterior``, ``simulate`` (circle, lattice,
diagram), ``classify``, ``experiment``, ``config-validate``. Config files
are JSON; every random choice is driven by ``--seed``, so reruns produce
byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import astuple
from pathlib import Path

from . import __version__
from ._util import derived_rng, from_json, write_json
from .classify import CrossValidationConfig, PriorSpec, cross_validate
from .diagrams import read_diagram, read_diagram_json, write_diagram
from .errors import NumericalError, UsageError, ValidationError
from .intensity import GaussianMixtureIntensity, read_mixture_json
from .posterior import (Grid, ObservationModel, grid_argmax, mass_summary,
                        posterior_closed_form, scaled_intensity_grid,
                        write_grid_csv)
from .presets import (DEFAULT_GRID, PRIOR_PRESETS, ExperimentConfig,
                      experiment_preset, experiment_presets, prior_preset,
                      run_experiment)
from .rips import (DEFAULT_SIMPLEX_BUDGET, FiltrationParams,
                   read_point_cloud_csv, rips_persistence,
                   write_point_cloud_csv)
from .simulate import (LatticeSpec, sample_lattice, sample_noisy_circle,
                       sample_observation, sample_poisson_pp)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose errors surface as UsageError (exit code 1)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# -- argument helpers ----------------------------------------------------------

def parse_grid(text: str) -> Grid:
    """Parse ``x0,x1,y0,y1,nx,ny`` into a Grid."""
    parts = text.split(",")
    if len(parts) != 6:
        raise UsageError(f"--grid needs x0,x1,y0,y1,nx,ny, got {text!r}")
    try:
        extents = [float(p) for p in parts[:4]]
        nx, ny = int(parts[4]), int(parts[5])
    except ValueError:
        raise UsageError(f"--grid needs four reals and two integers, got {text!r}") from None
    try:
        return Grid(*extents, nx, ny)
    except ValidationError as exc:
        raise UsageError(f"--grid: {exc}") from None


def non_negative_int(text: str) -> int:
    """argparse type of the ``--seed`` options (numpy refuses negative seeds)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def parse_prior_mode(text: str) -> PriorSpec:
    """Parse a prior mini-spec: ``kmeans:k=3,var=2`` or
    ``flat:mean=1,1,var=20`` (tuple values keep their commas)."""
    kind, _, body = text.partition(":")
    kind = kind.strip()
    if kind not in ("kmeans", "flat"):
        raise UsageError(
            f"--prior-mode must start with 'kmeans:' or 'flat:', got {text!r}")
    tokens: list[str] = []
    for raw in body.split(",") if body else []:
        if "=" in raw or not tokens:
            tokens.append(raw)
        else:
            tokens[-1] += "," + raw
    params: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"--prior-mode: bad parameter {token!r} in {text!r}")
        params[key.strip()] = value.strip()
    allowed = {"k", "var", "weight"} if kind == "kmeans" else {"mean", "var", "weight"}
    unknown = set(params) - allowed
    if unknown:
        raise UsageError(
            f"--prior-mode: unknown {kind} parameter(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")
    try:
        if kind == "kmeans":
            return PriorSpec(kind="kmeans",
                             k=int(params.get("k", 3)),
                             variance=float(params.get("var", 2.0)),
                             weight=float(params.get("weight", 1.0)))
        mean_parts = params.get("mean", "1,1").split(",")
        if len(mean_parts) != 2:
            raise UsageError(f"--prior-mode: mean needs two coordinates, got "
                             f"{params.get('mean')!r}")
        return PriorSpec(kind="flat",
                         mean=(float(mean_parts[0]), float(mean_parts[1])),
                         variance=float(params.get("var", 20.0)),
                         weight=float(params.get("weight", 1.0)))
    except ValidationError as exc:
        raise UsageError(f"--prior-mode: {exc}") from None
    except ValueError:
        raise UsageError(f"--prior-mode: non-numeric parameter in {text!r}") from None


def _resolve_prior(spec: str) -> GaussianMixtureIntensity:
    """A prior given as a mixture-JSON path or a named preset."""
    path = Path(spec)
    if path.suffix or path.exists() or "/" in spec:
        return read_mixture_json(path)
    if spec in PRIOR_PRESETS:
        return prior_preset(spec)
    raise UsageError(
        f"prior {spec!r} is neither a JSON file nor a preset; presets: "
        f"{', '.join(sorted(PRIOR_PRESETS))}")


def _read_diagram_dir(directory, homology_dim: int):
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"{directory}: not a directory")
    paths = sorted(p for p in directory.iterdir()
                   if p.suffix in (".csv", ".json"))
    if not paths:
        raise ValidationError(f"{directory}: no .csv or .json diagram files")
    return [read_diagram(p).restrict(homology_dim) for p in paths]


# -- subcommand bodies ---------------------------------------------------------

def _cmd_compute_pd(args) -> int:
    cloud = read_point_cloud_csv(args.input, skip_header=args.header)
    params = FiltrationParams(max_homology_dim=args.max_dim,
                              max_radius=args.max_radius,
                              simplex_budget=args.budget)
    diagram = rips_persistence(cloud, params)
    write_diagram(diagram, args.output)
    dims = ", ".join(f"H{k}: {int((diagram.dims == k).sum())}"
                     for k in diagram.homology_dims)
    print(f"wrote {len(diagram)} feature(s) ({dims or 'empty'}) to {args.output}")
    return 0


def _cmd_posterior(args) -> int:
    prior = _resolve_prior(args.prior)
    model = from_json(args.model, ObservationModel.from_dict)
    observations = [read_diagram(p).restrict(args.dim) for p in args.obs]
    posterior = posterior_closed_form(prior, model, observations)
    grid = parse_grid(args.grid)
    if args.scaled:
        values = scaled_intensity_grid(posterior, grid)
    else:
        values = posterior.evaluate_grid(grid)
    write_grid_csv(args.out, grid, values)
    masses = mass_summary(posterior)
    if args.summary:
        summary = {
            "n_observations": len(observations),
            "n_observed_features": sum(len(d) for d in observations),
            "argmax": grid_argmax(grid, values, "value"),
            "masses": masses,
            "scaled": bool(args.scaled),
        }
        write_json(args.summary, summary, sort_keys=True)
    print(f"wrote {grid.ny}x{grid.nx} grid to {args.out} "
          f"(total mass {masses['total']:.6g})")
    return 0


def _cmd_simulate_circle(args) -> int:
    cloud = sample_noisy_circle(args.n, args.noise_var, args.seed)
    write_point_cloud_csv(cloud, args.out)
    print(f"wrote {cloud.n_points} points to {args.out}")
    return 0


def _cmd_simulate_lattice(args) -> int:
    spec = LatticeSpec(structure=args.type, cells=args.cells,
                       lattice_constant=args.lattice_constant,
                       retention=args.retention, noise_sd=args.noise)
    cloud = sample_lattice(spec, args.seed)
    write_point_cloud_csv(cloud, args.out)
    print(f"wrote {cloud.n_points} points to {args.out}")
    return 0


def _cmd_simulate_diagram(args) -> int:
    prior = _resolve_prior(args.prior)
    model = from_json(args.model, ObservationModel.from_dict)
    latent = sample_poisson_pp(prior, derived_rng(args.seed, 0),
                               homology_dim=args.dim)
    observed = sample_observation(model, latent, derived_rng(args.seed, 1))
    write_diagram(observed, args.out)
    if args.latent_out:
        write_diagram(latent, args.latent_out)
    print(f"wrote observed diagram with {len(observed)} feature(s) to "
          f"{args.out} (latent had {len(latent)})")
    return 0


def _cmd_classify(args) -> int:
    class1 = _read_diagram_dir(args.class1_dir, 1)
    class2 = _read_diagram_dir(args.class2_dir, 1)
    clutter = (read_mixture_json(args.clutter) if args.clutter
               else GaussianMixtureIntensity([]))
    observation = ObservationModel(args.alpha, args.sigma_yo, clutter)
    labels = (Path(args.class1_dir).name or "class1",
              Path(args.class2_dir).name or "class2")
    if labels[0] == labels[1]:
        labels = ("class1", "class2")
    config = CrossValidationConfig(
        observation=observation, prior=parse_prior_mode(args.prior_mode),
        folds=args.folds, threshold=args.threshold, mode=args.mode,
        rng_seed=args.seed, labels=labels)
    report = cross_validate(class1, class2, config)
    report.write_json(args.report)
    p5, mean, p95 = report.bootstrap_summary
    print(f"mean AUC {report.auc:.4f} over {report.folds} folds "
          f"(bootstrap 5th {p5:.4f}, mean {mean:.4f}, 95th {p95:.4f}); "
          f"report: {args.report}")
    return 0


def _cmd_experiment(args) -> int:
    if args.list:
        for name in sorted(experiment_presets()):
            print(name)
        return 0
    if (args.preset is None) == (args.config is None):
        raise UsageError("experiment needs exactly one of --preset or --config")
    if args.outdir is None:
        raise UsageError("experiment needs --outdir")
    config = (experiment_preset(args.preset) if args.config is None
              else from_json(args.config, ExperimentConfig.from_dict))
    manifest = run_experiment(config, args.outdir, seed=args.seed)
    if config.kind == "circle-posterior":
        argmax = manifest["posterior_argmax"]
        print(f"{config.name}: posterior argmax ({argmax['x']:.4f}, "
              f"{argmax['y']:.4f}), total mass "
              f"{manifest['masses']['total']:.6g}; outputs in {args.outdir}")
    else:
        for prior_name, result in sorted(manifest["results"].items()):
            print(f"{config.name} [{prior_name}]: mean AUC "
                  f"{result['mean_auc']:.4f}")
        print(f"outputs in {args.outdir}")
    return 0


def _cmd_config_validate(args) -> int:
    if not args.paths and not args.all_presets:
        raise UsageError("config-validate needs file paths and/or --all-presets")
    for path in args.paths:
        print(f"OK: {path}: {_validate_config_file(path)}")
    if args.all_presets:
        for name, config in sorted(experiment_presets().items()):
            rebuilt = ExperimentConfig.from_dict(config.to_dict())
            if rebuilt.to_dict() != config.to_dict():
                raise ValidationError(
                    f"preset {name!r} does not survive a serialization round trip")
            print(f"OK: preset {name} ({config.kind})")
    return 0


def _validate_config_file(path) -> str:
    def describe(data) -> str:
        if isinstance(data, list):
            if data and isinstance(data[0], dict) and "birth" in data[0]:
                diagram = read_diagram_json(path)
                return f"persistence diagram ({len(diagram)} features)"
            mixture = GaussianMixtureIntensity.from_list(data)
            return f"mixture ({len(mixture)} components)"
        if isinstance(data, dict) and "kind" in data:
            config = ExperimentConfig.from_dict(data)
            return f"experiment config ({config.kind})"
        if isinstance(data, dict) and "alpha" in data:
            ObservationModel.from_dict(data)
            return "observation model"
        raise ValidationError(
            "unrecognized config shape (expected a mixture list, a diagram "
            "list, an observation model, or an experiment config)")

    return from_json(path, describe)


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bayespd",
                     description="Bayesian inference over persistence "
                                 "diagrams as Poisson point processes.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="SUBCOMMAND")

    p = sub.add_parser("compute-pd",
                       help="Vietoris-Rips persistence diagram of a point cloud",
                       description="Compute the Vietoris-Rips persistence "
                                   "diagram of a point-cloud CSV.")
    p.add_argument("--input", required=True, help="point-cloud CSV, one point per row")
    p.add_argument("--output", required=True, help="diagram output (.csv or .json)")
    p.add_argument("--max-dim", type=int, default=1,
                   help="largest homology dimension (0-2, default 1)")
    p.add_argument("--max-radius", type=float, default=math.inf,
                   help="filtration cutoff (default: unbounded)")
    p.add_argument("--header", action="store_true",
                   help="skip one header row in the input CSV")
    p.add_argument("--budget", type=int, default=DEFAULT_SIMPLEX_BUDGET,
                   help="simplex budget guard (default %(default)s)")
    p.set_defaults(func=_cmd_compute_pd)

    p = sub.add_parser("posterior",
                       help="closed-form posterior intensity on a grid",
                       description="Evaluate the closed-form posterior "
                                   "intensity over a grid and write it as CSV.")
    p.add_argument("--prior", required=True,
                   help="mixture JSON path or preset name "
                        f"({', '.join(sorted(PRIOR_PRESETS))})")
    p.add_argument("--model", required=True,
                   help="observation-model JSON (alpha, likelihood_variance, clutter)")
    p.add_argument("--obs", required=True, nargs="+", metavar="DIAGRAM",
                   help="observed diagram file(s)")
    p.add_argument("--dim", type=int, default=1,
                   help="homology dimension to restrict observations to (default 1)")
    p.add_argument("--grid", default=",".join(f"{v:g}" for v in astuple(DEFAULT_GRID)),
                   help="x0,x1,y0,y1,nx,ny (default %(default)s)")
    p.add_argument("--out", required=True, help="grid CSV output path")
    p.add_argument("--scaled", action="store_true",
                   help="scale the grid so its maximum is 1")
    p.add_argument("--summary", default=None,
                   help="optional JSON path for masses and argmax")
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("simulate",
                       help="sample point clouds or diagrams",
                       description="Samplers for circles, lattices, and "
                                   "diagram processes.")
    sim = p.add_subparsers(dest="what", required=True, metavar="WHAT")

    c = sim.add_parser("circle",
                       help="noisy circle point cloud")
    c.add_argument("--n", type=int, default=50, help="number of points (default 50)")
    c.add_argument("--noise-var", type=float, default=0.01,
                   help="per-coordinate noise variance (default 0.01)")
    c.add_argument("--seed", type=non_negative_int, default=7)
    c.add_argument("--out", required=True, help="point-cloud CSV output")
    c.set_defaults(func=_cmd_simulate_circle)

    c = sim.add_parser("lattice",
                       help="thinned, jittered BCC/FCC lattice cloud")
    c.add_argument("--type", required=True, choices=("bcc", "fcc"))
    c.add_argument("--cells", type=int, default=2,
                   help="unit cells per axis (default 2)")
    c.add_argument("--lattice-constant", type=float, default=2.0)
    c.add_argument("--retention", type=float, default=0.35,
                   help="site survival probability (default 0.35)")
    c.add_argument("--noise", type=float, default=None,
                   help="jitter standard deviation (default 5%% of the "
                        "lattice constant)")
    c.add_argument("--seed", type=non_negative_int, default=7)
    c.add_argument("--out", required=True, help="point-cloud CSV output")
    c.set_defaults(func=_cmd_simulate_lattice)

    c = sim.add_parser("diagram",
                       help="latent diagram from a prior, pushed through an "
                            "observation model")
    c.add_argument("--prior", required=True,
                   help="mixture JSON path or preset name")
    c.add_argument("--model", required=True, help="observation-model JSON")
    c.add_argument("--dim", type=int, default=1,
                   help="homology dimension of the sampled features (default 1)")
    c.add_argument("--seed", type=non_negative_int, default=7)
    c.add_argument("--out", required=True, help="observed diagram output")
    c.add_argument("--latent-out", default=None,
                   help="optional path for the latent diagram")
    c.set_defaults(func=_cmd_simulate_diagram)

    p = sub.add_parser("classify",
                       help="Bayes-factor cross-validation of two diagram sets",
                       description="Cross-validate the Bayes-factor "
                                   "classifier on two directories of "
                                   "diagram files.")
    p.add_argument("--class1-dir", required=True)
    p.add_argument("--class2-dir", required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--prior-mode", default="kmeans:k=3,var=2",
                   help="'kmeans:k=3,var=2' or 'flat:mean=1,1,var=20'")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="latent feature observation probability (default 1)")
    p.add_argument("--sigma-yo", type=float, default=0.1,
                   help="observation noise variance (default 0.1)")
    p.add_argument("--clutter", default=None,
                   help="clutter mixture JSON (default: no clutter)")
    p.add_argument("--mode", default="paper-literal",
                   choices=("paper-literal", "mass-consistent"),
                   help="density normalization mode")
    p.add_argument("--threshold", type=float, default=1.0,
                   help="Bayes-factor decision threshold (default 1)")
    p.add_argument("--seed", type=non_negative_int, default=7)
    p.add_argument("--report", required=True, help="report JSON output path")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("experiment",
                       help="run a named or custom experiment preset",
                       description="Run an experiment preset (or a JSON "
                                   "config) into an output directory.")
    p.add_argument("--preset", default=None, help="preset name (see --list)")
    p.add_argument("--config", default=None, help="experiment-config JSON path")
    p.add_argument("--outdir", default=None, help="output directory")
    p.add_argument("--seed", type=non_negative_int, default=None,
                   help="override the config seed")
    p.add_argument("--list", action="store_true", help="list presets and exit")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("config-validate",
                       help="validate config files without running anything",
                       description="Check mixture, model, diagram, and "
                                   "experiment JSON files; optionally check "
                                   "every shipped preset.")
    p.add_argument("paths", nargs="*", metavar="FILE")
    p.add_argument("--all-presets", action="store_true",
                   help="also validate every shipped experiment preset")
    p.set_defaults(func=_cmd_config_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            # one line per warning, without the source line it came from
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (UsageError, NumericalError, ValidationError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return 1
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
