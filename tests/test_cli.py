import json

import numpy as np
import pytest

from bayespd import (FlatPrior, GaussianMixtureIntensity, KMeansPrior,
                     MixtureComponent, ObservationModel, UsageError,
                     sample_poisson_pp, write_diagram, write_mixture_json,
                     write_point_cloud_csv)
from bayespd._util import derived_rng
from bayespd.classify import PRIOR_SPECS
from bayespd.cli import build_parser, main, parse_grid, parse_prior_mode
from bayespd.presets import experiment_presets
from bayespd.rips import PointCloud


@pytest.fixture
def model_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "alpha": 1.0,
        "likelihood_variance": 0.05,
        "clutter": [{"weight": 1.0, "mean": [0.5, 0.0], "variance": 0.1}],
    }))
    return str(path)


@pytest.fixture
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    write_point_cloud_csv(PointCloud([[0.0, 0.0], [1.0, 0.0],
                                      [1.0, 1.0], [0.0, 1.0]]), path)
    return str(path)


# -- argument helpers -----------------------------------------------------------

def test_parse_grid():
    grid = parse_grid("0,3,0,2,100,50")
    assert (grid.x0, grid.x1, grid.y0, grid.y1) == (0.0, 3.0, 0.0, 2.0)
    assert (grid.nx, grid.ny) == (100, 50)
    with pytest.raises(UsageError, match="x0,x1"):
        parse_grid("0,3,0,2,100")
    with pytest.raises(UsageError, match="reals"):
        parse_grid("0,3,0,2,many,50")
    with pytest.raises(UsageError, match="grid"):
        parse_grid("3,0,0,2,100,50")


def test_parse_prior_mode_kmeans():
    spec = parse_prior_mode("kmeans:k=5,var=0.5,weight=2")
    assert spec == KMeansPrior(k=5, variance=0.5, weight=2.0)
    assert parse_prior_mode("kmeans") == KMeansPrior()
    with pytest.raises(UsageError, match="unknown kmeans"):
        parse_prior_mode("kmeans:mean=1,1")
    with pytest.raises(UsageError, match="non-numeric"):
        parse_prior_mode("kmeans:k=lots")
    with pytest.raises(UsageError, match="--prior-mode: variance must be finite"):
        parse_prior_mode("kmeans:var=nan")
    with pytest.raises(UsageError, match=r"--prior-mode: variance must be > 0, got -1\.0"):
        parse_prior_mode("kmeans:var=-1")
    with pytest.raises(UsageError, match="--prior-mode: k must be an integer >= 1, got 0"):
        parse_prior_mode("kmeans:k=0")


def test_parse_prior_mode_flat():
    # tuple-valued mean keeps its comma
    spec = parse_prior_mode("flat:mean=1.5,0.5,var=20")
    assert spec == FlatPrior(mean=(1.5, 0.5), variance=20.0)
    assert parse_prior_mode("flat").mean == (1.0, 1.0)
    with pytest.raises(UsageError, match=r"unknown flat parameter\(s\) \['k'\]; "
                                         r"allowed: \['mean', 'var', 'weight'\]"):
        parse_prior_mode("flat:k=2")
    with pytest.raises(UsageError, match="kmeans"):
        parse_prior_mode("spread:var=1")
    with pytest.raises(UsageError, match="two coordinates"):
        parse_prior_mode("flat:mean=1,2,3,var=1")
    with pytest.raises(UsageError, match="bad parameter"):
        parse_prior_mode("flat:20")


def test_parse_prior_mode_defaults_are_the_study_priors():
    assert parse_prior_mode("kmeans") == PRIOR_SPECS["kmeans"]
    assert parse_prior_mode("flat") == FlatPrior() == PRIOR_SPECS["flat"]
    assert parse_prior_mode("flat:var=5") == FlatPrior(mean=(1.0, 1.0), variance=5.0)
    # the lattice study runs on the same two objects
    priors = {name: config.prior for name, config
              in experiment_presets()["aptlike-cv"].cv_configs().items()}
    assert priors.keys() == PRIOR_SPECS.keys()
    assert all(priors[name] is PRIOR_SPECS[name] for name in priors)


# -- top-level dispatch ----------------------------------------------------------

def test_version_help_and_usage_errors(capsys):
    assert main(["--version"]) == 0
    assert "bayespd" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert "SUBCOMMAND" in capsys.readouterr().out
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_one_parser_serves_every_call_of_a_process(square_csv, tmp_path, capsys):
    # the parser is built on the first call and kept; each later call must
    # behave as the first call of a fresh process
    job = ["compute-pd", "--input", square_csv, "--output", str(tmp_path / "d.csv")]
    calls = [job, ["--help"], ["--version"], ["compute-pd", "--max-dim", "x"], job]

    def run(argv):
        code = main(argv)
        return code, *capsys.readouterr()

    firsts = []
    for argv in calls:
        build_parser.cache_clear()
        firsts.append(run(argv))
    assert [first[0] for first in firsts] == [0, 0, 0, 1, 0]
    build_parser.cache_clear()
    assert [run(argv) for argv in calls] == firsts
    assert build_parser.cache_info().misses == 1


# -- compute-pd -------------------------------------------------------------------

def test_compute_pd(square_csv, tmp_path, capsys):
    out = str(tmp_path / "diagram.csv")
    assert main(["compute-pd", "--input", square_csv, "--output", out]) == 0
    captured = capsys.readouterr()
    assert "H1: 1" in captured.out
    assert captured.err == ("warning: dropping 1 essential class(es) still "
                            "alive at max_radius=inf\n")
    text = (tmp_path / "diagram.csv").read_text()
    assert "1.4142135623730951" in text  # the square's H1 death

    assert main(["compute-pd", "--input", str(tmp_path / "nope.csv"),
                 "--output", out]) == 2
    assert main(["compute-pd", "--input", square_csv, "--output", out,
                 "--budget", "3"]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(["compute-pd", "--input", square_csv, "--output", out,
                 "--max-dim", "3"]) == 2
    assert capsys.readouterr().err == "error: max_homology_dim must be in 0..2\n"


# -- posterior --------------------------------------------------------------------

def test_posterior_command(square_csv, model_json, tmp_path, capsys):
    obs = str(tmp_path / "obs.csv")
    assert main(["compute-pd", "--input", square_csv, "--output", obs]) == 0
    out = str(tmp_path / "grid.csv")
    summary = str(tmp_path / "summary.json")
    assert main(["posterior", "--prior", "informative", "--model", model_json,
                 "--obs", obs, "--grid", "0,2,0,2,40,30", "--out", out,
                 "--scaled", "--summary", summary]) == 0
    assert "30x40 grid" in capsys.readouterr().out
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["n_observations"] == 1 and data["scaled"] is True
    assert data["argmax"]["value"] == 1.0
    assert set(data["masses"]) == {"prior", "prior_retention", "data_term",
                                   "total"}
    header = (tmp_path / "grid.csv").read_text().splitlines()[0]
    assert header.startswith("y\\x,0.0,")


def test_posterior_prior_resolution(square_csv, model_json, tmp_path, capsys):
    obs = str(tmp_path / "obs.csv")
    assert main(["compute-pd", "--input", square_csv, "--output", obs]) == 0
    out = str(tmp_path / "grid.csv")

    prior_path = tmp_path / "prior.json"
    write_mixture_json(GaussianMixtureIntensity(
        [MixtureComponent(1.0, (1.0, 1.0), 0.5)]), prior_path)
    assert main(["posterior", "--prior", str(prior_path), "--model",
                 model_json, "--obs", obs, "--out", out]) == 0

    assert main(["posterior", "--prior", "mystery", "--model", model_json,
                 "--obs", obs, "--out", out]) == 1
    assert "presets" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json\n  at line 1")
    assert main(["posterior", "--prior", "informative", "--model", str(bad),
                 "--obs", obs, "--out", out]) == 2
    assert "line 1 column 2" in capsys.readouterr().err

    assert main(["posterior", "--prior", "informative", "--model", model_json,
                 "--obs", str(tmp_path / "ghost.csv"), "--out", out]) == 2


# -- simulate ---------------------------------------------------------------------

def test_simulate_circle_and_lattice(tmp_path, capsys):
    circle = tmp_path / "circle.csv"
    assert main(["simulate", "circle", "--n", "30", "--noise-var", "0.001",
                 "--seed", "3", "--out", str(circle)]) == 0
    first = circle.read_bytes()
    assert main(["simulate", "circle", "--n", "30", "--noise-var", "0.001",
                 "--seed", "3", "--out", str(circle)]) == 0
    assert circle.read_bytes() == first
    assert len(first.decode().splitlines()) == 30

    lattice = tmp_path / "bcc.csv"
    assert main(["simulate", "lattice", "--type", "bcc", "--cells", "1",
                 "--retention", "1.0", "--noise", "0.0", "--seed", "1",
                 "--out", str(lattice)]) == 0
    assert len(lattice.read_text().splitlines()) == 9  # all BCC sites kept

    assert main(["simulate", "lattice", "--type", "hex",
                 "--out", str(lattice)]) == 1
    capsys.readouterr()


def test_simulate_diagram(model_json, tmp_path, capsys):
    out = tmp_path / "observed.csv"
    latent = tmp_path / "latent.csv"
    assert main(["simulate", "diagram", "--prior", "unimodal-uninformative",
                 "--model", model_json, "--seed", "5", "--out", str(out),
                 "--latent-out", str(latent)]) == 0
    assert "observed diagram" in capsys.readouterr().out
    assert out.exists() and latent.exists()


# -- classify ----------------------------------------------------------------------

def diagram_population(directory, mean, tag, n):
    directory.mkdir(parents=True)
    mixture = GaussianMixtureIntensity([MixtureComponent(4.0, mean, 0.02)])
    for i in range(n):
        d = sample_poisson_pp(mixture, derived_rng(60, tag, i))
        write_diagram(d, directory / f"sample_{i:02d}.csv")


def test_classify_command(tmp_path, capsys):
    diagram_population(tmp_path / "rings", (0.5, 1.5), 0, 6)
    diagram_population(tmp_path / "blobs", (1.5, 0.5), 1, 6)
    report_path = tmp_path / "report.json"
    assert main(["classify", "--class1-dir", str(tmp_path / "rings"),
                 "--class2-dir", str(tmp_path / "blobs"), "--folds", "2",
                 "--prior-mode", "flat:mean=1,1,var=5", "--sigma-yo", "0.05",
                 "--report", str(report_path)]) == 0
    assert "mean AUC" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["labels"] == ["rings", "blobs"]
    assert report["folds"] == 2

    # a bad k is a usage error, found before cross-validation starts
    assert main(["classify", "--class1-dir", str(tmp_path / "rings"),
                 "--class2-dir", str(tmp_path / "blobs"), "--prior-mode",
                 "kmeans:k=0", "--report", str(report_path)]) == 1
    assert "k must be an integer >= 1, got 0" in capsys.readouterr().err

    assert main(["classify", "--class1-dir", str(tmp_path / "missing"),
                 "--class2-dir", str(tmp_path / "blobs"),
                 "--report", str(report_path)]) == 2
    assert "not a directory" in capsys.readouterr().err

    # a feature k-means cannot cluster is refused in one line, exit 2; it
    # used to end in numpy's "Probabilities contain NaN" traceback
    far = tmp_path / "far"
    diagram_population(far, (0.5, 1.5), 0, 6)
    (far / "sample_00.csv").write_text("birth,death,dim\n0.5,1e200,1\n")
    assert main(["classify", "--class1-dir", str(far), "--class2-dir", str(tmp_path / "blobs"),
                 "--folds", "2", "--prior-mode", "kmeans:k=2", "--report",
                 str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: points: n * span**2 must be finite, got n=")
    assert err.count("\n") == 1

    # the mode is parsed before the directories are read
    assert main(["classify", "--class1-dir", str(tmp_path / "missing"),
                 "--class2-dir", str(tmp_path / "blobs"), "--prior-mode",
                 "kmeans:k=0", "--report", str(report_path)]) == 1
    assert "k must be an integer >= 1, got 0" in capsys.readouterr().err


# -- experiment ---------------------------------------------------------------------

def test_experiment_list_and_usage(tmp_path, capsys):
    assert main(["experiment", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert len(names) == 17 and "case1-informative" in names

    assert main(["experiment", "--outdir", str(tmp_path)]) == 1
    assert main(["experiment", "--preset", "case1-informative", "--config",
                 "x.json", "--outdir", str(tmp_path)]) == 1
    assert main(["experiment", "--preset", "case1-informative"]) == 1
    capsys.readouterr()
    assert main(["experiment", "--preset", "case99", "--outdir",
                 str(tmp_path)]) == 1
    available = ", ".join(sorted(experiment_presets()))
    assert capsys.readouterr().err == (
        f"error: unknown experiment preset 'case99'; available: {available}\n")


def experiment_config_json(tmp_path):
    config = {
        "kind": "circle-posterior",
        "seed": 11,
        "prior": [{"weight": 1.0, "mean": [0.5, 1.2], "variance": 0.01}],
        "observation": {"alpha": 1.0, "likelihood_variance": 0.01,
                        "clutter": [{"weight": 1.0, "mean": [0.5, 0.0],
                                     "variance": 0.1}]},
        "data": {"n": 30, "noise_variance": 0.001},
        "grid": [0, 3, 0, 3, 50, 50],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_experiment_from_config_rerun_identical(tmp_path, capsys):
    config = experiment_config_json(tmp_path)
    assert main(["experiment", "--config", config, "--outdir",
                 str(tmp_path / "a")]) == 0
    assert "posterior argmax" in capsys.readouterr().out
    assert main(["experiment", "--config", config, "--outdir",
                 str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("manifest.json", "point_cloud.csv", "observed_diagram.csv",
                 "posterior_grid.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    # seed override changes outputs
    assert main(["experiment", "--config", config, "--outdir",
                 str(tmp_path / "c"), "--seed", "12"]) == 0
    capsys.readouterr()
    assert ((tmp_path / "c" / "point_cloud.csv").read_bytes()
            != (tmp_path / "a" / "point_cloud.csv").read_bytes())


# -- config-validate ---------------------------------------------------------------

def test_config_validate(tmp_path, capsys):
    mixture_path = tmp_path / "mixture.json"
    write_mixture_json(GaussianMixtureIntensity(
        [MixtureComponent(1.0, (1.0, 1.0), 0.5)]), mixture_path)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(
        {"alpha": 0.5, "likelihood_variance": 0.1, "clutter": []}))
    config_path = experiment_config_json(tmp_path)
    diagram_path = tmp_path / "diagram.json"
    d = sample_poisson_pp(GaussianMixtureIntensity(
        [MixtureComponent(3.0, (1.0, 1.0), 0.1)]), 4)
    write_diagram(d, diagram_path)

    assert main(["config-validate", str(mixture_path), str(model_path),
                 config_path, str(diagram_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("OK:") == 4
    assert "mixture (1 components)" in out
    assert "observation model" in out
    assert "experiment config (circle-posterior)" in out
    assert "persistence diagram" in out

    assert main(["config-validate", "--all-presets"]) == 0
    assert capsys.readouterr().out.count("OK: preset") == 17

    assert main(["config-validate"]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 0.5,}')
    assert main(["config-validate", str(bad)]) == 2
    assert "column" in capsys.readouterr().err

    weird = tmp_path / "weird.json"
    weird.write_text('{"hello": 1}')
    assert main(["config-validate", str(weird)]) == 2
    assert "unrecognized" in capsys.readouterr().err


GOOD_COMPONENT = {"weight": 1.0, "mean": [1.0, 1.0], "variance": 0.5}
GOOD_MODEL = {"alpha": 0.5, "likelihood_variance": 0.1, "clutter": []}


@pytest.mark.parametrize("text, message", [
    (json.dumps([GOOD_COMPONENT]).replace('"weight": 1.0', '"weight": ' + "9" * 5000),
     "Exceeds the limit (4300 digits)"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
], ids=["5000-digit-weight", "deep-nesting"])
def test_config_validate_names_the_path_of_json_the_parser_refuses(tmp_path, capsys, text,
                                                                   message):
    # json.load refuses these with a plain ValueError or a RecursionError,
    # not a JSONDecodeError
    path = tmp_path / "mixture.json"
    path.write_text(text)
    assert main(["config-validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("content", [
    [dict(GOOD_COMPONENT, weight="abc")],
    [dict(GOOD_COMPONENT, mean=3)],
    {"kind": "circle-posterior", "prior": [GOOD_COMPONENT],
     "observation": GOOD_MODEL, "data": [1]},
    {"kind": "lattice-cv", "seed": "x"},
    dict(GOOD_MODEL, alpha="x"),
], ids=["weight-string", "mean-scalar", "circle-data-list", "lattice-seed-string",
        "model-alpha-string"])
def test_config_validate_rejects_malformed_field_values(tmp_path, capsys, content):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(content))
    assert main(["config-validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


# -- strict JSON: numbers are JSON numbers, objects have no unknown keys ---------

CLUTTERED_MODEL = dict(GOOD_MODEL, clutter=[dict(GOOD_COMPONENT, mean=[0.5, 0.0])])

#: A valid document of every JSON reader, with the name its errors start with.
JSON_DOCUMENTS = {
    "mixture": ("mixture", [GOOD_COMPONENT, dict(GOOD_COMPONENT, weight=2)]),
    "observation-model": ("observation model", CLUTTERED_MODEL),
    "circle-experiment": ("experiment config", {
        "kind": "circle-posterior", "name": "strict", "seed": 3,
        "prior": [GOOD_COMPONENT], "observation": CLUTTERED_MODEL,
        "data": {"n": 30, "noise_variance": 0.01}, "grid": [0, 3, 0, 3.0, 20, 20]}),
    "lattice-experiment": ("experiment config", {
        "kind": "lattice-cv", "seed": 3, "n_per_class": 4, "folds": 2,
        "lattice": {"cells": 2, "lattice_constant": 2.0, "retention": 0.5},
        "observation": CLUTTERED_MODEL}),
    "diagram": (None, [{"birth": 0.0, "death": 1.0, "dim": 1},
                       {"birth": 0, "death": 2, "dim": 0}]),
}


def key_path(top, path) -> str:
    """The key path an error names for the node at ``path``: list items are a
    mixture's components or a diagram's features, a grid entry is named by
    its role and a mean coordinate by its vector."""
    words = [top] if top else []
    for parent, key in zip((None, *path), path):
        if parent == "grid":
            words[-1] = (("grid extents",) * 4 + ("grid nx", "grid ny"))[key]
        elif isinstance(key, int) and parent != "mean":
            words.append(f"{'feature' if top is None else 'component'} {key}")
        elif isinstance(key, str):
            words.append({"dim": "homology dimension"}.get(key, key))
    return ": ".join(words)


def json_nodes(node, path=()):
    """(path, node) of every number and every object in a JSON document."""
    if isinstance(node, dict) or isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_nodes(child, (*path, key))


def with_node(document, path, value):
    """A copy of ``document`` whose node at ``path`` is ``value``."""
    if not path:
        return value
    document = json.loads(json.dumps(document))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


def strict_json_cases():
    """A string, a bool and null in every number, and an unknown key in every
    object, of every JSON document, with the start of the message each gets."""
    for name, (top, document) in JSON_DOCUMENTS.items():
        for path, node in json_nodes(document):
            where = "/".join(map(str, path)) or "top"
            if isinstance(node, dict):
                yield pytest.param(with_node(document, path, {**node, "zzz": 1}),
                                   f"{key_path(top, path)}: unknown keys ['zzz']",
                                   id=f"{name}-{where}-unknown-key")
                continue
            for bad in ("1", True, None):
                yield pytest.param(with_node(document, path, bad),
                                   f"{key_path(top, path)} must be ",
                                   id=f"{name}-{where}-{json.dumps(bad)}")


@pytest.mark.parametrize("content, message", strict_json_cases())
def test_config_validate_names_the_key_path_of_a_bad_json_value(tmp_path, capsys, content,
                                                                 message):
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(content))
    assert main(["config-validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def test_strict_json_documents_are_valid(tmp_path, capsys):
    for name, (_, document) in JSON_DOCUMENTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        assert main(["config-validate", str(path)]) == 0, capsys.readouterr().err


def test_constructors_accept_numpy_scalars():
    component = MixtureComponent(np.float32(2.0), (np.float32(0.5), np.int64(1)),
                                 np.float64(0.25))
    assert (component.weight, component.mean, component.variance) == (2.0, (0.5, 1.0), 0.25)
    assert all(type(v) is float for v in (component.weight, *component.mean))
    model = ObservationModel(np.float32(0.5), np.int64(1))
    assert (model.alpha, model.likelihood_variance) == (0.5, 1.0)
    kmeans = KMeansPrior(k=np.int64(2), variance=np.float32(2.0), weight=np.int64(1))
    assert (kmeans.k, kmeans.variance, kmeans.weight) == (2, 2.0, 1.0)
    flat = FlatPrior(mean=(np.float64(1.0), np.int32(1)), variance=np.float32(2.0))
    assert (flat.mean, flat.variance) == ((1.0, 1.0), 2.0)


CIRCLE_CONFIG = {"kind": "circle-posterior", "prior": [GOOD_COMPONENT],
                 "observation": GOOD_MODEL, "data": {"n": 30}}


@pytest.mark.parametrize("content, field", [
    ({"kind": "lattice-cv", "seed": 1.5}, "seed"),
    ({"kind": "lattice-cv", "n_per_class": 20.7}, "n_per_class"),
    ({"kind": "lattice-cv", "folds": 2.5}, "folds"),
    ({"kind": "lattice-cv", "lattice": {"cells": 2.5}}, "lattice: cells"),
    (dict(CIRCLE_CONFIG, data={"n": 30.5}), "data: n"),
    (dict(CIRCLE_CONFIG, grid=[0, 3, 0, 3, 50.5, 50]), "grid nx"),
    (dict(CIRCLE_CONFIG, grid=[0, 3, 0, 3, 50, 50.5]), "grid ny"),
    ({"kind": "lattice-cv", "seed": "3", "n_per_class": 20}, "seed"),
    ({"kind": "lattice-cv", "n_per_class": "20"}, "n_per_class"),
    ({"kind": "lattice-cv", "lattice": {"cells": True}}, "lattice: cells"),
    (dict(CIRCLE_CONFIG, data={"n": "30"}), "data: n"),
    (dict(CIRCLE_CONFIG, grid=[0, 3, 0, 3, True, 50]), "grid nx"),
    ([{"birth": 0.0, "death": 1.0, "dim": "1"}], "homology dimension"),
    ([{"birth": 0.0, "death": 1.0, "dim": True}], "homology dimension"),
], ids=["seed", "n_per_class", "folds", "lattice-cells", "circle-n", "grid-nx",
        "grid-ny", "seed-string", "n_per_class-string", "lattice-cells-bool",
        "circle-n-string", "grid-nx-bool", "dim-string", "dim-bool"])
def test_config_validate_rejects_fractional_integer_fields(tmp_path, capsys,
                                                           content, field):
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(content))
    assert main(["config-validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert f"{field} must be an integer, got " in err


def test_config_validate_accepts_integral_floats(tmp_path, capsys):
    path = tmp_path / "integral.json"
    path.write_text(json.dumps({"kind": "lattice-cv", "seed": 3.0, "folds": 10.0,
                                "n_per_class": 20.0, "lattice": {"cells": 2.0}}))
    assert main(["config-validate", str(path)]) == 0
    assert "experiment config (lattice-cv)" in capsys.readouterr().out


def test_experiment_config_errors_name_the_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "lattice-cv", "seed": "x"}))
    assert main(["experiment", "--config", str(path), "--outdir",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: experiment config: seed must be an integer, got 'x'")


@pytest.mark.parametrize("argv, code", [
    (["simulate", "circle", "--seed", "-1", "--out", "{out}/c.csv"], 1),
    (["simulate", "lattice", "--type", "bcc", "--seed", "-1", "--out",
      "{out}/c.csv"], 1),
    (["simulate", "diagram", "--prior", "informative", "--model", "{config}",
      "--seed", "-2", "--out", "{out}/d.csv"], 1),
    (["classify", "--class1-dir", "{out}/a", "--class2-dir", "{out}/b",
      "--seed", "-3", "--report", "{out}/r.json"], 1),
    (["experiment", "--preset", "case1-informative", "--seed", "-1",
      "--outdir", "{out}"], 1),
    (["experiment", "--config", "{config}", "--outdir", "{out}"], 2),
    (["config-validate", "{config}"], 2),
], ids=["simulate-circle", "simulate-lattice", "simulate-diagram", "classify",
        "experiment-preset", "experiment-config", "config-validate"])
def test_negative_seeds_are_rejected_up_front(tmp_path, capsys, argv, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "lattice-cv", "seed": -5,
                                  "n_per_class": 4, "folds": 2}))
    out = tmp_path / "out"
    assert main([a.format(out=out, config=config) for a in argv]) == code
    err = capsys.readouterr().err
    assert "must be >= 0, got -" in err
    if code == 2:
        assert err.startswith(f"error: {config}: experiment config: seed must be >= 0, got -5")
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, what", [
    ("data", "noise_variance", float("nan"), "experiment config: data: noise_variance"),
    ("data", "noise_variance", float("inf"), "experiment config: data: noise_variance"),
    ("observation", "likelihood_variance", float("inf"),
     "experiment config: observation: likelihood_variance"),
    ("grid", 1, float("inf"), "experiment config: grid extents"),
], ids=["noise-variance-nan", "noise-variance-inf", "likelihood-variance-inf",
        "grid-extent-inf"])
def test_non_finite_circle_fields_fail_validation(tmp_path, capsys, section,
                                                  key, value, what):
    path = experiment_config_json(tmp_path)
    config = json.loads(open(path).read())
    config[section][key] = value
    with open(path, "w") as handle:
        json.dump(config, handle)
    out = tmp_path / "out"
    for argv in (["config-validate", path],
                 ["experiment", "--config", path, "--outdir", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {what} must be finite, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("content", [
    {"folds": 1},
    {"folds": True},
    {"lattice": {"cells": 0}},
    {"lattice": {"retention": 2.0}},
    {"lattice": {"lattice_constant": -1}},
    {"lattice": {"lattice_constant": float("inf")}},
], ids=["folds-1", "folds-true", "cells-0", "retention-2", "lattice-constant-negative",
        "lattice-constant-inf"])
def test_lattice_configs_the_run_rejects_fail_validation(tmp_path, capsys, content):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"kind": "lattice-cv", "n_per_class": 4, "folds": 2,
                                **content}))
    out = tmp_path / "out"
    for argv in (["config-validate", str(path)],
                 ["experiment", "--config", str(path), "--outdir", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()
