"""Check that two bayespd source trees write the same bytes.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each ``src`` directory runs the same command-line jobs in its own
subprocess, writing under one temporary directory, and the script prints
``diff -r`` of the two output trees (and a file count on stderr): empty
output and exit status 0 mean every file is byte-identical. Each job's exit
code and what it prints, warnings included, go into its tree too, as
``stdout/JOB.txt`` next to the job's outputs, with the tree's root written
``{root}``. The
jobs are the benchmark's own, built by ``perfbench/workloads.py`` (loaded
read-only; nothing is written into the repository): ``experiment --preset aptlike-cv
--seed 21``, the 16 circle presets at seeds 4 and 5, and both ``bayespd
posterior`` jobs of ``dense-posterior`` at seeds 5 and 6, together with the
input diagrams each tree generates for them. Two ``bayespd classify`` jobs
then cross-validate the ``aptlike-cv`` diagrams, copied into a ``bcc`` and an
``fcc`` directory, under each ``--prior-mode`` of ``CLASSIFY_PRIORS``; their
reports go into ``classify/``. Last come the jobs of ``CLI_JOBS`` under
``cli/``: ``simulate circle`` and ``compute-pd`` on its cloud (a CSV and,
truncated at a radius, a JSON diagram), and ``simulate diagram`` with a
clutter model and ``--latent-out``, in both diagram formats. The jobs of
``REFUSAL_JOBS`` follow there, each of which must exit nonzero, so refusal
messages and exit codes are compared too.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
WORKLOADS = TOOLS.parent / "perfbench" / "workloads.py"

#: (workload, seed); circle-sweep seed s runs every preset at seeds 2s, 2s+1
JOBS = (("lattice-cv", 21), ("circle-sweep", 2),
        ("dense-posterior", 5), ("dense-posterior", 6))

#: report name and ``--prior-mode`` of each classify job, one per prior kind
CLASSIFY_PRIORS = (("flat", "flat:mean=1.5,0.5,var=5"),
                   ("kmeans", "kmeans:k=2,var=0.5,weight=2"))


#: observation model of the ``simulate diagram`` jobs: thinning, marks, clutter
CLUTTER_MODEL = {"alpha": 0.8, "likelihood_variance": 0.02,
                 "clutter": [{"weight": 3.0, "mean": [0.5, 0.1], "variance": 0.1}]}

#: command lines run under ``cli/``, ``{cli}`` standing for that directory
CLI_JOBS = (
    ("circle", ["simulate", "circle", "--n", "60", "--noise-var", "0.02", "--seed", "3",
                "--out", "{cli}/circle.csv"]),
    ("rips-csv", ["compute-pd", "--input", "{cli}/circle.csv", "--output", "{cli}/rips.csv"]),
    ("rips-json", ["compute-pd", "--input", "{cli}/circle.csv", "--output", "{cli}/rips.json",
                   "--max-dim", "2", "--max-radius", "0.6"]),
    ("diagram-csv", ["simulate", "diagram", "--prior", "bimodal-uninformative", "--model",
                     "{cli}/model.json", "--seed", "8", "--out", "{cli}/observed.csv",
                     "--latent-out", "{cli}/latent.json"]),
    ("diagram-json", ["simulate", "diagram", "--prior", "informative", "--model",
                      "{cli}/model.json", "--dim", "0", "--seed", "9", "--out",
                      "{cli}/observed.json", "--latent-out", "{cli}/latent.csv"]),
)

#: inputs of the refusal jobs, written under ``cli/`` with ``model.json``:
#: a diagram CSV whose line 3 dies before its birth, a diagram JSON whose
#: essential feature 1 has dimension 3, and a cloud whose distances overflow
REFUSAL_INPUTS = {
    "bad-row.csv": "birth,death,dim\n0.1,0.4,1\n0.5,0.2,1\n",
    "bad-essential.json": '[{"birth": 0.1, "death": 0.4, "dim": 1},\n'
                          ' {"birth": 0.5, "death": Infinity, "dim": 3}]\n',
    "huge.csv": "0,0\n1e200,0\n0,1e200\n",
}

#: command lines run under ``cli/`` after ``CLI_JOBS``, each expected to be
#: refused: two bad diagrams (exit 2), a simplex budget too small (exit 3),
#: infinite distances (exit 2) and three homology dimensions outside 0..2
#: (exit 2)
REFUSAL_JOBS = (
    ("refuse-csv-row", ["posterior", "--prior", "informative", "--model", "{cli}/model.json",
                        "--obs", "{cli}/bad-row.csv", "--out", "{cli}/refused.csv"]),
    ("refuse-json-essential", ["posterior", "--prior", "informative", "--model",
                               "{cli}/model.json", "--obs", "{cli}/bad-essential.json",
                               "--out", "{cli}/refused.csv"]),
    ("refuse-budget", ["compute-pd", "--input", "{cli}/circle.csv", "--output",
                       "{cli}/refused.csv", "--budget", "100"]),
    ("refuse-inf-distance", ["compute-pd", "--input", "{cli}/huge.csv", "--output",
                             "{cli}/refused.csv"]),
    ("refuse-max-dim", ["compute-pd", "--input", "{cli}/circle.csv", "--output",
                        "{cli}/refused.csv", "--max-dim", "3"]),
    ("refuse-simulate-dim", ["simulate", "diagram", "--prior", "informative", "--model",
                             "{cli}/model.json", "--dim", "5", "--seed", "9", "--out",
                             "{cli}/refused.csv"]),
    ("refuse-posterior-dim", ["posterior", "--prior", "informative", "--model",
                              "{cli}/model.json", "--obs", "{cli}/observed.csv", "--dim", "5",
                              "--out", "{cli}/refused.csv"]),
)


def write_outputs(src: Path, outdir: Path) -> None:
    """Run every job with the ``bayespd`` found on ``sys.path``, which must
    be the one under ``src``."""
    import bayespd
    from bayespd.cli import main

    if not Path(bayespd.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bayespd was imported from {bayespd.__file__}, not {src}")

    def run(argv, printed_to: Path, refused: bool = False) -> None:
        """Run ``main(argv)``, which must exit 0 (nonzero if ``refused``), and
        write its exit code and what it prints to ``printed_to``."""
        printed_to.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()) as printed, \
                contextlib.redirect_stderr(printed):
            code = main(argv)
        if (code != 0) != refused:
            raise SystemExit(f"bayespd {' '.join(argv)}: exited {code}")
        printed_to.write_text(f"exit {code}\n" + printed.getvalue().replace(str(outdir), "{root}"))

    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, seed in JOBS:
        workdir = outdir / f"{name}-{seed}"
        for job in workloads.build(name, seed, workdir).jobs:
            job.outdir.mkdir(parents=True)  # as the benchmark makes it
            run(job.argv, workdir / "stdout" / f"{job.name}.txt")

    diagrams = outdir / f"lattice-cv-{JOBS[0][1]}" / "out" / "aptlike-cv" / "diagrams"
    with tempfile.TemporaryDirectory(prefix="same-outputs-classes-") as classes:
        for lattice in ("bcc", "fcc"):  # the directory names are the labels
            (Path(classes) / lattice).mkdir()
            for path in diagrams.glob(f"{lattice}_*.csv"):
                shutil.copy(path, Path(classes) / lattice)
        for name, prior_mode in CLASSIFY_PRIORS:
            run(["classify", "--class1-dir", f"{classes}/bcc", "--class2-dir",
                 f"{classes}/fcc", "--prior-mode", prior_mode, "--report",
                 str(outdir / "classify" / f"cv_{name}.json")],
                outdir / "classify" / "stdout" / f"{name}.txt")

    cli = outdir / "cli"
    cli.mkdir()
    (cli / "model.json").write_text(json.dumps(CLUTTER_MODEL))
    for name, text in REFUSAL_INPUTS.items():
        (cli / name).write_text(text)
    for jobs, refused in ((CLI_JOBS, False), (REFUSAL_JOBS, True)):
        for name, argv in jobs:
            run([arg.format(cli=cli) for arg in argv], cli / "stdout" / f"{name}.txt", refused)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    child = ("import sys; from pathlib import Path; from same_outputs import "
             "write_outputs; write_outputs(Path(sys.argv[1]), Path(sys.argv[2]))")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        outs = []
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            out = Path(tmp) / side
            env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                   "PYTHONPATH": os.pathsep.join([str(src.resolve()), str(TOOLS)])}
            subprocess.run([sys.executable, "-c", child, str(src), str(out)],
                           env=env, check=True)
            outs.append(out)
        n_files = sum(1 for p in outs[0].rglob("*") if p.is_file())
        diff = subprocess.run(["diff", "-r", *map(str, outs)],
                              capture_output=True, text=True)
        print(diff.stdout, end="")
        print(f"{n_files} files compared: "
              f"{'identical' if diff.returncode == 0 else 'DIFFERENT'}",
              file=sys.stderr)
        return diff.returncode


if __name__ == "__main__":
    sys.exit(main())
