"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``.

They check that tracing is transparent, that the per-layer counts of
``lattice-cv`` repeat exactly, that inputs follow the workload seed, and that
the benchmark refuses to run without the package sources.
"""

import contextlib
import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from bayespd import cli  # noqa: E402
from bayespd.rips import FiltrationParams, PointCloud, _build_filtration  # noqa: E402
from spans import Tracer, bindings, rips_simplex_count  # noqa: E402


def _run(workload, traced=False):
    """One run of the workload; returns (exit codes, digest per job, per-layer
    metrics or None, tracer or None)."""
    run.fresh_outdirs(workload.jobs)
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        wall = time.perf_counter()
        codes = run.run_jobs(cli, workload.jobs)
        wall = time.perf_counter() - wall
    digests = [run.tree_digest(job.outdir) for job in workload.jobs]
    return codes, digests, tracer and tracer.layer_metrics(wall), tracer


@pytest.fixture(scope="module")
def lattice_runs(tmp_path_factory):
    """lattice-cv at seed 1 untraced and traced, and at seed 2 traced."""
    out = {}
    for seed, traced in ((1, False), (1, True), (2, True)):
        workload = workloads.build("lattice-cv", seed,
                                   tmp_path_factory.mktemp(f"lattice{seed}"))
        codes, digests, metrics, _ = _run(workload, traced)
        assert codes == [0]
        problems = workload.jobs[0].check(workload.jobs[0].outdir)
        out[seed, traced] = (digests, metrics, problems)
    return out


def test_tracing_leaves_lattice_outputs_byte_identical(lattice_runs):
    assert lattice_runs[1, False][0] == lattice_runs[1, True][0]
    assert lattice_runs[1, False][2] == []


@pytest.mark.parametrize("name", ["circle-sweep", "dense-posterior"])
def test_tracing_leaves_outputs_byte_identical(name, tmp_path):
    workload = workloads.build(name, 3, tmp_path)
    workload.jobs = workload.jobs[:4]
    plain_codes, plain, _, _ = _run(workload)
    traced_codes, traced, _, tracer = _run(workload, traced=True)
    assert plain_codes == traced_codes == [0] * len(workload.jobs)
    assert plain == traced
    assert all(job.check(job.outdir) == [] for job in workload.jobs)
    assert tracer.spans, "no span was recorded"


def test_lattice_call_counts_repeat_exactly(lattice_runs):
    expected = {"rips.calls": 400, "posterior.closed_form.calls": 40,
                "classify.kmeans.calls": 20, "classify.bayes_factor.calls": 800,
                "simulate.calls": 400, "diagrams.write.calls": 400,
                "classify.bayes_factor.undecidable": 0}
    for seed in (1, 2):
        metrics = lattice_runs[seed, True][1]
        assert {key: metrics.get(key, 0) for key in expected} == expected
    assert "posterior.grid_eval.calls" not in lattice_runs[1, True][1]


def test_lattice_spans_cover_the_traced_wall(lattice_runs):
    assert lattice_runs[1, True][1]["trace.coverage"] >= 0.95


def test_tracer_restores_every_binding():
    before = [(owner, attr, owner.__dict__[attr])
              for owner, attr, *_ in bindings()]
    with Tracer():
        assert any(owner.__dict__[attr] is not original
                   for owner, attr, original in before)
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in before)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans.extend([["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                         ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0],
                         ["a", 11.0, 12.0, -1]])
    metrics = tracer.layer_metrics(20.0)
    assert metrics["a.calls"] == 2 and metrics["a.busy_s"] == 11.0
    assert metrics["a.self_s"] == 7.0
    assert metrics["b.self_s"] == 3.0
    assert metrics["cli.self_s"] == 9.0
    assert metrics["trace.coverage"] == 11.0 / 20.0


def test_simplex_count_matches_the_filtration():
    rng = np.random.default_rng(5)
    for n, dim, top, radius in itertools.product(
            (1, 6, 13), (2, 3), (0, 1, 2), (0.4, 0.9, None, np.inf)):
        cloud = PointCloud(rng.uniform(0.0, 1.0, (n, dim)))
        if radius is None:  # the cut h1_diagram uses
            radius = cloud.diameter() or 1.0
        params = FiltrationParams(max_homology_dim=top, max_radius=radius)
        simplices, _ = _build_filtration(cloud, params)
        assert rips_simplex_count(cloud.points, radius, top + 1) == len(simplices)


def test_inputs_follow_the_seed(tmp_path):
    def inputs(name, seed, where):
        workdir = tmp_path / where
        workload = workloads.build(name, seed, workdir)
        argvs = [[arg.replace(str(workdir), "") for arg in job.argv]
                 for job in workload.jobs]
        return argvs, run.tree_digest(workdir / "inputs")

    for name in workloads.NAMES:
        first = inputs(name, 4, f"{name}-a")
        assert inputs(name, 4, f"{name}-b") == first
        assert inputs(name, 5, f"{name}-c") != first
    _, _, observations = workloads.dense_observations(4)
    assert sum(len(d) for d in observations) == workloads.DENSE_POINTS


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "lattice-cv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
