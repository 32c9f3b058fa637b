"""Benchmark of the bayespd command line, end to end and per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload lattice-cv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The load of a workload is a closed loop in this one process: a single caller
calls each ``bayespd.cli.main([...])`` job only after the previous one has
returned, and repeats the workload's job list for ``--seconds`` of measured
time. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of the traced ones
(see ``spans.py``). The last line of standard output is one JSON object; a
copy with provenance, every sample and the spans goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import bayespd.cli; "
                "t = time.perf_counter() - t; "
                "print(repr(t)); print(bayespd.cli.__file__)")


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_bayespd():
    """Import ``bayespd.cli`` from this checkout's ``src``, never from an
    installed copy, so a tree without the sources fails instead of measuring
    something else."""
    src = ROOT / "src"
    if not (src / "bayespd" / "cli.py").is_file():
        raise SystemExit(f"error: no bayespd sources under {src}")
    sys.path.insert(0, str(src))
    import bayespd.cli
    if Path(bayespd.cli.__file__).resolve().parent != (src / "bayespd").resolve():
        raise SystemExit(f"error: imported {bayespd.cli.__file__}, not {src}")
    return bayespd.cli


def measure_setup(samples: int) -> list[float]:
    """Seconds for each of ``samples`` fresh interpreters to import
    ``bayespd.cli``, after one discarded import that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for i in range(samples + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        seconds, path = out.stdout.splitlines()
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"error: set-up probe imported {path}")
        if i:
            times.append(float(seconds))
    return times


def fresh_outdirs(jobs) -> None:
    """Empty output directories for the jobs (``bayespd posterior`` writes
    into an existing directory only)."""
    for job in jobs:
        shutil.rmtree(job.outdir, ignore_errors=True)
        job.outdir.mkdir(parents=True)


def run_jobs(cli, jobs) -> list:
    """Run the jobs one after another; each result is an exit code, or
    None when the job raised."""
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for job in jobs:
            try:
                codes.append(cli.main(job.argv))
            except Exception:
                traceback.print_exc()
                codes.append(None)
    return codes


def tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def job_problems(job, code, digest, first_digest) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    problems = job.check(job.outdir)
    if digest != first_digest:
        problems.append("output differs from the first run with this seed")
    return problems


def blas_pools() -> dict[str, int | None]:
    """Thread-pool size of each OpenBLAS loaded into this process (numpy and
    scipy each bundle their own), keyed by library file name."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return {}
    pools = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        getter = next((getattr(lib, symbol) for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")
            if hasattr(lib, symbol)), None)
        if getter is not None:
            getter.restype = ctypes.c_int
        pools[Path(path).name] = getter() if getter is not None else None
    return pools


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def process_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_pools(),
        "git_commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def measure(cli, workload, seconds: float, traced: bool) -> dict:
    """Repeat the workload's jobs for ``seconds`` of measured time.

    A run starts only while the measured total plus the median run so far
    fits in ``seconds``; there is always at least one run (two when traced:
    one untraced and one traced, alternating after that). Peak memory is the
    process's high-water mark read after each untraced run.
    """
    out = {"wall_s": [], "cpu_s": [], "peak_rss_mib": [], "traced_wall_s": [],
           "layers": [], "spans": [], "attempted": 0, "failed": 0,
           "problems": [], "max_threads": 0, "python_threads": 0}
    first_digests: dict[str, str] = {}
    children_cpu = resource.getrusage(resource.RUSAGE_CHILDREN)
    measured: list[float] = []
    while (len(measured) < (2 if traced else 1)
           or sum(measured) + statistics.median(measured) <= seconds):
        tracing = traced and len(measured) % 2 == 1
        fresh_outdirs(workload.jobs)
        gc.collect()
        tracer = Tracer() if tracing else contextlib.nullcontext()
        with tracer:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            codes = run_jobs(cli, workload.jobs)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        measured.append(wall)
        out["max_threads"] = max(out["max_threads"], process_threads() or 0)
        out["python_threads"] = max(out["python_threads"], threading.active_count())
        if tracing:
            out["traced_wall_s"].append(wall)
            out["layers"].append(tracer.layer_metrics(wall))
            out["spans"] = tracer.spans
        else:
            out["wall_s"].append(wall)
            out["cpu_s"].append(cpu)
            out["peak_rss_mib"].append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        for job, code in zip(workload.jobs, codes):
            digest = tree_digest(job.outdir)
            problems = job_problems(job, code, digest,
                                    first_digests.setdefault(job.name, digest))
            out["attempted"] += 1
            if problems:
                out["failed"] += 1
                out["problems"].append(f"{job.name}: {'; '.join(problems)}")
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["child_processes_in_load"] = (children.ru_utime + children.ru_stime
                                      > children_cpu.ru_utime + children_cpu.ru_stime)
    return out


def final_check(workload, traced: bool) -> tuple[list[str], dict]:
    """The workload's once-per-invocation check, traced when ``traced`` so
    that layers used only by checks (the quadrature oracle) are reported."""
    if workload.final_check is None:
        return [], {}
    with (Tracer() if traced else contextlib.nullcontext()) as tracer:
        start = time.perf_counter()
        problems = workload.final_check()
        wall = time.perf_counter() - start
    return problems, (tracer.layer_metrics(wall) if traced else {})


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    cli = import_bayespd()
    spec = _load_spec()
    setup = [] if traced else measure_setup(SETUP_SAMPLES)

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        workload = workloads.build(name, seed, WORK)
        fresh_outdirs(workload.warmup)
        warm_codes = run_jobs(cli, workload.warmup)
        if any(code != 0 for code in warm_codes):
            raise SystemExit(f"error: warm-up jobs of {name} exited {warm_codes}")
        load = measure(cli, workload, seconds, traced)
        check_problems, check_layers = final_check(workload, traced)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if workload.final_check is not None:
        load["attempted"] += 1
        load["failed"] += bool(check_problems)
        load["problems"].extend(f"final check: {p}" for p in check_problems)
    # The caller is the only Python thread; each BLAS pool includes the
    # calling thread, so no call computes on more than nproc threads.
    prov = provenance(seed)
    prov["os_threads_in_load"] = load["max_threads"]
    prov["threads_within_nproc"] = (
        load["python_threads"] == 1
        and all(n is not None and n <= prov["nproc"]
                for n in prov["blas_threads"].values()))
    prov["single_process_load"] = not load["child_processes_in_load"]

    if traced:
        metrics = per_layer_metrics(spec, load, check_layers)
    else:
        metrics = {
            "wall_s": (load["wall_s"], "s"),
            "cpu_s": (load["cpu_s"], "s"),
            "peak_rss_mib": (load["peak_rss_mib"], "MiB"),
            "setup_s": (setup, "s"),
        }
        metrics = {key: {"value": statistics.median(values), "unit": unit,
                         "samples": len(values)}
                   for key, (values, unit) in metrics.items()}
    attempted, failed = load["attempted"], load["failed"]

    print_summary(name, seed, metrics, attempted, failed, load["problems"], prov)
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "provenance": prov, "samples": {
                  key: load[key] for key in ("wall_s", "cpu_s", "traced_wall_s",
                                             "layers", "peak_rss_mib")},
              "setup_s": setup, "metrics": metrics, "attempted": attempted,
              "failed": failed, "problems": load["problems"]}
    stem = RESULTS / f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        # [layer, start, end, parent index] of the last traced run
        stem.with_suffix(".spans.json").write_text(json.dumps(load["spans"]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": m["value"], "unit": m["unit"]}
                          for key, m in metrics.items()}}
    print(json.dumps(result))
    return 0


def per_layer_metrics(spec: dict, load: dict, check_layers: dict) -> dict:
    """Median over traced runs of each per-layer metric in BENCHMARK.json;
    quadrature runs only in the final check, so it is read from there."""
    metrics = {}
    for entry in spec["per_layer"]:
        key = entry["name"]
        if key == "trace.overhead_frac":
            values = [statistics.median(load["traced_wall_s"])
                      / statistics.median(load["wall_s"]) - 1.0]
        elif key.startswith("quadrature."):
            values = [check_layers.get(key, 0.0)]
        else:
            values = [layers.get(key, 0.0) for layers in load["layers"]]
        metrics[key] = {"value": statistics.median(values), "unit": entry["unit"],
                        "samples": len(values)}
    return metrics


def print_summary(name, seed, metrics, attempted, failed, problems, prov):
    print(f"workload {name}, seed {seed}")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']:9s} "
              f"(median of {m['samples']})")
    print(f"  {'error_rate':40s} {failed / attempted:14.6g} {'fraction':9s} "
          f"({failed} failed of {attempted} jobs and checks)")
    for problem in problems:
        print(f"  FAILED {problem}")
    if not (prov["threads_within_nproc"] and prov["single_process_load"]):
        print(f"  WARNING: load exceeded nproc {prov['nproc']} (BLAS pools "
              f"{prov['blas_threads']}) or left one process (single process: "
              f"{prov['single_process_load']})", file=sys.stderr)
    print("  provenance " + json.dumps(prov, sort_keys=True))


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in a fresh process of its own, so that no workload's
    peak memory or warm state carries into another's reading."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=_load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
