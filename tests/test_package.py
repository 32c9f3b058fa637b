import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import bayespd


def test_all_names_resolve_without_duplicates():
    assert len(bayespd.__all__) == len(set(bayespd.__all__))
    assert [name for name in bayespd.__all__ if not hasattr(bayespd, name)] == []
    namespace: dict = {}
    exec("from bayespd import *", namespace)
    assert set(bayespd.__all__) <= set(namespace)


def test_benchmark_bound_names_exist():
    # perfbench/spans.py rebinds these names to time each layer, and calls
    # PointCloud.diameter; perfbench/tests calls _build_filtration(cloud,
    # params). Deleting one breaks the benchmark, so this suite checks them.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in spans.bindings() if attr not in vars(owner)]
    assert missing == []
    assert callable(bayespd.rips._build_filtration)
    assert callable(bayespd.rips.PointCloud.diameter)


def fresh_cli_import(expression: str) -> str:
    """``expression`` as printed by a fresh interpreter after ``import
    bayespd.cli``, the set-up every command-line call pays."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, bayespd.cli; print({expression})"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    return result.stdout.strip()


SCIPY_MODULES = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would add about half a
    # second to every command-line call
    assert fresh_cli_import(SCIPY_MODULES) == "[]"


def test_cli_import_builds_no_format_tables():
    # the grid CSV formatter's tables take milliseconds to build, so they are
    # built on the first grid written, not at import
    probe = f"bayespd._floatfmt.tables.cache_info().currsize, {SCIPY_MODULES}"
    assert fresh_cli_import(probe) == "0 []"
