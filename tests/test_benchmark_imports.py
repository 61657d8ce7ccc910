"""The benchmark's workloads must keep running on the package.

The names the benchmark modules import from stopline must resolve, and
each workload, imported unedited from `perfbench/`, must run at the tiny
scale with its checks passing and its traced pass reproducing the plain
one bit for bit: a change to the package that breaks the benchmark fails
here, in the ordinary suite.  Nothing is written under `perfbench/`.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def stopline_imports(path):
    """(module, name) for every `from stopline... import name` in the file,
    nested imports included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "stopline"
            for alias in node.names]


@pytest.mark.parametrize("name", ["workloads.py", "tracing.py"])
def test_benchmark_imports_resolve(name):
    imports = stopline_imports(PERFBENCH / name)
    assert imports
    missing = [f"{module}.{attr}" for module, attr in imports
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


@pytest.fixture(scope="module")
def perfbench():
    """The workloads and tracing modules, imported as the benchmark runner
    imports them, without writing their bytecode under perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["put_solve", "bump_verify", "branching_ks"])
def test_benchmark_workload_runs_at_tiny_scale(perfbench, name):
    workloads, tracing = perfbench
    wl = workloads.build(ROOT, name, seed=3, scale="tiny")
    plain = wl.run()
    checks = wl.checks(plain.values)
    assert checks and [k for k, ok in checks.items() if not ok] == []
    traced = wl.run_traced(tracing.Tracer(), tracing.Counts())
    assert workloads.digest(traced.values) == workloads.digest(plain.values)
