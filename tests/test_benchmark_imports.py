"""The names the benchmark imports from stopline must keep resolving.

The benchmark modules are parsed, not imported or run: a rename in the
package that breaks them fails here, in the ordinary suite.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
