"""Public surface: every name a module exports in __all__ resolves, and so does
every ctcsim name the benchmark harness in perfbench/ uses."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import ctcsim

MODULES = ["ctcsim.qmath", "ctcsim.circuits", "ctcsim.deutsch", "ctcsim.measures",
           "ctcsim.experiments", "ctcsim.selftest"]


@pytest.mark.parametrize("name", ["ctcsim"] + MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_come_from_the_modules():
    modules = [importlib.import_module(m) for m in MODULES]
    for name in ctcsim.__all__:
        if name != "__version__":
            assert any(name in m.__all__ and getattr(m, name) is getattr(ctcsim, name)
                       for m in modules), name


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_imports(tree):
    """(module, name) of every `from ctcsim... import name` in a parsed file, and
    (module, None) of every `import ctcsim...`, including the code snippets it
    keeps in string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ctcsim"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.startswith("ctcsim"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from perfbench_imports(ast.parse(node.value))
            except SyntaxError:
                pass


def test_names_the_benchmark_calls_resolve():
    """Every ctcsim name the benchmark traces, imports or reads off `cli`
    exists, so deleting one fails here and not only in a benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{home}.{attr}" for _, home, attr in tracing.TRACED
               if not hasattr(importlib.import_module(home), attr)]
    cli = importlib.import_module("ctcsim.cli")
    files = sorted(PERFBENCH.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module, name in perfbench_imports(tree):
            imported = importlib.import_module(module)
            if name is not None and not hasattr(imported, name):
                missing.append(f"{path.name}: {module}.{name}")
        missing += [f"{path.name}: cli.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "cli" and not hasattr(cli, node.attr)]
    assert missing == []
