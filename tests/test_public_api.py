"""Public surface: every name a module exports in __all__ resolves and is documented, every
package export has a reader outside the tests, and every ctcsim name the
benchmark harness in perfbench/ uses resolves."""

import ast
import dataclasses
import importlib
import importlib.util
import re
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


ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Package exports whose only readers are tests, each with the reason it stays.
TEST_ONLY_EXPORTS = {
    # The matrix-form depolarizing channel: the oracle that the engine's Bloch
    # (1 - p) shrink is checked against.
    "depolarize": "oracle",
}


def src_reads():
    """Names that src/ctcsim reads as code (a Name or an attribute loaded),
    outside the module-level statement that defines them. Import lines and __all__ entries
    hold no Name nodes, so they never count."""
    read = set()
    for path in sorted((ROOT / "src" / "ctcsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = {}
        for node in tree.body:
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else
                     [t.id for t in node.targets if isinstance(t, ast.Name)]
                     if isinstance(node, ast.Assign) else [])
            for name in names:
                spans.setdefault(name, []).append((node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            name = (None if not isinstance(getattr(node, "ctx", None), ast.Load) else
                    node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name and not any(lo <= node.lineno <= hi for lo, hi in spans.get(name, ())):
                read.add(name)
    return read


def test_every_export_has_a_non_test_reader():
    """A package export that only tests read is either deleted or listed, with
    its reason, in TEST_ONLY_EXPORTS. Demos, tools, the benchmark and the README
    count as readers by word match."""
    docs = [ROOT / "README.md"] + [path for folder in ("demos", "tools", "perfbench")
                                   for path in sorted((ROOT / folder).glob("*.py"))]
    text = "\n".join(path.read_text(encoding="utf-8") for path in docs)
    read = src_reads()
    unread = [name for name in ctcsim.__all__
              if name != "__version__" and name not in read
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert sorted(unread) == sorted(TEST_ONLY_EXPORTS)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "ctcsim").glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_and_exported_definition_has_a_docstring(path):
    """The docstrings are the contracts: every module has one, and so does every
    function and class its __all__ names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    exported = {element.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for element in node.value.elts}
    assert [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported
            and not ast.get_docstring(node)] == []


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


# The records that carry results between the layers, with their fields in
# order: `selftest --json` and `thresholds --format json` write their keys so.
RESULT_RECORDS = {
    ("ctcsim.circuits", "_GateFamily"): ("generators", "coefficients", "angle_range", "basis",
                                         "pairs"),
    ("ctcsim.deutsch", "FixedPointResult"): ("rho_ctc", "residual", "iterations",
                                             "fixed_set_dimension"),
    ("ctcsim.deutsch", "ScenarioOutput"): ("fixed_point", "rho_out_per_input",
                                           "consistency_fidelity"),
    ("ctcsim.deutsch", "DampedBatch"): ("rho", "residual", "iterations", "superoperators"),
    ("ctcsim.deutsch", "LoopBatch"): ("loop", "outputs", "fixed_set_dimension", "residual",
                                      "consistency_fidelity"),
    ("ctcsim.experiments", "ThresholdResult"): ("parameter", "crossing", "bracket",
                                                "achieved_tolerance"),
    ("ctcsim.selftest", "CheckResult"): ("check_id", "description", "passed", "detail",
                                         "elapsed"),
    ("ctcsim.selftest", "SelfTestReport"): ("results", "total_elapsed"),
}


# Every module but __main__, which runs the command line when imported.
PACKAGE_MODULES = ["ctcsim"] + [f"ctcsim.{path.stem}"
                                for path in sorted((ROOT / "src" / "ctcsim").glob("*.py"))
                                if not path.stem.startswith("__")]


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_every_dataclass_is_a_validated_frozen_input(name):
    """One record idiom: a dataclass is an input that checks its fields, so it is
    frozen and defines __post_init__; a result is a NamedTuple."""
    module = importlib.import_module(name)
    for cls in vars(module).values():
        if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls):
            assert cls.__dataclass_params__.frozen, f"{cls.__name__} is not frozen"
            assert "__post_init__" in vars(cls), f"{cls.__name__} has no __post_init__"


@pytest.mark.parametrize("module, name", RESULT_RECORDS, ids=lambda x: x)
def test_result_records_are_tuples_in_field_order(module, name):
    cls = getattr(importlib.import_module(module), name)
    assert issubclass(cls, tuple)
    assert cls._fields == RESULT_RECORDS[module, name]
