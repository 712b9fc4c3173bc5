"""Every module-level import in src/fednaslab is used by its module.

The one exception is a name that perfbench/spans.py traces in that module:
the benchmark patches the name where the module looks it up, so the module
keeps the import even after its own code stops calling it. Once the
benchmark drops such a trace target, this test flags the leftover import.

Every name a src/fednaslab module imports from another fednaslab module is
defined by that module's own statements: no module re-exports a name, so
each name has one import path, which is also the one the benchmark patches.

Only fednaslab.records imports csv or calls json.dump: the CSV and JSON
formats of every artifact live there (`write_csv`, `write_json`).

Importing fednaslab.cli must load no scipy module and not numpy.f2py: the
package runs on numpy alone, and scipy's import (with numpy.f2py, which its
array-API layer pulls in) was most of every command's start-up. scipy stays
a test-only oracle.

Every benchmarks/bench_*.py imports: the suite collects none of them, so a
renamed or deleted package name they use would otherwise break them
unnoticed.
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fednaslab"
MODULES = sorted(PACKAGE.rglob("*.py"))
BENCHES = sorted((ROOT / "benchmarks").glob("bench_*.py"))


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _traced_names():
    """{module: names the benchmark traces there}, read from spans.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {}
    for module, attr, _ in spans.TRACE_TARGETS:
        traced.setdefault(module, set()).add(attr.split(".")[0])
    return traced


def _imported_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


TRACED = _traced_names()


@pytest.mark.parametrize("path", MODULES, ids=_module_name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    traced = TRACED.get(_module_name(path), set())
    unused = _imported_names(tree) - _used_names(tree) - traced
    assert not unused, f"{_module_name(path)} imports {sorted(unused)} unused"


def _defined_names(tree):
    """The names a module's own top-level statements bind, imports aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _source_module(path, node):
    """The dotted name an `ImportFrom` node in the module at `path` reads from."""
    if not node.level:
        return node.module
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


MODULE_PATHS = {_module_name(p): p for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=_module_name)
def test_every_package_import_names_its_defining_module(path):
    module = _module_name(path)
    wrong = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, ast.ImportFrom):
            continue
        source = _source_module(path, node)
        if source not in MODULE_PATHS:
            continue
        defined = _defined_names(ast.parse(MODULE_PATHS[source].read_text()))
        wrong += [f"{a.name} from {source}" for a in node.names
                  if a.name not in defined]
    assert not wrong, (
        f"{module} imports {wrong}, which those modules only re-export; "
        "import each name from the module that defines it")


def _artifact_writes(tree):
    """The `csv` imports and `json.dump` uses in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if node.module == "csv" or a.name == "dump"]
        elif (isinstance(node, ast.Attribute) and node.attr == "dump"
              and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append("json.dump")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if _module_name(p) != "fednaslab.records"],
    ids=_module_name)
def test_only_records_holds_the_artifact_formats(path):
    found = _artifact_writes(ast.parse(path.read_text(), filename=str(path)))
    assert not found, (
        f"{_module_name(path)} uses {found}; write CSV and JSON artifacts "
        "through records.write_csv and records.write_json")


def test_cli_import_loads_no_scipy_and_no_f2py():
    code = ("import sys, fednaslab.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.') or m == 'numpy.f2py')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.stem)
def test_every_benchmark_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"benchmarks_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
