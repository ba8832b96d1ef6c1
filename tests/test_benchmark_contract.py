"""The benchmark in perfbench/ drives the package from outside: it calls
suites with fixed keyword arguments, and it reads, wraps or counts named
functions of the package.  These checks fail on a change to src/ that would
break a benchmark run, before any benchmark is run."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from endolab import suites

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's child and tracing modules, imported as child.py imports
    them (perfbench/ on the path)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("child"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def _package_attributes(path):
    """(module, attribute) for each `m.attr` in the file, where `m` is an
    endolab module bound by `from endolab import m`."""
    tree = ast.parse(path.read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "endolab"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                yield modules[node.value.id], node.attr


def test_suite_workloads_bind_to_the_suites(perfbench):
    child, _ = perfbench
    for entries in child.SUITE_WORKLOADS.values():
        for name, kwargs, seeded in entries:
            kwargs = dict(kwargs, seed=0) if seeded else kwargs
            inspect.signature(suites.SUITES[name]).bind(**kwargs)


def test_every_package_name_the_benchmark_reads_exists(perfbench):
    child, tracing = perfbench
    read = {pair for path in (child.__file__, tracing.__file__) for pair in _package_attributes(Path(path))}
    # the walk must find the row hook, the two aliases and the table cache
    hooks = {("suites", "_row"), ("suites", "_variants"), ("cli", "_char_element"), ("sums", "_TABLE_CACHE")}
    assert hooks <= read
    missing = [
        f"{m}.{attr}"
        for m, attr in sorted(read)
        if not hasattr(importlib.import_module(f"endolab.{m}"), attr)
    ]
    for _, module, attr in tracing.SPANS + tracing.CALL_COUNTERS + tracing.VALUE_COUNTERS:
        home = importlib.import_module(f"endolab.{module}")
        if "." in attr:
            cls, meth = attr.split(".")
            found = meth in vars(getattr(home, cls, object))
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []
