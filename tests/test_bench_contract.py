import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
CHECKS = PERFBENCH / "checks.py"


def test_tracer_targets_resolve(monkeypatch):
    # The traced benchmark run replaces each (owner, attr) in TARGETS; a
    # refactor that drops one of these names would break it silently.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.TARGETS if attr not in vars(owner)]
    assert missing == []


def test_correctness_check_imports_resolve():
    # Every benchmark run imports these names for its output checks; a
    # deletion that drops one would fail the run, not only its trace.  They
    # are read from the source, so no perfbench module is executed.
    imported = [(node.module, alias.name)
                for node in ast.walk(ast.parse(CHECKS.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "hoshell"
                for alias in node.names]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
