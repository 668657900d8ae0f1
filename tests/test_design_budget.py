"""The knob budget: ceilings on the settable values the package exposes,
and on its memo caches.

Every parameter with a default and every dataclass field is a value a caller
can set, and each one multiplies the configurations that tests and
benchmarks must cover.  Every ``functools`` cache is state that outlives a
call, which tests must clear and reason about.  The ceilings are the counts
when the budget was set, so a change that adds a knob or a cache raises its
ceiling in the same diff, where a reader sees it.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gegtau").glob("*.py"))

MAX_DEFAULTED_PARAMETERS = 16
MAX_DATACLASS_FIELDS = 30
MAX_FUNCTOOLS_CACHES = 4


def _trees():
    return [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"charpoly.py", "cli.py", "pencil.py"}


def test_defaulted_parameters_within_budget():
    count = 0
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    assert count <= MAX_DEFAULTED_PARAMETERS, f"{count} parameters with defaults"


def test_dataclass_fields_within_budget():
    count = 0
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    assert count <= MAX_DATACLASS_FIELDS, f"{count} dataclass fields"


def test_functools_caches_within_budget():
    count = 0
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    count += name in ("lru_cache", "cache")
    assert count <= MAX_FUNCTOOLS_CACHES, f"{count} functools caches"
