"""The knob budget: ceilings on the settable values the package exposes,
and on its memo caches; the reach budget: the library functions that no
command reaches, each kept by a named contract; and the grid budget: each
command solves its ladders in at most one grid, each ladder as a stack.

Every parameter with a default and every dataclass field is a value a caller
can set, and each one multiplies the configurations that tests and
benchmarks must cover.  Every ``functools`` cache is state that outlives a
call, which tests must clear and reason about.  The ceilings are the counts
when the budget was set, so a change that adds a knob or a cache raises its
ceiling in the same diff, where a reader sees it.  Likewise a module-level
function that no command reaches is listed in ``UNREACHED`` with what keeps
it, so a helper whose only consumers are tests shows up in the diff that
adds it.
"""

import ast
import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

from gegtau import analysis, cli, pencil, spectra

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gegtau").glob("*.py"))

MAX_DEFAULTED_PARAMETERS = 16
MAX_DATACLASS_FIELDS = 29
MAX_FUNCTOOLS_CACHES = 4

# Module-level functions that no command of ``_commands`` reaches, and the
# contract that keeps each: an acceptance criterion of
# tests/test_acceptance.py, the README quick start, or a by-name wrapper in
# perfbench/spans.py.
UNREACHED = {
    "analysis.equivalence_suite": "acceptance 4 and 7",
    "analysis.legendre_mode_residual": "acceptance 4 and 7",
    "analysis.legendre_infinite_mode": "acceptance 4 and 7",
    "gegenbauer.mult_x_array": "acceptance 4 and 7",
    "charpoly.even_charpoly": "acceptance 3, README quick start, perfbench",
    "charpoly.odd_charpoly": "acceptance 3, README quick start, perfbench",
    "charpoly._antiderivative_constants": "acceptance 3, README quick start, perfbench",
    "charpoly.stability_poly": "acceptance 8, perfbench",
    "spectra.charpoly_lambdas": "acceptance 10, perfbench",
    "spectra.charpoly_for": "acceptance 10, perfbench",
    "gegenbauer.deriv_at_one": "perfbench",
    "gegenbauer.deriv_ladder": "called by deriv_at_one; ROADMAP item 22",
}


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


def _commands(tmp):
    """One command of each kind: every method, a CSV parity, a sweep, the
    six suites at their defaults, a failing suite, and ``--out`` then
    ``replay``; with the exit code each must give."""
    out = str(tmp / "spectrum.json")
    spectra = [["spectrum", "--method", m, "--gamma", "1", "--n", n] for m in sorted(cli.METHOD_NAMES) for n in ("12", "13")]
    return [
        *((argv, 0) for argv in spectra),
        (["spectrum", "--method", "tau", "--gamma", "1", "--n", "12", "--parity", "even", "--format", "csv"], 0),
        (["sweep", "--method", "tau", "--gamma-range", "0:1:0.5", "--n-range", "8:12:2"], 0),
        *((["verify", "--suite", suite], 0) for suite in sorted(analysis.SUITES)),
        (["verify", "--suite", "theorem-range", "--gamma", "3.6"], 1),
        (["spectrum", "--method", "tau", "--gamma", "1", "--n", "12", "--out", out], 0),
        (["replay", out], 0),
    ]


def _module_functions():
    """{"module.name": function} for every function defined at the top level
    of a gegtau module, a cached function as its wrapper."""
    found = {}
    for path in SOURCES:
        module = importlib.import_module("gegtau" if path.stem == "__init__" else f"gegtau.{path.stem}")
        for name, obj in vars(module).items():
            func = inspect.unwrap(obj)
            if inspect.isfunction(func) and func.__module__ == module.__name__:
                found[f"{path.stem}.{name}"] = obj
    return found


def test_unreached_functions_are_kept_by_a_contract(tmp_path):
    functions = _module_functions()
    for obj in functions.values():  # a warm cache would hide the function it wraps
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    commands = _commands(tmp_path)
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [cli.main(argv) for argv, _ in commands]
        finally:
            sys.setprofile(None)
    assert codes == [code for _, code in commands]
    unreached = {name for name, obj in functions.items() if inspect.unwrap(obj).__code__ not in reached}
    assert unreached == set(UNREACHED)


def test_each_command_solves_at_most_one_grid(tmp_path, monkeypatch, capsys):
    # every ladder a command solves comes from one ``_solved_ladders`` call:
    # one solve that every consumer of the command reuses
    solved = spectra._solved_ladders
    calls = []
    monkeypatch.setattr(spectra, "_solved_ladders", lambda *args: calls.append(args) or solved(*args))
    grids, expected = {}, {}
    for argv, code in _commands(tmp_path):
        calls.clear()
        assert cli.main(argv) == code
        capsys.readouterr()
        command = " ".join(argv)
        grids[command] = len(calls)
        expected[command] = 0 if argv[-1] in ("positive-pair", "appendixB") else 1
    assert grids == expected


def test_every_ladder_is_solved_as_a_stack(tmp_path, monkeypatch, capsys):
    # one route from a ladder to its spectrum: every elimination, reduction
    # and eigensolve a command runs takes a 3-D stack of ladders, a lone
    # ladder as a stack of one
    ndims = []

    def stacked(func):
        def call(first, *rest):
            arrays = [first.A, first.B, first.C, *rest] if isinstance(first, spectra.Pencil) else [first]
            ndims.append((func.__name__, {a.ndim for a in arrays}))
            return func(first, *rest)

        return call

    monkeypatch.setattr(pencil, "_nullspace_by_elimination", stacked(pencil._nullspace_by_elimination))
    monkeypatch.setattr(spectra, "reduce_to_standard", stacked(spectra.reduce_to_standard))
    monkeypatch.setattr(spectra, "dense_eigs", stacked(spectra.dense_eigs))
    for argv, code in _commands(tmp_path):
        assert cli.main(argv) == code
        capsys.readouterr()
        assert [call for call in ndims if call[1] != {3}] == [], " ".join(argv)
    assert {name for name, _ in ndims} == {"_nullspace_by_elimination", "reduce_to_standard", "dense_eigs"}
