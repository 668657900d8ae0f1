import collections
import concurrent.futures
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gegtau
from gegtau import analysis, cli, gegenbauer, pencil
from gegtau.eig import DEFAULT_TOLERANCES, NEAR_INFINITE
from gegtau.pencil import MethodConfig
from gegtau.spectra import spectrum_report


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv + ["--format", "json"], capsys)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_desk_check(capsys):
    code, doc = run_json(
        ["spectrum", "--method", "tau", "--gamma", "0", "--n", "4", "--parity", "even"], capsys
    )
    assert code == 0
    eigs = doc["spectrum"]["eigenvalues"]
    assert len(eigs) == 1
    assert eigs[0]["re"] == pytest.approx(12.0, rel=1e-12)
    assert eigs[0]["class"] == "spurious_positive"


def test_spectrum_legendre_two_infinite(capsys):
    code, doc = run_json(
        ["spectrum", "--method", "tau", "--gamma", "0.5", "--n", "10"], capsys
    )
    assert code == 0
    assert doc["spectrum"]["counts"]["near_infinite"] == 2
    infinite = [e for e in doc["spectrum"]["eigenvalues"] if e["class"] == "near_infinite"]
    assert all(e["re"] is None and e["im"] is None for e in infinite)


def test_spectrum_galerkin_all_real_negative(capsys):
    code, doc = run_json(
        ["spectrum", "--method", "galerkin", "--gamma", "0", "--n", "16"], capsys
    )
    assert code == 0
    counts = doc["spectrum"]["counts"]
    assert counts["real_negative"] == len(doc["spectrum"]["eigenvalues"])
    assert doc["spectrum"]["interlaced"] is True


def test_spectrum_embeds_manifest_and_tolerances(capsys):
    code, doc = run_json(
        ["spectrum", "--method", "tau", "--gamma", "1", "--n", "8"], capsys
    )
    assert code == 0
    assert doc["manifest"]["version"]
    assert doc["manifest"]["command"][0] == "spectrum"
    assert doc["spectrum"]["tolerances"]["real_rel"] == 1e-8


def test_spectrum_residuals_small(capsys):
    code, doc = run_json(
        ["spectrum", "--method", "tau", "--gamma", "2", "--n", "12"], capsys
    )
    assert code == 0
    assert all(e["residual"] <= 1e-10 for e in doc["spectrum"]["eigenvalues"])


def _oracle_eigen_residuals(report):
    """The residual column's definition, one eigenpair at a time: the
    eigenvector v of M whose eigenvalue is nearest the shift mu, or for a
    near-infinite entry (mu = 0) the ladder's next near-infinite eigenvector
    in solve order, and ||M v - mu v|| / (sigma_max(M) ||v||), with
    math.hypot's norm.  It makes its own ``eig`` of M as the reference; the
    CLI reads the report's.

    The residual is a difference of nearly equal vectors, so it is formed as
    the CLI forms it: M v is read from the one product M V (M v alone rounds
    differently), and v * mu keeps the CLI's operand order (with fused
    multiply-adds, numpy's complex product rounds v * mu and mu * v apart).
    """
    out = []
    ladders = {}
    for lam, cls, par in zip(report.eigenvalues, report.classes, report.parities):
        m = report.eigenpairs[par][0]
        if par not in ladders:
            w, v = np.linalg.eig(m)
            near = iter(np.flatnonzero(np.abs(w) <= DEFAULT_TOLERANCES["mu_infinite"] * np.abs(w).max()))
            ladders[par] = (w, v, m @ v, np.linalg.svd(m, compute_uv=False)[0], near)
        w, v, mv, smax, near = ladders[par]
        mu = 0.0 if cls == NEAR_INFINITE else 1.0 / lam
        j = next(near) if cls == NEAR_INFINITE else np.argmin(np.abs(w - mu))
        r = mv[:, j] - v[:, j] * mu
        out.append(math.hypot(*np.abs(r)) / smax / math.hypot(*np.abs(v[:, j])))
    return out


def _complex_svd_bounds(report):
    """sigma_min(M - mu I) / sigma_max(M) per eigenvalue, from one complex SVD
    each: no eigenpair's backward error is smaller."""
    out = []
    for lam, cls, par in zip(report.eigenvalues, report.classes, report.parities):
        m = report.eigenpairs[par][0]
        mu = 0.0 if cls == NEAR_INFINITE else 1.0 / lam
        s = np.linalg.svd(m - mu * np.eye(m.shape[0], dtype=complex), compute_uv=False)
        out.append(float(s[-1] / np.linalg.svd(m, compute_uv=False)[0]))
    return out


def count_cli_svds(monkeypatch):
    """Dtypes of the matrices gegtau.cli hands to np.linalg.svd."""
    dtypes = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "gegtau.cli":
            dtypes.append(np.asarray(a).dtype)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return dtypes


def test_residuals_one_svd_per_ladder(monkeypatch, capsys):
    dtypes = count_cli_svds(monkeypatch)
    code, doc = run_json(
        ["spectrum", "--method", "tau", "--gamma", "4.5", "--n", "48", "--parity", "both"], capsys
    )
    assert code == 0
    rows = doc["spectrum"]["eigenvalues"]
    assert doc["spectrum"]["counts"]["complex_pair"] > 0
    assert dtypes == [np.float64, np.float64]  # sigma_max of the even and the odd M
    # conjugate twins print the same residual
    by_key = {}
    for r in rows:
        if r["class"] == "complex_pair":
            by_key.setdefault((r["parity"], r["re"], abs(r["im"])), []).append(r["residual"])
    assert by_key and all(len(v) == 2 and v[0] == v[1] for v in by_key.values())
    # many near-infinite entries, each with its own eigenvector: still one SVD per ladder
    del dtypes[:]
    code, doc = run_json(["spectrum", "--method", "modified", "--gamma", "200", "--n", "48"], capsys)
    assert code == 0 and dtypes == [np.float64, np.float64]
    assert doc["spectrum"]["counts"]["near_infinite"] > 2


def test_near_infinite_rows_read_their_own_eigenpairs():
    # row k of a ladder's near-infinite entries is ||M v|| / (sigma_max ||v||)
    # of the ladder's k-th near-infinite eigenpair, in solve order; one
    # nearest-eigenvalue search gave all 78 even rows one value, 0.39
    report = spectrum_report(MethodConfig("collocation", 200.0, 160), vectors=True)
    got = cli._eigen_residuals(report)
    for par, (m, w, v) in report.eigenpairs.items():
        mv, smax = m @ v, np.linalg.svd(m, compute_uv=False)[0]
        near = np.abs(w) <= DEFAULT_TOLERANCES["mu_infinite"] * np.abs(w).max()
        own = [np.linalg.norm(mv[:, k]) / smax / np.linalg.norm(v[:, k]) for k in np.flatnonzero(near)]
        rows = [g for g, cls, p in zip(got, report.classes, report.parities) if p == par and cls == NEAR_INFINITE]
        assert len(rows) == len(own) == {"even": 78, "odd": 77}[par] and len(set(rows)) > 1
        assert rows == pytest.approx(own, rel=1e-12, abs=0.0)


def count_eigensolves(monkeypatch):
    """Matrices solved by LAPACK's two eigensolver jobs, by numpy name: a
    stack of matrices counts each of them."""
    calls = {"eig": 0, "eigvals": 0}
    for name in calls:

        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += a.shape[0] if a.ndim == 3 else 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, want",
    [
        (["spectrum", "--method", "tau", "--gamma", "4.5", "--n", "48"], {"eig": 2, "eigvals": 0}),
        (["spectrum", "--method", "collocation", "--gamma", "1", "--n", "33", "--format", "csv"], {"eig": 2, "eigvals": 0}),
        (["spectrum", "--method", "galerkin", "--gamma", "1", "--n", "40", "--parity", "odd"], {"eig": 1, "eigvals": 0}),
        (["sweep", "--method", "tau", "--gamma-range", "0:1:0.5", "--n-range", "8:12:4"], {"eig": 0}),
        (["verify", "--suite", "theorem-range"], {"eig": 0}),
    ],
)
def test_one_eigensolve_per_ladder(monkeypatch, capsys, argv, want):
    # spectrum's residual column reads the eigenvectors of the solve that gave
    # its eigenvalues; every other command asks LAPACK for eigenvalues alone
    calls = count_eigensolves(monkeypatch)
    code, _ = run(argv, capsys)
    assert code == 0
    assert {name: calls[name] for name in want} == want
    if "eigvals" not in want:
        assert calls["eigvals"] > 0


def _check_residuals_against_oracle(report):
    got = cli._eigen_residuals(report)
    want = _oracle_eigen_residuals(report)
    floor = _complex_svd_bounds(report)
    eps = np.finfo(float).eps
    for g, w, lo in zip(got, want, floor):
        assert abs(g - w) <= 4 * eps * w
        assert g >= lo - 4e-16


@pytest.mark.parametrize(
    "gamma, n, classes",
    [
        (1.0, 64, {"real_negative"}),  # a real spectrum
        (0.5, 33, {"real_negative", "near_infinite"}),  # Legendre: shift mu = 0
        (4.5, 48, {"real_negative", "complex_pair"}),
    ],
)
def test_residuals_match_complex_oracle(gamma, n, classes):
    report = spectrum_report(MethodConfig("tau", gamma, n), vectors=True)
    assert set(report.classes) == classes
    _check_residuals_against_oracle(report)


def test_residuals_match_oracle_at_galerkin_worst_case():
    # 2.7e-13, the largest residual at n <= 100 over 5 methods, gamma
    # {-0.45, 0, 0.5, 1, 3.5, 4.5, 20, 200} and alpha {0, 0.5, 3}
    report = spectrum_report(MethodConfig("galerkin", 4.5, 100), vectors=True)
    _check_residuals_against_oracle(report)
    assert max(cli._eigen_residuals(report)) < 1e-12


def test_residual_eigenvector_failure_exit_code(monkeypatch, capsys):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    code = cli.main(["spectrum", "--method", "tau", "--gamma", "1", "--n", "10"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical diagnostic:")


def test_spectrum_residuals_finite_when_norm_overflows(capsys):
    # ||M||_F of the even ladder overflows float64 here (max|M| is 3e184)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc = run_json(["spectrum", "--method", "tau", "--gamma", "200", "--n", "300"], capsys)
    assert code == 0
    residuals = [e["residual"] for e in doc["spectrum"]["eigenvalues"]]
    assert all(math.isfinite(r) and r > 0.0 for r in residuals)


@pytest.mark.parametrize(
    "method, gamma, n, j",
    [("tau", "500", "320", 310), ("modified", "1000", "240", 220), ("collocation", "1000", "260", 220)],
)
def test_endpoint_overflow_is_numerical_diagnostic(capsys, method, gamma, n, j):
    # G_j(1) or DG_j(1) past float64 is a numerical limit, not a usage error
    code = cli.main(["spectrum", "--method", method, "--gamma", gamma, "--n", n])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical diagnostic:")
    assert f"gamma {float(gamma)}" in captured.err and f"j={j}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "spectrum --method tau --gamma 1 --n 10000000",
        "sweep --method tau --gamma-range 1:1:1 --n-range 10000000:10000000:1",
    ],
)
def test_size_too_large_to_allocate_is_usage_error(capsys, argv):
    # the (n+1)^2 operator at n = 10^7 is larger than the user address
    # space, so its allocation fails before it touches memory: one error
    # line and exit 2, not a traceback and exit 1, a failed verdict
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: out of memory:") and captured.err.count("\n") == 1


def test_extreme_alpha_and_dependent_rows_are_numerical_diagnostics():
    # past alpha ~1e77, (D^2 - a^2)^2 or a reduced row overflows float64, and
    # at gamma 1, n 16 modified tau's lambda-independent rows fail the
    # elimination's pivot test from alpha 1e6 (1e5 still solves): numerical
    # limits, exit 3.  At 1e77 the tau family still solves (every eigenvalue
    # near -alpha^2) and collocation overflows.  The commands run in a child
    # process, as from a shell, outside pytest's warning filter: none may
    # print a numpy RuntimeWarning before its diagnostic.
    src = str(Path(gegtau.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cases = [(m, a) for m in sorted(cli.METHOD_NAMES) for a in ("1e77", "1e78", "1e80", "1e150", "1e200")]
    cases += [("modified", "1e8"), ("tau", "1e76")]
    code = (
        "import contextlib, io, gegtau.cli as cli\n"
        f"for method, alpha in {cases!r}:\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        rc = cli.main(['spectrum', '--method', method, '--gamma', '1', '--n', '16', '--alpha', alpha])\n"
        "    print(method, alpha, rc, 'numerical diagnostic:' in err.getvalue(), 'RuntimeWarning' in err.getvalue())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    solves = {("tau", "1e77"), ("galerkin", "1e77"), ("inviscid", "1e77"), ("tau", "1e76")}
    want = [f"{m} {a} 0 False False" if (m, a) in solves else f"{m} {a} 3 True False" for m, a in cases]
    assert proc.stdout.splitlines() == want


def test_import_cli_skips_scipy_special():
    src = str(Path(gegtau.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # all of scipy, not only scipy.special: the solve path needs none of it,
    # and an import of scipy.linalg alone costs tens of ms of start-up.
    # numpy.ma (which np.median imports) holds about 1 MB of resident memory.
    # concurrent.futures too: sweeps solve in the calling thread
    lazy = ("scipy", "numpy.ma", "concurrent.futures")
    solves = [["spectrum", "--method", m, "--gamma", "1", "--n", "8"] for m in cli.METHOD_NAMES]
    # every verify suite at its defaults: appendixB's quadrature is numpy's
    # LAPACK too, so no command of the package loads scipy
    suites = [["verify", "--suite", name] for name in sorted(analysis.SUITES)]
    code = (
        "import contextlib, io, sys, gegtau.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {solves!r}]\n"
        f"assert codes == {[0] * len(solves)!r}, codes\n"
        f"assert not {lazy!r} & sys.modules.keys(), sorted({lazy!r} & sys.modules.keys())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {suites!r}]\n"
        f"assert codes == {[0] * len(suites)!r}, codes\n"
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not scipy, scipy\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_spectrum_csv_format(capsys):
    code, out = run(
        ["spectrum", "--method", "tau", "--gamma", "0.5", "--n", "8", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# manifest:")
    assert lines[1] == "index,re,im,class,parity,residual"
    assert len(lines) == 2 + 8 - 3


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("method", sorted(cli.METHOD_NAMES))
def test_spectrum_single_parity_at_positive_alpha(capsys, method, parity):
    # (D^2 - a^2) keeps parity, so one ladder solves for any method and alpha
    code, doc = run_json(
        ["spectrum", "--method", method, "--gamma", "0", "--n", "8", "--alpha", "0.1",
         "--parity", parity],
        capsys,
    )
    assert code == 0
    rows = doc["spectrum"]["eigenvalues"]
    assert rows and all(r["parity"] == parity for r in rows)


def test_spectrum_modified_parity_both_ok(capsys):
    code, doc = run_json(
        ["spectrum", "--method", "modified", "--gamma", "0", "--n", "10"], capsys
    )
    assert code == 0
    assert doc["spectrum"]["counts"]["near_infinite"] == 2
    assert doc["spectrum"]["interlaced"] is True
    # one structural infinite mode per parity ladder
    infinite = [r["parity"] for r in doc["spectrum"]["eigenvalues"] if r["class"] == "near_infinite"]
    assert infinite == ["even", "odd"]


def test_spectrum_modified_large_gamma_solves(capsys):
    code, doc = run_json(
        ["spectrum", "--method", "modified", "--gamma", "5", "--n", "64"], capsys
    )
    assert code == 0
    assert doc["spectrum"]["counts"]["near_infinite"] == 2


# The Chebyshev-extrema node seeds returned a duplicated node at both points:
# a singular reduction (exit 3) in place of a spectrum.  The two ladders
# hold n-3 eigenvalues; the even ladder of n = 9 holds 3 of its 6.
@pytest.mark.parametrize(
    "gamma, n, parity, expected", [("4.3", 8, "both", 5), ("3.5", 9, "even", 3)]
)
def test_spectrum_collocation_duplicate_node_cases_solve(capsys, gamma, n, parity, expected):
    code, doc = run_json(
        ["spectrum", "--method", "collocation", "--gamma", gamma, "--n", str(n), "--parity", parity],
        capsys,
    )
    assert code == 0
    assert len(doc["spectrum"]["eigenvalues"]) == expected


def test_node_search_failure_exit_code(monkeypatch, capsys, cold_pencil_caches):
    monkeypatch.setattr(gegenbauer, "_newton_all", lambda f, fp, seeds, fscale: seeds * np.nan)
    code = cli.main(["spectrum", "--method", "collocation", "--gamma", "1", "--n", "12"])
    assert code == 3
    assert "numerical diagnostic" in capsys.readouterr().err


def count_assembles(monkeypatch) -> list:
    """Route every gegtau reference to ``pencil.assemble`` through a counter."""
    calls = []
    original = pencil.assemble

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gegtau") and getattr(mod, "assemble", None) is original:
            monkeypatch.setattr(mod, "assemble", counted)
    return calls


@pytest.mark.parametrize(
    "method, parity, expected",
    [("tau", "both", 2), ("tau", "even", 1), ("modified", "both", 2)],
)
def test_spectrum_assembles_each_ladder_once(monkeypatch, capsys, method, parity, expected):
    calls = count_assembles(monkeypatch)
    code, _ = run(
        ["spectrum", "--method", method, "--gamma", "1", "--n", "12", "--parity", parity], capsys
    )
    assert code == 0
    assert len(calls) == expected


@pytest.mark.parametrize(
    "method, builder", [("collocation", "lobatto_interior_nodes"), ("tau", "deriv_matrix")]
)
def test_spectrum_builds_shared_ingredients_once(
    monkeypatch, capsys, cold_pencil_caches, method, builder
):
    # both parity ladders slice one operator (and collocation table)
    calls = []
    original = getattr(pencil, builder)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pencil, builder, counted)
    argv = ["spectrum", "--method", method, "--gamma", "1.3", "--n", "14", "--parity", "both"]
    code, _ = run(argv, capsys)
    assert code == 0
    assert len(calls) == 1


def test_usage_error_exit_code(capsys):
    assert cli.main(["spectrum", "--method", "bogus", "--gamma", "0", "--n", "8"]) == 2
    capsys.readouterr()


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    argvs = [
        ["spectrum", "--method", "bogus", "--gamma", "0", "--n", "8"],
        ["spectrum", "--method", "tau", "--gamma", "1.3", "--n", "12"],
        ["verify", "--suite", "equivalence", "--gamma", "2.5", "--n-lo", "8", "--n-hi", "10"],
        ["verify", "--suite", "equivalence", "--gamma", "1.5", "--n-lo", "8", "--n-hi", "10"],
    ]

    def outputs(fresh):
        cli.build_parser.cache_clear()
        got = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.main(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    fresh, reused = outputs(fresh=True), outputs(fresh=False)
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0]
    assert reused == fresh


def test_determinism_byte_identical(capsys):
    argv = ["spectrum", "--method", "tau", "--gamma", "1.3", "--n", "12"]
    _, out1 = run(argv, capsys)
    _, out2 = run(argv, capsys)
    assert out1 == out2


def test_output_file_and_replay(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code, _ = run(
        ["spectrum", "--method", "tau", "--gamma", "1", "--n", "10", "--out", str(out)], capsys
    )
    assert code == 0
    original = out.read_text()
    out.unlink()
    code2, _ = run(["replay", str(out)], capsys)
    assert code2 == 2  # manifest file is gone
    out.write_text(original)
    code3, _ = run(["replay", str(out)], capsys)
    assert code3 == 0
    assert out.read_text() == original  # replay reproduced the output file


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--method", "tau", "--gamma", "0.5", "--n", "12", "--format", "csv", "--out", "out.csv"],
        ["sweep", "--method", "tau", "--gamma-range", "0:1:0.5", "--n-range", "8:12:4", "--out", "out.csv"],
    ],
    ids=["spectrum", "sweep"],
)
def test_csv_output_replays(tmp_path, monkeypatch, capsys, argv):
    # a CSV output's manifest is its first line, after "# manifest: "
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    original = Path("out.csv").read_text()
    Path("out.csv").write_text(original.splitlines()[0] + "\n")
    assert cli.main(["replay", "out.csv"]) == 0
    assert Path("out.csv").read_text() == original
    assert capsys.readouterr().err == ""


def test_unusable_out_path_exit_code(tmp_path, capsys):
    code = cli.main(["spectrum", "--method", "tau", "--gamma", "1", "--n", "8", "--out", str(tmp_path)])
    assert code == 2
    assert "Is a directory" in capsys.readouterr().err


# exit 1 means a failed verification, so a manifest that replay cannot run is a usage error
BAD_MANIFESTS = {
    "json-list": ["spectrum", "--method", "tau"],
    "nested-replay": {"command": ["replay", "nested-replay.json"]},
    "non-string-argument": {"manifest": {"command": ["spectrum", "--method", "tau", "--gamma", 1, "--n", "8"]}},
}


@pytest.mark.parametrize("case", BAD_MANIFESTS)
def test_replay_rejects_bad_manifest(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    Path(f"{case}.json").write_text(json.dumps(BAD_MANIFESTS[case]))
    assert cli.main(["replay", f"{case}.json"]) == 2
    assert f"{case}.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def parse_sweep(out):
    lines = out.strip().split("\n")
    assert lines[0].startswith("# manifest:")
    header = lines[1]
    assert header == cli.SWEEP_CSV_HEADER
    rows = []
    for line in lines[2:]:
        parts = line.split(",")
        rows.append(
            {
                "gamma": float(parts[0]),
                "n": int(parts[1]),
                "spurious": int(parts[6]),
                "complex": int(parts[7]),
                "infinite": int(parts[8]),
                "extreme_re": None if parts[9] == "null" else float(parts[9]),
            }
        )
    return rows


def test_sweep_escape_to_infinity_shape(capsys):
    code, out = run(
        ["sweep", "--method", "tau", "--gamma-range", "0:1:0.25", "--n-range", "24:24:1"],
        capsys,
    )
    assert code == 0
    rows = parse_sweep(out)
    by_gamma = {r["gamma"]: r for r in rows}
    # spurious eigenvalue grows toward +inf as gamma -> 1/2 from below
    assert 0 < by_gamma[0.0]["extreme_re"] < by_gamma[0.25]["extreme_re"]
    # exactly at 1/2 the pair is infinite
    assert by_gamma[0.5]["infinite"] == 2
    # beyond 1/2 it returns from -inf
    assert by_gamma[0.75]["extreme_re"] < 0
    assert abs(by_gamma[0.75]["extreme_re"]) > abs(by_gamma[1.0]["extreme_re"])


def test_sweep_spurious_count_constant_two(capsys):
    code, out = run(
        ["sweep", "--method", "tau", "--gamma-range", "0:0:1", "--n-range", "8:48:8"], capsys
    )
    assert code == 0
    assert all(r["spurious"] == 2 for r in parse_sweep(out))


def test_sweep_complex_onset_at_gamma_four(capsys):
    code, out = run(
        ["sweep", "--method", "tau", "--gamma-range", "4:4:1", "--n-range", "8:24:1"], capsys
    )
    assert code == 0
    complex_ns = [r["n"] for r in parse_sweep(out) if r["complex"] > 0]
    assert complex_ns, "expected a complex pair for gamma=4 at some n"


@pytest.mark.parametrize("gamma, onset", [(3.6, 14), (4.0, 10), (5.0, 8)])
def test_sweep_complex_onset_beyond_seven_halves(capsys, gamma, onset):
    # the first degree with a complex pair, read off a one-row sweep as the
    # README does; the values are those of the former complex_onset script
    code, out = run(
        ["sweep", "--method", "tau", "--gamma-range", f"{gamma}:{gamma}:1", "--n-range", f"8:{onset}:1"],
        capsys,
    )
    assert code == 0
    assert [r["n"] for r in parse_sweep(out) if r["complex"] > 0] == [onset]


def test_sweep_jobs_deterministic(monkeypatch, capsys):
    argv = ["sweep", "--method", "tau", "--gamma-range", "0:2:0.5", "--n-range", "8:12:2"]

    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started a thread pool")

    # every --jobs value solves in the calling thread, with no executor at all
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    outs = []
    for jobs in ("1", "2", "4"):
        code, out = run(argv + ["--jobs", jobs], capsys)
        assert code == 0
        outs.append(out.split("\n")[1:])
    # manifests differ in the --jobs flag; the data rows must be identical
    assert outs[0] == outs[1] == outs[2]


def test_sweep_jobs_share_endpoint_ladders(capsys):
    # one gamma's running sums, grown from a cold table up to degree 160:
    # the rows built as they grow equal those read back from the full table
    argv = ["sweep", "--method", "galerkin", "--gamma-range", "1.3:1.3:1", "--n-range", "8:160:8"]
    gegenbauer._table.cache_clear()
    rows = []
    for jobs in ("1", "4"):
        _, out = run(argv + ["--jobs", jobs], capsys)
        rows.append(out.splitlines()[2:])  # the data rows, after manifest and header
    assert len(rows[0]) == 20 and rows[0] == rows[1]


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (["verify", "--suite", "theorem-range"], 7 * 49),  # 7 gammas x degrees 0..48
        (["sweep", "--method", "galerkin", "--gamma-range", "1:1:1", "--n-range", "8:40:1"], 41),
        (["sweep", "--method", "tau", "--gamma-range", "0:8:0.5", "--n-range", "8:9:1"], 17 * 10),  # more gammas than kept
    ],
)
def test_command_evaluates_each_endpoint_column_once(monkeypatch, capsys, cold_pencil_caches, argv, pairs):
    # one endpoint table per gamma serves every ladder of the command; a
    # second run reads the tables the first left, unless the command spans
    # more gammas than the tables kept, which then evicts each before reuse
    calls = collections.Counter()
    real = gegenbauer.value_at_one

    def counted(gamma, n):
        calls[gamma, n] += 1
        return real(gamma, n)

    monkeypatch.setattr(gegenbauer, "value_at_one", counted)
    assert run(argv, capsys)[0] == 0
    assert len(calls) == pairs and set(calls.values()) == {1}
    gammas = {gamma for gamma, _ in calls}
    calls.clear()
    assert run(argv, capsys)[0] == 0
    assert len(calls) == (pairs if len(gammas) > gegenbauer._TABLE_GAMMAS else 0) and set(calls.values()) <= {1}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_must_be_positive(capsys, jobs):
    argv = ["sweep", "--method", "tau", "--gamma-range", "1:1:1", "--n-range", "8:8:1", "--jobs", jobs]
    assert cli.main(argv) == 2
    assert "--jobs" in capsys.readouterr().err


def test_sweep_negative_range_as_separate_argument(capsys):
    outs = []
    for gamma_range in (["--gamma-range", "-0.4:0.1:0.5"], ["--gamma-range=-0.4:0.1:0.5"]):
        code, out = run(["sweep", "--method", "tau", *gamma_range, "--n-range", "8:8:1"], capsys)
        assert code == 0
        outs.append(out)
    # the manifests echo each argv as given; the header and rows are equal
    assert outs[0].splitlines()[1:] == outs[1].splitlines()[1:]
    assert [r["gamma"] for r in parse_sweep(outs[0])] == pytest.approx([-0.4, 0.1])
    # the slack past the end is relative to the step: a tiny step stops at it
    argv = ["sweep", "--method", "tau", "--gamma-range", "0:1e-10:1e-11", "--n-range", "8:8:1"]
    code, out = run(argv, capsys)
    gammas = [r["gamma"] for r in parse_sweep(out)]
    assert code == 0 and len(gammas) == 11 and gammas[-1] == pytest.approx(1e-10, rel=1e-9, abs=0.0)


def test_sweep_empty_grid_rejected(capsys):
    code, _ = run(
        ["sweep", "--method", "tau", "--gamma-range", "1:0:1", "--n-range", "8:8:1"], capsys
    )
    assert code == 2


# test id -> (--gamma-range, --n-range, the error's start): each is refused before any point is solved
UNBOUNDED_SWEEPS = {
    "step-below-rounding": ("1:2:1e-300", "8:8:1", "--gamma-range has more than"),
    "step-stalls-past-start": ("1:1:1", "9007199254740990:9007199254741000:1", "--n-range step 1.0 does not move"),
    "step-stalls-at-start": ("1e20:1e20:1", "8:8:1", "--gamma-range step 1.0 does not move"),
    "huge-gamma-range": ("0:1:1e-12", "8:8:1", "--gamma-range has more than"),
    "huge-n-range": ("1:1:1", "8:1e15:1", "--n-range has more than"),
    "range-overflows": ("-1e308:1e308:1e-300", "8:8:1", "--gamma-range has more than"),
    "grid-product": ("0:999:1", "8:1007:1", "sweep grid has 1000000 points"),
    "gammas-repeat-once-rounded": ("0:1e-11:1e-13", "8:8:1", "--gamma-range points repeat once rounded to 12 decimals"),
}


@pytest.mark.parametrize("case", UNBOUNDED_SWEEPS)
def test_sweep_grid_is_bounded(monkeypatch, capsys, case):
    gamma_range, n_range, message = UNBOUNDED_SWEEPS[case]
    monkeypatch.setattr(cli, "spectrum_report", None)  # no grid may be solved
    assert cli.main(["sweep", "--method", "tau", "--gamma-range", gamma_range, "--n-range", n_range]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {message}")


def test_sweep_range_bound_is_exact():
    bound = cli.MAX_SWEEP_POINTS
    assert len(cli._parse_range(f"0:{bound - 1}:1", integer=True)) == bound
    assert len(cli._parse_range(f"0:{(bound - 1) / 4}:0.25", integer=False)) == bound
    for spec, integer in ((f"0:{bound}:1", True), (f"0:{bound / 4}:0.25", False)):
        with pytest.raises(ValueError, match="more than"):
            cli._parse_range(spec, integer)


# test id -> (command line, the flag or field its error names)
BAD_INPUT = {
    "gamma-inf-end": ("sweep --method tau --gamma-range 0:inf:1 --n-range 8:8:1", "--gamma-range"),
    "gamma-nan-step": ("sweep --method tau --gamma-range 0:1:nan --n-range 8:8:1", "--gamma-range"),
    "gamma-nan-start": ("sweep --method tau --gamma-range nan:1:1 --n-range 8:8:1", "--gamma-range"),
    "n-half-step": ("sweep --method tau --gamma-range 1:1:1 --n-range 8:10:0.5", "--n-range"),
    "n-fractional-ends": ("sweep --method tau --gamma-range 1:1:1 --n-range 8.4:9.6:1", "--n-range"),
    "sweep-alpha-nan": ("sweep --method tau --gamma-range 1:1:1 --n-range 8:8:1 --alpha nan", "alpha"),
    "spectrum-alpha-nan": ("spectrum --method tau --gamma 1 --n 8 --alpha nan", "alpha"),
    "spectrum-alpha-inf": ("spectrum --method tau --gamma 1 --n 8 --alpha inf", "alpha"),
    "positive-pair-gamma-nan": ("verify --suite positive-pair --gamma nan", "gamma"),
    "positive-pair-gamma-inf": ("verify --suite positive-pair --gamma inf", "gamma"),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_nonfinite_or_nonintegral_input_rejected(capsys, case):
    line, name = BAD_INPUT[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(line.split())
    assert code == 2
    assert name in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# verify


def test_verify_equivalence_pass(capsys):
    code, out = run(
        ["verify", "--suite", "equivalence", "--gamma", "0", "--n-lo", "16", "--n-hi", "16"],
        capsys,
    )
    assert code == 0
    assert "[PASS]" in out


@pytest.mark.parametrize(
    "extra, gammas, ns",
    [
        ([], (0.0, 0.5, 1.25, 2.0), range(8, 25)),
        (["--gamma", "2.5", "--n-lo", "8", "--n-hi", "8"], (2.5,), (8,)),
    ],
)
def test_verify_equivalence_gamma_replaces_default_gammas(monkeypatch, capsys, extra, gammas, ns):
    calls = []

    def passing(points, tol):
        for point in points:
            calls.append(point)
            yield analysis.EquivalenceReport(tol)

    monkeypatch.setattr(analysis, "_equivalence_reports", passing)
    code, _ = run(["verify", "--suite", "equivalence"] + extra, capsys)
    assert code == 0
    assert calls == [(g, n) for g in gammas for n in ns]


def test_verify_exact_convergence(capsys):
    code, out = run(
        ["verify", "--suite", "exact-convergence", "--gamma", "2", "--n", "48"], capsys
    )
    assert code == 0
    assert "[PASS]" in out


def test_verify_failure_exit_code(capsys):
    # Chebyshev tau has spurious modes, so the theorem-range suite must fail
    code, out = run(
        ["verify", "--suite", "theorem-range", "--gamma", "0", "--n-lo", "8", "--n-hi", "9"],
        capsys,
    )
    assert code == 1
    assert "[FAIL]" in out and "counterexample" in out


def test_verify_positive_pair_past_n40(capsys):
    # the lemma holds at every n for gamma <= 3/2, past n 40 too
    code, out = run(["verify", "--suite", "positive-pair", "--gamma", "1", "--n-hi", "48"], capsys)
    assert code == 0
    assert out.startswith("[PASS] suite positive-pair")


def test_verify_positive_pair_bound_is_sharp(capsys):
    code, out = run(["verify", "--suite", "positive-pair", "--gamma", "1.6", "--n-hi", "20"], capsys)
    assert code == 1
    assert "first counterexample: gamma=1.6 n=14: (Omega,Theta)" in out


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param(["--suite", "theorem-range", "--n-lo", "50", "--n-hi", "10"], id="theorem-range"),
        pytest.param(["--suite", "equivalence", "--n-lo", "30", "--n-hi", "10"], id="equivalence"),
        pytest.param(["--suite", "positive-pair", "--n-hi", "1"], id="positive-pair"),
        # n 6 leaves 2 even and 1 odd eigenvalue for the 3 compared per parity
        pytest.param(["--suite", "exact-convergence", "--n", "6", "--tol", "1"], id="exact-convergence"),
        # every comparison with nan is false, so no deviation would exceed it
        pytest.param(["--suite", "exact-convergence", "--n", "10", "--tol", "nan"], id="tol-nan"),
    ],
)
def test_verify_rejects_a_check_it_cannot_run(capsys, extra):
    code, out = run(["verify"] + extra, capsys)
    assert code == 2
    assert "[PASS]" not in out


@pytest.mark.parametrize("suite, extra", [("equivalence", []), ("exact-convergence", ["--n", "10"])])
def test_verify_negative_tol_is_usage_error(capsys, suite, extra):
    # no deviation is below a negative tol: a usage error (exit 2), not a
    # failed verdict (exit 1); tol 0 is a legal, strict check
    code = cli.main(["verify", "--suite", suite, *extra, "--tol", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: verify --tol must be >= 0, got -1.0\n"
    code, out = run(["verify", "--suite", suite, *extra, "--tol", "0"], capsys)
    assert code in (0, 1) and out


@pytest.mark.parametrize(
    "suite, extra",
    [
        ("appendixB", ["--gamma", "7", "--tol", "1e9"]),
        ("positive-pair", ["--n-lo", "19"]),
        ("perturbation", ["--n-hi", "99"]),
        ("theorem-range", ["--tol", "1e-3"]),
        ("exact-convergence", ["--n-lo", "8"]),
        ("exact-convergence", ["--gamma", "2", "--gamma", "9"]),
    ],
)
def test_verify_rejects_flag_suite_does_not_take(capsys, suite, extra):
    assert cli.main(["verify", "--suite", suite] + extra) == 2
    err = capsys.readouterr().err
    assert suite in err and extra[0] in err


def test_verify_suite_takes_the_flags_its_parameters_name(monkeypatch, capsys):
    calls = []

    def fake(gammas=(1.0,), n_hi=9):
        calls.append({"gammas": gammas, "n_hi": n_hi})
        return analysis.SuiteResult("fake")

    monkeypatch.setitem(analysis.SUITES, "fake", fake)
    cli.build_parser.cache_clear()  # its --suite choices are read when it is built
    try:
        assert cli.main(["verify", "--suite", "fake", "--gamma", "2", "--n-hi", "5"]) == 0
        assert calls == [{"gammas": (2.0,), "n_hi": 5}]
        capsys.readouterr()
        for flag, value in (("--n", "5"), ("--tol", "1")):
            assert cli.main(["verify", "--suite", "fake", flag, value]) == 2
            assert capsys.readouterr().err == f"error: verify --suite fake does not take {flag}\n"
        assert len(calls) == 1
    finally:
        cli.build_parser.cache_clear()


def test_verify_writes_json_detail(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code, _ = run(
        ["verify", "--suite", "appendixB", "--out", str(out)], capsys
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["suite"] == "appendixB"


def test_verify_out_dash_writes_the_document_alone(tmp_path, capsys):
    # the summary lines go to stderr, so stdout parses and a saved copy replays
    saved = tmp_path / "verify.json"
    for argv, code, status in (
        (["verify", "--suite", "appendixB"], 0, "PASS"),
        (["verify", "--suite", "theorem-range", "--gamma", "3.6"], 1, "FAIL"),
    ):
        assert cli.main(argv + ["--out", "-"]) == code
        written = capsys.readouterr()
        doc = json.loads(written.out)
        assert doc["passed"] is (code == 0)
        assert doc["manifest"]["command"] == argv + ["--out", "-"]
        assert written.err.startswith(f"[{status}] suite {doc['suite']}\n")
        saved.write_text(written.out)
        assert cli.main(["replay", str(saved)]) == code
        assert capsys.readouterr() == written


def test_numerical_diagnostic_exit_code(monkeypatch, capsys):
    from gegtau.pencil import SingularReductionError

    def boom(*a, **kw):
        raise SingularReductionError("synthetic singular reduction")

    monkeypatch.setattr(cli, "spectrum_report", boom)
    code, _ = run(["spectrum", "--method", "tau", "--gamma", "1", "--n", "10"], capsys)
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--method", "tau", "--gamma", "1", "--n", "12"],
        ["sweep", "--method", "tau", "--gamma-range", "1:2:1", "--n-range", "8:9:1"],
        ["verify", "--suite", "theorem-range"],
    ],
)
def test_nan_reduced_solve_is_numerical_diagnostic(monkeypatch, capsys, argv):
    solve = np.linalg.solve

    def nan_last(a, b):
        m = solve(a, b)
        m[(-1,) * m.ndim] = np.nan
        return m

    monkeypatch.setattr(np.linalg, "solve", nan_last)
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical diagnostic: reduced solve is unreliable (residual nan); A' is near-singular\n"


def test_eigensolver_failure_exit_code(monkeypatch, capsys):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    # sweep solves for eigenvalues alone (spectrum's eig failure has its own test)
    code = cli.main(["sweep", "--method", "tau", "--gamma-range", "1:1:1", "--n-range", "10:10:1"])
    assert code == 3
    assert "numerical diagnostic" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# README


def _readme_commands() -> list[list[str]]:
    """The ``gegtau`` lines of the README's sh blocks, cut at # and |."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [
        line.split("#")[0].split("|")[0].strip()
        for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
        for line in block.splitlines()
    ]
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("gegtau ")]
    # replay needs an output file: test_output_file_and_replay covers it
    return [argv for argv in argvs if argv[0] != "replay"]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argvs = _readme_commands()
    assert len(argvs) == 10
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


def test_readme_python_quick_start_runs(capsys):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], "README.md", "exec"), names)
    assert len(capsys.readouterr().out.splitlines()) == 2
    # gamma 0 has exactly one spurious positive eigenvalue per parity, and
    # the even polynomial's roots hold the even one
    assert names["rep"].count("spurious_positive") == 2
    lambdas = 1.0 / names["mu"]
    assert np.all(lambdas.imag == 0.0) and np.sum(lambdas.real > 0.0) == 1
