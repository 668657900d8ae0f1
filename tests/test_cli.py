import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gegtau
from gegtau import cli, gegenbauer, pencil
from gegtau.eig import NEAR_INFINITE
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
    """One complex SVD per eigenvalue: the residual column's definition."""
    out = []
    for i, (lam, cls) in enumerate(zip(report.eigenvalues, report.classes)):
        par = report.parities[i] if report.parities is not None else None
        m = report.reduced[par]
        mu = 0.0 if cls == NEAR_INFINITE else 1.0 / lam
        shifted = m - mu * np.eye(m.shape[0], dtype=complex)
        smin = float(np.linalg.svd(shifted, compute_uv=False)[-1])
        out.append(smin / (float(np.linalg.norm(m)) or 1.0))
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


def test_residuals_one_svd_per_shift_up_to_conjugation(monkeypatch, capsys):
    dtypes = count_cli_svds(monkeypatch)
    code, doc = run_json(
        ["spectrum", "--method", "tau", "--gamma", "4.5", "--n", "48", "--parity", "both"], capsys
    )
    assert code == 0
    rows = doc["spectrum"]["eigenvalues"]
    shifts = {
        (r["parity"], None, None) if r["re"] is None else (r["parity"], r["re"], abs(r["im"]))
        for r in rows
    }
    real = {key for key in shifts if key[2] in (None, 0.0)}
    assert doc["spectrum"]["counts"]["complex_pair"] > 0
    assert len(dtypes) == len(shifts) < len(rows)
    assert sum(dt == np.float64 for dt in dtypes) == len(real) > 0
    # conjugate twins print the same residual
    by_key = {}
    for r in rows:
        if r["class"] == "complex_pair":
            by_key.setdefault((r["parity"], r["re"], abs(r["im"])), []).append(r["residual"])
    assert by_key and all(len(v) == 2 and v[0] == v[1] for v in by_key.values())


@pytest.mark.parametrize(
    "gamma, n, classes",
    [
        (1.0, 64, {"real_negative"}),  # a real spectrum
        (0.5, 33, {"real_negative", "near_infinite"}),  # Legendre: shift mu = 0
        (4.5, 48, {"real_negative", "complex_pair"}),
    ],
)
def test_residuals_match_complex_oracle(gamma, n, classes):
    report = spectrum_report(MethodConfig("tau", gamma, n, parity_split=True))
    assert set(report.classes) == classes
    got = cli._eigen_residuals(report)
    want = _oracle_eigen_residuals(report)
    eps = np.finfo(float).eps
    for g, w, cls in zip(got, want, report.classes):
        if cls == "complex_pair":
            assert g == w  # a complex shift is factored as before
        else:
            assert abs(g - w) <= 64 * eps


def test_spectrum_residuals_finite_when_norm_overflows(capsys):
    # ||M||_F of the even ladder overflows float64 here (max|M| is 3e184)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc = run_json(["spectrum", "--method", "tau", "--gamma", "200", "--n", "300"], capsys)
    assert code == 0
    residuals = [e["residual"] for e in doc["spectrum"]["eigenvalues"]]
    assert all(math.isfinite(r) and r > 0.0 for r in residuals)


def test_spectrum_non_finite_reduced_matrix_exit_code(monkeypatch, capsys):
    def poisoned(config):
        report = spectrum_report(config)
        report.reduced["even"][0, 0] = np.inf
        return report

    monkeypatch.setattr(cli, "spectrum_report", poisoned)
    code = cli.main(["spectrum", "--method", "tau", "--gamma", "1", "--n", "10"])
    assert code == 3
    assert "numerical diagnostic" in capsys.readouterr().err


def test_import_cli_skips_scipy_special():
    src = str(Path(gegtau.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import gegtau.cli, sys; assert 'scipy.special' not in sys.modules"
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


def test_spectrum_single_parity_needs_decoupling(capsys):
    code, _ = run(
        ["spectrum", "--method", "tau", "--gamma", "0", "--n", "8", "--alpha", "0.1",
         "--parity", "even"],
        capsys,
    )
    assert code == 2


def test_spectrum_modified_parity_both_ok(capsys):
    code, doc = run_json(
        ["spectrum", "--method", "modified", "--gamma", "0", "--n", "10"], capsys
    )
    assert code == 0
    assert doc["spectrum"]["counts"]["near_infinite"] == 2
    assert doc["spectrum"]["interlaced"] is None


def test_spectrum_modified_large_gamma_solves(capsys):
    code, doc = run_json(
        ["spectrum", "--method", "modified", "--gamma", "5", "--n", "64"], capsys
    )
    assert code == 0
    assert doc["spectrum"]["counts"]["near_infinite"] == 2


# The Chebyshev-extrema node seeds returned a duplicated node at both points:
# a singular reduction (exit 3) in place of a spectrum.  The coupled system
# has n-3 eigenvalues; the even ladder of n = 9 holds 3 of its 6.
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


def test_node_search_failure_exit_code(monkeypatch, capsys):
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
    [("tau", "both", 2), ("tau", "even", 1), ("modified", "both", 1)],
)
def test_spectrum_assembles_each_ladder_once(monkeypatch, capsys, method, parity, expected):
    calls = count_assembles(monkeypatch)
    code, _ = run(
        ["spectrum", "--method", method, "--gamma", "1", "--n", "12", "--parity", parity], capsys
    )
    assert code == 0
    assert len(calls) == expected


def test_usage_error_exit_code(capsys):
    assert cli.main(["spectrum", "--method", "bogus", "--gamma", "0", "--n", "8"]) == 2
    capsys.readouterr()


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


def test_sweep_jobs_deterministic(capsys):
    argv = ["sweep", "--method", "tau", "--gamma-range", "0:2:0.5", "--n-range", "8:12:2"]
    _, seq = run(argv + ["--jobs", "1"], capsys)
    _, par = run(argv + ["--jobs", "4"], capsys)
    # manifests differ in the --jobs flag; the data rows must be identical
    assert seq.split("\n")[1:] == par.split("\n")[1:]


def test_sweep_jobs_share_endpoint_ladders(capsys):
    # from a cold cache, four threads ask for one gamma's log ladders
    # across the 64/128/256 size classes at once
    argv = ["sweep", "--method", "galerkin", "--gamma-range", "1.3:1.3:1", "--n-range", "8:160:8"]
    interval = sys.getswitchinterval()
    rows = []
    try:
        sys.setswitchinterval(1e-6)
        for jobs in ("1", "4"):
            gegenbauer._log_ladder.cache_clear()
            _, out = run(argv + ["--jobs", jobs], capsys)
            rows.append(out.splitlines()[2:])  # the data rows, after manifest and header
    finally:
        sys.setswitchinterval(interval)
    assert len(rows[0]) == 20 and rows[0] == rows[1]


def test_sweep_empty_grid_rejected(capsys):
    code, _ = run(
        ["sweep", "--method", "tau", "--gamma-range", "1:0:1", "--n-range", "8:8:1"], capsys
    )
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_equivalence_pass(capsys):
    code, out = run(
        ["verify", "--suite", "equivalence", "--gamma", "0", "--n-lo", "16", "--n-hi", "16"],
        capsys,
    )
    assert code == 0
    assert "[PASS]" in out


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


def test_verify_writes_json_detail(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code, _ = run(
        ["verify", "--suite", "appendixB", "--out", str(out)], capsys
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["suite"] == "appendixB"


def test_numerical_diagnostic_exit_code(monkeypatch, capsys):
    from gegtau.pencil import SingularReductionError

    def boom(*a, **kw):
        raise SingularReductionError("synthetic singular reduction")

    monkeypatch.setattr(cli, "spectrum_report", boom)
    code, _ = run(["spectrum", "--method", "tau", "--gamma", "1", "--n", "10"], capsys)
    assert code == 3


def test_eigensolver_failure_exit_code(monkeypatch, capsys):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    code = cli.main(["spectrum", "--method", "tau", "--gamma", "1", "--n", "10"])
    assert code == 3
    assert "numerical diagnostic" in capsys.readouterr().err
