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


def test_sweep_empty_grid_rejected(capsys):
    code, _ = run(
        ["sweep", "--method", "tau", "--gamma-range", "1:0:1", "--n-range", "8:8:1"], capsys
    )
    assert code == 2


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

    def passing(gamma, n, tol):
        calls.append((gamma, n))
        return analysis.EquivalenceReport(tol)

    monkeypatch.setattr(analysis, "equivalence_suite", passing)
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
