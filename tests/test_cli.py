import json
import sys

import numpy as np
import pytest

from gegtau import cli, pencil


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
