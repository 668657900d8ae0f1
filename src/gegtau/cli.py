"""Command-line interface: spectra, parameter sweeps, verification suites.

Outputs are machine-readable (JSON or CSV), deterministic for identical
flags (floats printed with 17 significant digits, fixed field order), and
every output embeds a run manifest sufficient to reproduce it via
``gegtau replay``.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
diagnostic (singular reduction / eigensolver non-convergence).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
import numpy as np

from . import __version__, analysis
from .eig import DEFAULT_TOLERANCES, NEAR_INFINITE, ConvergenceError, SpectrumReport
from .pencil import MethodConfig, SingularReductionError
from .spectra import single_parity_report, spectrum_report

METHOD_NAMES = {
    "tau": "tau",
    "galerkin": "galerkin",
    "inviscid": "inviscid_galerkin",
    "modified": "modified_tau",
    "collocation": "collocation",
}

SWEEP_CSV_HEADER = (
    "gamma,n,method,alpha,parity,n_real_negative,n_spurious_positive,"
    "n_complex,n_infinite,extreme_re,extreme_im"
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x, ".17g")


def dumps(obj) -> str:
    """JSON with fixed float formatting and insertion-ordered keys."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [f'{json.dumps(str(k))}: {dumps(v)}' for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def make_manifest(argv: list[str], extras: dict) -> dict:
    return {
        "command": list(argv),
        "version": __version__,
        "timestamp": os.environ.get("GEGTAU_TIMESTAMP"),
        **extras,
    }


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


# ---------------------------------------------------------------------------
# spectrum


def _parity_split(kind: str, alpha: float) -> bool:
    """Whether the CLI solves the parity ladders apart: alpha 0, any method but modified tau."""
    return alpha == 0.0 and kind != "modified_tau"


def _config_from_args(args) -> MethodConfig:
    kind = METHOD_NAMES[args.method]
    split = _parity_split(kind, args.alpha)
    if args.parity in ("even", "odd") and not split:
        raise ValueError("single-parity spectra need alpha = 0 and a parity-decoupling method")
    return MethodConfig(kind, args.gamma, args.n, alpha=args.alpha, parity_split=split)


def _report_rows(report: SpectrumReport, residuals: list[float]) -> list[dict]:
    rows = []
    for i, (lam, cls) in enumerate(zip(report.eigenvalues, report.classes)):
        par = report.parities[i] if report.parities is not None else None
        if cls == NEAR_INFINITE:
            re_part, im_part = None, None
        else:
            re_part, im_part = lam.real, lam.imag
        rows.append(
            {"re": re_part, "im": im_part, "class": cls, "parity": par, "residual": residuals[i]}
        )
    finite = [r for r in rows if r["class"] != NEAR_INFINITE]
    infinite = [r for r in rows if r["class"] == NEAR_INFINITE]
    finite.sort(key=lambda r: (r["re"], r["im"]))
    return finite + infinite


def _eigen_residuals(report: SpectrumReport) -> list[float]:
    """sigma_min(M - mu I)/||M||_F per eigenvalue, M of its parity ladder.

    One SVD per distinct shift of a ladder.  A shift whose imaginary part is
    exactly 0.0 (a real eigenvalue, or the near-infinite shift mu = 0) is
    applied to the real M in real arithmetic.  A complex shift is applied in
    complex arithmetic, and its conjugate twin reuses the value: M is real,
    so M - conj(mu) I is the conjugate of M - mu I and has the same
    singular values.
    """
    # per ladder: (M, ||M||_F, real identity of M's size)
    ladders = {
        par: (m, _frobenius_norm(m) or 1.0, np.eye(m.shape[0]))
        for par, m in report.reduced.items()
    }
    smin: dict[tuple, float] = {}  # (parity, Re mu, |Im mu|) -> sigma_min
    out: list[float] = []
    for i, (lam, cls) in enumerate(zip(report.eigenvalues, report.classes)):
        par = report.parities[i] if report.parities is not None else None
        m, norm, eye = ladders[par]
        mu = 0j if cls == NEAR_INFINITE else 1.0 / lam
        key = (par, mu.real, abs(mu.imag))
        if key not in smin:
            shifted = m - mu.real * eye if mu.imag == 0.0 else m - mu * eye
            smin[key] = float(np.linalg.svd(shifted, compute_uv=False)[-1])
        out.append(smin[key] / norm)
    return out


def _frobenius_norm(m: np.ndarray) -> float:
    """||M||_F, rescaled by max|M| where the plain sum of squares overflows.

    The plain norm is kept wherever it is finite, so those residuals keep
    their bytes; an infinite norm would print every residual as 0.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
        if math.isfinite(norm):
            return norm
        if not np.all(np.isfinite(m)):
            raise ConvergenceError("reduced matrix has non-finite entries")
        s = float(np.max(np.abs(m)))
        return s * float(np.linalg.norm(m / s))


def cmd_spectrum(args, argv: list[str]) -> int:
    config = _config_from_args(args)
    if args.parity in ("even", "odd"):
        report = single_parity_report(config, args.parity)
    else:
        report = spectrum_report(config)
    rows = _report_rows(report, _eigen_residuals(report))
    manifest = make_manifest(
        argv,
        {
            "config": {
                "method": config.kind,
                "gamma": config.gamma,
                "n": config.n,
                "alpha": config.alpha,
                "parity": args.parity,
            }
        },
    )
    if args.format == "json":
        doc = {
            "manifest": manifest,
            "spectrum": {
                "eigenvalues": rows,
                "counts": {
                    "real_negative": report.count("real_negative"),
                    "spurious_positive": report.count("spurious_positive"),
                    "complex_pair": report.count("complex_pair"),
                    "near_infinite": report.count("near_infinite"),
                },
                "distinct": report.distinct,
                "interlaced": report.interlaced,
                "tolerances": DEFAULT_TOLERANCES,
            },
        }
        _write(dumps(doc), args.out)
    else:
        lines = ["# manifest: " + dumps(manifest), "index,re,im,class,parity,residual"]
        for i, r in enumerate(rows):
            re_s = "" if r["re"] is None else _fmt_float(r["re"])
            im_s = "" if r["im"] is None else _fmt_float(r["im"])
            par = r["parity"] or ""
            lines.append(f'{i},{re_s},{im_s},{r["class"]},{par},{_fmt_float(r["residual"])}')
        _write("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _parse_range(spec: str, integer: bool) -> list:
    flag = "--n-range" if integer else "--gamma-range"
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} must be a:b:step, got {spec!r}")
    a, b, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError(f"{flag} must be finite, got {spec!r}")
    if integer and not all(v.is_integer() for v in (a, b, step)):
        raise ValueError(f"{flag} must be integers, got {spec!r}")
    if step <= 0:
        raise ValueError(f"{flag} step must be positive, got {step}")
    vals = []
    x = a
    while x <= b + 1e-9 * max(1.0, abs(step)):
        vals.append(int(round(x)) if integer else round(x, 12))
        x += step
    return vals


def _sweep_point(kind: str, gamma: float, n: int, alpha: float) -> str:
    config = MethodConfig(kind, gamma, n, alpha=alpha, parity_split=_parity_split(kind, alpha))
    report = spectrum_report(config)
    finite = report.finite_eigenvalues()
    if finite:
        extreme = max(finite, key=abs)
        ex_re, ex_im = _fmt_float(extreme.real), _fmt_float(extreme.imag)
    else:
        ex_re = ex_im = "null"
    return (
        f"{_fmt_float(gamma)},{n},{kind},{_fmt_float(alpha)},both,"
        f'{report.count("real_negative")},{report.count("spurious_positive")},'
        f'{report.count("complex_pair")},{report.count("near_infinite")},{ex_re},{ex_im}'
    )


def cmd_sweep(args, argv: list[str]) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    kind = METHOD_NAMES[args.method]
    gammas = _parse_range(args.gamma_range, integer=False)
    ns = _parse_range(args.n_range, integer=True)
    grid = [(g, n) for g in gammas for n in ns]
    if not grid:
        raise ValueError("empty sweep grid")
    manifest = make_manifest(
        argv,
        {"grid": {"gammas": gammas, "ns": ns, "method": kind, "alpha": args.alpha}},
    )
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(lambda p: _sweep_point(kind, p[0], p[1], args.alpha), grid))
    lines = ["# manifest: " + dumps(manifest), SWEEP_CSV_HEADER] + rows
    _write("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


# verify suite -> {flag's argparse dest: suite keyword}; a flag missing
# from a suite's entry is a usage error for that suite
SUITE_FLAGS = {
    "theorem-range": {"gamma": "gammas", "n_lo": "n_lo", "n_hi": "n_hi"},
    "equivalence": {"gamma": "gammas", "n_lo": "n_lo", "n_hi": "n_hi", "tol": "tol"},
    "perturbation": {},
    "positive-pair": {"gamma": "gammas", "n_hi": "n_hi"},
    "appendixB": {},
    "exact-convergence": {"gamma": "gamma", "n": "n", "tol": "tol"},
}


def _suite_kwargs(args) -> dict:
    kw = {}
    for dest in ("gamma", "n", "n_lo", "n_hi", "tol"):
        value = getattr(args, dest)
        if value is None:
            continue
        key = SUITE_FLAGS[args.suite].get(dest)
        if key is None:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"verify --suite {args.suite} does not take {flag}")
        if key == "tol" and not math.isfinite(value):  # no deviation exceeds a nan tol
            raise ValueError(f"verify --tol must be finite, got {value}")
        if key == "gammas":  # --gamma repeats
            value = tuple(value)
        elif key == "gamma":
            if len(value) > 1:
                raise ValueError(f"verify --suite {args.suite} takes one --gamma")
            value = value[0]
        kw[key] = value
    return kw


def cmd_verify(args, argv: list[str]) -> int:
    suite_fn = analysis.SUITES[args.suite]
    result = suite_fn(**_suite_kwargs(args))
    manifest = make_manifest(argv, {"suite": args.suite})
    doc = {
        "manifest": manifest,
        "suite": result.name,
        "passed": result.passed,
        "details": result.details,
        "counterexample": result.counterexample,
        "data": result.data,
    }
    if args.out:
        _write(dumps(doc), args.out)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] suite {result.name}")
    for line in result.details:
        print(f"  {line}")
    if result.counterexample:
        print(f"  first counterexample: {result.counterexample}")
    return EXIT_OK if result.passed else EXIT_VERIFY_FAIL


def cmd_replay(args, argv: list[str]) -> int:
    with open(args.manifest) as fh:
        doc = json.load(fh)
    manifest = doc.get("manifest", doc) if isinstance(doc, dict) else None
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not (isinstance(command, list) and command and all(isinstance(a, str) for a in command)):
        raise ValueError(f"{args.manifest} does not embed a manifest command (a list of strings)")
    if command[0] == "replay":
        raise ValueError(f"{args.manifest} embeds a replay command; replay does not nest")
    return main(command)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gegtau",
        description="Gegenbauer tau/Galerkin spectra for D^4 u = lambda D^2 u with clamped boundaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="classified spectrum of one configuration")
    sp.add_argument("--method", choices=sorted(METHOD_NAMES), required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--parity", choices=["even", "odd", "both"], default="both")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out", default=None, help="output path (default stdout)")

    sw = sub.add_parser("sweep", help="CSV sweep over a (gamma, n) grid")
    sw.add_argument("--method", choices=sorted(METHOD_NAMES), required=True)
    sw.add_argument("--gamma-range", required=True, metavar="A:B:STEP")
    sw.add_argument("--n-range", required=True, metavar="A:B:STEP")
    sw.add_argument("--alpha", type=float, default=0.0)
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--out", default=None)

    vf = sub.add_parser("verify", help="run a named verification suite")
    vf.add_argument("--suite", choices=sorted(analysis.SUITES), required=True)
    vf.add_argument("--gamma", type=float, action="append", default=None)
    vf.add_argument("--n", type=int, default=None)
    vf.add_argument("--n-lo", type=int, default=None)
    vf.add_argument("--n-hi", type=int, default=None)
    vf.add_argument("--tol", type=float, default=None)
    vf.add_argument("--out", default=None)

    rp = sub.add_parser("replay", help="re-run a command from an embedded manifest")
    rp.add_argument("manifest")
    return parser


COMMANDS = {
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "replay": cmd_replay,
}


def _attach_range_values(argv: list[str]) -> list[str]:
    """Write ``--gamma-range -0.4:0.1:0.5`` as ``--gamma-range=-0.4:0.1:0.5``.

    argparse reads an argument with a leading minus as a flag unless it is
    a plain negative number, which an A:B:STEP range never is.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--gamma-range", "--n-range") and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_range_values(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.command](args, argv)
    except (SingularReductionError, ConvergenceError) as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
