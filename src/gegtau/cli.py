"""Command-line interface: spectra, parameter sweeps, verification suites.

Outputs are machine-readable (JSON or CSV), deterministic for identical
flags (floats printed with 17 significant digits, fixed field order), and
every output embeds a run manifest sufficient to reproduce it via
``gegtau replay``: a JSON output under its "manifest" key, a CSV output on
its first line.

Exit codes: 0 success, 1 verification failure, 2 usage error (or a size
too large to allocate), 3 numerical diagnostic (singular reduction, endpoint
overflow, eigensolver non-convergence).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, analysis
from .eig import DEFAULT_TOLERANCES, NEAR_INFINITE, ConvergenceError, SpectrumReport, finite_mask
from .pencil import MethodConfig, SingularReductionError
from .spectra import single_parity_report, spectrum_report

METHOD_NAMES = {
    "tau": "tau",
    "galerkin": "galerkin",
    "inviscid": "inviscid_galerkin",
    "modified": "modified_tau",
    "collocation": "collocation",
}

# the first line of a CSV output: this prefix, then the manifest as JSON
MANIFEST_PREFIX = "# manifest: "

# the most (gamma, n) points one sweep runs, and the most points one range holds
MAX_SWEEP_POINTS = 100_000

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
    return format(x, ".17g") if math.isfinite(x) else "null"


class RawJSON(str):
    """JSON text built elsewhere, which ``dumps`` writes as it is."""


def dumps(obj) -> str:
    """JSON with fixed float formatting and insertion-ordered keys.

    Strings are escaped by ``encode_basestring_ascii``, as ``json.dumps``
    escapes them, and a ``RawJSON`` is written as it is.
    """
    if isinstance(obj, RawJSON):  # before str, which it subclasses
        return obj
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{encode_basestring_ascii(str(k))}: {dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(dumps, obj)) + "]"
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


def _config_from_args(args) -> MethodConfig:
    kind = METHOD_NAMES[args.method]
    return MethodConfig(kind, args.gamma, args.n, alpha=args.alpha)


def _report_rows(report: SpectrumReport, residuals: list[float]) -> list[tuple]:
    """The printed rows (re, im, class, parity, residual), each number as text.

    Finite entries come first, sorted by (re, im) with a stable sort, then
    near-infinite ones in report order, whose re and im are None.  Each
    number is formatted once, for the JSON and the CSV writer alike.
    """
    finite, infinite = [], []
    for lam, cls, par, res in zip(report.eigenvalues, report.classes, report.parities, residuals):
        if cls == NEAR_INFINITE:
            infinite.append((None, None, cls, par, _fmt_float(res)))
        else:
            finite.append((lam.real, lam.imag, cls, par, res))
    finite.sort(key=lambda r: (r[0], r[1]))
    return [(_fmt_float(re), _fmt_float(im), cls, par, _fmt_float(res)) for re, im, cls, par, res in finite] + infinite


def _eigen_residuals(report: SpectrumReport) -> list[float]:
    """||M v - mu v||_2 / (sigma_max(M) ||v||_2) per eigenvalue, M of its
    parity ladder: the normwise backward error of the eigenpair (mu, v).

    M, its eigenvalues and its eigenvectors are the report's own
    (``SpectrumReport.eigenpairs``, from the one LAPACK solve that gave the
    printed eigenvalues), so this makes no eigensolve: per ladder, one
    singular-value solve for sigma_max(M) and one product ``M V``, O(m^3)
    work.  A ladder's report rows are its finite eigenvalues in solve
    order, then its near-infinite ones, so row i reads the eigenvector of
    the i-th of the solve's finite eigenvalues, then of its near-infinite
    ones, as ``eig.finite_mask`` splits them.  The shift is mu = 1/lambda,
    or 0 for a near-infinite entry.
    """
    out = np.empty(len(report.eigenvalues))
    parities = np.array(report.parities)
    mus = np.array([0j if cls == NEAR_INFINITE else 1.0 / lam for lam, cls in zip(report.eigenvalues, report.classes)])
    for par, (m, w, v) in report.eigenpairs.items():
        rows = np.flatnonzero(parities == par)
        if rows.size == 0:
            continue
        smax = float(np.linalg.svd(m, compute_uv=False)[0]) or 1.0
        finite = finite_mask(w)
        j = np.concatenate([np.flatnonzero(finite), np.flatnonzero(~finite)])
        vj = v[:, j]
        r = (m @ v)[:, j] - vj * mus[rows]
        # scaled by each column's largest modulus, so that no square under-
        # or overflows: on a graded M, ||r|| can be 1e-187 of sigma_max
        scale = np.abs(r).max(axis=0)
        scale[scale == 0.0] = 1.0
        out[rows] = scale * np.linalg.norm(r / scale, axis=0) / smax / np.linalg.norm(vj, axis=0)
    return out.tolist()


def cmd_spectrum(args, argv: list[str]) -> int:
    config = _config_from_args(args)
    if args.parity in ("even", "odd"):
        report = single_parity_report(config, args.parity)
    else:
        report = spectrum_report(config, vectors=True)
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
        # a formatted float is never empty, so `or` substitutes only for None;
        # class and parity names are plain identifiers that need no escaping
        eigenvalues = ", ".join(
            f'{{"re": {re or "null"}, "im": {im or "null"}, "class": "{cls}", "parity": "{par}", "residual": {res}}}'
            for re, im, cls, par, res in rows
        )
        doc = {
            "manifest": manifest,
            "spectrum": {
                "eigenvalues": RawJSON(f"[{eigenvalues}]"),
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
        lines = [MANIFEST_PREFIX + dumps(manifest), "index,re,im,class,parity,residual"]
        lines += [f'{i},{re or ""},{im or ""},{cls},{par},{res}' for i, (re, im, cls, par, res) in enumerate(rows)]
        _write("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _parse_range(spec: str, integer: bool) -> list:
    """The points A, A + STEP, ... up to B of an A:B:STEP range, by a running
    sum; gammas are rounded to 12 decimals.

    A range whose (B - A)/STEP + 1 points exceed ``MAX_SWEEP_POINTS``, whose
    step leaves a point unmoved, or whose rounded gammas repeat is a usage
    error.
    """
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
    end = b + 1e-9 * step
    if (end - a) / step >= MAX_SWEEP_POINTS:  # overflows to inf at worst, never raises
        raise ValueError(f"{flag} has more than {MAX_SWEEP_POINTS} points, got {spec!r}")
    vals = []
    x = a
    while x <= end:
        vals.append(int(round(x)) if integer else round(x, 12))
        if x + step == x:
            raise ValueError(f"{flag} step {step!r} does not move past {x!r}, got {spec!r}")
        x += step
    if not integer and len(set(vals)) < len(vals):
        raise ValueError(f"{flag} points repeat once rounded to 12 decimals, got {spec!r}")
    return vals


def _sweep_row(kind: str, gamma: float, n: int, alpha: float, report: SpectrumReport) -> str:
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
    if len(gammas) * len(ns) > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid has {len(gammas) * len(ns)} points, more than {MAX_SWEEP_POINTS}")
    grid = [(g, n) for g in gammas for n in ns]
    if not grid:
        raise ValueError("empty sweep grid")
    manifest = make_manifest(
        argv,
        {"grid": {"gammas": gammas, "ns": ns, "method": kind, "alpha": args.alpha}},
    )
    # every --jobs value solves the grid in the calling thread: the solves
    # hold the GIL, so threads would only add cost
    reports = spectrum_report(MethodConfig(kind, g, n, alpha=args.alpha) for g, n in grid)
    rows = [_sweep_row(kind, g, n, args.alpha, report) for (g, n), report in zip(grid, reports)]
    lines = [MANIFEST_PREFIX + dumps(manifest), SWEEP_CSV_HEADER] + rows
    _write("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _suite_kwargs(args) -> dict:
    """The suite's keyword arguments: a suite takes exactly the flags its
    parameters name, and --gamma sets ``gammas``, or else its one ``gamma``."""
    params = inspect.signature(analysis.SUITES[args.suite]).parameters
    kw = {}
    for dest in ("gamma", "n", "n_lo", "n_hi", "tol"):
        value = getattr(args, dest)
        if value is None:
            continue
        key = "gammas" if dest == "gamma" and "gammas" in params else dest
        if key not in params:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"verify --suite {args.suite} does not take {flag}")
        if key == "tol" and not math.isfinite(value):  # no deviation exceeds a nan tol
            raise ValueError(f"verify --tol must be finite, got {value}")
        if key == "tol" and value < 0.0:  # every deviation exceeds it: a usage error, not a verdict
            raise ValueError(f"verify --tol must be >= 0, got {value}")
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
    log = sys.stderr if args.out == "-" else sys.stdout  # --out -: stdout holds the document alone
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] suite {result.name}", file=log)
    for line in result.details:
        print(f"  {line}", file=log)
    if result.counterexample:
        print(f"  first counterexample: {result.counterexample}", file=log)
    return EXIT_OK if result.passed else EXIT_VERIFY_FAIL


def cmd_replay(args, argv: list[str]) -> int:
    with open(args.manifest) as fh:
        text = fh.read()
    if text.startswith(MANIFEST_PREFIX):  # a CSV output: the manifest is its first line
        text = text[len(MANIFEST_PREFIX) :].partition("\n")[0]
    doc = json.loads(text)
    manifest = doc.get("manifest", doc) if isinstance(doc, dict) else None
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not (isinstance(command, list) and command and all(isinstance(a, str) for a in command)):
        raise ValueError(f"{args.manifest} does not embed a manifest command (a list of strings)")
    if command[0] == "replay":
        raise ValueError(f"{args.manifest} embeds a replay command; replay does not nest")
    return main(command)


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
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
    # accepted and validated, but every value solves serially (see cmd_sweep)
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
    except MemoryError as exc:  # a size too large to allocate is no verdict
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
