"""Compare the CLI output of two checkouts, command by command.

    python3 tools/cli_bytes.py --parent ../parent --change .

Runs one fixed grid of ``gegtau`` commands in each checkout:

- ``spectrum`` for every method, gamma in GAMMAS, n in NS and alpha in
  ALPHAS, in JSON and CSV, at parity both, even and odd;
- ``sweep`` for every method at alpha {0, 0.5} and ``--jobs`` {1, 2};
- step-1 sweeps over n, whose ladders repeat and are solved once per
  grid window, for tau, galerkin and modified, and a tau sweep to n 160
  whose grid spans many windows;
- gamma steps near the 12-decimal rounding of sweep gammas: 1e-11, whose
  points stay distinct, and 1e-13, whose rounded points repeat;
- endpoint overflow: ``spectrum`` at gamma 5000 (past float64 from degree
  136), tau sweeps at gamma 5000 that exit 3 partway, and a galerkin sweep
  at gamma 4998, which overflows through the gamma + 2 shift;
- collocation at gamma 200, n 160, whose ladders have 78 and 77
  near-infinite entries, each with a residual of its own;
- the six ``verify`` suites at their defaults, and one failing run;
- each suite with each of FLAG_RUNS, which the suite takes (a verdict)
  or refuses (exit 2 with one ``error:`` line), among them a grid whose
  later configurations overflow float64 (gamma 5000, n 134..137), one with
  empty odd ladders (n 4), a repeated gamma, and one to n 64, whose stacks
  hold more ladders and modified tau's up to 33 boundary rows each;
- output files: ``spectrum --out`` in JSON and CSV, ``sweep --out``, and
  ``verify --out`` for the six suites and the failing run, each followed by
  a ``replay`` of the file it wrote;
- a second pass of the step-1 sweeps and the six default suites, which run
  with every table warm from the commands before them.

Each checkout runs the whole grid in one Python process that imports
``gegtau`` from the checkout's ``src`` and calls ``gegtau.cli.main`` per
command, in an empty working directory of its own, with BLAS on one thread,
``GEGTAU_TIMESTAMP`` fixed and every warning shown; the two checkouts run at
the same time.  A command that names a file (``--out F``, or ``replay F``)
is also compared on the bytes of F after it ran.  The tool prints
every command whose exit code, stdout, stderr or file differs, marks with
``CLASS COUNTS`` each one whose class counts (with ``distinct`` and
``interlaced``, a sweep's count columns, or a suite's verdict) differ, and
ends with a summary line.  A command in ``DECLARED`` is meant to differ:
it is listed with its reason, and does not count as a difference.  The tool
exits 1 if any other command differs.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

METHODS = ("tau", "galerkin", "inviscid", "modified", "collocation")
GAMMAS = (-0.45, 0.0, 0.5, 1.0, 2.25, 3.5, 4.5, 20.0)
NS = (4, 5, 8, 13, 24, 33, 48, 64, 100, 128, 150, 152, 160, 200)
ALPHAS = (0.0, 3.0)
SUITES = ("theorem-range", "equivalence", "perturbation", "positive-pair", "appendixB", "exact-convergence")
# flag sets run with every verify suite; each suite takes some and refuses the rest
FLAG_RUNS = (
    ("--gamma", "1"),
    ("--gamma", "1", "--gamma", "2"),
    ("--n", "10"),
    ("--n-lo", "8", "--n-hi", "9"),
    ("--n-hi", "9"),
    ("--tol", "1e-6"),
    ("--tol", "-1"),
    ("--tol", "nan"),
    ("--gamma", "5000", "--n-lo", "134", "--n-hi", "137"),
    ("--n-lo", "4", "--n-hi", "6"),
    ("--gamma", "1", "--gamma", "1"),
    ("--n-hi", "64"),
)
# command -> why its output is meant to differ from the parent's
_OWN_EIGENPAIR = "near-infinite residuals read each entry's own eigenpair, not one eigenvector nearest mu = 0"
DECLARED: dict[str, str] = {
    f"spectrum --method {m} --gamma {g} --n {n} --alpha 0.0 --format {fmt} --parity {parity}": _OWN_EIGENPAIR
    for m, g, n, parities in (
        ("modified", "20.0", 160, ("both", "even")),
        ("modified", "5000.0", 134, ("both", "even")),
        ("collocation", "5000.0", 134, ("both", "even", "odd")),
        ("collocation", "5000.0", 136, ("odd",)),
    )
    for fmt in ("json", "csv")
    for parity in parities
}
DECLARED["spectrum --method collocation --gamma 200 --n 160"] = _OWN_EIGENPAIR


def spectrum_commands(methods, gammas, ns, alphas) -> list[list[str]]:
    """``spectrum`` argvs over a grid, each in JSON and CSV at every parity."""
    return [
        ["spectrum", "--method", m, "--gamma", repr(g), "--n", str(n), "--alpha", repr(a),
         "--format", fmt, "--parity", parity]
        for m in methods for g in gammas for n in ns for a in alphas
        for fmt in ("json", "csv") for parity in ("both", "even", "odd")
    ]


def grid() -> list[list[str]]:
    """The fixed grid of commands that ``main`` compares."""
    sweeps = [
        ["sweep", "--method", m, "--gamma-range", "-0.4:4.6:0.5", "--n-range", "8:40:4",
         "--alpha", alpha, "--jobs", jobs]
        for m in METHODS for alpha in ("0", "0.5") for jobs in ("1", "2")
    ]
    step1 = [
        ["sweep", "--method", m, "--gamma-range", "-0.4:4.6:0.5", "--n-range", "8:48:1"]
        for m in ("tau", "galerkin", "modified")
    ]
    sweeps += step1
    sweeps.append(["sweep", "--method", "tau", "--gamma-range", "0:3.5:0.25", "--n-range", "8:160:1"])
    sweeps += [
        ["sweep", "--method", m, "--gamma-range", g, "--n-range", ns]
        for m, g in (("tau", "5000:5000:1"), ("galerkin", "4998:4998:1")) for ns in ("120:150:2", "130:140:1")
    ]
    sweeps += [
        ["sweep", "--method", "tau", "--gamma-range", g, "--n-range", "8:8:1"] for g in ("0:1e-10:1e-11", "0:1e-11:1e-13")
    ]
    overflow = spectrum_commands(METHODS, (5000.0,), (134, 136), (0.0,))
    overflow.append(["spectrum", "--method", "collocation", "--gamma", "200", "--n", "160"])
    suites = [["verify", "--suite", s] for s in SUITES]
    verify = suites + [["verify", "--suite", "theorem-range", "--gamma", "3.6"]]
    flags = [["verify", "--suite", s, *f] for s in SUITES for f in FLAG_RUNS]
    commands = spectrum_commands(METHODS, GAMMAS, NS, ALPHAS) + overflow + sweeps + verify + flags + output_files(verify)
    return commands + step1 + suites


def output_files(verify: list[list[str]]) -> list[list[str]]:
    """Commands that write a file with ``--out``, each followed by a ``replay`` of it."""
    writers = [
        ["spectrum", "--method", "modified", "--gamma", "0.5", "--n", "24", "--format", "json", "--out", "spectrum.json"],
        ["spectrum", "--method", "tau", "--gamma", "4.5", "--n", "33", "--format", "csv", "--out", "spectrum.csv"],
        ["sweep", "--method", "tau", "--gamma-range", "0:4:0.5", "--n-range", "8:16:4", "--out", "sweep.csv"],
    ]
    writers += [argv + ["--out", f"verify-{k}.json"] for k, argv in enumerate(verify)]
    return [cmd for argv in writers for cmd in (argv, ["replay", argv[-1]])]


def written_file(argv: list[str]) -> str | None:
    """The file a command writes or replays, or None."""
    if argv[0] == "replay":
        return argv[1]
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def class_summary(argv: list[str], stdout: str):
    """What a command's output says about the spectrum classes, or None."""
    lines = stdout.splitlines()
    try:
        if argv[0] == "spectrum" and "csv" in argv:
            classes = [line.split(",")[3] for line in lines[2:]]
            return {c: classes.count(c) for c in sorted(set(classes))}
        if argv[0] == "spectrum":
            doc = json.loads(stdout)["spectrum"]
            return [doc["counts"], doc["distinct"], doc["interlaced"]]
        if argv[0] == "sweep":
            return [line.split(",")[:9] for line in lines[2:]]
        if argv[0] == "verify":
            return lines[0]
    except (ValueError, IndexError, KeyError):
        return None  # no output, or output that does not parse: stdout differs anyway
    return None


def serve() -> None:
    """Run the JSON list of argvs on stdin through ``gegtau.cli.main``; one
    JSON line per command on stdout: exit code, output digests, class summary."""
    from gegtau import cli

    real_stdout = sys.stdout
    warnings.simplefilter("always")
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:  # an escaped exception is a result to compare, too
                code = "raised"
                traceback.print_exc()
        path = written_file(argv)
        result = {
            "code": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "file": hashlib.sha256(Path(path).read_bytes()).hexdigest() if path and Path(path).is_file() else None,
            "classes": class_summary(argv, out.getvalue()),
        }
        real_stdout.write(json.dumps(result) + "\n")


def run_grid(checkout: Path, commands: list[list[str]]) -> list[dict]:
    """``serve``'s results for ``commands`` in a fresh interpreter on ``checkout``."""
    env = dict(os.environ, GEGTAU_TIMESTAMP="2000-01-01T00:00:00Z", PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    paths = [str(Path(__file__).resolve().parent), str(checkout.resolve() / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; import cli_bytes; cli_bytes.serve()"
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(commands),
                              capture_output=True, text=True, env=env, cwd=cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"grid run in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def compare(parent: Path, change: Path, commands: list[list[str]]) -> list[str]:
    """One line per command whose exit code, stdout, stderr or file differs."""
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        old, new = pool.map(run_grid, (parent, change), (commands, commands))
    lines = []
    for argv, a, b in zip(commands, old, new):
        what = [k for k in ("stdout", "stderr", "file") if a[k] != b[k]]
        if a["code"] != b["code"]:
            what.append(f"exit {a['code']} -> {b['code']}")
        if a["classes"] != b["classes"]:
            what.append("CLASS COUNTS")
        if what:
            lines.append(f"{', '.join(what)}: {' '.join(argv)}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description="compare the CLI output of two checkouts")
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args()

    commands = grid()
    lines, declared = [], 0
    for line in compare(args.parent, args.change, commands):
        reason = DECLARED.get(line.split(": ", 1)[1])
        if reason:
            print(f"declared, {line} ({reason})")
            declared += 1
        else:
            print(line)
            lines.append(line)
    keys = ("stdout", "stderr", "file", "exit", "CLASS")
    count = {key: sum(key in line.split(": ")[0] for line in lines) for key in keys}
    print(
        f"{len(commands)} commands, {len(lines)} differ (stdout {count['stdout']}, stderr {count['stderr']}, "
        f"file {count['file']}, exit code {count['exit']}, class counts {count['CLASS']}), {declared} declared"
    )
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
