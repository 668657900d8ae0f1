"""Run one workload in this (fresh) interpreter and print one JSON record.

Imports ``gegtau.cli`` from the checkout's ``src``, warms up, then drives
``gegtau.cli.main(argv)`` in process, one command at a time, and checks
every result with the gate.  ``run.py`` starts this script; it can also be
run alone:

    python3 perfbench/worker.py --workload spectrum-highn --seed 1 --seconds 5 --trace 0
    python3 perfbench/worker.py --workload verify-suites --setup-only

With ``--trace 0`` whole blocks of commands run until ``--seconds`` have
passed (the first block always runs, so every command kind is timed at
least once).  With
``--trace 1`` a fixed number of blocks runs twice, untraced and then traced,
so that the difference is the tracing overhead and the per-layer counts
repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import gate
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_PROBLEMS = 5  # problems kept per failed command


def _load_cli():
    """Import gegtau.cli from the checkout, refusing any other copy."""
    if not (SRC / "gegtau" / "cli.py").is_file():
        raise SystemExit(f"no gegtau sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gegtau.cli

    if SRC.resolve() not in Path(gegtau.cli.__file__).resolve().parents:
        raise SystemExit(f"imported gegtau from {gegtau.cli.__file__}, not from {SRC}")
    return gegtau.cli


def run_command(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """(exit code, stdout, stderr, wall seconds) of one in-process command.

    An exception that escapes ``main`` is a failed command: its exit code
    is None and its traceback goes to stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:
            rc = None
            traceback.print_exc()
        seconds = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


def galerkin_counts(op: workloads.Op) -> dict:
    """Finite class counts of galerkin at the op's (gamma, n): the modified_tau reference."""
    from gegtau.pencil import MethodConfig
    from gegtau.spectra import spectrum_report

    rep = spectrum_report(MethodConfig("galerkin", op.gamma, op.n, parity_split=True))
    return {c: rep.count(c) for c in gate.FINITE_CLASSES}


# The host's speed drifts: on a shared 2-vCPU machine the same command took
# from 0.68x to 1x of its time within two minutes, and whole 25-second runs
# differed by up to 40%.  A fixed kernel, timed right before and after each
# command, measures that speed, and each command's time is also reported
# scaled to a host on which the kernel takes CAL_REF_S.  Over ten seeds per
# workload, the quartile spread of the run medians was 6-40% unscaled and
# 3-13% scaled.
CAL_REF_S = 0.015
# A single kernel run varies by about 20% with the host's bursts, so each
# side of a command is calibrated with kernel runs adding up to CAL_SHARE of
# the command's time (at least one, at most CAL_MAX_RUNS), and their median.
CAL_SHARE = 0.03
CAL_MAX_RUNS = 25


def calibration_s() -> float:
    """Wall time of a fixed kernel shaped like the program's work.

    Householder steps through numpy on a 48x48 and a 16x16 matrix, with
    scalar ``math.log`` loops, as in the pencil reduction, the hand-written
    QR and the endpoint rows.  It never calls gegtau, so no change to the
    program moves it.
    """
    import math

    import numpy as np

    t0 = perf_counter()
    for size, reps, logs in ((48, 2, 200), (16, 20, 60)):
        h0 = np.cos(np.arange(size * size, dtype=float)).reshape(size, size)
        for _ in range(reps):
            h = h0.copy()
            acc = 0.0
            for k in range(size - 1):
                v = h[k:, k].copy()
                v[0] += math.copysign(float(np.linalg.norm(v)), v[0])
                v /= float(np.linalg.norm(v))
                h[k:, :] -= 2.0 * np.outer(v, v @ h[k:, :])
                for j in range(1, logs):
                    acc += math.log(j + k) - math.log(j + 1.0)
    return perf_counter() - t0


class Runner:
    """Runs commands, gates them, and keeps what the report needs."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.records: list[dict] = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.cal_runs = [calibration_s()]
        self.last_s: dict[str, float] = {}

    @staticmethod
    def _calibrate(runs: list[float], budget_s: float) -> float:
        """Median kernel time, adding runs to ``runs`` until they take ``budget_s``."""
        while sum(runs) < budget_s and len(runs) < CAL_MAX_RUNS:
            runs.append(calibration_s())
        return statistics.median(runs)

    def run(self, op: workloads.Op, index: int = 0, tracer=None, expect=None) -> tuple[str, str]:
        """Run, time and gate one command; its (stdout, stderr).

        With a ``tracer`` the command is traced as op ``index`` and its
        output must equal ``expect``, the untraced (stdout, stderr).
        """
        cal_before = self._calibrate(self.cal_runs, CAL_SHARE * self.last_s.get(op.key, 0.0))
        if tracer is not None:
            tracer.begin_op(index)
        try:
            rc, out, err, seconds = run_command(self.cli, op.argv)
        finally:
            if tracer is not None:
                tracer.end_op()
        self.last_s[op.key] = seconds
        self.cal_runs = [calibration_s()]
        cal_s = (cal_before + self._calibrate(self.cal_runs, CAL_SHARE * seconds)) / 2

        reference = galerkin_counts(op) if op.method == "modified" and rc == 0 else None
        problems = gate.check(op, rc if rc is not None else -1, out, reference)
        if expect is not None and (out, err) != expect:
            problems.append(f"{' '.join(op.argv)}: traced output differs from untraced")
        self.records.append(
            {
                "key": op.key,
                "seconds": seconds,
                "cal_s": cal_s,
                "ref_seconds": seconds * CAL_REF_S / cal_s,
                "work": op.work,
                "jobs": op.jobs,
                "problems": problems[:MAX_PROBLEMS],
            }
        )
        if tracer is None and op.block == 0:
            for part in (" ".join(op.argv), str(rc), out, err):
                self.digest.update(part.encode() + b"\0")
            self.digest_ops += 1
        return out, err


def timed_run(cli, workload: str, seed: int, seconds: float) -> Runner:
    """Closed loop over whole blocks until ``seconds`` pass.

    Only whole blocks run, so every run has the same mix of command kinds.
    The first ``MIN_BLOCKS`` blocks always run; a later block starts only
    if the previous block's time says it ends before the deadline.
    """
    runner = Runner(cli)
    start = perf_counter()
    last_block_s = 0.0
    for ops in workloads.blocks(workload, seed):
        block_start = perf_counter()
        if ops[0].block >= workloads.MIN_BLOCKS[workload] and block_start - start + last_block_s > seconds:
            break
        for op in ops:
            runner.run(op)
        last_block_s = perf_counter() - block_start
    return runner


def traced_run(cli, workload: str, seed: int) -> tuple[Runner, dict]:
    """The fixed trace blocks untraced, then traced; per-layer metrics."""
    from spans import Tracer

    count = workloads.TRACE_BLOCKS[workload]
    ops = [op for ops in itertools.islice(workloads.blocks(workload, seed), count) for op in ops]
    runner = Runner(cli)
    outputs = [runner.run(op) for op in ops]

    tracer = Tracer()
    tracer.install()
    try:
        for i, (op, output) in enumerate(zip(ops, outputs)):
            runner.run(op, i, tracer, output)
    finally:
        tracer.uninstall()

    missing = workloads.EXPECTED_SPANS[workload] - tracer.fired()
    if missing:
        raise RuntimeError(f"wrappers expected on {workload} never fired: {sorted(missing)}")
    layers = tracer.layer_metrics({i: op.jobs for i, op in enumerate(ops) if op.kind == "sweep"})
    untraced_s = sum(r["ref_seconds"] for r in runner.records[: len(ops)])
    traced_s = sum(r["ref_seconds"] for r in runner.records[len(ops) :])
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return runner, layers


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="measure set-up time only")
    args = ap.parse_args()

    t0 = perf_counter()
    cli = _load_cli()
    for argv in workloads.WARMUP[args.workload]:
        rc, _, err, _ = run_command(cli, argv)
        if rc != 0:
            raise SystemExit(f"warm-up {argv} exited {rc}: {err}")
    setup_s = perf_counter() - t0
    calibration_s()  # first call pays numpy's lazy set-up
    setup_ref_s = setup_s * CAL_REF_S / statistics.median(calibration_s() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    if args.trace:
        runner, layers = traced_run(cli, args.workload, args.seed)
    else:
        runner, layers = timed_run(cli, args.workload, args.seed, args.seconds), None
    record = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "ops": runner.records,
        "digest": runner.digest.hexdigest(),
        "digest_ops": runner.digest_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "layers": layers,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
