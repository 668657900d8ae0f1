"""gegtau benchmark: time the CLI on one seeded workload and gate its results.

    python3 perfbench/run.py --workload spectrum-highn --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout that holds ``src/gegtau``.  The workload
runs in a fresh interpreter (``worker.py``) with the BLAS thread count
fixed and ``GEGTAU_TIMESTAMP`` unset; further fresh interpreters measure
set-up time.  Prints a human-readable report, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``attempted``/``failed`` count every timed command, and
``failed`` is the numerator of fail_ratio.

End-to-end metrics, on every workload.  Times are wall times scaled to a
reference host speed: each command's time is multiplied by
``CAL_REF_S / calibration``, where the calibration is a fixed kernel timed
right before and after the command (see ``worker.py``), so the host's
drifting speed cancels and a change to gegtau does not.

- ``setup_s``: median over 5 fresh interpreters of ``import gegtau.cli``
  plus the workload's warm-up commands;
- ``latency_p50_s``: median time of one command of the workload's
  headline series: a ``spectrum`` command (spectrum-highn), a collocation
  ``spectrum`` command (spectrum-nontau), a ``sweep`` row at ``--jobs 1``
  (sweep-lown); on verify-suites, one pass of the six suites as the sum
  of their medians (a run holds only 2-4 samples of each suite, too few
  for one suite's median to be steady);
- ``work_per_s``: work completed per second of command time: spectrum
  commands (spectrum-*), grid points over both ``--jobs`` values
  (sweep-lown), passes over the six suites, from each suite's mean time
  (verify-suites);
- ``peak_rss_mb``: peak resident set of the workload's process.

The report gives, in raw wall time, every series' median, tail
percentile and sample count, points_per_s at each ``--jobs`` value and
the per-suite times, then the fail ratio, the output digest and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import selfcheck
import summary
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5  # fresh interpreters behind setup_s, the workload's own included
IMPORT_SAMPLES = 3  # -X importtime interpreters behind setup.analysis_import_s
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GEGTAU_TIMESTAMP", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args: list[str], timeout: float, python_flags: tuple = ()) -> tuple[dict, str]:
    """Start worker.py in a fresh interpreter; its JSON record and stderr."""
    cmd = [sys.executable, *python_flags, str(WORKER), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def analysis_import_s(stderr: str) -> float:
    """Cumulative import time of gegtau.analysis from ``-X importtime`` output."""
    for line in stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if line.startswith("import time:") and len(fields) == 3 and fields[2] == "gegtau.analysis":
            return int(fields[1]) / 1e6
    raise SystemExit("-X importtime reported no gegtau.analysis import")


def git_sha() -> str:
    """Commit of the checkout from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for ``section``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def series(records: list[dict], field: str) -> dict[str, list[float]]:
    """Series label -> the ``field`` times of its commands."""
    out = defaultdict(list)
    for r in records:
        out[r["key"]].append(r[field])
    return out


def latency_p50_s(workload: str, records: list[dict]) -> tuple[float, int]:
    """(median time of the headline series, its sample count), at reference speed."""
    ref = series(records, "ref_seconds")
    if workload == "verify-suites":
        return sum(statistics.median(ref[s]) for s in workloads.SUITES), min(len(ref[s]) for s in workloads.SUITES)
    primary = ref[workloads.PRIMARY[workload]]
    return statistics.median(primary), len(primary)


def work_per_s(workload: str, records: list[dict], field: str) -> float:
    """Work units per second of ``field`` time; suite passes on verify-suites."""
    if workload == "verify-suites":
        by_key = series(records, field)
        return 1.0 / sum(statistics.fmean(by_key[s]) for s in workloads.SUITES)
    return sum(r["work"] for r in records) / sum(r[field] for r in records)


def report_lines(workload: str, records: list[dict]) -> list[str]:
    """Raw wall-time figures per series, with the reference-speed median."""
    raw, ref = series(records, "seconds"), series(records, "ref_seconds")
    lines = [
        f"  {key:<22} {summary.describe(v)} s; at reference speed p50 {statistics.median(ref[key]):.4f} s"
        for key, v in sorted(raw.items())
    ]
    if workload == "sweep-lown":
        for jobs in workloads.SWEEP_JOBS:
            rs = [r for r in records if r["jobs"] == jobs]
            pts = work_per_s(workload, rs, "seconds")
            name = "points_per_s" if jobs == 1 else f"points_per_s_jobs{jobs}"
            lines.append(f"  {name:<22} {pts:.2f} 1/s (n={len(rs)} sweep commands)")
    if workload == "verify-suites":
        small = sum(statistics.median(raw[s]) for s in workloads.SMALL_SUITES)
        lines.append(f"  {'small_suites_s':<22} {small:.4f} s (sum of medians: {', '.join(workloads.SMALL_SUITES)})")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description="gegtau benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    selfcheck.run()
    if not (ROOT / "src" / "gegtau" / "cli.py").is_file():
        print(f"error: no gegtau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wargs = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    record, _ = run_worker([*wargs, "--trace", str(args.trace)], WORKER_TIMEOUT_S)
    records = record["ops"]
    attempted, failed = summary.tally(records)
    env = record["env"]

    print(f"gegtau perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"environment: git={git_sha()} python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"nproc={env['nproc']} cpu={env['cpu']!r} blas_threads={env['blas_threads']}"
    )
    print(f"closed loop, 1 client, {attempted} commands timed:")
    for line in report_lines(args.workload, records):
        print(line)
    print(f"  {'fail_ratio':<22} {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"  {'output_digest':<22} sha256:{record['digest']} (block 0, {record['digest_ops']} commands)")
    for r in records:
        for problem in r["problems"]:
            print(f"  FAILED: {problem}")

    if args.trace:
        probes = [
            run_worker(["--workload", args.workload, "--setup-only"], PROBE_TIMEOUT_S, ("-X", "importtime"))[1]
            for _ in range(IMPORT_SAMPLES)
        ]
        metrics = dict(record["layers"])
        metrics["setup.analysis_import_s"] = statistics.median(analysis_import_s(p) for p in probes)
    else:
        setups = [record] + [
            run_worker(["--workload", args.workload, "--setup-only"], PROBE_TIMEOUT_S)[0]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        raw_setups = " ".join(f"{s['setup_s']:.4f}" for s in setups)
        print(f"  {'setup':<22} {raw_setups} s (wall, {SETUP_SAMPLES} fresh interpreters)")
        latency, latency_n = latency_p50_s(args.workload, records)
        metrics = {
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "latency_p50_s": latency,
            "work_per_s": work_per_s(args.workload, records, "ref_seconds"),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} differ from those BENCHMARK.json declares")
    samples = {"setup_s": SETUP_SAMPLES, "work_per_s": attempted, "peak_rss_mb": 1}
    if not args.trace:
        samples["latency_p50_s"] = latency_n
    for name, value in metrics.items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"metric {name} = {value:.6g} {units[name]}{n}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
