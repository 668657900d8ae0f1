"""Compare two checkouts on perfbench, in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload spectrum-highn --seeds 71-80 [--trace 0] [--json BENCH_label.json]

For each seed, runs ``perfbench/run.py`` once in each checkout, one after
the other; the parent goes first on even-numbered pairs and the change on
odd-numbered ones, so a drift in the host's speed favours neither.  Each run
uses the ``perfbench/`` of its own checkout and lasts the change's
BENCHMARK.json ``run_seconds``.  For every workload and metric
it prints the median and quartiles of each side, how many pairs the change
won (by the metric's ``better`` direction in the change's BENCHMARK.json),
and two tests of a claimed gain:

- ``wins``: the change won at least 9 of every 10 pairs;
- ``gap``: the change's median is better than the parent's by more than the
  parent's interquartile range.

An end-to-end metric whose change median is worse than the parent's by more
than its declared bound is flagged ``WORSE``.  With ``--json PATH``, the
same comparison is also written to PATH: the seeds, the run seconds and,
per workload and metric, both sides' quartiles, the pairs the change won
and the two tests and the bound's verdict.  Uses the standard library
only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(spec: str) -> list[int]:
    """'71-80' or '1,5,9' (or a mix) as a list of seeds."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The JSON result line of one perfbench run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} in {checkout}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def declared(change: Path) -> tuple[dict, dict, int]:
    """(metric -> 'lower'|'higher', end-to-end metric -> bound, run seconds) from BENCHMARK.json."""
    doc = json.loads((change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}
    return better, {m["name"]: m["bound"] for m in doc["end_to_end"]}, doc["run_seconds"]


def compare(pairs: list[tuple[dict, dict]], better: dict, bounds: dict) -> dict:
    """One workload's (parent, change) result pairs, compared metric by metric."""
    doc = {"pairs": len(pairs), "sides": {}, "metrics": {}}
    for side, i in (("parent", 0), ("change", 1)):
        doc["sides"][side] = {
            "correct": all(p[i]["correct"] for p in pairs),
            "failed": sum(p[i]["failed"] for p in pairs),
            "attempted": sum(p[i]["attempted"] for p in pairs),
        }
    for name in pairs[0][0]["metrics"]:
        old = [p[0]["metrics"][name]["value"] for p in pairs]
        new = [p[1]["metrics"][name]["value"] for p in pairs]
        lower = better.get(name, "lower") == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        (p1, pm, p3), (c1, cm, c3) = quartiles(old), quartiles(new)
        change = (cm - pm) / pm if pm else 0.0
        gain = (pm - cm) if lower else (cm - pm)
        worse = -change if not lower else change
        doc["metrics"][name] = {
            "better": "lower" if lower else "higher",
            "parent": [p1, pm, p3],
            "change": [c1, cm, c3],
            "relative_change": change,
            "change_won": wins,
            "wins": wins * 10 >= 9 * len(pairs),
            "gap": gain > p3 - p1,
            "bound": bounds.get(name),
            "worse_beyond_bound": name in bounds and worse > bounds[name],
        }
    return doc


def summarize(workload: str, doc: dict) -> list[str]:
    """Report lines for one workload's comparison, as ``compare`` returns it."""
    lines = [f"{workload}: {doc['pairs']} pairs"]
    for side, got in doc["sides"].items():
        lines.append(f"  {side}: correct={got['correct']} failed={got['failed']}/{got['attempted']}")
    for name, m in doc["metrics"].items():
        (p1, pm, p3), (c1, cm, c3) = m["parent"], m["change"]
        verdict = f"wins {'yes' if m['wins'] else 'no'}, gap {'yes' if m['gap'] else 'no'}"
        if m["worse_beyond_bound"]:
            verdict += f", WORSE beyond bound {m['bound']}"
        lines.append(
            f"  {name}: {pm:.6g} ({p1:.6g}-{p3:.6g}) -> {cm:.6g} ({c1:.6g}-{c3:.6g}) "
            f"{m['relative_change']:+.1%}; change won {m['change_won']}/{doc['pairs']}; {verdict}"
        )
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description="alternating perfbench pairs of two checkouts")
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 71-80 or 1,4,9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, default=None, help="also write the comparison to this JSON file")
    args = ap.parse_args()

    better, bounds, seconds = declared(args.change)
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                got[side] = run_once(checkout.resolve(), workload, seed, seconds, args.trace)
            pairs.append((got["parent"], got["change"]))
            print(f"{workload} seed {seed} ({order[0]} first) done", file=sys.stderr, flush=True)
        report["workloads"][workload] = compare(pairs, better, bounds)
        print("\n".join(summarize(workload, report["workloads"][workload])), flush=True)
        if args.json:  # rewritten after each workload, so a cut run keeps the finished ones
            args.json.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
