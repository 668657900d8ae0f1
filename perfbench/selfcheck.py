"""Fast check of the benchmark's own arithmetic; run.py runs it first.

Checks the tail-percentile rule, self time as span duration minus the
union of its children's intervals, and the fail_ratio numerator and
denominator on synthetic commands, one of which breaks a class-count law.
Run alone with ``python3 perfbench/selfcheck.py``.
"""

from __future__ import annotations

import json
import sys

import gate
import summary
from spans import self_times
from workloads import Op


def _expect(what: str, got, want) -> None:
    if got != want:
        raise AssertionError(f"self-check {what}: got {got!r}, expected {want!r}")


def check_percentile() -> None:
    _expect("percentile of 10 samples", summary.tail_percentile([1.0] * 10), None)
    _expect("percentile of 11 samples", summary.tail_percentile([float(i) for i in range(1, 12)]), (9, 1.0))
    _expect("percentile of 100 samples", summary.tail_percentile([float(i) for i in range(1, 101)]), (90, 90.0))
    # 57 samples: p82 is rank ceil(46.74) = 47, leaving 10 beyond; p83 would be rank 48
    _expect("percentile of 57 samples", summary.tail_percentile([float(i) for i in range(1, 58)]), (82, 47.0))


def check_self_time() -> None:
    spans = [
        (0, "cli.main", 0.0, 10.0, -1, False, 0),
        (1, "spectra.spectrum_report", 1.0, 3.0, 0, False, 0),  # two overlapping children,
        (2, "spectra.spectrum_report", 2.0, 5.0, 0, False, 0),  # as from two sweep threads
        (3, "pencil.assemble", 8.0, 9.5, 0, False, 0),
        (4, "eig.dense_eigs", 2.5, 4.0, 2, False, 0),
    ]
    got = self_times(spans)
    _expect("root self time", got[0], 10.0 - (4.0 + 1.5))
    _expect("child self time", got[2], 3.0 - 1.5)
    _expect("leaf self time", got[4], 1.5)


def check_fail_ratio() -> None:
    argv = ["spectrum", "--method", "tau", "--gamma", "0", "--n", "8", "--parity", "both", "--format", "json"]
    op = Op(argv, "spectrum", 0, method="tau", gamma=0.0, n=8, fmt="json")

    def output(spurious: int) -> str:
        rows = [{"class": "spurious_positive"}] * spurious + [{"class": "real_negative"}] * (5 - spurious)
        counts = {c: 0 for c in gate.CLASSES}
        counts["spurious_positive"], counts["real_negative"] = spurious, 5 - spurious
        spectrum = {"eigenvalues": rows, "counts": counts, "distinct": True, "interlaced": False}
        return json.dumps({"manifest": {"command": argv}, "spectrum": spectrum})

    records = [{"problems": gate.check(op, 0, output(2))}, {"problems": gate.check(op, 0, output(1))}]
    _expect("problems of a law-abiding command", records[0]["problems"], [])
    _expect("(attempted, failed) with one law breach", summary.tally(records), (2, 1))
    records.append({"problems": gate.check(op, 2, "")})
    _expect("(attempted, failed) with a nonzero exit", summary.tally(records), (3, 2))


def run() -> None:
    check_percentile()
    check_self_time()
    check_fail_ratio()


if __name__ == "__main__":
    run()
    print("self-check passed")
    sys.exit(0)
