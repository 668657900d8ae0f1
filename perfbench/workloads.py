"""Seeded command streams for the four benchmark workloads.

Every workload is closed-loop with one client: the next command is issued
only after the previous one returned.  Commands come in *blocks*, each a
stratified design (methods x gamma regimes x degree strata).  Block k
draws its configurations from k alone, so it holds the same commands for
every seed; the seed shuffles their order, which also decides which
spectra print JSON and which CSV and which ``--jobs`` value of a sweep row
runs first.  A run's cost mix therefore does not depend on the seed: with
seeded sizes, the median of a 25-second run moved by about 10% between
seeds on top of the host's own noise.  The program only ever sees the
generated argv.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("spectrum-highn", "spectrum-nontau", "sweep-lown", "verify-suites")

# gamma shift of the methods whose class counts follow the tau law at
# gamma_eff = gamma + shift (CLI method names)
GAMMA_SHIFT = {"tau": 0.0, "inviscid": 1.0, "galerkin": 2.0}

SUITES = ("theorem-range", "equivalence", "perturbation", "positive-pair", "appendixB", "exact-convergence")
SMALL_SUITES = ("perturbation", "appendixB", "exact-convergence")

SWEEP_NS = list(range(8, 41, 4))  # --n-range 8:40:4
SWEEP_JOBS = (1, 2)


@dataclass
class Op:
    """One CLI command and what the gate needs to know about it."""

    argv: list[str]
    kind: str  # spectrum | sweep | verify
    block: int
    method: str = ""
    gamma: float = 0.0
    n: int = 0
    fmt: str = ""
    jobs: int = 0
    suite: str = ""
    ns: list[int] = field(default_factory=list)

    @property
    def key(self) -> str:
        """Label of the timing series the command belongs to."""
        if self.kind == "verify":
            return self.suite
        if self.kind == "sweep":
            return f"sweep-jobs{self.jobs}"
        if self.method in ("collocation", "modified"):
            return f"spectrum-{self.method}"
        return "spectrum"

    @property
    def work(self) -> int:
        """Work units: grid points for a sweep, one otherwise."""
        return len(self.ns) if self.kind == "sweep" else 1


def _gamma_text(g: float) -> str:
    return format(round(g, 4), ".4f").rstrip("0").rstrip(".")


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One integer drawn uniformly from each of k equal strata of [lo, hi]."""
    edges = [lo + (hi + 1 - lo) * i // k for i in range(k + 1)]
    return [rng.randrange(edges[i], edges[i + 1]) for i in range(k)]


def _spectrum_op(method, gamma_s, n, fmt, block) -> Op:
    argv = ["spectrum", "--method", method, "--gamma", gamma_s, "--n", str(n), "--parity", "both", "--format", fmt]
    return Op(argv, "spectrum", block, method=method, gamma=float(gamma_s), n=n, fmt=fmt)


# gamma regimes of the tau law; the open ends keep a margin from 1/2 so that
# the class counts are decided by the law, not by where a tolerance falls
REGIMES = {
    "low": (-0.4, 0.4),  # gamma < 1/2: two spurious positive
    "mid": (0.6, 3.5),  # 1/2 < gamma <= 7/2: real, negative, distinct, interlaced
    "high": (3.6, 5.0),  # gamma > 7/2: complex pairs may appear
}


def _design(workload: str, block: int) -> random.Random:
    return random.Random(f"gegtau-perfbench:{workload}:design:{block}")


def _highn_block(rng: random.Random, block: int) -> list[Op]:
    design = _design("spectrum-highn", block)
    regimes = [("tau", r) for r in ("low", "legendre", "mid", "high")]
    regimes += [(m, r) for m in ("galerkin", "inviscid") for r in ("low", "mid", "high")]
    ns = _strata(design, 64, 160, len(regimes))
    design.shuffle(ns)
    plan = [
        (method, "0.5" if regime == "legendre" else _gamma_text(design.uniform(*REGIMES[regime])), n)
        for (method, regime), n in zip(regimes, ns)
    ]
    rng.shuffle(plan)
    return [_spectrum_op(m, g, n, "json" if i % 2 == 0 else "csv", block) for i, (m, g, n) in enumerate(plan)]


# (n, gamma) anchors of spectrum-nontau, one per degree stratum.  Block k
# moves every anchor's n by NONTAU_SHIFTS[k mod 5], so no command repeats
# within a run, and runs of two or three blocks (the usual count) see the
# same mean n whatever the host's speed.  gamma stays put: the node search behind collocation costs 1x to 6x
# as gamma moves by a hundredth (Newton or bisection, and how many steps),
# while its cost is smooth in n.  gamma stops at 4.5: above about 4.7 the
# modified_tau elimination rejects its boundary rows as dependent at
# n >= 56 (exit code 2).
NONTAU_ANCHORS = ((26, 4.3), (34, 1.9), (44, -0.2), (54, 3.0), (62, 0.3))
NONTAU_SHIFTS = (-1, 1, 0, -2, 2)


def _nontau_block(rng: random.Random, block: int) -> list[Op]:
    shift = NONTAU_SHIFTS[block % 5]
    plan = [(m, _gamma_text(g), n + shift) for m in ("collocation", "modified") for n, g in NONTAU_ANCHORS]
    rng.shuffle(plan)
    return [_spectrum_op(m, g, n, "json" if i % 2 == 0 else "csv", block) for i, (m, g, n) in enumerate(plan)]


def _sweep_block(rng: random.Random, block: int) -> list[Op]:
    design = _design("sweep-lown", block)
    rows = [(m, _gamma_text(design.uniform(-0.4 + 2.7 * k, -0.4 + 2.7 * (k + 1)))) for m in GAMMA_SHIFT for k in range(2)]
    rng.shuffle(rows)
    ops = []
    for method, gamma_s in rows:
        jobs_order = list(SWEEP_JOBS)
        rng.shuffle(jobs_order)
        for jobs in jobs_order:
            argv = [
                "sweep",
                "--method",
                method,
                f"--gamma-range={gamma_s}:{gamma_s}:1",
                "--n-range",
                "8:40:4",
                "--jobs",
                str(jobs),
            ]
            ops.append(Op(argv, "sweep", block, method=method, gamma=float(gamma_s), jobs=jobs, ns=list(SWEEP_NS)))
    return ops


def _verify_block(rng: random.Random, block: int) -> list[Op]:
    order = list(SUITES)
    rng.shuffle(order)
    return [Op(["verify", "--suite", s], "verify", block, suite=s) for s in order]


_BLOCKS = {
    "spectrum-highn": _highn_block,
    "spectrum-nontau": _nontau_block,
    "sweep-lown": _sweep_block,
    "verify-suites": _verify_block,
}

# untimed first calls, one per code path the workload's commands take
WARMUP = {
    "spectrum-highn": [["spectrum", "--method", "tau", "--gamma", "1", "--n", "12", "--format", "csv"]],
    "spectrum-nontau": [
        ["spectrum", "--method", "collocation", "--gamma", "1", "--n", "12"],
        ["spectrum", "--method", "modified", "--gamma", "1", "--n", "12", "--format", "csv"],
    ],
    "sweep-lown": [["sweep", "--method", "tau", "--gamma-range", "1:1:1", "--n-range", "8:12:4", "--jobs", "2"]],
    "verify-suites": [["verify", "--suite", "perturbation"]],
}

# whole blocks every timed run completes: one verify block (the six suites)
# takes 8-13 s on the host these were measured on, so a 25 s run could end
# after one block, with a single sample per suite, when the host is slow
MIN_BLOCKS = {"spectrum-highn": 1, "spectrum-nontau": 1, "sweep-lown": 1, "verify-suites": 2}

# blocks the traced run covers: a fixed amount of work, so that per-layer
# counts repeat exactly for a seed
TRACE_BLOCKS = {"spectrum-highn": 2, "spectrum-nontau": 1, "sweep-lown": 4, "verify-suites": 1}


def blocks(workload: str, seed: int):
    """Endless stream of the workload's command blocks for ``seed``."""
    for index in itertools.count():
        rng = random.Random(f"gegtau-perfbench:{workload}:{seed}:{index}")
        yield _BLOCKS[workload](rng, index)


# span groups that must fire in a traced run of each workload; a wrapper that
# never fires means the trace missed a layer, and the traced run fails
_PENCIL_ROUTE = {
    "cli.main",
    "spectra.spectrum_report",
    "spectra.pencil_lambdas",
    "pencil.assemble",
    "pencil.reduce",
    "eig.dense_eigs",
    "eig.classify",
    "gegenbauer.endpoint",
}
EXPECTED_SPANS = {
    "spectrum-highn": _PENCIL_ROUTE | {"numpy.residual_svd"},
    "spectrum-nontau": _PENCIL_ROUTE | {"numpy.residual_svd", "gegenbauer.nodes", "gegenbauer.evaluate"},
    "sweep-lown": set(_PENCIL_ROUTE),
    "verify-suites": _PENCIL_ROUTE | {"analysis.suite", "charpoly.build", "eig.poly_roots", "gegenbauer.evaluate"},
}

# the series behind latency_p50_s (verify-suites uses whole passes).  On
# spectrum-nontau the two methods' times form two clusters, and a median of
# both would sit in the gap between them, on whichever two commands border it.
PRIMARY = {
    "spectrum-highn": "spectrum",
    "spectrum-nontau": "spectrum-collocation",
    "sweep-lown": "sweep-jobs1",
}
