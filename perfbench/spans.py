"""Spans around the calls into each gegtau layer, recorded from the outside.

``Tracer.install`` replaces each wrapped function by name in *every*
``gegtau`` module namespace that holds it (``spectra``, ``cli`` and
``analysis`` import ``assemble``, ``dense_eigs`` and friends by name, and
``analysis.SUITES`` holds the suite functions), and fails if a reference is
left unwrapped.  Spans are kept in memory while the traced commands run
and are reduced to per-layer numbers afterwards.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, function) -> span group; a group's layer is the part before the dot
WRAPPED = {
    ("gegtau.gegenbauer", "value_at_one"): "gegenbauer.endpoint",
    ("gegtau.gegenbauer", "deriv_at_one"): "gegenbauer.endpoint",
    ("gegtau.gegenbauer", "lobatto_interior_nodes"): "gegenbauer.nodes",
    ("gegtau.charpoly", "even_charpoly"): "charpoly.build",
    ("gegtau.charpoly", "odd_charpoly"): "charpoly.build",
    ("gegtau.charpoly", "second_order_pair"): "charpoly.build",
    ("gegtau.charpoly", "stability_poly"): "charpoly.build",
    ("gegtau.pencil", "assemble"): "pencil.assemble",
    ("gegtau.pencil", "reduce_to_standard"): "pencil.reduce",
    ("gegtau.eig", "dense_eigs"): "eig.dense_eigs",
    ("gegtau.eig", "poly_roots"): "eig.poly_roots",
    ("gegtau.eig", "classify"): "eig.classify",
    ("gegtau.spectra", "spectrum_report"): "spectra.spectrum_report",
    ("gegtau.spectra", "single_parity_report"): "spectra.single_parity_report",
    ("gegtau.spectra", "pencil_lambdas"): "spectra.pencil_lambdas",
    ("gegtau.spectra", "charpoly_lambdas"): "spectra.charpoly_lambdas",
    ("gegtau.analysis", "suite_theorem_range"): "analysis.suite",
    ("gegtau.analysis", "suite_equivalence"): "analysis.suite",
    ("gegtau.analysis", "suite_perturbation"): "analysis.suite",
    ("gegtau.analysis", "suite_positive_pair"): "analysis.suite",
    ("gegtau.analysis", "suite_appendix_b"): "analysis.suite",
    ("gegtau.analysis", "suite_exact_convergence"): "analysis.suite",
}
# called thousands of times inside the node search: counted, not spanned
COUNTED = {("gegtau.gegenbauer", "evaluate"): "gegenbauer.evaluate"}
ROOT = "cli.main"
SVD = "numpy.residual_svd"  # numpy.linalg.svd as called from gegtau.cli
LAYERS = ("gegenbauer", "charpoly", "pencil", "eig", "spectra", "analysis", "cli")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    ``spans`` are (id, group, start, end, parent, nested, op) tuples.
    Children on other threads may overlap each other; the union counts
    each instant once.
    """
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - union_length(children[sid], t0, t1) for sid, _, t0, t1, _, _, _ in spans}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)


class Tracer:
    """Records spans only while a traced command runs (``active``)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.notes: dict[str, float] = defaultdict(float)
        self.solves: set = set()
        self.active = False
        self.op = -1
        self._root = -1
        self._root_start = 0.0
        self._ids = itertools.count()
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._root = next(self._ids)
        self.active = True
        self._root_start = perf_counter()

    def end_op(self) -> None:
        t1 = perf_counter()
        self.active = False
        self.spans.append((self._root, ROOT, self._root_start, t1, -1, False, self.op))

    def _span(self, fn, group, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._local
            sid = next(tracer._ids)
            parent = st.stack[-1] if st.stack else tracer._root
            nested = st.depth[group] > 0
            st.stack.append(sid)
            st.depth[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.depth[group] -= 1
                tracer.spans.append((sid, group, t0, t1, parent, nested, tracer.op))
            if note is not None:
                with tracer._lock:
                    note(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, group):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                with tracer._lock:
                    tracer.counts[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    @staticmethod
    def _holders(original):
        """(namespace, key) of every reference to ``original`` in gegtau.

        Covers module attributes and the module-level constant tables
        (such as ``analysis.SUITES``) that map names to functions.
        """
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gegtau" or name.startswith("gegtau.")):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if value is original:
                    yield space, attr
                elif isinstance(value, dict) and attr.isupper():
                    yield from ((value, k) for k, v in list(value.items()) if v is original)

    def _replace(self, modname: str, attr: str, wrapper_of) -> None:
        original = getattr(sys.modules[modname], attr)
        wrapper = wrapper_of(original)
        holders = list(self._holders(original))
        if not holders:
            raise RuntimeError(f"no gegtau namespace holds {modname}.{attr}")
        for space, key in holders:
            self._restore.append((space, key, original))
            space[key] = wrapper
        if any(True for _ in self._holders(original)):
            raise RuntimeError(f"a gegtau namespace still holds the unwrapped {modname}.{attr}")

    def install(self) -> None:
        """Wrap every function in WRAPPED and COUNTED, and numpy's svd."""
        import numpy

        for (modname, attr), group in WRAPPED.items():
            self._replace(modname, attr, lambda fn, g=group: self._span(fn, g, NOTES.get(g)))
        for (modname, attr), group in COUNTED.items():
            self._replace(modname, attr, lambda fn, g=group: self._counter(fn, g))

        svd = numpy.linalg.svd
        traced_svd = self._span(svd, SVD)

        @functools.wraps(svd)
        def svd_from_cli(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "gegtau.cli":
                return traced_svd(*args, **kwargs)
            return svd(*args, **kwargs)

        self._restore.append((vars(numpy.linalg), "svd", svd))
        numpy.linalg.svd = svd_from_cli

    def uninstall(self) -> None:
        for space, key, original in reversed(self._restore):
            space[key] = original
        self._restore.clear()

    # -- reduction -------------------------------------------------------

    def fired(self) -> set[str]:
        """Groups that recorded at least one span or count."""
        return {s[1] for s in self.spans} | {g for g, c in self.counts.items() if c}

    def layer_metrics(self, op_jobs: dict[int, int]) -> dict[str, float]:
        """Per-layer counts, busy times and self times of the recorded spans.

        ``op_jobs`` maps an op index to its sweep ``--jobs`` value.
        """
        calls = defaultdict(int)
        busy = defaultdict(float)
        for _, group, t0, t1, _, nested, _ in self.spans:
            calls[group] += 1
            if not nested:
                busy[group] += t1 - t0
        selfs = self_times(self.spans)
        layer_self = defaultdict(float)
        for sid, group, *_ in self.spans:
            layer_self[group.split(".")[0]] += selfs[sid]

        per_jobs = defaultdict(list)
        for _, group, t0, t1, _, _, op in self.spans:
            if group == "spectra.spectrum_report" and op in op_jobs:
                per_jobs[op_jobs[op]].append(t1 - t0)
        mean = {j: sum(v) / len(v) for j, v in per_jobs.items()}
        inflation = mean[2] / mean[1] if 1 in mean and 2 in mean else 0.0

        assembles = calls["pencil.assemble"]
        m = {
            "gegenbauer.endpoint_calls": calls["gegenbauer.endpoint"],
            "gegenbauer.endpoint_s": busy["gegenbauer.endpoint"],
            "gegenbauer.nodes_calls": calls["gegenbauer.nodes"],
            "gegenbauer.nodes_s": busy["gegenbauer.nodes"],
            "gegenbauer.evaluate_calls": self.counts["gegenbauer.evaluate"],
            "charpoly.build_calls": calls["charpoly.build"],
            "charpoly.build_s": busy["charpoly.build"],
            "pencil.assemble_calls": assembles,
            "pencil.assemble_s": busy["pencil.assemble"],
            "pencil.assemble_per_solve": assembles / len(self.solves) if self.solves else 0.0,
            "pencil.reduce_calls": calls["pencil.reduce"],
            "pencil.reduce_s": busy["pencil.reduce"],
            "pencil.reduced_dim_sum": int(self.notes["reduced_dim"]),
            "eig.dense_eigs_calls": calls["eig.dense_eigs"],
            "eig.dense_eigs_s": busy["eig.dense_eigs"],
            "eig.dense_eigs_flops_computed": self.notes["dense_flops"],
            "eig.poly_roots_calls": calls["eig.poly_roots"],
            "eig.poly_roots_s": busy["eig.poly_roots"],
            "eig.classify_calls": calls["eig.classify"],
            "eig.classify_s": busy["eig.classify"],
            "cli.residual_svd_calls": calls[SVD],
            "cli.residual_svd_s": busy[SVD],
            "cli.sweep_span_inflation": inflation,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m


def _note_assemble(tracer, args, kwargs, result) -> None:
    config = args[0] if args else kwargs["config"]
    parity = args[1] if len(args) > 1 else kwargs.get("parity")
    tracer.solves.add((tracer.op, config, parity))


def _note_reduce(tracer, args, kwargs, result) -> None:
    tracer.notes["reduced_dim"] += result.M.shape[0]


def _note_dense(tracer, args, kwargs, result) -> None:
    dim = (args[0] if args else kwargs["m"]).shape[0]
    tracer.notes["dense_flops"] += 10.0 * dim**3


NOTES = {"pencil.assemble": _note_assemble, "pencil.reduce": _note_reduce, "eig.dense_eigs": _note_dense}
