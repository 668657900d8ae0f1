"""The traced benchmark's contract with the program, checked in process.

``perfbench/`` wraps gegtau functions by name and requires each workload's
layers to fire.  Here block 0 of seed 0 of every workload runs through
``gegtau.cli.main`` under the benchmark's own tracer, and the library call
the gate makes itself (``worker.galerkin_counts``) runs as well, so a
rename or a deletion that would break the benchmark fails the test suite.
``perfbench/`` is only read: no bytecode is written there.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from gegtau import cli, pencil

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
sys.path.insert(0, PERFBENCH)
try:
    import spans
    import worker
    import workloads
finally:
    sys.path.remove(PERFBENCH)
    sys.dont_write_bytecode = _dont_write


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_block_zero_fires_expected_spans(workload):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for index, op in enumerate(next(workloads.blocks(workload, 0))):
            tracer.begin_op(index)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(op.argv))
            finally:
                tracer.end_op()
            assert code == 0, op.argv
    finally:
        tracer.uninstall()
    assert workloads.EXPECTED_SPANS[workload] <= tracer.fired()


@pytest.mark.parametrize("parity", [None, "even", "odd"])
def test_tau_assemble_evaluates_each_endpoint_column_once(parity):
    config = pencil.MethodConfig("tau", 1.5, 24, parity_split=parity is not None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        try:
            pencil.assemble(config, parity)
        finally:
            tracer.end_op()
    finally:
        tracer.uninstall()
    endpoint = [s for s in tracer.spans if s[1] == "gegenbauer.endpoint"]
    assert len(endpoint) == pencil._columns(24, parity).size


def test_modified_ops_gate_on_galerkin_reference_counts():
    ops = [op for op in next(workloads.blocks("spectrum-nontau", 0)) if op.method == "modified"]
    assert ops
    for op in ops:
        reference = worker.galerkin_counts(op)
        assert list(reference) == list(worker.gate.FINITE_CLASSES)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
        assert worker.gate.check(op, code, out.getvalue(), reference) == []
