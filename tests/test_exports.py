"""Every exported name resolves, so a removal cannot leave a dangling export;
nor can it leave the benchmark's tracer with a function it no longer finds."""

import contextlib
import importlib
import io
import runpy
from pathlib import Path

import pytest

import sasakijoin
import sasakijoin.cli
import sasakijoin.exactmath

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@pytest.mark.parametrize("module", [sasakijoin, sasakijoin.exactmath],
                         ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_every_traced_function_resolves():
    # a function the tracer names and the package lacks reads null in the
    # benchmark's metrics, so removing or renaming one fails here first
    tracer = runpy.run_path(str(TRACER))
    named = [(module, attr) for _, module, attr in tracer["TIMED"] + tracer["COUNTED"]]
    named += [("render", attr) for attr in tracer["RENDER"]]
    missing = [f"{module}.{attr}" for module, attr in named
               if not callable(getattr(importlib.import_module(f"sasakijoin.{module}"),
                                       attr, None))]
    assert not missing
    # evaluation is counted through UniPoly.__call__ (getattr would also find
    # type.__call__, which every class has)
    assert "__call__" in vars(sasakijoin.exactmath.UniPoly)


@pytest.mark.parametrize("workload", ["scan", "rays", "roots"])
def test_a_traced_pass_reads_no_null_metric(workload):
    # the first item of the workload's pool, run in-process under the
    # benchmark's tracer: a metric that reads null makes a benchmark run
    # malformed output
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    item = runpy.run_path(str(PERFBENCH / "workloads.py"))["candidates"](workload)[0]
    tracer.install()
    try:
        for argv in item:
            with contextlib.redirect_stdout(io.StringIO()):
                assert sasakijoin.cli.main(list(argv)) == 0
    finally:
        tracer.uninstall()
    assert [name for name, value in tracer.snapshot().items() if value is None] == []


def test_the_bernstein_kernel_has_one_exported_entry_point():
    from sasakijoin.exactmath import bernstein
    public = [name for name in vars(bernstein) if callable(getattr(bernstein, name))
              and not name.startswith("_") and getattr(bernstein, name).__module__
              == bernstein.__name__]
    assert public == ["certify_positive"]
    assert "certify_positive" in sasakijoin.exactmath.__all__


def test_the_dense_ring_arithmetic_is_written_once():
    # IntPoly and UniPoly inherit their ring operations from DensePoly, so
    # a second copy in either class fails here
    from sasakijoin.exactmath.intpoly import DensePoly
    shared = ["degree", "__bool__", "__eq__", "__hash__", "__add__", "__radd__",
              "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "derivative"]
    assert [name for name in shared if name not in vars(DensePoly)] == []
    for cls in (sasakijoin.exactmath.IntPoly, sasakijoin.exactmath.UniPoly):
        assert issubclass(cls, DensePoly)
        assert [name for name in shared if name in vars(cls)] == []
    assert "DensePoly" not in sasakijoin.exactmath.__all__
