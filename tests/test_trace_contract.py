"""The benchmark's tracer (`perfbench/trace_spans.py`) wraps package
functions by name; renaming or deleting one of them must fail here rather
than crash every traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACE_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_spans.py"


@pytest.fixture(scope="module")
def trace_spans():
    spec = importlib.util.spec_from_file_location("trace_spans_under_test", TRACE_SPANS)
    module = importlib.util.module_from_spec(spec)
    # Leave no bytecode cache next to the benchmark's files.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_target_resolves(trace_spans):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in trace_spans._TARGETS if not hasattr(owner, attr)]
    assert not missing


def test_instrumented_enters_and_exits_cleanly(trace_spans):
    targets = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in trace_spans._TARGETS]
    tracer = trace_spans.Tracer()
    with trace_spans.instrumented(tracer):
        assert all(getattr(owner, attr) is not original for owner, attr, original in targets)
    assert all(getattr(owner, attr) is original for owner, attr, original in targets)
    assert not tracer.mismatches
