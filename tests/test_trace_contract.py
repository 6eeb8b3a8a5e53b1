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


def test_search_counts_match_a_recount(trace_spans):
    """The search hook reads the index's term map and postings directly; its
    counts must equal a recount through the public `postings`, and
    `precompute_neighbors` must reach it once per document."""
    from knnmem import retrieval
    from knnmem.corpus import Document

    docs = [Document(i, 0, "", "", tuple(t.split()))
            for i, t in enumerate(["a b a", "b c", "c d e", "a e", "f"])]
    index = retrieval.build_index(docs)
    queries = [(docs[0], 2, 0), (["a", "a", "zz"], 5, None), (["zz"], 3, None),
               (docs[2], 1, 2), (["e", "b", "f"], 4, 4)]
    tracer = trace_spans.Tracer()
    with trace_spans.instrumented(tracer):
        results = [retrieval.search_knn(index, q, k, exclude_id=x) for q, k, x in queries]
        cache = retrieval.precompute_neighbors(index, docs, 2)
    queries += [(d, 2, d.id) for d in docs]
    results += [cache[d.id] for d in docs]
    tokens = [q.tokens if isinstance(q, Document) else q for q, _, _ in queries]
    assert tracer.counts["retrieval.search_calls"] == len(queries)
    assert tracer.counts["retrieval.postings"] == \
        sum(len(index.postings(t)) for ts in tokens for t in set(ts))
    assert tracer.counts["retrieval.short"] == \
        sum(len(r) < k for r, (_, k, _) in zip(results, queries))
    assert not tracer.mismatches
