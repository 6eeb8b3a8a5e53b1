"""Span tracing for the benchmark, installed from outside the package.

`instrumented(tracer)` swaps the public functions and methods of `knnmem`
for wrappers that record a span per call (name, start, end, parent span,
enclosing unit of work) and count the work each call was given. Every
module-level alias of a wrapped function is swapped too, so calls made
through `trainer.search_knn` are seen as well as `retrieval.search_knn`.
Nothing under `src/` is changed; leaving the context restores the originals.

A unit is one repeatable piece of a workload (a training run, a request, a
chunk of queries). The counters gained inside each unit are kept per unit
key; a key seen again must gain exactly the same counts, otherwise the run
records a mismatch.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from knnmem import autodiff, corpus, encoder, memory, retrieval, trainer


class Tracer:
    """In-memory spans and counters; spans are written out once at the end."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, unit]
        self.counts: Counter[str] = Counter()
        self.gauges: dict[str, float] = {}
        self.unit_counts: dict[object, dict[str, int]] = {}
        self.mismatches: list[str] = []
        self._stack: list[int] = []
        self._unit = None
        self._units_started = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self._unit])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def unit(self, key):
        """Scope one unit of work and compare its counts with earlier repeats."""
        before = Counter(self.counts)
        self._unit = self._units_started
        self._units_started += 1
        try:
            yield
        finally:
            self._unit = None
        gained = {k: v for k, v in (self.counts - before).items() if v}
        seen = self.unit_counts.setdefault(key, gained)
        if seen != gained:
            self.mismatches.append(f"unit {key!r}: counts {gained} differ from first run {seen}")

    def canonical(self, name: str) -> int:
        """A counter summed over the first run of every unit key."""
        return sum(c.get(name, 0) for c in self.unit_counts.values())

    def durations(self, name: str) -> list[float]:
        """Seconds spent in each finished span of that name."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name and s[2] is not None]

    def self_times(self, name: str, minus: tuple[str, ...] | None = None) -> list[float]:
        """Span duration less its child spans (only those named in `minus`, if given)."""
        child_ns: Counter[int] = Counter()
        for s in self.spans:
            if s[3] is not None and s[2] is not None and (minus is None or s[0] in minus):
                child_ns[s[3]] += s[2] - s[1]
        return [(s[2] - s[1] - child_ns[i]) / 1e9 for i, s in enumerate(self.spans)
                if s[0] == name and s[2] is not None]

    def write(self, path: Path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "unit")
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(fields, s))) + "\n")


# --- count hooks: called with the wrapped call's arguments (and result) -----

def _encode_counts(tracer, result, enc, token_seqs):
    seqs = [list(s)[: enc.config.max_tokens] for s in token_seqs]
    tracer.counts["encoder.calls"] += 1
    tracer.counts["encoder.seqs"] += len(seqs)
    tracer.counts["encoder.unique_words"] += len({t for s in seqs for t in s})
    tracer.counts["encoder.steps"] += max(len(s) for s in seqs)


def _forward_counts(tracer, result, model, docs, neighbor_map=None, neighbor_docs=None):
    tracer.counts["memory.forward_calls"] += 1
    tracer.counts["memory.queries"] += len(docs)
    if neighbor_map is not None and model.config.features.uses_memory:
        tracer.counts["memory.neighbors"] += sum(len(neighbor_map[d.id]) for d in docs)


def _search_counts(tracer, result, index, query, k, exclude_id=None, params=None):
    tokens = query.tokens if isinstance(query, corpus.Document) else query
    postings = 0
    for term in set(tokens):
        ti = index.term_index.get(term)
        if ti is not None:
            postings += len(index.postings_rows[ti])
    tracer.counts["retrieval.search_calls"] += 1
    tracer.counts["retrieval.postings"] += postings
    tracer.counts["retrieval.short"] += int(len(result) < k)


def _backward_counts(tracer, result, tape, loss):
    tracer.counts["autodiff.backward_calls"] += 1
    tracer.counts["autodiff.tape_nodes"] += len(tape)


def _call_counter(counter):
    def hook(tracer, result, *args, **kwargs):
        tracer.counts[counter] += 1
    return hook


# (owner, attribute, span name or None for count-only, count hook)
_TARGETS = [
    (encoder.TextEncoder, "encode_batch", "encoder.encode_batch", _encode_counts),
    (encoder, "lstm_step", None, _call_counter("encoder.lstm_step_calls")),
    (memory.KnnTextModel, "forward_batch", "memory.forward_batch", _forward_counts),
    (memory, "match_multi_perspective", "memory.match_multi_perspective",
     _call_counter("memory.match_calls")),
    (autodiff.Tape, "backward", "autodiff.backward", _backward_counts),
    (autodiff.Adam, "step", "autodiff.adam_step", None),
    (autodiff, "clip_global_norm", "autodiff.clip_global_norm", None),
    (trainer, "evaluate", "trainer.evaluate", None),
    (trainer, "make_checkpoint", "trainer.checkpoint", None),
    (trainer, "save_checkpoint", "trainer.checkpoint", None),
    (trainer, "load_checkpoint", "trainer.checkpoint", None),
    (trainer, "model_from_checkpoint", "trainer.checkpoint", None),
    (retrieval, "search_knn", "retrieval.search_knn", _search_counts),
    (retrieval, "precompute_neighbors", "retrieval.precompute_neighbors", None),
    (retrieval, "build_index", "retrieval.build_index", None),
    (retrieval, "save_index", "retrieval.save_index", None),
    (retrieval, "load_index", "retrieval.load_index", None),
    (corpus, "load_dataset", "corpus.load_dataset", None),
    (corpus, "build_vocab", "corpus.build_vocab", None),
    (corpus, "tokenize", "corpus.tokenize", None),
]


def _wrap(tracer: Tracer, fn, span: str | None, hook):
    if span is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, result, *args, **kwargs)
            return result
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, result, *args, **kwargs)
        return result
    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every call to the target functions through `tracer`."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "knnmem" or name.startswith("knnmem."))]
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, span, hook in _TARGETS:
            original = getattr(owner, attr)
            wrapped = _wrap(tracer, original, span, hook)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


# --- per-layer metrics --------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit); 0 where a layer is idle.

    Counts are taken over the first run of each unit key, so they repeat
    exactly for a seed; times are over every span recorded.
    """
    c = tracer.canonical
    search_calls = c("retrieval.search_calls")
    enc_calls = c("encoder.calls")
    forward_calls = c("memory.forward_calls")
    return {
        "retrieval.search_knn_us": (1e6 * _median(tracer.durations("retrieval.search_knn")), "us"),
        "retrieval.search_knn_calls": (float(search_calls), "count"),
        "retrieval.postings_per_query": (_ratio(c("retrieval.postings"), search_calls), "count"),
        "retrieval.short_frac": (_ratio(c("retrieval.short"), search_calls), "frac"),
        "retrieval.build_index_s": (_median(tracer.durations("retrieval.build_index")), "s"),
        "retrieval.save_index_s": (_median(tracer.durations("retrieval.save_index")), "s"),
        "retrieval.load_index_s": (_median(tracer.durations("retrieval.load_index")), "s"),
        "retrieval.index_bytes": (float(tracer.gauges.get("retrieval.index_bytes", 0)), "bytes"),
        "corpus.load_dataset_s": (_median(tracer.durations("corpus.load_dataset")), "s"),
        "corpus.build_vocab_s": (_median(tracer.durations("corpus.build_vocab")), "s"),
        "corpus.tokenize_us": (1e6 * _median(tracer.durations("corpus.tokenize")), "us"),
        "encoder.encode_ms": (1e3 * _mean(tracer.self_times("encoder.encode_batch")), "ms"),
        "encoder.seqs_per_call": (_ratio(c("encoder.seqs"), enc_calls), "count"),
        "encoder.unique_words_per_call": (_ratio(c("encoder.unique_words"), enc_calls), "count"),
        "encoder.steps_per_call": (_ratio(c("encoder.steps"), enc_calls), "count"),
        "encoder.lstm_step_calls_per_call": (_ratio(c("encoder.lstm_step_calls"), enc_calls), "count"),
        "memory.head_ms": (1e3 * _mean(tracer.self_times(
            "memory.forward_batch", minus=("encoder.encode_batch",))), "ms"),
        "memory.match_calls_per_batch": (_ratio(c("memory.match_calls"), forward_calls), "count"),
        "memory.neighbors_per_query": (_ratio(c("memory.neighbors"), c("memory.queries")), "count"),
        "autodiff.tape_nodes_per_batch": (_ratio(c("autodiff.tape_nodes"),
                                                 c("autodiff.backward_calls")), "count"),
        "autodiff.backward_ms": (1e3 * _mean(tracer.durations("autodiff.backward")), "ms"),
        "autodiff.clip_ms": (1e3 * _mean(tracer.durations("autodiff.clip_global_norm")), "ms"),
        "autodiff.adam_ms": (1e3 * _mean(tracer.durations("autodiff.adam_step")), "ms"),
        "trainer.dev_eval_s": (_mean(tracer.durations("trainer.evaluate")), "s"),
        "trainer.checkpoint_ms": (1e3 * _mean(tracer.durations("trainer.checkpoint")), "ms"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
