"""The benchmark workloads: train_m7, serve_m7, index_bm25 and train_marker.

Each workload makes its inputs from the seed with `knnmem.datagen` (never
timed), sets up, then runs its unit of work over and over for the given
seconds. The set-up is repeated before the timed phase and again every
couple of seconds between its units (outside their timing), so that the
median set-up time samples the host's speed over the whole run, as the
other medians do, and not at one instant. A traced run spends
half of that time untraced and half under the tracer, so the two medians
give the tracing overhead. Output checks run after the timed phase; a
failed check is a failed operation.

Every workload reports the same end-to-end metrics, each meaning the
workload's own operation:

* `docs_per_s` -- train docs x epochs per second of `run_pipeline` wall
  time (train_m7, train_marker), eval docs per second with retrieval
  included (serve_m7), or neighbour queries per second (index_bm25);
* `op_p50_ms` -- median latency of one operation: a `run_pipeline` call,
  a single-text predict request, or a `precompute_neighbors` call over a
  256-query chunk;
* `setup_s` -- median of the repeated set-up (added by `run.py`);
* `peak_rss_mb` (added by `run.py`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from knnmem import corpus, retrieval, trainer
from knnmem.corpus import Document
from knnmem.datagen import TopicalSpec, make_marker_corpus, make_topical_corpus, write_zhang_csv
from knnmem.encoder import EncoderConfig
from knnmem.memory import KnnTextModel, ModelConfig

from trace_spans import Tracer, instrumented

K = 5
PREDICT_PROB_TOL = 1e-9
SETUP_FIRST = 3        # set-ups before the timed phase
SETUP_EVERY_S = 2.0    # seconds of timed work between two further set-ups
M1_EPOCHS = 8          # marker gate: M1 without truncation reaches 0.6 by then


@dataclass
class Run:
    """One benchmark process: its arguments, checks and tracer."""

    seed: int
    seconds: float
    workdir: Path
    tracer: Tracer | None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    overheads: list[float] = field(default_factory=list)
    setup: Callable[[], object] | None = None
    setup_times: list[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def tracing(self):
        """The tracer's wrappers in a traced run; nothing otherwise."""
        return instrumented(self.tracer) if self.tracer else contextlib.nullcontext()


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]  # end-to-end metrics but set-up and RSS, by generic name
    named: dict[str, tuple[float, str]]    # the same figures under workload-specific names


@dataclass
class Sample:
    key: object
    seconds: float
    digest: object


def _timed_setup(run: Run):
    start = time.perf_counter()
    result = run.setup()
    run.setup_times.append(time.perf_counter() - start)
    return result


def set_up(run: Run, fn: Callable[[], object]):
    """Set up SETUP_FIRST times and return the last result; `measure` repeats `fn` later."""
    run.setup = fn
    with run.tracing():
        for _ in range(SETUP_FIRST):
            result = _timed_setup(run)
    return result


def _loop(run: Run, units, seconds: float, digest, tracer: Tracer | None) -> list[Sample]:
    """Cycle through `units` until each has run and they took `seconds` in all."""
    samples: list[Sample] = []
    busy = since_setup = 0.0
    while len(samples) < len(units) or busy < seconds:
        key, fn = units[len(samples) % len(units)]
        with tracer.unit(key) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
        samples.append(Sample(key, dt, digest(result)))
        busy += dt
        since_setup += dt
        if since_setup >= SETUP_EVERY_S:
            _timed_setup(run)
            since_setup = 0.0
    run.attempted += len(samples)
    return samples


def measure(run: Run, units, seconds: float, digest) -> list[Sample]:
    """The timed phase. A traced run times half untraced, half traced."""
    if run.tracer is None:
        return _loop(run, units, seconds, digest, None)
    plain = _loop(run, units, seconds / 2, digest, None)
    with instrumented(run.tracer):
        traced = _loop(run, units, seconds / 2, digest, run.tracer)
    traced_s = statistics.median(s.seconds for s in traced)
    run.overheads.append(traced_s / statistics.median(s.seconds for s in plain) - 1.0)
    return plain + traced


def check_repeats(run: Run, samples: list[Sample], what: str) -> dict:
    """Every repeat of a unit must give the first run's output; returns key -> digest."""
    first: dict = {}
    for s in samples:
        first.setdefault(s.key, s.digest)
    run.check(all(first[s.key] == s.digest for s in samples), f"{what}: a rerun gave another result")
    return first


def _write_and_load(run: Run, docs: list[Document], labels) -> list[Document]:
    """CSV round trip through `load_dataset`; the load is the set-up."""
    path = run.workdir / "corpus.csv"
    write_zhang_csv(path, docs)
    loaded = set_up(run, lambda: corpus.load_dataset(path, labels))
    same = [(d.id, d.label, d.tokens) for d in loaded] == [(d.id, d.label, d.tokens) for d in docs]
    run.check(same, "load_dataset did not give back the written corpus")
    return loaded


def _pipeline_digest(result) -> tuple:
    ckpt = result.train_result.checkpoint
    h = hashlib.sha256(json.dumps(ckpt.manifest, sort_keys=True).encode())
    for name in sorted(ckpt.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(ckpt.tensors[name]).tobytes())
    report = result.dev_report
    return report.accuracy, tuple(report.confusion.ravel().tolist()), h.hexdigest()


def _train(run: Run, train_docs, dev_docs, labels, config: trainer.TrainConfig,
           enc: EncoderConfig) -> Report:
    def pipeline():
        return trainer.run_pipeline(train_docs, dev_docs, labels, config, enc)

    samples = measure(run, [("run_pipeline", pipeline)], run.seconds, _pipeline_digest)
    accuracy = check_repeats(run, samples, "run_pipeline")["run_pipeline"][0]
    walls = [s.seconds for s in samples]
    docs_per_s = statistics.median([len(train_docs) * config.epochs / w for w in walls])
    metrics = {
        "docs_per_s": (docs_per_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(walls), "ms"),
    }
    named = {
        "train_docs_per_s": (docs_per_s, "1/s"),
        "run_pipeline_calls": (float(len(walls)), "count"),
        "dev_accuracy": (accuracy, "frac"),
    }
    return Report(metrics, named)


def train_m7(run: Run) -> Report:
    """M7 at paper dimensions on a topical corpus read back from CSV."""
    docs, labels = make_topical_corpus(64, TopicalSpec(seed=run.seed))
    loaded = _write_and_load(run, docs, labels)
    config = trainer.TrainConfig(epochs=1, lr=1e-4, batch_size=32, k_neighbors=K,
                                 perspectives=5, preset="M7", seed=run.seed)
    return _train(run, loaded[:192], loaded[192:], labels, config, EncoderConfig())


def train_marker(run: Run) -> Report:
    """The retrieval-only quality gate: M2 with K=1 must read the markers, M1 must not."""
    train_docs, dev_docs, labels = make_marker_corpus(60, 20, 4, run.seed, visible_len=16)
    loaded = _write_and_load(run, train_docs + dev_docs, labels)
    train_part, dev_part = loaded[:len(train_docs)], loaded[len(train_docs):]
    enc = EncoderConfig(word_dim=50, char_dim=10, char_lstm_dim=20, hidden=25, max_tokens=16)
    config = trainer.TrainConfig(epochs=1, lr=1e-2, batch_size=32, k_neighbors=1,
                                 preset="M2", seed=run.seed)
    report = _train(run, train_part, dev_part, labels, config, enc)
    accuracy = report.named.pop("dev_accuracy")[0]
    run.check(accuracy >= 0.95, f"marker gate: M2 accuracy {accuracy:.4f} < 0.95")
    # M1 gets several epochs: were the markers visible to the encoder, it would learn them.
    m1_config = dataclasses.replace(config, preset="M1", epochs=M1_EPOCHS)
    m1 = trainer.run_pipeline(train_part, dev_part, labels, m1_config, enc).dev_report.accuracy
    run.check(m1 <= 0.5, f"marker gate: M1 accuracy {m1:.4f} > 0.5, truncation no longer hides the markers")
    report.named["marker_accuracy"] = (accuracy, "frac")
    report.named["m1_accuracy"] = (m1, "frac")
    return report


def _record_digest(record: dict) -> tuple:
    return (record["predicted"], tuple(record["probabilities"]),
            tuple(n["doc_id"] for n in record["neighbors"]))


def serve_m7(run: Run) -> Report:
    """Forward-only serving of a seeded M7 model restored from its checkpoint."""
    memory_docs, labels = make_topical_corpus(500, TopicalSpec(seed=2 * run.seed))
    queries, _ = make_topical_corpus(32, TopicalSpec(seed=2 * run.seed + 1))
    memory_csv = run.workdir / "memory.csv"
    write_zhang_csv(memory_csv, memory_docs)
    ckpt_path, index_path = run.workdir / "model.ckpt", run.workdir / "memory.idx"

    def restore():
        docs = corpus.load_dataset(memory_csv, labels)
        vocab = corpus.build_vocab(docs)
        config = ModelConfig(encoder=EncoderConfig(), preset="M7", perspectives=5, n_classes=labels.c)
        model = KnnTextModel.create(config, vocab, seed=run.seed)
        trainer.save_checkpoint(ckpt_path, trainer.make_checkpoint(model, vocab, epoch=0, dev_accuracy=0.0))
        served = trainer.model_from_checkpoint(trainer.load_checkpoint(ckpt_path), vocab,
                                               expected_classes=labels.c)
        retrieval.save_index(index_path, retrieval.build_index(docs))
        return docs, model, served, retrieval.load_index(index_path)

    docs, model, served, index = set_up(run, restore)
    if run.tracer:
        run.tracer.gauges["retrieval.index_bytes"] = index_path.stat().st_size
    neighbor_docs = {d.id: d for d in docs}
    offset = max(neighbor_docs) + 1
    texts = [" ".join(q.tokens) for q in queries]
    eval_docs = [Document(id=offset + j, label=q.label, title=texts[j], body="",
                          tokens=tuple(corpus.tokenize(texts[j]))) for j, q in enumerate(queries)]

    def request(j: int) -> dict:
        tokens = corpus.tokenize(texts[j])
        doc = Document(id=offset + j, label=0, title=texts[j], body="", tokens=tuple(tokens))
        neighbors = {doc.id: retrieval.search_knn(index, doc, K)}
        return trainer.predict_with_provenance(served, [doc], neighbors, neighbor_docs,
                                               batch_size=1, has_gold=False)[0]

    def eval_pass():
        neighbors = {d.id: retrieval.search_knn(index, d, K) for d in eval_docs}
        return trainer.evaluate(served, eval_docs, neighbors, neighbor_docs, batch_size=64)

    requests = [(("predict", j), lambda j=j: request(j)) for j in range(len(texts))]
    predicted = measure(run, requests, run.seconds / 2, _record_digest)
    evaluated = measure(run, [("evaluate", eval_pass)], run.seconds / 2,
                        lambda report: tuple(report.confusion.ravel().tolist()))

    singles = check_repeats(run, predicted, "predict request")
    confusion = check_repeats(run, evaluated, "evaluate")["evaluate"]
    neighbors = {d.id: retrieval.search_knn(index, d, K) for d in eval_docs}
    batched = trainer.predict_with_provenance(served, eval_docs, neighbors, neighbor_docs, batch_size=64)
    for j, record in enumerate(batched):
        single = singles[("predict", j)]
        run.check(single[0] == record["predicted"] and single[2] == _record_digest(record)[2]
                  and np.allclose(single[1], record["probabilities"], rtol=0, atol=PREDICT_PROB_TOL),
                  f"request {j}: single prediction differs from the batch-64 pass")
    recount = np.zeros((labels.c, labels.c), dtype=np.int64)
    for doc, record in zip(eval_docs, batched):
        recount[doc.label, record["predicted"]] += 1
    run.check(tuple(recount.ravel().tolist()) == confusion,
              "evaluate confusion differs from the batch-64 predictions")
    in_memory = trainer.predict_with_provenance(model, eval_docs, neighbors, neighbor_docs, batch_size=64)
    run.check([r["probabilities"] for r in in_memory] == [r["probabilities"] for r in batched],
              "the reloaded checkpoint predicts differently from the in-memory model")

    latencies = [s.seconds * 1e3 for s in predicted]
    p50 = statistics.median(latencies)
    p95 = float(np.percentile(latencies, 95))
    eval_rate = statistics.median([len(eval_docs) / s.seconds for s in evaluated])
    metrics = {
        "docs_per_s": (eval_rate, "1/s"),
        "op_p50_ms": (p50, "ms"),
    }
    named = {
        "predict_p50_ms": (p50, "ms"),
        "predict_p95_ms": (p95, "ms"),
        "predict_requests": (float(len(latencies)), "count"),
        "eval_docs_per_s": (eval_rate, "1/s"),
        "eval_passes": (float(len(evaluated)), "count"),
    }
    return Report(metrics, named)


def _same_index(a: retrieval.InvertedIndex, b: retrieval.InvertedIndex) -> bool:
    return (np.array_equal(a.doc_ids, b.doc_ids) and np.array_equal(a.doc_lens, b.doc_lens)
            and a.terms == b.terms
            and all(np.array_equal(x, y) for x, y in zip(a.postings_rows, b.postings_rows))
            and all(np.array_equal(x, y) for x, y in zip(a.postings_tfs, b.postings_tfs)))


def _brute_force_top(index, query: Document, k: int) -> list[tuple[int, float]]:
    scored = [(int(d), retrieval.bm25_score(index, query, int(d))) for d in index.doc_ids if d != query.id]
    scored = [(d, s) for d, s in scored if s > 0.0]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _agrees(got, want, scores: dict[int, float]) -> bool:
    """Same ids in the same order and scores equal to within rounding.

    `want` is the brute-force list and `scores` the brute-force score of each
    id in `got`. Two docs may swap places only when their brute-force scores
    differ by rounding alone; exact ties must keep ascending doc-id order.
    """
    def close(a: float, b: float) -> bool:
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))

    if len(got) != len(want):
        return False
    for (gid, gscore), (wid, wscore) in zip(got, want):
        if not close(gscore, wscore):
            return False
        if gid != wid and (scores[gid] == wscore or not close(scores[gid], wscore)):
            return False
    return True


CHUNK = 256


def index_bm25(run: Run) -> Report:
    """Neighbour precompute over an 8192-doc topical corpus; no model runs."""
    docs, _ = make_topical_corpus(2048, TopicalSpec(seed=run.seed))
    path = run.workdir / "corpus.idx"

    def build():
        built = retrieval.build_index(docs)
        retrieval.save_index(path, built)
        return built, retrieval.load_index(path)

    built, index = set_up(run, build)
    run.check(_same_index(built, index), "load_index did not give back the saved index")
    if run.tracer:
        run.tracer.gauges["retrieval.index_bytes"] = path.stat().st_size
    del built

    rng = np.random.default_rng(run.seed)
    sample = {int(i) for i in rng.choice(len(docs), size=6, replace=False)}
    chunks = [docs[i:i + CHUNK] for i in range(0, len(docs), CHUNK)]

    def digest(neighbors: dict) -> tuple:
        """Hash of the chunk's lists, the sampled lists, and the lists holding a score tie."""
        h = hashlib.sha256(repr(sorted((i, ns.neighbors) for i, ns in neighbors.items())).encode())
        tied = {i: ns.neighbors for i, ns in neighbors.items()
                if len({score for _, score in ns.neighbors}) < len(ns)}
        return h.hexdigest(), {i: neighbors[i].neighbors for i in sample if i in neighbors}, tied

    units = [(("chunk", j), lambda c=c: retrieval.precompute_neighbors(index, c, K, self_exclude=True))
             for j, c in enumerate(chunks)]
    samples = measure(run, units, run.seconds, digest)
    first = check_repeats(run, samples, "precompute_neighbors")
    found = {i: got for _, picked, _ in first.values() for i, got in picked.items()}
    # Six more with tied scores, so that the tie-break by doc id is checked too.
    tied = {i: got for _, _, ties in first.values() for i, got in ties.items()}
    found.update((i, tied[i]) for i in sorted(tied)[:6])
    for i in sorted(found):
        want = _brute_force_top(index, docs[i], K)
        scores = {d: retrieval.bm25_score(index, docs[i], d) for d, _ in found[i]}
        run.check(_agrees(list(found[i]), want, scores),
                  f"doc {docs[i].id}: neighbours differ from the brute-force BM25 ranking")

    qps = statistics.median([len(chunks[s.key[1]]) / s.seconds for s in samples])
    metrics = {
        "docs_per_s": (qps, "1/s"),
        "op_p50_ms": (1e3 * statistics.median([s.seconds for s in samples]), "ms"),
    }
    named = {
        "retrieve_qps": (qps, "1/s"),
        "queries": (float(sum(len(chunks[s.key[1]]) for s in samples)), "count"),
        "brute_force_checked": (float(len(found)), "count"),
    }
    return Report(metrics, named)


WORKLOADS = {
    "train_m7": train_m7,
    "serve_m7": serve_m7,
    "index_bm25": index_bm25,
    "train_marker": train_marker,
}
