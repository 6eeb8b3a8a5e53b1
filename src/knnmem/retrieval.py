"""Inverted-index BM25 retrieval of nearest neighbors over a training corpus.

Scoring uses the non-negative idf variant

    idf(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))

and the usual saturated term-frequency weight with parameters k1, b.
An index is defined by its documents: their ids, lengths and tokens as
term ids into the sorted ``terms``. The postings are derived from those by
one sort and packed: the postings of term id ``t`` are the slice
``post_start[t]:post_start[t + 1]`` of ``post_rows`` (internal rows,
ascending) and ``post_tfs`` (term frequencies). An index file, like the
memory part of a checkpoint, stores the documents, not the postings. Each
posting's BM25 contribution, its *impact*

    idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)),

is computed once per ``Bm25Params`` on the first search with them and kept
on the index. A query then gathers the impacts of its distinct terms and
sums them per row with one ``np.bincount``. The terms are taken in sorted
order and ``bincount`` adds in index order, so every score is summed in the
same order as ``bm25_score`` and equals it bit for bit, in every process.
The k neighbours are then picked one at a time, each the first maximum of
the scores, which is zeroed once taken: an exact tie goes to the smaller
doc id, and a query costs up to k passes over its N scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .artifact import read_artifact, write_artifact
from .corpus import Document, LabelSpace

_INDEX_MAGIC = b"KNNIDX02"


class RetrievalError(ValueError):
    """Bad index input, unknown document, or corrupt index file."""


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not (math.isfinite(self.k1) and self.k1 >= 0):
            raise RetrievalError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise RetrievalError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class NeighborSet:
    """Up to K retrieved (doc_id, bm25_score) pairs, scores non-increasing;
    ``query_id`` is the id the search excluded, if any."""

    query_id: int | None
    neighbors: tuple[tuple[int, float], ...]

    def ids(self) -> list[int]:
        return [doc_id for doc_id, _ in self.neighbors]

    def top(self, k: int) -> "NeighborSet":
        return NeighborSet(self.query_id, self.neighbors[:k])

    def __len__(self) -> int:
        return len(self.neighbors)


def _idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


class InvertedIndex:
    """Term -> postings map with document statistics for BM25, defined by its
    documents.

    Row r is the document ``doc_ids[r]`` (strictly ascending). ``doc_terms``
    holds the documents' tokens, row after row and each in reading order, as
    u32 ids into the sorted ``terms``; ``doc_lens[r]`` of them are row r's.
    The postings are derived from these: each posting list is strictly
    increasing in row and in doc id, and the lists are packed into
    ``post_start`` (one offset per term, plus the end), ``post_rows`` and
    ``post_tfs``; ``postings_rows[t]`` and ``postings_tfs[t]`` are views of
    term ``t``'s slice of them.
    """

    def __init__(self, doc_ids: Sequence[int], terms: Sequence[str],
                 doc_lens: Sequence[int], doc_terms: Sequence[int]):
        self.doc_ids = np.asarray(doc_ids, dtype=np.int64)
        self.terms = list(terms)
        self.doc_lens = np.asarray(doc_lens, dtype=np.int64)
        self.doc_terms = np.asarray(doc_terms, dtype=np.uint32)
        self.term_index = dict(zip(self.terms, range(len(self.terms))))
        self.post_start, self.post_rows, self.post_tfs = self._invert()
        self.postings_rows = self._per_term(self.post_rows)
        self.postings_tfs = self._per_term(self.post_tfs)
        self.row_of = dict(zip(self.doc_ids.tolist(), range(self.doc_ids.size)))
        self.avg_doc_len = float(self.doc_lens.mean())
        self._impacts: dict[Bm25Params, list[np.ndarray]] = {}

    def _invert(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The packed postings, by one sort of ``term * n_docs + row`` keys:
        each run of equal keys is one posting and its length the term
        frequency (sort-based inversion; Zobel & Moffat, ACM Computing
        Surveys 38(2), 2006)."""
        n_docs = self.doc_ids.size
        keys = self.doc_terms.astype(np.int64)
        keys *= n_docs
        keys += np.repeat(np.arange(n_docs, dtype=np.uint32), self.doc_lens)
        keys.sort()
        run_start = np.empty(keys.size + 1, dtype=bool)
        run_start[0] = run_start[-1] = True
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:-1])
        bounds = np.flatnonzero(run_start)
        del run_start
        post_tfs = np.diff(bounds)
        post_rows = keys[bounds[:-1]]
        del keys, bounds
        post_terms = post_rows // n_docs
        post_rows %= n_docs
        post_start = np.zeros(len(self.terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(post_terms, minlength=len(self.terms)), out=post_start[1:])
        return post_start, post_rows, post_tfs

    def _per_term(self, packed: np.ndarray) -> list[np.ndarray]:
        """Views of each term's slice of an array aligned with ``post_rows``."""
        bounds = self.post_start.tolist()
        return [packed[a:z] for a, z in zip(bounds, bounds[1:])]

    def df(self, term: str) -> int:
        ti = self.term_index.get(term)
        return 0 if ti is None else len(self.postings_rows[ti])

    def idf(self, term: str) -> float:
        df = self.df(term)
        if df == 0:
            return 0.0
        return _idf(self.doc_ids.size, df)

    def impacts(self, params: Bm25Params) -> list[np.ndarray]:
        """Per term, the BM25 contribution of each posting, aligned with
        ``postings_rows``.

        Computed on the first call with ``params`` and kept; each value is
        formed with the same operations, in the same order, as a term's
        contribution in ``bm25_score``.
        """
        per_term = self._impacts.get(params)
        if per_term is None:
            counts = np.diff(self.post_start)
            idf = np.array([_idf(self.doc_ids.size, df) for df in counts.tolist()])
            tf = self.post_tfs.astype(np.float64)
            # In place, to hold fewer posting-sized temporaries; IEEE + and *
            # commute, so each value is still rounded exactly as in bm25_score.
            norm = self.doc_lens[self.post_rows].astype(np.float64)
            norm *= params.b
            norm /= self.avg_doc_len
            norm += 1.0 - params.b
            norm *= params.k1
            norm += tf
            weights = np.repeat(idf, counts)
            weights *= tf
            weights *= params.k1 + 1.0
            weights /= norm
            per_term = self._impacts[params] = self._per_term(weights)
        return per_term

    def postings(self, term: str) -> list[tuple[int, int]]:
        """Posting list as (doc_id, tf) pairs sorted by ascending doc id."""
        ti = self.term_index.get(term)
        if ti is None:
            return []
        rows, tfs = self.postings_rows[ti], self.postings_tfs[ti]
        return [(int(self.doc_ids[r]), int(tf)) for r, tf in zip(rows, tfs)]


def build_index(corpus: Sequence[Document]) -> InvertedIndex:
    if not corpus:
        raise RetrievalError("cannot index an empty corpus")
    docs = sorted(corpus, key=lambda d: d.id)
    ids = [d.id for d in docs]
    if len(set(ids)) != len(ids):
        raise RetrievalError("duplicate document ids in corpus")
    terms = sorted({t for d in docs for t in d.tokens})
    term_index = {t: i for i, t in enumerate(terms)}
    doc_terms = np.fromiter((term_index[t] for d in docs for t in d.tokens), np.uint32)
    return InvertedIndex(ids, terms, [len(d.tokens) for d in docs], doc_terms)


def _query_tokens(query: Document | Sequence[str]) -> Sequence[str]:
    return query.tokens if isinstance(query, Document) else query


def bm25_score(index: InvertedIndex, query: Document | Sequence[str], doc_id: int,
               params: Bm25Params = Bm25Params()) -> float:
    """Score one document against a query; duplicate query terms count once."""
    row = index.row_of.get(doc_id)
    if row is None:
        raise RetrievalError(f"unknown doc_id {doc_id}")
    dl = float(index.doc_lens[row])
    norm = params.k1 * (1.0 - params.b + params.b * dl / index.avg_doc_len)
    score = 0.0
    for term in sorted(set(_query_tokens(query))):
        ti = index.term_index.get(term)
        if ti is None:
            continue
        rows = index.postings_rows[ti]
        pos = int(np.searchsorted(rows, row))
        if pos == len(rows) or rows[pos] != row:
            continue
        tf = float(index.postings_tfs[ti][pos])
        score += index.idf(term) * tf * (params.k1 + 1.0) / (tf + norm)
    return score


def search_knn(index: InvertedIndex, query: Document | Sequence[str], k: int,
               exclude_id: int | None = None,
               params: Bm25Params = Bm25Params()) -> NeighborSet:
    """Top-k documents by BM25, ties broken by ascending doc id.

    Only documents with positive score are candidates, so fewer than k
    neighbors may be returned; ``exclude_id`` is dropped before ranking and
    becomes the result's ``query_id``. The k are picked one at a time: each
    pick is the first maximum of the score vector (rows ascend with doc id,
    so an exact tie goes to the smaller id), which is then zeroed, and the
    picking stops at a maximum that is not positive. A query so costs up to
    k passes over the N scores.
    """
    if k < 0:
        raise RetrievalError(f"k must be >= 0, got {k}")
    term_ids = set(map(index.term_index.get, _query_tokens(query)))
    term_ids.discard(None)
    if k == 0 or not term_ids:
        return NeighborSet(exclude_id, ())
    # Ascending term ids are the sorted terms, the order bm25_score adds in.
    term_ids = sorted(term_ids)
    impacts = index.impacts(params)
    scores = np.bincount(np.concatenate([index.postings_rows[t] for t in term_ids]),
                         weights=np.concatenate([impacts[t] for t in term_ids]),
                         minlength=index.doc_ids.size)
    if exclude_id is not None:
        row = index.row_of.get(exclude_id)
        if row is not None:
            scores[row] = 0.0
    # `scores` is this call's own array, so each pick is zeroed in place.
    neighbors = []
    for _ in range(k):
        row = scores.argmax()
        score = scores.item(row)
        if not score > 0.0:
            break
        neighbors.append((index.doc_ids.item(row), score))
        scores[row] = 0.0
    return NeighborSet(exclude_id, tuple(neighbors))


def precompute_neighbors(index: InvertedIndex, corpus: Sequence[Document], k: int,
                         self_exclude: bool = True,
                         params: Bm25Params = Bm25Params()) -> dict[int, NeighborSet]:
    """Static neighbor cache: one ``search_knn`` result per corpus document."""
    return {doc.id: search_knn(index, doc, k, exclude_id=doc.id if self_exclude else None,
                               params=params) for doc in corpus}


def _manifest(index: InvertedIndex) -> dict:
    return {"doc_ids": index.doc_ids.tolist(), "doc_lens": index.doc_lens.tolist(),
            "terms": index.terms}


def save_index(path: str | Path, index: InvertedIndex) -> None:
    """Index file: an ``artifact`` container whose manifest holds ``doc_ids``,
    ``doc_lens`` and ``terms``, and whose body is ``doc_terms`` as LE-u32.
    The postings are not stored; loading derives them again."""
    write_artifact(path, _INDEX_MAGIC, _manifest(index),
                   [index.doc_terms.astype("<u4", copy=False)])


def _int64s(manifest: dict, key: str) -> np.ndarray:
    values = manifest[key]
    if isinstance(values, list) and set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    raise ValueError(f"{key} must be a list of int64 integers")


def _index_reader(manifest) -> tuple[Callable[[bytes], InvertedIndex], int]:
    """``read_artifact``'s parse of a ``_manifest`` object; its builder
    raises ``ValueError`` on a term id outside ``terms``."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest is not a JSON object")
    doc_ids, doc_lens = _int64s(manifest, "doc_ids"), _int64s(manifest, "doc_lens")
    terms = manifest["terms"]
    if doc_ids.size == 0:
        raise ValueError("doc_ids must not be empty")
    if (doc_ids[1:] <= doc_ids[:-1]).any():
        raise ValueError("doc_ids must be strictly ascending")
    if doc_lens.shape != doc_ids.shape or (doc_lens < 0).any():
        raise ValueError("doc_lens must give one length >= 0 per doc id")
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise ValueError("terms must be a list of strings")
    if any(a >= b for a, b in zip(terms, terms[1:])):
        raise ValueError("terms must be strictly ascending")

    def build(body: bytes) -> InvertedIndex:
        doc_terms = np.frombuffer(body, dtype="<u4")
        if doc_terms.size and doc_terms.max() >= len(terms):
            raise ValueError("a term id is outside the index's terms")
        return InvertedIndex(doc_ids, terms, doc_lens, doc_terms)

    return build, 4 * int(doc_lens.sum())


def load_index(path: str | Path) -> InvertedIndex:
    """Read a ``save_index`` file; a short, overlong or malformed part of it
    raises ``RetrievalError``."""
    return read_artifact(path, _INDEX_MAGIC, RetrievalError, _index_reader,
                         kind="index", body_name="term ids")


@dataclass(frozen=True)
class Memory:
    """What a model retrieves from: the index over its documents, the
    documents by id, their label space, and the BM25 settings and K."""

    index: InvertedIndex
    docs: Mapping[int, Document]
    labels: LabelSpace
    params: Bm25Params
    k: int


def memory_manifest(memory: Memory) -> tuple[dict, np.ndarray]:
    """``memory`` as a ``_manifest`` object that also holds each document's
    label, the label names, ``k1``, ``b`` and ``k``, and its term ids as
    LE-u32. Documents (ids or tokens) not its index's raise ``RetrievalError``."""
    index = memory.index
    manifest = _manifest(index)
    if sorted(memory.docs) != manifest["doc_ids"]:
        raise RetrievalError("memory documents are not the documents of its index")
    docs = [memory.docs[doc_id] for doc_id in manifest["doc_ids"]]
    term_ids = [index.term_index.get(t, -1) for d in docs for t in d.tokens]
    if ([len(d.tokens) for d in docs] != manifest["doc_lens"]
            or not np.array_equal(term_ids, index.doc_terms)):
        raise RetrievalError("memory documents' tokens are not those of its index")
    manifest.update(labels=[d.label for d in docs], label_names=list(memory.labels.names),
                    k1=memory.params.k1, b=memory.params.b, k=memory.k)
    return manifest, index.doc_terms.astype("<u4", copy=False)


def memory_reader(manifest) -> tuple[Callable[[bytes], Memory], int]:
    """``_index_reader`` for a ``memory_manifest`` object, whose builder
    gives back the ``Memory``."""
    read_index, size = _index_reader(manifest)
    space, labels, k = LabelSpace(tuple(manifest["label_names"])), manifest["labels"], manifest["k"]
    if len(labels) != len(manifest["doc_ids"]) or not all(
            type(y) is int and 0 <= y < space.c for y in labels):
        raise ValueError(f"labels must give one label in [0, {space.c}) per doc id")
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    params = Bm25Params(float(manifest["k1"]), float(manifest["b"]))

    def build(body: bytes) -> Memory:
        index = read_index(body)
        words = list(map(index.terms.__getitem__, index.doc_terms.tolist()))
        ends = np.cumsum(index.doc_lens).tolist()
        docs = {doc_id: Document(doc_id, label, " ".join(words[a:z]), "", tuple(words[a:z]))
                for doc_id, label, a, z in zip(index.doc_ids.tolist(), labels, [0] + ends, ends)}
        return Memory(index, docs, space, params, k)

    return build, size
