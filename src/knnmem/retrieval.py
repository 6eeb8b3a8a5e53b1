"""Inverted-index BM25 retrieval of nearest neighbors over a training corpus.

Scoring uses the non-negative idf variant

    idf(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))

and the usual saturated term-frequency weight with parameters k1, b.
Postings are packed: the postings of term id ``t`` are the slice
``post_start[t]:post_start[t + 1]`` of ``post_rows`` (internal rows,
ascending) and ``post_tfs`` (term frequencies). Each posting's BM25
contribution, its *impact*

    idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)),

is computed once per ``Bm25Params`` on the first search with them and kept
on the index. A query then gathers the impacts of its distinct terms and
sums them per row with one ``np.bincount``. The terms are taken in sorted
order and ``bincount`` adds in index order, so every score is summed in the
same order as ``bm25_score`` and equals it bit for bit, in every process.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .artifact import read_artifact, write_artifact
from .corpus import Document, LabelSpace

_INDEX_MAGIC = b"KNNIDX01"
_MEMORY_MAGIC = b"KNNMEM01"


class RetrievalError(ValueError):
    """Bad index input, unknown document, or corrupt index file."""


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0:
            raise RetrievalError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise RetrievalError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class NeighborSet:
    """Up to K retrieved (doc_id, bm25_score) pairs, scores non-increasing."""

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
    """Term -> postings map with document statistics for BM25.

    Rows are assigned in ascending doc-id order, so every posting list is
    strictly increasing in row and in doc id. The postings are packed into
    ``post_start`` (one offset per term, plus the end), ``post_rows`` and
    ``post_tfs``; ``postings_rows[t]`` and ``postings_tfs[t]`` are views of
    term ``t``'s slice of them.
    """

    def __init__(self, doc_ids: Sequence[int], doc_lens: Sequence[int],
                 terms: Sequence[str], post_start: np.ndarray,
                 post_rows: np.ndarray, post_tfs: np.ndarray):
        self.doc_ids = np.asarray(doc_ids, dtype=np.int64)
        self.doc_lens = np.asarray(doc_lens, dtype=np.int64)
        self.terms = list(terms)
        self.term_index = {t: i for i, t in enumerate(self.terms)}
        self.post_start = np.asarray(post_start, dtype=np.int64)
        self.post_rows = np.asarray(post_rows, dtype=np.int64)
        self.post_tfs = np.asarray(post_tfs, dtype=np.int64)
        self.postings_rows = self._per_term(self.post_rows)
        self.postings_tfs = self._per_term(self.post_tfs)
        self.row_of = {int(d): r for r, d in enumerate(self.doc_ids)}
        self.n_docs = len(self.doc_ids)
        self.avg_doc_len = float(self.doc_lens.mean())
        self._impacts: dict[Bm25Params, list[np.ndarray]] = {}

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
        return _idf(self.n_docs, df)

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
            idf = np.array([_idf(self.n_docs, df) for df in counts.tolist()])
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
    doc_lens = [len(d.tokens) for d in docs]
    term_rows: dict[str, list[int]] = {}
    term_tfs: dict[str, list[int]] = {}
    for row, doc in enumerate(docs):
        for term, tf in sorted(Counter(doc.tokens).items()):
            term_rows.setdefault(term, []).append(row)
            term_tfs.setdefault(term, []).append(tf)
    terms = sorted(term_rows)
    post_start = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum([len(term_rows[t]) for t in terms], out=post_start[1:])
    total = int(post_start[-1])
    post_rows = np.fromiter(chain.from_iterable(term_rows[t] for t in terms), np.int64, total)
    post_tfs = np.fromiter(chain.from_iterable(term_tfs[t] for t in terms), np.int64, total)
    return InvertedIndex(ids, doc_lens, terms, post_start, post_rows, post_tfs)


def _query_tokens(query: Document | Sequence[str]) -> list[str]:
    return list(query.tokens) if isinstance(query, Document) else list(query)


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
    neighbors may be returned; ``exclude_id`` is dropped before ranking.
    """
    if k < 0:
        raise RetrievalError(f"k must be >= 0, got {k}")
    if k == 0:
        return NeighborSet(exclude_id, ())
    # Terms in sorted order, as bm25_score adds them.
    term_ids = [index.term_index[t] for t in sorted(set(_query_tokens(query)))
                if t in index.term_index]
    if not term_ids:
        return NeighborSet(exclude_id, ())
    impacts = index.impacts(params)
    scores = np.bincount(np.concatenate([index.postings_rows[t] for t in term_ids]),
                         weights=np.concatenate([impacts[t] for t in term_ids]),
                         minlength=index.n_docs)
    if exclude_id is not None:
        row = index.row_of.get(exclude_id)
        if row is not None:
            scores[row] = 0.0
    # The k best are the k smallest of -scores. On these mostly zero, tie-heavy
    # vectors np.partition finds those about 4x faster than the k largest of
    # `scores` (numpy 2.4, x86-64 with AVX-512, 8192 docs).
    neg = -scores
    kth = np.partition(neg, k - 1)[k - 1] if k < index.n_docs else 0.0
    candidates = np.flatnonzero((neg < 0.0) & (neg <= kth))
    # Rows ascend with doc id, so the row breaks score ties by doc id.
    top = candidates[np.lexsort((candidates, neg[candidates]))][:k]
    return NeighborSet(exclude_id, tuple(zip(index.doc_ids[top].tolist(), scores[top].tolist())))


def precompute_neighbors(index: InvertedIndex, corpus: Sequence[Document], k: int,
                         self_exclude: bool = True,
                         params: Bm25Params = Bm25Params()) -> dict[int, NeighborSet]:
    """Static neighbor cache: one NeighborSet per corpus document."""
    out = {}
    for doc in corpus:
        ns = search_knn(index, doc, k, exclude_id=doc.id if self_exclude else None,
                        params=params)
        out[doc.id] = NeighborSet(doc.id, ns.neighbors)
    return out


def _tf_mask(counts: np.ndarray) -> np.ndarray:
    """Marks the term frequencies among the u32 words of the postings block,
    where each term writes its ``count`` doc-id gaps, then its ``count``
    term frequencies."""
    return np.repeat(np.tile([False, True], counts.size), np.repeat(counts, 2))


def _postings_block(index: InvertedIndex) -> tuple[dict, np.ndarray]:
    """The index fields of a manifest and the LE-u32 postings block: doc ids
    delta-encoded (first id raw, then gaps), term frequencies raw. A value
    that does not fit in a u32 raises ``RetrievalError``."""
    for name, values in (("doc id", index.doc_ids), ("term frequency", index.post_tfs)):
        if values.size and (values.min() < 0 or values.max() >= 2**32):
            raise RetrievalError(f"cannot save a {name} outside [0, 2**32)")
    counts = np.diff(index.post_start)
    ids = index.doc_ids.astype("<u4")[index.post_rows]
    # A gap wraps around at each term's first posting, which takes its raw id.
    gaps = np.diff(ids, prepend=np.uint32(0))
    firsts = index.post_start[:-1][counts > 0]
    gaps[firsts] = ids[firsts]
    del ids
    tf_mask = _tf_mask(counts)
    words = np.empty(tf_mask.size, dtype="<u4")
    words[tf_mask] = index.post_tfs
    words[np.logical_not(tf_mask, out=tf_mask)] = gaps
    del gaps, tf_mask
    manifest = {
        "n_docs": index.n_docs,
        "doc_ids": index.doc_ids.tolist(),
        "doc_lens": index.doc_lens.tolist(),
        "terms": index.terms,
        "posting_counts": counts.tolist(),
    }
    return manifest, words


def save_index(path: str | Path, index: InvertedIndex) -> None:
    """Index file: an ``artifact`` container whose body is the postings
    block; nothing is written if the index cannot be encoded."""
    manifest, words = _postings_block(index)
    write_artifact(path, _INDEX_MAGIC, manifest, [words])


def _manifest_arrays(manifest, rest=None):
    """Doc ids, doc lengths, terms and posting counts, checked for shape, then
    ``rest(manifest, doc_lens)``'s value and count of u32 words after the
    postings; and the byte length of the body they describe."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest is not a JSON object")
    doc_ids = np.asarray(manifest["doc_ids"], dtype=np.int64)
    doc_lens = np.asarray(manifest["doc_lens"], dtype=np.int64)
    terms = manifest["terms"]
    counts = np.asarray(manifest["posting_counts"], dtype=np.int64)
    if doc_ids.ndim != 1 or doc_ids.size == 0 or manifest["n_docs"] != doc_ids.size:
        raise ValueError("doc_ids must be a nonempty list of n_docs ids")
    if (doc_ids[1:] <= doc_ids[:-1]).any():
        raise ValueError("doc_ids must be strictly ascending")
    if doc_lens.shape != doc_ids.shape or (doc_lens < 0).any():
        raise ValueError("doc_lens must give one length >= 0 per doc id")
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise ValueError("terms must be a list of strings")
    if any(a >= b for a, b in zip(terms, terms[1:])):
        raise ValueError("terms must be strictly ascending")
    if counts.shape != (len(terms),) or (counts < 0).any():
        raise ValueError("posting_counts must give one count >= 0 per term")
    value, n_rest = rest(manifest, doc_lens) if rest else (None, 0)
    return (doc_ids, doc_lens, terms, counts, value, n_rest), 8 * int(counts.sum()) + 4 * n_rest


def _read_postings(path: str | Path, magic: bytes, kind: str, body_name: str, rest=None):
    """The index a postings-block container holds, the value of ``rest`` (see
    ``_manifest_arrays``) and its words as int64; a short, overlong or
    malformed part of the file raises ``RetrievalError``."""
    (doc_ids, doc_lens, terms, counts, value, n_rest), body = read_artifact(
        path, magic, RetrievalError, lambda manifest: _manifest_arrays(manifest, rest),
        kind=kind, body_name=body_name)
    words = np.frombuffer(body, dtype="<u4")
    rest_words = words[words.size - n_rest:].astype(np.int64)
    words = words[:words.size - n_rest]
    # Each step frees what it no longer needs: a loaded index is built next
    # to the running one, and these arrays are the size of the postings.
    tf_mask = _tf_mask(counts)
    tfs = words[tf_mask]
    gaps = words[np.logical_not(tf_mask, out=tf_mask)]
    del body, words, tf_mask
    gaps = gaps.astype(np.int64)
    post_start = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=post_start[1:])
    firsts = post_start[:-1][counts > 0]
    repeated = gaps == 0
    repeated[firsts] = False
    if repeated.any():
        raise RetrievalError(f"{path}: postings repeat a doc id within a term")
    # One running total over all gaps gives every term's ids once each term's
    # first gap is lowered by the total where the term before it ends: that
    # term's last id, the sum of its own gaps.
    ids = gaps
    if firsts.size:
        last_ids = np.add.reduceat(ids, firsts)
        ids[firsts[1:]] -= last_ids[:-1]
    np.cumsum(ids, out=ids)
    # Row r holds doc_ids[r], so an id of the manifest is found at its row.
    post_rows = np.searchsorted(doc_ids, ids)
    if post_rows.size and (post_rows.max() == doc_ids.size or (doc_ids[post_rows] != ids).any()):
        raise RetrievalError(f"{path}: postings name a doc id missing from the manifest")
    del ids
    index = InvertedIndex(doc_ids, doc_lens, terms, post_start, post_rows, tfs.astype(np.int64))
    return index, value, rest_words


def load_index(path: str | Path) -> InvertedIndex:
    """Read a ``save_index`` file; a short, overlong or malformed part of it
    raises ``RetrievalError``."""
    return _read_postings(path, _INDEX_MAGIC, "index", "postings")[0]


@dataclass(frozen=True)
class Memory:
    """What a model retrieves from: the index over its documents, the
    documents by id, their label space, and the BM25 settings and K."""

    index: InvertedIndex
    docs: Mapping[int, Document]
    labels: LabelSpace
    params: Bm25Params
    k: int


def save_memory(path: str | Path, memory: Memory) -> None:
    """Memory file: an ``artifact`` container whose manifest holds the index
    fields, each document's label, the label names, ``k1``, ``b`` and ``k``,
    and whose body is the postings block, then each document's tokens (in
    doc-id order) as LE-u32 ids into the index's ``terms``."""
    manifest, words = _postings_block(memory.index)
    if sorted(memory.docs) != manifest["doc_ids"]:
        raise RetrievalError("memory documents are not the documents of its index")
    docs = [memory.docs[doc_id] for doc_id in manifest["doc_ids"]]
    tokens = [memory.index.term_index[t] for d in docs for t in d.tokens]
    manifest.update(labels=[d.label for d in docs], label_names=list(memory.labels.names),
                    k1=memory.params.k1, b=memory.params.b, k=memory.k)
    write_artifact(path, _MEMORY_MAGIC, manifest, [words, np.asarray(tokens, dtype="<u4")])


def _memory_fields(manifest, doc_lens: np.ndarray):
    space, labels, k = LabelSpace(tuple(manifest["label_names"])), manifest["labels"], manifest["k"]
    if len(labels) != doc_lens.size or not all(type(y) is int and 0 <= y < space.c for y in labels):
        raise ValueError(f"labels must give one label in [0, {space.c}) per doc id")
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    params = Bm25Params(float(manifest["k1"]), float(manifest["b"]))
    return (labels, space, params, k), int(doc_lens.sum())


def load_memory(path: str | Path) -> Memory:
    """Read a ``save_memory`` file; a short, overlong or malformed part of it
    raises ``RetrievalError``."""
    index, (labels, space, params, k), tokens = _read_postings(
        path, _MEMORY_MAGIC, "memory", "postings and tokens", _memory_fields)
    if tokens.size and tokens.max() >= len(index.terms):
        raise RetrievalError(f"{path}: a token id is outside the index's terms")
    words = [index.terms[t] for t in tokens.tolist()]
    ends = np.cumsum(index.doc_lens).tolist()
    docs = {doc_id: Document(doc_id, label, " ".join(words[a:z]), "", tuple(words[a:z]))
            for doc_id, label, a, z in zip(index.doc_ids.tolist(), labels, [0] + ends, ends)}
    return Memory(index, docs, space, params, k)
