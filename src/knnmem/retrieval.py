"""Inverted-index BM25 retrieval of nearest neighbors over a training corpus.

Scoring uses the non-negative idf variant

    idf(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))

and the usual saturated term-frequency weight with parameters k1, b.
Retrieval depends only on surface tokens, so neighbor lists are
precomputed once and cached to disk.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document

_INDEX_MAGIC = b"KNNIDX01"


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


class InvertedIndex:
    """Term -> postings map with document statistics for BM25.

    Postings are stored per term as parallel arrays of internal row
    numbers and term frequencies; rows are assigned in ascending doc-id
    order so posting lists are strictly increasing in doc id.
    """

    def __init__(self, doc_ids: Sequence[int], doc_lens: Sequence[int],
                 terms: Sequence[str], postings_rows: list[np.ndarray],
                 postings_tfs: list[np.ndarray]):
        self.doc_ids = np.asarray(doc_ids, dtype=np.int64)
        self.doc_lens = np.asarray(doc_lens, dtype=np.int64)
        self.terms = list(terms)
        self.term_index = {t: i for i, t in enumerate(self.terms)}
        self.postings_rows = postings_rows
        self.postings_tfs = postings_tfs
        self.row_of = {int(d): r for r, d in enumerate(self.doc_ids)}
        self.n_docs = len(self.doc_ids)
        self.avg_doc_len = float(self.doc_lens.mean())

    def df(self, term: str) -> int:
        ti = self.term_index.get(term)
        return 0 if ti is None else len(self.postings_rows[ti])

    def idf(self, term: str) -> float:
        df = self.df(term)
        if df == 0:
            return 0.0
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def postings(self, term: str) -> list[tuple[int, int]]:
        """Posting list as (doc_id, tf) pairs sorted by ascending doc id."""
        ti = self.term_index.get(term)
        if ti is None:
            return []
        rows, tfs = self.postings_rows[ti], self.postings_tfs[ti]
        return [(int(self.doc_ids[r]), int(tf)) for r, tf in zip(rows, tfs)]

    def doc_len(self, doc_id: int) -> int:
        row = self.row_of.get(doc_id)
        if row is None:
            raise RetrievalError(f"unknown doc_id {doc_id}")
        return int(self.doc_lens[row])


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
    postings_rows = [np.asarray(term_rows[t], dtype=np.int64) for t in terms]
    postings_tfs = [np.asarray(term_tfs[t], dtype=np.int64) for t in terms]
    return InvertedIndex(ids, doc_lens, terms, postings_rows, postings_tfs)


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
    scores = np.zeros(index.n_docs)
    denom_base = params.k1 * (1.0 - params.b + params.b * index.doc_lens / index.avg_doc_len)
    for term in set(_query_tokens(query)):
        ti = index.term_index.get(term)
        if ti is None:
            continue
        rows = index.postings_rows[ti]
        tfs = index.postings_tfs[ti].astype(np.float64)
        idf = index.idf(term)
        scores[rows] += idf * tfs * (params.k1 + 1.0) / (tfs + denom_base[rows])
    if exclude_id is not None:
        row = index.row_of.get(exclude_id)
        if row is not None:
            scores[row] = 0.0
    candidates = np.nonzero(scores > 0.0)[0]
    if candidates.size == 0:
        return NeighborSet(exclude_id, ())
    order = candidates[np.lexsort((index.doc_ids[candidates], -scores[candidates]))]
    top = order[:k]
    return NeighborSet(exclude_id, tuple((int(index.doc_ids[r]), float(scores[r])) for r in top))


def precompute_neighbors(index: InvertedIndex, corpus: Sequence[Document], k: int,
                         self_exclude: bool = True,
                         params: Bm25Params = Bm25Params(),
                         threads: int = 1) -> dict[int, NeighborSet]:
    """Static neighbor cache: one NeighborSet per corpus document."""

    def one(doc: Document) -> tuple[int, NeighborSet]:
        exclude = doc.id if self_exclude else None
        ns = search_knn(index, doc, k, exclude_id=exclude, params=params)
        return doc.id, NeighborSet(doc.id, ns.neighbors)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, corpus))
    else:
        results = [one(doc) for doc in corpus]
    return dict(results)


def save_neighbors(path: str | Path, neighbors: Mapping[int, NeighborSet]) -> None:
    """One line per doc: ``doc_id<TAB>nbr:score,...`` with 6-decimal scores."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for doc_id in sorted(neighbors):
            ns = neighbors[doc_id]
            body = ",".join(f"{nbr}:{score:.6f}" for nbr, score in ns.neighbors)
            fh.write(f"{doc_id}\t{body}\n")


def load_neighbors(path: str | Path) -> dict[int, NeighborSet]:
    out: dict[int, NeighborSet] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                head, _, body = line.partition("\t")
                doc_id = int(head)
                pairs = []
                if body:
                    for item in body.split(","):
                        nbr, _, score = item.partition(":")
                        pairs.append((int(nbr), float(score)))
            except ValueError:
                raise RetrievalError(f"{path}: malformed neighbor cache at line {lineno}") from None
            out[doc_id] = NeighborSet(doc_id, tuple(pairs))
    return out


def _write_u32s(fh, values: Iterable[int]) -> None:
    arr = np.asarray(list(values), dtype="<u4")
    fh.write(arr.tobytes())


def save_index(path: str | Path, index: InvertedIndex) -> None:
    """Binary index file: magic, length-prefixed JSON manifest, LE-u32 postings.

    Posting doc ids are delta-encoded (first id raw, then gaps); term
    frequencies are raw.
    """
    manifest = {
        "n_docs": index.n_docs,
        "doc_ids": [int(d) for d in index.doc_ids],
        "doc_lens": [int(l) for l in index.doc_lens],
        "terms": index.terms,
        "posting_counts": [len(r) for r in index.postings_rows],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(_INDEX_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for rows, tfs in zip(index.postings_rows, index.postings_tfs):
            ids = index.doc_ids[rows]
            deltas = np.diff(ids, prepend=0) if len(ids) else ids
            _write_u32s(fh, deltas)
            _write_u32s(fh, tfs)


def _manifest_arrays(manifest) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray]:
    """Doc ids, doc lengths, terms and posting counts, checked for shape."""
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
    if counts.shape != (len(terms),) or (counts < 0).any():
        raise ValueError("posting_counts must give one count >= 0 per term")
    return doc_ids, doc_lens, terms, counts


def load_index(path: str | Path) -> InvertedIndex:
    """Read a ``save_index`` file; a short, overlong or malformed part of it
    raises ``RetrievalError``."""
    with Path(path).open("rb") as fh:
        magic = fh.read(len(_INDEX_MAGIC))
        if magic != _INDEX_MAGIC:
            raise RetrievalError(f"{path}: bad index magic {magic!r}")
        raw = fh.read(8)
        if len(raw) != 8:
            raise RetrievalError(f"{path}: truncated index header")
        (size,) = struct.unpack("<Q", raw)
        blob = fh.read(size)
        if len(blob) != size:
            raise RetrievalError(f"{path}: truncated index manifest")
        try:
            doc_ids, doc_lens, terms, counts = _manifest_arrays(json.loads(blob.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise RetrievalError(f"{path}: malformed index manifest: {exc}") from None
        del blob
        want = 8 * int(counts.sum())
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body < want:
            raise RetrievalError(f"{path}: truncated postings ({body} of {want} bytes)")
        if body > want:
            raise RetrievalError(f"{path}: {body - want} trailing bytes after the postings")
        postings_rows, postings_tfs = [], []
        for count in counts.tolist():
            # One term: `count` doc-id gaps, then `count` term frequencies.
            # Row r holds doc_ids[r]; the ids ascend, so the last one has the
            # largest row.
            ids = np.cumsum(np.frombuffer(fh.read(4 * count), dtype="<u4"), dtype=np.int64)
            rows = np.searchsorted(doc_ids, ids)
            if count and (rows[-1] == doc_ids.size or (doc_ids[rows] != ids).any()):
                raise RetrievalError(f"{path}: postings name a doc id missing from the manifest")
            postings_rows.append(rows)
            postings_tfs.append(np.frombuffer(fh.read(4 * count), dtype="<u4").astype(np.int64))
    return InvertedIndex(doc_ids, doc_lens, terms, postings_rows, postings_tfs)
