"""Brute-force BM25 oracle: evaluates the ranking formula directly over raw
token lists, with no inverted index, no caching, and no shared code with the
package implementation. ``oracle_postings`` builds packed postings the
direct way, one term-frequency count per document."""

import math
from collections import Counter

import numpy as np


def oracle_postings(doc_tokens, terms):
    """``(post_start, post_rows, post_tfs)`` over the sorted ``terms`` for
    documents given as token lists, one per row: each document's terms are
    counted with a ``Counter`` and appended to per-term lists of rows and
    term frequencies, which are then packed in term order."""
    term_rows = {t: [] for t in terms}
    term_tfs = {t: [] for t in terms}
    for row, tokens in enumerate(doc_tokens):
        for term, tf in sorted(Counter(tokens).items()):
            term_rows[term].append(row)
            term_tfs[term].append(tf)
    post_start = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum([len(term_rows[t]) for t in terms], out=post_start[1:])
    post_rows = np.array([r for t in terms for r in term_rows[t]], dtype=np.int64)
    post_tfs = np.array([tf for t in terms for tf in term_tfs[t]], dtype=np.int64)
    return post_start, post_rows, post_tfs


def oracle_bm25_score(doc_tokens_by_id, query_tokens, doc_id, k1=1.2, b=0.75):
    n = len(doc_tokens_by_id)
    avgdl = sum(len(t) for t in doc_tokens_by_id.values()) / n
    doc = doc_tokens_by_id[doc_id]
    score = 0.0
    for term in set(query_tokens):
        df = sum(1 for toks in doc_tokens_by_id.values() if term in toks)
        if df == 0:
            continue
        tf = sum(1 for t in doc if t == term)
        if tf == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc) / avgdl))
    return score


def oracle_rank(doc_tokens_by_id, query_tokens, k, exclude_id=None, k1=1.2, b=0.75):
    scored = []
    for doc_id in doc_tokens_by_id:
        if doc_id == exclude_id:
            continue
        s = oracle_bm25_score(doc_tokens_by_id, query_tokens, doc_id, k1=k1, b=b)
        if s > 0.0:
            scored.append((doc_id, s))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
