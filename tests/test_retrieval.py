import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmem.corpus import Document
from knnmem.retrieval import (
    Bm25Params,
    NeighborSet,
    RetrievalError,
    bm25_score,
    build_index,
    load_index,
    load_neighbors,
    precompute_neighbors,
    save_index,
    save_neighbors,
    search_knn,
)

from bm25_oracle import oracle_bm25_score, oracle_rank


def doc(i, tokens, label=0):
    return Document(id=i, label=label, title=" ".join(tokens), body="", tokens=tuple(tokens))


def random_corpus(rng, n_docs, vocab_size, max_len=12):
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(1, max_len + 1))
        tokens = [f"t{rng.integers(0, vocab_size)}" for _ in range(length)]
        docs.append(doc(i, tokens))
    return docs


class TestBuildIndex:
    def test_toy_postings(self):
        index = build_index([doc(0, ["a", "b"]), doc(1, ["b", "c"])])
        assert index.postings("a") == [(0, 1)]
        assert index.postings("b") == [(0, 1), (1, 1)]
        assert index.postings("c") == [(1, 1)]
        assert index.avg_doc_len == 2.0
        assert index.n_docs == 2

    def test_single_doc_df(self):
        index = build_index([doc(0, ["x", "y", "x"])])
        assert index.df("x") == 1 and index.df("y") == 1
        assert index.postings("x") == [(0, 2)]

    def test_rebuild_identical(self):
        corpus = [doc(0, ["a", "b"]), doc(1, ["b", "c", "b"])]
        a, b = build_index(corpus), build_index(corpus)
        assert a.terms == b.terms
        assert all(a.postings(t) == b.postings(t) for t in a.terms)

    def test_empty_corpus(self):
        with pytest.raises(RetrievalError):
            build_index([])

    def test_invariants(self):
        rng = np.random.default_rng(0)
        corpus = random_corpus(rng, 30, 20)
        index = build_index(corpus)
        assert index.avg_doc_len == pytest.approx(np.mean([len(d.tokens) for d in corpus]))
        for t in index.terms:
            postings = index.postings(t)
            assert index.df(t) == len(postings)
            ids = [p[0] for p in postings]
            assert ids == sorted(ids) and len(set(ids)) == len(ids)


class TestBm25Score:
    CORPUS = [doc(0, ["a", "b", "a"]), doc(1, ["b", "c"]), doc(2, ["c", "d", "e"])]

    def test_no_indexed_terms(self):
        index = build_index(self.CORPUS)
        assert bm25_score(index, ["zzz", "qqq"], 0) == 0.0

    def test_frozen_oracle_values(self):
        # Frozen from bm25_oracle.oracle_bm25_score on this 3-doc corpus.
        index = build_index(self.CORPUS)
        assert bm25_score(index, ["a", "c"], 0) == pytest.approx(1.3028373473967083, abs=1e-12)
        assert bm25_score(index, ["a", "c"], 1) == pytest.approx(0.523548346501579, abs=1e-12)

    def test_duplicate_query_terms_count_once(self):
        index = build_index(self.CORPUS)
        assert bm25_score(index, ["b", "c", "c"], 1) == bm25_score(index, ["b", "c"], 1)
        assert bm25_score(index, ["b", "c", "c"], 1) == pytest.approx(1.047096693003158, abs=1e-12)

    def test_unknown_doc(self):
        index = build_index(self.CORPUS)
        with pytest.raises(RetrievalError):
            bm25_score(index, ["a"], 99)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(42)
        corpus = random_corpus(rng, 40, 15)
        raw = {d.id: list(d.tokens) for d in corpus}
        index = build_index(corpus)
        for _ in range(25):
            query = [f"t{rng.integers(0, 15)}" for _ in range(int(rng.integers(1, 8)))]
            target = int(rng.integers(0, 40))
            assert bm25_score(index, query, target) == pytest.approx(
                oracle_bm25_score(raw, query, target), abs=1e-9
            )

    @given(tf_extra=st.integers(min_value=1, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_tf(self, tf_extra):
        # More occurrences of the query term never lower the score, all else fixed.
        base = [doc(0, ["q"] + ["pad"] * 5), doc(1, ["pad"] * 6)]
        more = [doc(0, ["q"] * (1 + tf_extra) + ["pad"] * 5), doc(1, ["pad"] * 6)]
        lo = bm25_score(build_index(base), ["q"], 0)
        hi = bm25_score(build_index(more), ["q"], 0)
        assert hi >= lo

    def test_idf_nonnegative_for_all_df(self):
        for n in (1, 2, 5, 50):
            for df in range(1, n + 1):
                assert math.log(1.0 + (n - df + 0.5) / (df + 0.5)) >= 0.0


class TestSearchKnn:
    def test_k_zero(self):
        index = build_index(TestBm25Score.CORPUS)
        result = search_knn(index, ["a"], 0)
        assert len(result) == 0

    def test_self_query_ranks_first(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 25, 12)
        index = build_index(corpus)
        for target in corpus[:8]:
            result = search_knn(index, target, 5)
            assert result.neighbors[0][0] == target.id

    def test_exclusion(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 25, 12)
        index = build_index(corpus)
        for target in corpus[:8]:
            result = search_knn(index, target, 25, exclude_id=target.id)
            assert target.id not in result.ids()

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(12):
            corpus = random_corpus(rng, int(rng.integers(2, 60)), int(rng.integers(3, 25)))
            raw = {d.id: list(d.tokens) for d in corpus}
            index = build_index(corpus)
            for _ in range(5):
                query = [f"t{rng.integers(0, 25)}" for _ in range(int(rng.integers(1, 10)))]
                k = int(rng.integers(1, 10))
                got = search_knn(index, query, k)
                want = oracle_rank(raw, query, k)
                assert got.ids() == [i for i, _ in want]
                for (gi, gs), (wi, ws) in zip(got.neighbors, want):
                    assert gs == pytest.approx(ws, abs=1e-9)

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(9)
        corpus = random_corpus(rng, 50, 10)
        index = build_index(corpus)
        result = search_knn(index, corpus[0], 20)
        scores = [s for _, s in result.neighbors]
        assert scores == sorted(scores, reverse=True)

    def test_tie_break_ascending_id(self):
        # Two identical docs tie exactly; lower id must come first.
        corpus = [doc(0, ["x", "y"]), doc(1, ["x", "y"]), doc(2, ["z"])]
        index = build_index(corpus)
        result = search_knn(index, ["x"], 2)
        assert result.ids() == [0, 1]


class TestPrecompute:
    def test_single_doc_self_exclude(self):
        corpus = [doc(0, ["a", "b"])]
        index = build_index(corpus)
        cache = precompute_neighbors(index, corpus, k=3, self_exclude=True)
        assert len(cache[0]) == 0

    def test_no_self_exclude_doc_is_own_top(self):
        rng = np.random.default_rng(11)
        corpus = random_corpus(rng, 30, 18)
        index = build_index(corpus)
        cache = precompute_neighbors(index, corpus, k=3, self_exclude=False)
        for d in corpus:
            assert cache[d.id].neighbors[0][0] == d.id

    def test_self_exclude_never_contains_self(self):
        rng = np.random.default_rng(12)
        corpus = random_corpus(rng, 30, 6)
        index = build_index(corpus)
        cache = precompute_neighbors(index, corpus, k=30, self_exclude=True)
        for d in corpus:
            assert d.id not in cache[d.id].ids()

    def test_threads_match_serial(self):
        rng = np.random.default_rng(13)
        corpus = random_corpus(rng, 40, 10)
        index = build_index(corpus)
        serial = precompute_neighbors(index, corpus, k=4, threads=1)
        threaded = precompute_neighbors(index, corpus, k=4, threads=3)
        assert serial == threaded


class TestFileFormats:
    def test_neighbor_cache_round_trip_and_bytes(self, tmp_path):
        rng = np.random.default_rng(21)
        corpus = random_corpus(rng, 20, 8)
        index = build_index(corpus)
        cache = precompute_neighbors(index, corpus, k=4)
        p1, p2 = tmp_path / "a.nbr", tmp_path / "b.nbr"
        save_neighbors(p1, cache)
        reloaded = load_neighbors(p1)
        assert set(reloaded) == set(cache)
        for doc_id, ns in cache.items():
            got = reloaded[doc_id]
            assert got.ids() == ns.ids()
            for (gi, gs), (wi, ws) in zip(got.neighbors, ns.neighbors):
                assert abs(gs - ws) < 1e-6
        save_neighbors(p2, cache)
        assert p1.read_bytes() == p2.read_bytes()

    def test_index_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        corpus = random_corpus(rng, 25, 9)
        index = build_index(corpus)
        p = tmp_path / "corpus.idx"
        save_index(p, index)
        loaded = load_index(p)
        assert loaded.terms == index.terms
        assert list(loaded.doc_ids) == list(index.doc_ids)
        assert list(loaded.doc_lens) == list(index.doc_lens)
        for t in index.terms:
            assert loaded.postings(t) == index.postings(t)
        query = list(corpus[3].tokens)
        assert search_knn(loaded, query, 5).neighbors == search_knn(index, query, 5).neighbors

    def test_index_rewrite_is_byte_identical(self, tmp_path):
        corpus = [doc(0, ["a", "b"]), doc(1, ["b", "c", "b"])]
        p1, p2 = tmp_path / "one.idx", tmp_path / "two.idx"
        save_index(p1, build_index(corpus))
        save_index(p2, build_index(corpus))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(b"NOTANIDX" + b"\x00" * 16)
        with pytest.raises(RetrievalError, match="magic"):
            load_index(p)


class TestIndexFileErrors:
    """A damaged index file is a `RetrievalError`, never a silent load."""

    @pytest.fixture
    def saved(self, tmp_path):
        corpus = [doc(3, ["a", "b"]), doc(5, ["b", "c", "b"]), doc(9, ["c", "d"])]
        p = tmp_path / "corpus.idx"
        save_index(p, build_index(corpus))
        return p

    @staticmethod
    def write_index(path, manifest, postings=b""):
        blob = json.dumps(manifest).encode("utf-8")
        path.write_bytes(b"KNNIDX01" + struct.pack("<Q", len(blob)) + blob + postings)

    def test_every_truncation_is_an_error(self, saved):
        blob = saved.read_bytes()
        for cut in range(1, len(blob)):
            saved.write_bytes(blob[: len(blob) - cut])
            with pytest.raises(RetrievalError):
                load_index(saved)

    def test_trailing_bytes(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00" * 4)
        with pytest.raises(RetrievalError, match="trailing"):
            load_index(saved)

    def test_malformed_manifest_json(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[16] = ord("#")  # first byte of the JSON manifest
        saved.write_bytes(bytes(blob))
        with pytest.raises(RetrievalError, match="manifest"):
            load_index(saved)

    @pytest.mark.parametrize("change", [
        {"terms": None},
        {"posting_counts": [1]},
        {"doc_lens": [1]},
        {"n_docs": 3},
        {"doc_ids": [4, 4]},
        {"doc_ids": [7, 4]},
    ])
    def test_bad_manifest_keys(self, tmp_path, change):
        manifest = {"n_docs": 2, "doc_ids": [4, 7], "doc_lens": [1, 1], "terms": ["x"],
                    "posting_counts": [2]}
        manifest.update(change)
        p = tmp_path / "bad.idx"
        self.write_index(p, manifest, struct.pack("<4I", 4, 3, 1, 1))
        with pytest.raises(RetrievalError, match="manifest"):
            load_index(p)

    def test_missing_manifest_key(self, tmp_path):
        p = tmp_path / "bad.idx"
        self.write_index(p, {"n_docs": 1, "doc_ids": [1], "doc_lens": [1], "terms": []})
        with pytest.raises(RetrievalError, match="manifest"):
            load_index(p)

    def test_posting_with_unknown_doc_id(self, tmp_path):
        manifest = {"n_docs": 2, "doc_ids": [4, 7], "doc_lens": [1, 1], "terms": ["x"],
                    "posting_counts": [2]}
        p = tmp_path / "bad.idx"
        self.write_index(p, manifest, struct.pack("<4I", 4, 2, 1, 1))  # ids 4 and 6
        with pytest.raises(RetrievalError, match="doc id"):
            load_index(p)


def test_bm25_params_validation():
    with pytest.raises(RetrievalError):
        Bm25Params(k1=-0.1)
    with pytest.raises(RetrievalError):
        Bm25Params(b=1.5)
    assert Bm25Params().k1 == 1.2 and Bm25Params().b == 0.75
