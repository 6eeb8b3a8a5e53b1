import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnmem
from knnmem.artifact import write_artifact
from knnmem.corpus import Document, LabelSpace, load_dataset, tokenize
from knnmem.retrieval import (
    Bm25Params,
    InvertedIndex,
    Memory,
    NeighborSet,
    RetrievalError,
    bm25_score,
    build_index,
    load_index,
    memory_manifest,
    precompute_neighbors,
    save_index,
    search_knn,
)
from knnmem.trainer import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint

from bm25_oracle import oracle_bm25_score, oracle_postings, oracle_rank


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
        assert index.doc_ids.tolist() == [0, 1]
        assert index.doc_terms.tolist() == [0, 1, 1, 2]

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

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_postings_match_counter_oracle(self, data):
        # Sparse doc ids (beyond u32 too), terms no document uses, repeated
        # tokens, empty documents and a single document all occur.
        terms = sorted(data.draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                                          min_size=1, max_size=10, unique=True)))
        docs = data.draw(st.lists(st.lists(st.sampled_from(terms), max_size=12),
                                  min_size=1, max_size=8))
        ids = sorted(data.draw(st.lists(st.integers(-2**40, 2**40), min_size=len(docs),
                                        max_size=len(docs), unique=True)))
        index = InvertedIndex(ids, terms, [len(d) for d in docs],
                              [terms.index(t) for d in docs for t in d])
        want = oracle_postings(docs, terms)
        for got, expected in zip((index.post_start, index.post_rows, index.post_tfs), want):
            assert got.dtype == np.int64 and np.array_equal(got, expected)
        built = build_index([doc(i, d) for i, d in zip(ids, docs)])
        used = [t for t in terms if any(t in d for d in docs)]
        assert built.terms == used
        for t in used:
            assert built.postings(t) == index.postings(t)

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


def assert_matches_oracle(index, raw, query, k, exclude_id=None, params=Bm25Params()):
    got = search_knn(index, query, k, exclude_id=exclude_id, params=params)
    want = oracle_rank(raw, query, k, exclude_id=exclude_id, k1=params.k1, b=params.b)
    assert got.ids() == [i for i, _ in want]
    for (_, gs), (_, ws) in zip(got.neighbors, want):
        assert gs == pytest.approx(ws, abs=1e-9)
    return got


class TestPackedScorer:
    """`search_knn` over packed postings and memoised impacts, against the oracle."""

    PARAMS = (Bm25Params(), Bm25Params(0.5, 0.3), Bm25Params(0.0, 1.0))

    @staticmethod
    def indexed(corpus):
        return build_index(corpus), {d.id: list(d.tokens) for d in corpus}

    def test_exact_ties_from_duplicate_documents(self):
        rng = np.random.default_rng(31)
        for trial in range(6):
            base = random_corpus(rng, 20, 8)
            copies = [doc(100 + d.id, d.tokens) for d in base[::3]]
            index, raw = self.indexed(base + copies)
            for original in copies:
                query = list(original.tokens)
                assert_matches_oracle(index, raw, query, 6)
                got = dict(assert_matches_oracle(index, raw, query, len(raw)).neighbors)
                assert got[original.id] == got[original.id - 100]  # an exact tie

    def test_k_equal_to_and_above_n_docs(self):
        rng = np.random.default_rng(32)
        corpus = random_corpus(rng, 15, 5)
        index, raw = self.indexed(corpus)
        for d in corpus[:5]:
            for k in (15, 16, 40):
                assert_matches_oracle(index, raw, list(d.tokens), k)
                assert_matches_oracle(index, raw, list(d.tokens), k, exclude_id=d.id)

    def test_unknown_exclude_id(self):
        rng = np.random.default_rng(33)
        corpus = random_corpus(rng, 25, 10)
        index, raw = self.indexed(corpus)
        for d in corpus[:5]:
            got = assert_matches_oracle(index, raw, list(d.tokens), 6, exclude_id=999)
            assert got.query_id == 999
            assert got.neighbors == search_knn(index, d, 6).neighbors

    def test_unknown_and_repeated_query_terms(self):
        rng = np.random.default_rng(34)
        corpus = random_corpus(rng, 25, 10)
        index, raw = self.indexed(corpus)
        assert len(assert_matches_oracle(index, raw, ["nope", "never", "nope"], 5)) == 0
        for d in corpus[:6]:
            query = list(d.tokens) * 3 + ["nope"]
            got = assert_matches_oracle(index, raw, query, 5)
            assert got == search_knn(index, sorted(set(d.tokens)), 5)

    def test_params_alternate_on_one_index(self):
        rng = np.random.default_rng(35)
        corpus = random_corpus(rng, 40, 12)
        index, raw = self.indexed(corpus)
        other = Bm25Params(0.5, 0.3)
        for d in corpus[:6] * 2:
            for params in (other, Bm25Params()):
                assert_matches_oracle(index, raw, list(d.tokens), 7, exclude_id=d.id,
                                      params=params)
        assert search_knn(index, corpus[0], 7, params=other) != search_knn(index, corpus[0], 7)

    def test_scores_equal_bm25_score_exactly(self):
        rng = np.random.default_rng(36)
        for params in self.PARAMS:
            corpus = random_corpus(rng, 60, 30, max_len=30)
            index = build_index(corpus)
            for d in corpus[:15]:
                for nbr, score in search_knn(index, d, 10, exclude_id=d.id, params=params).neighbors:
                    assert score == bm25_score(index, d, nbr, params)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_cut_inside_an_exact_tie(self, data):
        """Three to five byte-identical documents tie exactly, and k is cut
        inside that tie, with and without the query's own top document
        excluded. The query holds at most two indexed terms: two floats add
        the same in either order, so the oracle, which adds in set order,
        ranks every near-tie exactly as the index does."""
        params = data.draw(st.sampled_from(self.PARAMS))
        words = st.sampled_from([f"w{i}" for i in range(6)])
        base = data.draw(st.lists(st.lists(words, min_size=1, max_size=8), max_size=12))
        twin = data.draw(st.lists(words, min_size=1, max_size=8))
        token_lists = base + [twin] * data.draw(st.integers(3, 5))
        order = data.draw(st.permutations(range(len(token_lists))))
        index, raw = self.indexed([doc(i, token_lists[j]) for i, j in enumerate(order)])
        first, second = data.draw(st.sampled_from(sorted(set(twin)))), data.draw(words)
        query = [first] + data.draw(st.lists(st.sampled_from([first, second, "nope"]), max_size=4))
        exclude_id = None
        if data.draw(st.booleans()):
            exclude_id = oracle_rank(raw, query, 1, k1=params.k1, b=params.b)[0][0]
        ranked = oracle_rank(raw, query, len(raw), exclude_id, params.k1, params.b)
        twin_score = next(s for i, s in ranked if raw[i] == twin)
        tie = [r for r, (_, s) in enumerate(ranked) if s == twin_score]
        assert len(tie) >= 2
        for k in (data.draw(st.integers(tie[0] + 1, tie[-1])),
                  data.draw(st.integers(1, len(raw) + 2))):
            got = search_knn(index, query, k, exclude_id=exclude_id, params=params)
            assert got.neighbors == tuple(ranked[:k])
            for nbr, score in got.neighbors:
                assert score == bm25_score(index, query, nbr, params)

    def test_searches_leave_the_index_unchanged(self):
        rng = np.random.default_rng(38)
        corpus = random_corpus(rng, 40, 10)
        index = build_index(corpus)
        before = {params: np.concatenate(index.impacts(params)).tobytes() for params in self.PARAMS}
        rows, tfs = index.post_rows.tobytes(), index.post_tfs.tobytes()
        for n in range(100):
            d = corpus[n % len(corpus)]
            search_knn(index, d, 1 + n % 7, exclude_id=d.id if n % 2 else None,
                       params=self.PARAMS[n % 3])
        for params in self.PARAMS:
            assert np.concatenate(index.impacts(params)).tobytes() == before[params]
        assert (index.post_rows.tobytes(), index.post_tfs.tobytes()) == (rows, tfs)

    def test_round_trip_keeps_per_term_views(self, tmp_path):
        rng = np.random.default_rng(37)
        corpus = random_corpus(rng, 30, 12)
        index, raw = self.indexed(corpus)
        p = tmp_path / "corpus.idx"
        save_index(p, index)
        loaded = load_index(p)
        for idx in (index, loaded):
            assert idx.post_start[0] == 0 and idx.post_start[-1] == idx.post_rows.size
            for t in range(len(idx.terms)):
                a, z = idx.post_start[t], idx.post_start[t + 1]
                assert np.array_equal(idx.postings_rows[t], idx.post_rows[a:z])
                assert np.array_equal(idx.postings_tfs[t], idx.post_tfs[a:z])
                assert np.shares_memory(idx.postings_rows[t], idx.post_rows)
                assert np.shares_memory(idx.postings_tfs[t], idx.post_tfs)
        assert np.array_equal(loaded.post_start, index.post_start)
        for d in corpus[:5]:
            assert_matches_oracle(loaded, raw, list(d.tokens), 5, exclude_id=d.id)


_HASHSEED_SCRIPT = """
import numpy as np
from knnmem.corpus import Document
from knnmem.retrieval import build_index, precompute_neighbors
rng = np.random.default_rng(5)
corpus = [Document(id=i, label=0, title="", body="",
                   tokens=tuple(f"w{rng.integers(0, 60)}" for _ in range(rng.integers(5, 40))))
          for i in range(300)]
print(repr(sorted(precompute_neighbors(build_index(corpus), corpus, 5).items())))
"""


def test_precompute_does_not_depend_on_hash_seed():
    src = str(Path(knnmem.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _HASHSEED_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


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


class TestFileFormats:
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

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        p = tmp_path / "corpus.idx"
        save_index(p, build_index([doc(0, ["a", "b"]), doc(1, ["b"])]))
        before = p.read_bytes()

        def body_parts():
            yield b"half a body"
            raise OSError("device full")

        for target in (p, tmp_path / "fresh.idx"):
            with pytest.raises(OSError, match="device full"):
                write_artifact(target, b"KNNIDX02", {"n_docs": 2}, body_parts())
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["corpus.idx"]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(b"NOTANIDX" + b"\x00" * 16)
        with pytest.raises(RetrievalError, match=": bad index magic b'NOTANIDX'"):
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
    def write_index(path, manifest, term_ids=b""):
        blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path.write_bytes(b"KNNIDX02" + struct.pack("<Q", len(blob)) + blob + term_ids)

    def test_every_truncation_is_an_error(self, saved):
        blob = saved.read_bytes()
        for cut in range(1, len(blob)):
            saved.write_bytes(blob[: len(blob) - cut])
            with pytest.raises(RetrievalError):
                load_index(saved)

    def test_trailing_bytes(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00" * 4)
        with pytest.raises(RetrievalError, match=": 4 trailing bytes after the term ids"):
            load_index(saved)

    def test_malformed_manifest_json(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[16] = ord("#")  # first byte of the JSON manifest
        saved.write_bytes(bytes(blob))
        with pytest.raises(RetrievalError, match=": malformed index manifest"):
            load_index(saved)

    def test_previous_format_magic(self, saved):
        saved.write_bytes(b"KNNIDX01" + saved.read_bytes()[8:])
        with pytest.raises(RetrievalError, match=": bad index magic b'KNNIDX01'"):
            load_index(saved)

    @pytest.mark.parametrize("change", [
        {"terms": None},
        {"doc_lens": [3, -1]},
        {"doc_lens": [2]},
        {"doc_ids": []},
        {"doc_ids": [4, 4]},
        {"doc_ids": [7, 4]},
        {"terms": ["x", 3]},
        {"doc_ids": [4, 7.5]},
        {"doc_ids": [4, 2**70]},
        {"doc_lens": [1.0, 1]},
        {"doc_ids": [True, 7]},
        {"doc_lens": [1, 2**63]},
        {"doc_ids": [-2**63 - 1, 7]},
    ])
    def test_bad_manifest_keys(self, tmp_path, change):
        manifest = {"doc_ids": [4, 7], "doc_lens": [1, 1], "terms": ["x"]}
        manifest.update(change)
        p = tmp_path / "bad.idx"
        self.write_index(p, manifest, struct.pack("<2I", 0, 0))
        with pytest.raises(RetrievalError, match=": malformed index manifest"):
            load_index(p)

    def test_missing_manifest_key(self, tmp_path):
        p = tmp_path / "bad.idx"
        self.write_index(p, {"doc_ids": [1], "doc_lens": [1]}, struct.pack("<I", 0))
        with pytest.raises(RetrievalError, match=": malformed index manifest: 'terms'"):
            load_index(p)

    def test_term_id_outside_terms(self, tmp_path):
        manifest = {"doc_ids": [4, 7], "doc_lens": [1, 1], "terms": ["x"]}
        p = tmp_path / "bad.idx"
        self.write_index(p, manifest, struct.pack("<2I", 0, 1))
        with pytest.raises(RetrievalError, match=": a term id is outside the index's terms"):
            load_index(p)

    def test_terms_out_of_order(self, tmp_path):
        manifest = {"doc_ids": [4, 7], "doc_lens": [1, 1], "terms": ["y", "x"]}
        p = tmp_path / "bad.idx"
        self.write_index(p, manifest, struct.pack("<2I", 0, 1))
        with pytest.raises(RetrievalError, match=": malformed index manifest: terms must be"):
            load_index(p)

    def test_body_is_the_term_ids_of_the_manifest(self, tmp_path):
        manifest = {"doc_ids": [4, 7], "doc_lens": [1, 2], "terms": ["x", "y"]}
        p = tmp_path / "ok.idx"
        self.write_index(p, manifest, struct.pack("<3I", 1, 0, 1))
        index = load_index(p)
        assert index.postings("x") == [(7, 1)] and index.postings("y") == [(4, 1), (7, 1)]
        save_index(tmp_path / "again.idx", index)
        assert (tmp_path / "again.idx").read_bytes() == p.read_bytes()


class TestSaveIndexRange:
    """Doc ids are stored in the manifest, so any int64 id round-trips."""

    @pytest.mark.parametrize("ids", [(1, 2**32 + 1), (-1, 3), (-2**62, 2**62),
                                     (-2**63, 2**63 - 1)])
    def test_ids_beyond_u32_round_trip(self, tmp_path, ids):
        docs = [doc(i, ["a", "b"][: n + 1], label=n) for n, i in enumerate(ids)]
        index = build_index(docs)
        save_index(tmp_path / "out.idx", index)
        assert load_index(tmp_path / "out.idx").postings("a") == [(ids[0], 1), (ids[1], 1)]
        save_checkpoint(tmp_path / "model.ckpt", with_memory(Memory(
            index, {d.id: d for d in docs}, LabelSpace(("x", "y")), Bm25Params(), 1)))
        loaded = load_checkpoint(tmp_path / "model.ckpt").memory
        assert [(d.id, d.label, d.tokens) for d in loaded.docs.values()] == \
            [(d.id, d.label, d.tokens) for d in docs]

    def test_largest_u32_doc_id_round_trips(self, tmp_path):
        p = tmp_path / "out.idx"
        index = build_index([doc(0, ["a", "b"]), doc(2**32 - 1, ["a"])])
        save_index(p, index)
        assert load_index(p).postings("a") == [(0, 1), (2**32 - 1, 1)]


def with_memory(memory):
    """A checkpoint that holds no tensor, only ``memory``."""
    return Checkpoint(manifest={"tensors": []}, tensors={}, memory=memory)


class TestMemoryFile:
    """A memory saved with its checkpoint gives back the documents, label
    space, BM25 settings and K, and retrieval over it is unchanged. A damaged
    memory part is a `CheckpointError` that names the file."""

    LABELS = LabelSpace(("x", "y", "z"))

    def save(self, path, docs, params=Bm25Params(0.5, 0.3), k=3):
        memory = Memory(build_index(docs), {d.id: d for d in docs}, self.LABELS, params, k)
        save_checkpoint(path, with_memory(memory))
        return load_checkpoint(path).memory

    @staticmethod
    def rewrite(path, change):
        blob = path.read_bytes()
        (size,) = struct.unpack("<Q", blob[8:16])
        manifest = json.loads(blob[16:16 + size])
        manifest["memory"].update(change)
        raw = json.dumps(manifest).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + size:])

    @staticmethod
    def refused(path, match):
        return pytest.raises(CheckpointError, match=re.escape(f"{path}: ") + match)

    def test_round_trip_ids_labels_tokens_and_settings(self, tmp_path):
        rng = np.random.default_rng(23)
        docs = [doc(3 * d.id + 1, d.tokens, label=d.id % 3) for d in random_corpus(rng, 30, 11)]
        loaded = self.save(tmp_path / "model.ckpt", docs[::-1])
        assert [(d.id, d.label, d.tokens) for d in loaded.docs.values()] == \
            [(d.id, d.label, d.tokens) for d in docs]
        assert (loaded.labels, loaded.params, loaded.k) == (self.LABELS, Bm25Params(0.5, 0.3), 3)

    def test_rewrite_is_byte_identical(self, tmp_path):
        p, again = tmp_path / "model.ckpt", tmp_path / "again.ckpt"
        self.save(p, [doc(1, ["a"], label=2), doc(4, ["a", "b"])])
        checkpoint = load_checkpoint(p)
        assert "memory" not in checkpoint.manifest
        save_checkpoint(again, checkpoint)
        assert again.read_bytes() == p.read_bytes()

    def test_dataset_tokens_round_trip(self, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text('"1","IBM and Kodak.","camera-phones, deal"\n"2","Second doc",""\n',
                       encoding="utf-8")
        docs = load_dataset(csv, LabelSpace.of_size(4))
        loaded = list(self.save(tmp_path / "model.ckpt", docs).docs.values())
        assert [(d.id, d.label, d.tokens) for d in loaded] == [(d.id, d.label, d.tokens) for d in docs]
        assert [tuple(tokenize(d.text)) for d in loaded] == [d.tokens for d in docs]

    def test_search_over_loaded_memory_is_unchanged(self, tmp_path):
        rng = np.random.default_rng(24)
        docs = random_corpus(rng, 60, 15)
        loaded = self.save(tmp_path / "model.ckpt", docs)
        index = build_index(docs)
        for params in (Bm25Params(), Bm25Params(0.5, 0.3), Bm25Params(2.0, 1.0)):
            for query in docs[:20]:
                assert search_knn(loaded.index, query, 5, params=params) == \
                    search_knn(index, query, 5, params=params)

    @pytest.mark.parametrize("doc_ids", [pytest.param([1, 1, 4], id="duplicate"),
                                         pytest.param([4, 1, 7], id="unsorted")])
    def test_duplicate_or_unsorted_ids_rejected(self, tmp_path, doc_ids):
        p = tmp_path / "model.ckpt"
        self.save(p, [doc(1, ["a"]), doc(4, ["a", "b"]), doc(7, ["b"])])
        self.rewrite(p, {"doc_ids": doc_ids})
        with self.refused(p, "malformed checkpoint manifest: memory doc_ids must be strictly ascending"):
            load_checkpoint(p)

    @pytest.mark.parametrize("change", [
        {"labels": [0, 1]},
        {"labels": [0, 1, 3]},
        {"labels": [0, 1, 1.0]},
        {"label_names": ["x", "x", "y"]},
        {"k": 2.5},
        {"b": 1.5},
        {"k1": None},
    ])
    def test_bad_memory_manifest_keys(self, tmp_path, change):
        p = tmp_path / "model.ckpt"
        self.save(p, [doc(1, ["a"]), doc(4, ["a", "b"]), doc(7, ["b"])])
        self.rewrite(p, change)
        with self.refused(p, "malformed checkpoint manifest: memory "):
            load_checkpoint(p)

    @pytest.mark.parametrize("cut, match", [
        (4, r"truncated tensor data \(8 of 12 bytes\)"),
        (-4, "4 trailing bytes after the tensor data"),
    ], ids=["truncated", "overlong"])
    def test_term_ids_of_another_length(self, tmp_path, cut, match):
        p = tmp_path / "model.ckpt"
        self.save(p, [doc(1, ["a"]), doc(4, ["a", "b"])])
        blob = p.read_bytes()
        p.write_bytes(blob[:-cut] if cut > 0 else blob + b"\0" * -cut)
        with self.refused(p, match):
            load_checkpoint(p)

    def test_token_id_outside_terms(self, tmp_path):
        p = tmp_path / "model.ckpt"
        self.save(p, [doc(1, ["a"]), doc(4, ["a", "b"])])
        p.write_bytes(p.read_bytes()[:-4] + struct.pack("<I", 2))
        with self.refused(p, "a term id is outside the index's terms"):
            load_checkpoint(p)

    def test_documents_must_match_the_index(self, tmp_path):
        docs = [doc(1, ["a"]), doc(4, ["a", "b"])]
        p = tmp_path / "model.ckpt"
        for other in ({1: docs[0]}, {1: docs[0], 4: docs[1], 5: doc(5, ["a"])}):
            with self.refused(p, "memory documents are not the documents of its index"):
                save_checkpoint(p, with_memory(
                    Memory(build_index(docs), other, self.LABELS, Bm25Params(), 2)))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tokens", [
        pytest.param({1: ["a"], 4: ["a", "zzz"]}, id="token-not-in-terms"),
        pytest.param({1: ["a"], 4: ["b", "a"]}, id="other-order"),
        pytest.param({1: ["a"], 4: ["a", "b", "b"]}, id="extra-token"),
        pytest.param({1: ["a", "a"], 4: ["b"]}, id="other-split"),
    ])
    def test_tokens_must_match_the_index(self, tmp_path, tokens):
        index = build_index([doc(1, ["a"]), doc(4, ["a", "b"])])
        p = tmp_path / "model.ckpt"
        with self.refused(p, "memory documents' tokens are not those of its index"):
            save_checkpoint(p, with_memory(Memory(index, {i: doc(i, t) for i, t in tokens.items()},
                                                  self.LABELS, Bm25Params(), 2)))
        assert list(tmp_path.iterdir()) == []

    def test_previous_format_magic(self, tmp_path):
        # The separate memory file that train wrote beside its checkpoint
        # before the checkpoint carried the memory.
        docs = [doc(1, ["a"]), doc(4, ["a", "b"])]
        manifest, term_ids = memory_manifest(
            Memory(build_index(docs), {d.id: d for d in docs}, self.LABELS, Bm25Params(), 2))
        p = tmp_path / "memory.knn"
        write_artifact(p, b"KNNMEM02", manifest, [term_ids])
        with self.refused(p, "bad checkpoint magic b'KNNMEM02'"):
            load_checkpoint(p)

    def test_checkpoint_without_memory_has_no_memory_part(self, tmp_path):
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, Checkpoint(manifest={"tensors": []}, tensors={}))
        (size,) = struct.unpack("<Q", p.read_bytes()[8:16])
        assert p.stat().st_size == 16 + size
        assert json.loads(p.read_bytes()[16:]) == {"float_bytes": 8, "tensors": []}
        assert load_checkpoint(p).memory is None


def test_bm25_params_validation():
    with pytest.raises(RetrievalError):
        Bm25Params(k1=-0.1)
    with pytest.raises(RetrievalError):
        Bm25Params(b=1.5)
    assert Bm25Params().k1 == 1.2 and Bm25Params().b == 0.75


@pytest.mark.parametrize("k1", [float("nan"), float("inf")])
def test_bm25_params_reject_non_finite_k1(k1):
    # Such a k1 scores every document NaN or 0, so every query found nothing.
    with pytest.raises(RetrievalError, match="k1 must be finite"):
        Bm25Params(k1=k1)
