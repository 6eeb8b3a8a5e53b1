import dataclasses

import numpy as np
import pytest

import knnmem.autodiff as ad
import knnmem.memory
from knnmem.autodiff import Adam, Tape, Tensor, grad_check
from knnmem.corpus import Document, build_vocab
from knnmem.datagen import TopicalSpec, make_topical_corpus
from knnmem.encoder import EncoderConfig
from knnmem.memory import (
    BANK_BLOCK,
    PRESETS,
    ClassifierParams,
    FeatureConfig,
    KnnTextModel,
    MatchingParams,
    ModelConfig,
    ModelError,
    _attentive_sum,
    _canonical_slots,
    assemble_features,
    feature_width,
    match_multi_perspective,
    preset,
)
from knnmem.retrieval import NeighborSet, build_index, search_knn
from knnmem.trainer import (
    load_checkpoint,
    make_checkpoint,
    model_from_checkpoint,
    predict_with_provenance,
    save_checkpoint,
)

from bilstm_baseline import BilstmBaseline
from eq_oracles import oracle_attn_label, oracle_attn_text, oracle_match

TINY = EncoderConfig(word_dim=4, char_dim=3, char_lstm_dim=4, hidden=4, max_tokens=16)


def doc(i, label, text):
    return Document(id=i, label=label, title=text, body="", tokens=tuple(text.split()))


def toy_world(seed=0, n_classes=3):
    texts = [
        "red apples grow on trees",
        "blue fish swim in water",
        "green lizards sit on rocks",
        "apples and pears are fruit",
        "fish and whales live at sea",
        "rocks and stones are hard",
    ]
    docs = [doc(i, i % n_classes, t) for i, t in enumerate(texts)]
    vocab = build_vocab(docs)
    lookup = {d.id: d for d in docs}
    neighbors = {
        d.id: NeighborSet(d.id, tuple((o.id, 1.0 + 0.1 * o.id) for o in docs if o.id != d.id)[:3])
        for d in docs
    }
    return docs, vocab, lookup, neighbors


def one_query_sum(s, table, table_rows, ids=None):
    """One query's attentive sum of ``table`` rows from its (K, I) attention,
    its pairs in the canonical order of their neighbor ids (default 0..K-1)."""
    rows = np.asarray(table_rows, dtype=np.int64)
    ids = np.arange(rows.size) if ids is None else np.asarray(ids, dtype=np.int64)
    slots = _canonical_slots(np.zeros(rows.size, dtype=np.int64), 1, ids)
    return _attentive_sum(Tensor(s), slots, Tensor(table), rows).data[0]


def label_sum(s, labels, c, ids=None):
    """One query's attentive label feature from its (K, I) attention."""
    return one_query_sum(s, np.eye(c), labels, ids)


def text_sum(s, emb, ids=None):
    """One query's attentive text feature from its (K, I) attention."""
    return one_query_sum(s, np.asarray(emb), np.arange(len(emb)), ids)


def m1_with_classifier(W, b):
    """An M1 toy model whose classifier is (W, b), and its documents."""
    docs, vocab, _, _ = toy_world(n_classes=b.shape[1])
    config = ModelConfig(encoder=TINY, preset="M1", n_classes=b.shape[1])
    model = KnnTextModel.create(config, vocab, seed=0)
    model.classifier = ClassifierParams(W=Tensor(W), b=Tensor(b))
    return model, docs


class TestPresets:
    def test_table_rows(self):
        assert preset("M1") == FeatureConfig(True, False, False)
        assert preset("M2") == FeatureConfig(False, True, False)
        assert preset("M3") == FeatureConfig(False, False, True)
        assert preset("M4") == FeatureConfig(False, True, True)
        assert preset("M5") == FeatureConfig(True, True, False)
        assert preset("M6") == FeatureConfig(True, False, True)
        assert preset("M7") == FeatureConfig(True, True, True)
        assert len(PRESETS) == 7

    def test_all_flags_off_rejected(self):
        with pytest.raises(ModelError):
            FeatureConfig(False, False, False)

    def test_unknown_preset(self):
        with pytest.raises(ModelError):
            preset("M8")


class TestMatching:
    def test_all_ones_equals_plain_cosine(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=6))
        n = Tensor(rng.normal(size=6))
        params = MatchingParams(W=Tensor(np.ones((3, 6))))
        got = match_multi_perspective(h, n, params).data
        want = oracle_match(h.data, n.data, np.ones((1, 6)))[0]
        assert np.allclose(got, want, atol=1e-12)

    def test_identical_vectors_give_one(self):
        rng = np.random.default_rng(1)
        h = Tensor(rng.normal(size=5))
        params = MatchingParams.create(5, perspectives=4, seed=3)
        got = match_multi_perspective(h, Tensor(h.data.copy()), params).data
        assert np.allclose(got, 1.0, atol=1e-12)

    def test_random_against_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            length, perspectives = int(rng.integers(2, 8)), int(rng.integers(1, 6))
            h = rng.normal(size=length)
            n = rng.normal(size=length)
            W = rng.normal(size=(perspectives, length))
            params = MatchingParams(W=Tensor(W))
            got = match_multi_perspective(Tensor(h), Tensor(n), params).data
            want = oracle_match(h, n, W)
            assert np.allclose(got, want, atol=1e-10)
            assert np.all(np.abs(got) <= 1.0 + 1e-12)

    def test_vanilla_mode_single_cosine(self):
        rng = np.random.default_rng(3)
        h, n = rng.normal(size=4), rng.normal(size=4)
        params = MatchingParams.create(4, perspectives=0, seed=0)
        assert np.array_equal(params.W.data, np.ones((1, 4))) and not params.W.requires_grad
        got = match_multi_perspective(Tensor(h), Tensor(n), params).data
        assert got.shape == (1,)
        assert got[0] == pytest.approx(oracle_match(h, n, np.ones((1, 4)))[0], abs=1e-12)

    def test_negative_perspectives_rejected(self):
        with pytest.raises(ModelError, match=">= 0"):
            MatchingParams.create(4, perspectives=-1, seed=0)

    def test_dimension_mismatch(self):
        params = MatchingParams.create(4, perspectives=2, seed=0)
        with pytest.raises(ModelError):
            match_multi_perspective(Tensor(np.ones(4)), Tensor(np.ones(5)), params)

    def test_near_vanilla_init(self):
        params = MatchingParams.create(10, perspectives=3, seed=1)
        assert np.all(np.abs(params.W.data - 1.0) <= 0.01)

    @pytest.mark.parametrize("length, perspectives", [(200, 5), (8, 2), (7, 3)])
    def test_pair_alone_equals_its_row_in_a_batch(self, length, perspectives):
        # Bit for bit: a pair's attention depends neither on its position
        # nor on how many pairs share the batch.
        rng = np.random.default_rng(4)
        q, n = rng.normal(size=(2, 97, length))
        params = MatchingParams(W=Tensor(rng.uniform(0.5, 1.5, (perspectives, length))))

        def batch(rows):
            return ad.perspective_cosine(Tensor(q[rows]), Tensor(n[rows]), params.W).data

        full = batch(np.arange(97))
        for p in range(97):
            assert np.array_equal(match_multi_perspective(Tensor(q[p]), Tensor(n[p]), params).data,
                                  full[p])
        for size in (2, 5, 33, 64):
            assert np.array_equal(batch(np.arange(size)), full[:size])
        perm = rng.permutation(97)
        assert np.array_equal(batch(perm), full[perm])


class TestAttentiveLabel:
    def test_k1_unit_attention_gives_onehot(self):
        out = label_sum(np.ones((1, 3)), [2], c=4)
        want = np.zeros(12)
        want[[2, 6, 10]] = 1.0
        assert np.array_equal(out, want)

    def test_same_label_sums(self):
        out = label_sum(np.array([[0.5], [0.25]]), [1, 1], c=3)
        assert out[1] == pytest.approx(0.75, abs=1e-15)
        assert out[0] == 0.0 and out[2] == 0.0

    def test_random_against_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k, perspectives, c = int(rng.integers(0, 6)), int(rng.integers(1, 5)), int(rng.integers(2, 6))
            s = rng.uniform(-1, 1, size=(k, perspectives))
            labels = [int(rng.integers(0, c)) for _ in range(k)]
            got = label_sum(s, labels, c)
            want = oracle_attn_label(s.tolist(), labels, c)
            if k == 0:
                assert got.shape == (perspectives * c,) and np.all(got == 0.0)
            else:
                assert np.allclose(got, want, atol=1e-10)

    def test_label_out_of_range(self):
        config = ModelConfig(encoder=TINY, preset="M2", perspectives=2, n_classes=3)
        docs, vocab, lookup, neighbors = toy_world()
        model = KnnTextModel.create(config, vocab, seed=0)
        lookup[1] = dataclasses.replace(lookup[1], label=5)
        with pytest.raises(ModelError, match="out of range"):
            model.forward_batch(docs, neighbors, lookup)

    def test_component_magnitude_bounded_by_k(self):
        rng = np.random.default_rng(5)
        k = 7
        s = rng.uniform(-1, 1, size=(k, 3))
        out = label_sum(s, [0] * k, c=2)
        assert np.all(np.abs(out) <= k + 1e-12)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(-1, 1, size=(5, 4))
        labels = [0, 2, 1, 2, 0]
        base = label_sum(s, labels, c=3)
        for _ in range(10):
            perm = rng.permutation(5)
            out = label_sum(s[perm], [labels[i] for i in perm], c=3, ids=perm)
            assert np.array_equal(out, base)


class TestAttentiveText:
    def test_k1_unit_attention_copies_embedding(self):
        emb = np.array([[0.5, -1.0, 2.0]])
        out = text_sum(np.ones((1, 2)), emb)
        assert np.array_equal(out, np.tile(emb[0], 2))

    def test_zero_attention_gives_zero(self):
        out = text_sum(np.zeros((3, 2)), np.ones((3, 4)))
        assert np.all(out == 0.0)

    def test_random_against_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k, perspectives, length = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
            s = rng.uniform(-1, 1, size=(k, perspectives))
            emb = rng.normal(size=(k, length))
            got = text_sum(s, emb)
            want = oracle_attn_text(s.tolist(), emb.tolist())
            assert np.allclose(got, want, atol=1e-10)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(-1, 1, size=(6, 3))
        emb = rng.normal(size=(6, 5))
        base = text_sum(s, emb)
        for _ in range(10):
            perm = rng.permutation(6)
            out = text_sum(s[perm], emb[perm], ids=perm)
            assert np.array_equal(out, base)


class TestAssembleAndPredict:
    def test_m7_width(self):
        assert feature_width(preset("M7"), 200, 5, 4) == 200 + 20 + 1000

    def test_m1_width(self):
        assert feature_width(preset("M1"), 200, 5, 4) == 200

    def test_m4_width(self):
        assert feature_width(preset("M4"), 200, 5, 4) == 20 + 1000

    def test_fixed_order_concatenation(self):
        h = Tensor(np.array([1.0]))
        y = Tensor(np.array([2.0, 3.0]))
        t = Tensor(np.array([4.0]))
        out = assemble_features(h, y, t, preset("M7")).data
        assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0])

    def test_missing_enabled_component(self):
        with pytest.raises(ModelError):
            assemble_features(None, Tensor(np.ones(2)), None, preset("M5"))

    def test_zero_classifier_uniform_and_tie_break(self):
        model, docs = m1_with_classifier(np.zeros((TINY.l, 4)), np.zeros((1, 4)))
        result = model.forward_batch(docs)
        assert np.array_equal(result.predictions, np.zeros(len(docs)))
        assert np.allclose(result.probabilities, 0.25, atol=1e-12)

    def test_peaked_logits(self):
        model, docs = m1_with_classifier(np.zeros((TINY.l, 4)), np.array([[0.0, 10.0, 0.0, 0.0]]))
        result = model.forward_batch(docs)
        assert np.array_equal(result.predictions, np.ones(len(docs)))
        assert np.all(result.probabilities[:, 1] > 0.999)

    def test_width_mismatch(self):
        model, docs = m1_with_classifier(np.zeros((TINY.l + 1, 2)), np.zeros((1, 2)))
        with pytest.raises(ModelError, match="feature width"):
            model.forward_batch(docs)


class TestModel:
    def model(self, preset_name="M7", n_classes=3, seed=0, **kwargs):
        config = ModelConfig(encoder=TINY, preset=preset_name, perspectives=2,
                             n_classes=n_classes, **kwargs)
        docs, vocab, lookup, neighbors = toy_world(n_classes=n_classes)
        model = KnnTextModel.create(config, vocab, seed=seed)
        return model, docs, lookup, neighbors

    def test_m1_bit_identical_to_baseline(self):
        model, docs, lookup, neighbors = self.model("M1")
        baseline = BilstmBaseline.create(TINY, model.encoder.vocab, 3, seed=0)
        for name, p in model.named_params().items():
            assert p.data.tobytes() == baseline.named_params()[name].data.tobytes()
        got = model.forward_batch(docs, neighbors, lookup)
        want = baseline.forward_batch(docs)
        assert got.loss.data.tobytes() == want.loss.data.tobytes()
        assert np.array_equal(got.logits, want.logits)

    def test_k0_gives_zero_memory_blocks(self):
        model, docs, lookup, _ = self.model("M7")
        empty = {d.id: NeighborSet(d.id, ()) for d in docs}
        result = model.forward_batch(docs, empty, lookup)
        # With no neighbors the logits must equal classifier applied to [h; 0; 0].
        emb = model.encoder.encode_batch([d.tokens for d in docs]).data
        n_text = TINY.l
        want = emb @ model.classifier.W.data[:n_text] + model.classifier.b.data
        assert np.allclose(result.logits, want, atol=1e-12)
        assert model.feature_width() == feature_width(preset("M7"), TINY.l, 2, 3)

    def test_vanilla_equals_single_perspective_with_ones(self):
        # I = 0 is plain cosine: the I = 1 model with its row frozen at ones,
        # bit for bit, in the logits and in every trainable gradient.
        docs, vocab, lookup, neighbors = toy_world()
        for name in ("M7", "M4", "M3"):
            runs = []
            for perspectives in (1, 0):
                config = ModelConfig(encoder=TINY, preset=name, perspectives=perspectives,
                                     n_classes=3)
                model = KnnTextModel.create(config, vocab, seed=4)
                if perspectives:
                    model.matching.W.data[:] = 1.0
                with Tape() as tape:
                    result = model.forward_batch(docs, neighbors, lookup)
                tape.backward(result.loss)
                grads = {n: p.grad for n, p in model.named_params().items() if p.requires_grad}
                runs.append((result.logits, grads))
            (want, want_grads), (got, got_grads) = runs
            assert np.array_equal(got, want), name
            assert got_grads.keys() == want_grads.keys() - {"match.W"}
            for param, grad in got_grads.items():
                assert np.array_equal(grad, want_grads[param]), (name, param)

    def test_neighbor_permutation_invariance(self):
        model, docs, lookup, neighbors = self.model("M7")
        base = model.forward_batch(docs, neighbors, lookup)
        rng = np.random.default_rng(10)
        shuffled = {}
        for doc_id, ns in neighbors.items():
            pairs = list(ns.neighbors)
            rng.shuffle(pairs)
            shuffled[doc_id] = NeighborSet(doc_id, tuple(pairs))
        out = model.forward_batch(docs, shuffled, lookup)
        assert np.array_equal(out.logits, base.logits)

    def test_gradients_flow_through_neighbor_path(self):
        model, docs, lookup, neighbors = self.model("M4")
        with Tape() as tape:
            result = model.forward_batch(docs, neighbors, lookup)
        tape.backward(result.loss)
        assert model.matching.W.grad is not None
        assert model.encoder.params.char_table.grad is not None

    def test_stop_grad_neighbors_changes_encoder_grads(self):
        model_full, docs, lookup, neighbors = self.model("M7", seed=5)
        model_stop, _, _, _ = self.model("M7", seed=5, stop_grad_neighbors=True)
        grads = {}
        for tag, model in (("full", model_full), ("stop", model_stop)):
            with Tape() as tape:
                result = model.forward_batch(docs, neighbors, lookup)
            tape.backward(result.loss)
            grads[tag] = model.encoder.params.char_table.grad.copy()
        assert not np.allclose(grads["full"], grads["stop"])

    def test_full_m7_grad_check(self):
        model, docs, lookup, neighbors = self.model("M7", seed=6)
        batch = docs[:3]

        def loss_fn():
            return model.forward_batch(batch, neighbors, lookup).loss

        params = {n: p for n, p in model.named_params().items() if p.requires_grad}
        assert "match.W" in params
        report = grad_check(loss_fn, params, h=1e-5)
        assert report.worst() < 1e-3, report.max_rel_err

    def test_transfer_width_uses_neighbor_label_space(self):
        config = ModelConfig(encoder=TINY, preset="M7", perspectives=2,
                             n_classes=3, neighbor_classes=14)
        docs, vocab, lookup, neighbors = toy_world()
        model = KnnTextModel.create(config, vocab, seed=0)
        assert model.feature_width() == TINY.l + 2 * 14 + 2 * TINY.l

    def test_missing_neighbor_doc_is_error(self):
        model, docs, lookup, neighbors = self.model("M7")
        with pytest.raises(ModelError, match="missing"):
            model.forward_batch(docs, neighbors, {})

    def test_probabilities_sum_to_one(self):
        model, docs, lookup, neighbors = self.model("M7")
        result = model.forward_batch(docs, neighbors, lookup)
        assert np.allclose(result.probabilities.sum(axis=1), 1.0, atol=1e-9)


class TestBatchedHead:
    """The memory head of ``forward_batch`` runs a whole batch at once; each
    query must still see exactly its own neighbors."""

    COUNTS = (0, 1, 3, 3, 1, 0)

    def build(self, perspectives=2, seed=0, counts=COUNTS, preset_name="M7"):
        config = ModelConfig(encoder=TINY, preset=preset_name, perspectives=perspectives,
                             n_classes=3)
        docs, vocab, lookup, _ = toy_world()
        model = KnnTextModel.create(config, vocab, seed=seed)
        neighbors = {
            d.id: NeighborSet(d.id, tuple((o.id, 1.0 + 0.1 * o.id)
                                          for o in docs if o.id != d.id)[:k])
            for d, k in zip(docs, counts)
        }
        return model, docs, lookup, neighbors

    def test_ragged_logits_match_scalar_oracle(self):
        model, docs, lookup, neighbors = self.build()
        result = model.forward_batch(docs, neighbors, lookup)
        records = predict_with_provenance(model, docs, neighbors, lookup)
        emb = dict(zip((d.id for d in docs),
                       model.encoder.encode_batch([d.tokens for d in docs]).data.tolist()))
        W = model.matching.W.data.tolist()
        n_perspectives, c, length = 2, 3, TINY.l
        for pos, d in enumerate(docs):
            ids = [nbr_id for nbr_id, _ in neighbors[d.id].neighbors]
            s = [oracle_match(emb[d.id], emb[n], W) for n in ids]
            if ids:
                label = oracle_attn_label(s, [lookup[n].label for n in ids], c)
                text = oracle_attn_text(s, [emb[n] for n in ids])
            else:
                label, text = [0.0] * (n_perspectives * c), [0.0] * (n_perspectives * length)
            feat = np.array(emb[d.id] + label + text)
            want = feat @ model.classifier.W.data + model.classifier.b.data[0]
            assert np.allclose(result.logits[pos], want, rtol=0, atol=1e-10)
            nbrs = records[pos]["neighbors"]
            assert [r["doc_id"] for r in nbrs] == ids
            assert [r["bm25"] for r in nbrs] == [score for _, score in neighbors[d.id].neighbors]
            assert [r["label"] for r in nbrs] == [lookup[n].label for n in ids]
            for rec, want_att in zip(nbrs, s):
                assert np.allclose(rec["attention"], want_att, rtol=0, atol=1e-12)
        assert result.attention.shape == (sum(self.COUNTS), n_perspectives)

    def test_m1_provenance_lists_no_neighbors(self):
        config = ModelConfig(encoder=TINY, preset="M1", n_classes=3)
        docs, vocab, lookup, _ = toy_world()
        model = KnnTextModel.create(config, vocab, seed=0)
        _, _, _, neighbors = self.build()
        assert model.forward_batch(docs, neighbors, lookup).attention is None
        records = predict_with_provenance(model, docs, neighbors, lookup, batch_size=4)
        assert [r["id"] for r in records] == [d.id for d in docs]
        assert all(r["neighbors"] == [] for r in records)

    def test_shuffled_neighbors_give_identical_logits(self):
        model, docs, lookup, neighbors = self.build()
        base = model.forward_batch(docs, neighbors, lookup).logits
        rng = np.random.default_rng(11)
        for _ in range(5):
            shuffled = {}
            for doc_id, ns in neighbors.items():
                pairs = list(ns.neighbors)
                rng.shuffle(pairs)
                shuffled[doc_id] = NeighborSet(doc_id, tuple(pairs))
            out = model.forward_batch(docs, shuffled, lookup)
            assert np.array_equal(out.logits, base)

    @pytest.mark.parametrize("preset_name", ["M7", "M2"])
    def test_tied_neighbors_give_identical_logits(self, preset_name):
        # Neighbours 1 and 2 have the embeddings e and 2e, and different
        # labels: scaling by 2 is exact, so they tie on every perspective,
        # and only their doc ids can order them.
        model, docs, lookup, _ = self.build(perspectives=3, preset_name=preset_name)
        rng = np.random.default_rng(12)
        table = rng.normal(size=(len(docs), TINY.l))
        table[2] = 2.0 * table[1]

        class FixedBank:
            def rows(self, encoder, ids, neighbor_docs):
                return table, np.asarray(ids, dtype=np.int64)

        model.bank = FixedBank()
        neighbors = {d.id: NeighborSet(d.id, tuple((o.id, 1.0) for o in docs if o.id != d.id))
                     for d in docs}
        base = model.forward_batch(docs, neighbors, lookup)
        # Query 0 lists neighbours 1 and 2 first.
        assert np.array_equal(base.attention[0], base.attention[1])
        for _ in range(5):
            shuffled = {}
            for doc_id, ns in neighbors.items():
                pairs = list(ns.neighbors)
                rng.shuffle(pairs)
                shuffled[doc_id] = NeighborSet(doc_id, tuple(pairs))
            assert np.array_equal(model.forward_batch(docs, shuffled, lookup).logits, base.logits)

    def test_one_canonical_order_per_forward(self, monkeypatch):
        model, docs, lookup, neighbors = self.build()
        calls = []
        order = knnmem.memory._canonical_slots
        monkeypatch.setattr(knnmem.memory, "_canonical_slots",
                            lambda *args: calls.append(args) or order(*args))
        model.forward_batch(docs, neighbors, lookup)
        assert len(calls) == 1

    def test_query_alone_equals_query_in_batch(self):
        model, docs, lookup, neighbors = self.build()
        batched = model.forward_batch(docs, neighbors, lookup).logits
        for pos, d in enumerate(docs):
            alone = model.forward_batch([d], neighbors, lookup).logits[0]
            assert np.allclose(alone, batched[pos], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("perspectives", [2, 0])
    def test_grad_check_on_ragged_batch(self, perspectives):
        model, docs, lookup, neighbors = self.build(perspectives=perspectives, seed=6)
        batch = docs[:3]  # 0, 1 and 3 neighbors

        def loss_fn():
            return model.forward_batch(batch, neighbors, lookup).loss

        params = {n: p for n, p in model.named_params().items() if p.requires_grad}
        assert ("match.W" in params) == (perspectives > 0)
        report = grad_check(loss_fn, params, h=1e-5)
        assert report.worst() < 1e-3, report.max_rel_err

    def test_tape_length_independent_of_batch_and_k(self):
        lengths = set()
        for counts in ((1,) * 6, (3,) * 6, (1, 2, 3, 3, 2, 1)):
            model, docs, lookup, neighbors = self.build(counts=counts)
            for size in (1, 3, 6):
                with Tape() as tape:
                    model.forward_batch(docs[:size], neighbors, lookup)
                lengths.add(len(tape))
        assert len(lengths) == 1, lengths


class TestNonFiniteParameters:
    PARAMETERS = ["word_emb", "char_emb", "char_lstm.Wx", "char_lstm.Wh", "char_lstm.b",
                  "lstm_fwd.Wx", "lstm_fwd.Wh", "lstm_fwd.b", "lstm_bwd.Wx", "lstm_bwd.Wh",
                  "lstm_bwd.b", "match.W", "clf.W", "clf.b"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", PARAMETERS)
    def test_batch1_forward_raises(self, name, bad):
        # A NaN or inf at an entry the forward reads reaches one of the three
        # checked ops: a NaN perspective weight is not masked as a zero norm.
        docs, vocab, lookup, neighbors = toy_world()
        config = ModelConfig(encoder=TINY, preset="M7", perspectives=2, n_classes=3)
        model = KnnTextModel.create(config, vocab, seed=0)
        query = docs[0]
        word = query.tokens[0]
        entry = {"word_emb": (vocab.word_id(word), 1),
                 "char_emb": (vocab.char_to_id[word[0]], 1)}.get(name, (0, 2))
        param = model.named_params()[name]
        data = param.data.copy()
        data[entry] = bad
        param.data = data
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ad.NonFiniteError):
            model.forward_batch([query], neighbors, lookup)


class TestMemoryBank:
    """At inference ``forward_batch`` encodes only the inputs and reads each
    neighbor's row from the model's bank, filled in fixed blocks of sorted
    doc ids."""

    ENC = EncoderConfig(word_dim=12, char_dim=5, char_lstm_dim=6, hidden=10, max_tokens=24)

    @pytest.fixture(scope="class")
    def world(self):
        memory, labels = make_topical_corpus(50, TopicalSpec(seed=3))
        queries, _ = make_topical_corpus(16, TopicalSpec(seed=4))
        queries = [dataclasses.replace(q, id=q.id + len(memory)) for q in queries]
        index = build_index(memory)
        neighbors = {q.id: search_knn(index, q, 5) for q in queries}
        assert len(memory) > 3 * BANK_BLOCK and len(queries) == 64
        return memory, queries, neighbors, build_vocab(memory), labels.c

    def make(self, world, seed=0):
        _, _, _, vocab, c = world
        config = ModelConfig(encoder=self.ENC, preset="M7", perspectives=3, n_classes=c)
        return KnnTextModel.create(config, vocab, seed=seed)

    def test_reloaded_model_gives_identical_batch64_probabilities(self, world, tmp_path):
        memory, queries, neighbors, vocab, c = world
        lookup = {d.id: d for d in memory}
        model = self.make(world)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_checkpoint(model, vocab, epoch=0, dev_accuracy=0.0))
        served = model_from_checkpoint(load_checkpoint(path), vocab, expected_classes=c)
        got = served.forward_batch(queries, neighbors, lookup).probabilities
        want = model.forward_batch(queries, neighbors, lookup).probabilities
        assert got.tobytes() == want.tobytes()

    def test_table_identical_for_two_fill_orders(self, world):
        memory, queries, neighbors, _, _ = world
        lookup = {d.id: d for d in memory}

        def filled(requests):
            model = self.make(world)
            for batch in requests:
                model.forward_batch(batch, neighbors, lookup)
            table, _ = model.bank.rows(model.encoder, sorted(lookup), lookup)
            return table.copy()

        batched = filled([queries])
        one_by_one = filled([[q] for q in reversed(queries)])
        assert batched.shape == (len(memory), self.ENC.l)
        assert batched.tobytes() == one_by_one.tobytes()

    def test_bank_agrees_with_training_path(self, world):
        # Fixed before the first run: equal labels, and attention and
        # probabilities within 1e-12 (embeddings move by about 1e-17 with
        # their batch).
        memory, queries, neighbors, _, _ = world
        lookup = {d.id: d for d in memory}
        model = self.make(world)
        banked = model.forward_batch(queries, neighbors, lookup)
        with Tape():
            taped = model.forward_batch(queries, neighbors, lookup)
        bank, model.bank = model.bank, None
        in_batch = model.forward_batch(queries, neighbors, lookup)
        model.bank = bank
        assert model.bank.table.size
        for ref in (taped, in_batch):
            assert np.array_equal(banked.predictions, ref.predictions)
            assert np.allclose(banked.attention, ref.attention, rtol=0, atol=1e-12)
            assert np.max(np.abs(banked.probabilities - ref.probabilities)) <= 1e-12

    def test_adam_step_rebuilds_bank(self, world):
        memory, queries, neighbors, vocab, _ = world
        lookup = {d.id: d for d in memory}
        model = self.make(world)
        before = model.forward_batch(queries, neighbors, lookup).probabilities
        optimizer = Adam(model.named_params(), lr=1e-2)
        with Tape() as tape:
            result = model.forward_batch(queries[:8], neighbors, lookup)
        tape.backward(result.loss)
        optimizer.step()
        got = model.forward_batch(queries, neighbors, lookup).probabilities
        fresh = model_from_checkpoint(make_checkpoint(model, vocab, epoch=1, dev_accuracy=0.0))
        want = fresh.forward_batch(queries, neighbors, lookup).probabilities
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() != before.tobytes()

    def test_replaced_neighbor_document_is_encoded_again(self, world):
        memory, queries, neighbors, _, _ = world
        lookup = {d.id: d for d in memory}
        model = self.make(world)
        before = model.forward_batch(queries, neighbors, lookup).probabilities
        used = neighbors[queries[0].id].neighbors[0][0]
        lookup[used] = dataclasses.replace(lookup[used], tokens=lookup[used].tokens[::-1])
        got = model.forward_batch(queries, neighbors, lookup).probabilities
        want = self.make(world).forward_batch(queries, neighbors, lookup).probabilities
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() != before.tobytes()

    def test_in_place_write_to_banked_array_raises(self, world):
        memory, queries, neighbors, _, _ = world
        model = self.make(world)
        model.forward_batch(queries[:1], neighbors, {d.id: d for d in memory})
        for name, p in model.encoder.named_params().items():
            with pytest.raises(ValueError, match="read-only"):
                p.data[0] = 0.0
