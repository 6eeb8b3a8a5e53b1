import re

import numpy as np
import pytest

import knnmem.autodiff as ad
from knnmem.autodiff import Tape, Tensor, grad_check
from knnmem.corpus import Document, build_vocab
from knnmem.datagen import TopicalSpec, make_marker_corpus, make_topical_corpus
from knnmem.encoder import (
    EncoderConfig,
    EncoderError,
    TextEncoder,
    load_pretrained_embeddings,
    lstm_step,
    random_embedding_table,
)

from blas_build import blas_build

TINY = EncoderConfig(word_dim=4, char_dim=3, char_lstm_dim=4, hidden=5, max_tokens=16)


def make_vocab(texts):
    docs = [
        Document(id=i, label=0, title=t, body="", tokens=tuple(t.split()))
        for i, t in enumerate(texts)
    ]
    return build_vocab(docs)


def at_width(enc, dtype):
    """``enc`` with every parameter cast to ``dtype``, as
    ``KnnTextModel.create`` casts a model's."""
    for p in enc.named_params().values():
        p.data = p.data.astype(dtype)
    return enc


@pytest.fixture
def tiny_encoder():
    vocab = make_vocab(["the cat sat on the mat", "a dog ran fast", "birds fly high up"])
    return TextEncoder.create(TINY, vocab, seed=11)


def ref_lstm_step(Wx, Wh, b, x, h, c):
    """Independent numpy reference for one fused-gate LSTM step (i, f, g, o)."""
    hidden = Wh.shape[0]
    z = x @ Wx + h @ Wh + b
    i = 1.0 / (1.0 + np.exp(-z[:, :hidden]))
    f = 1.0 / (1.0 + np.exp(-z[:, hidden:2 * hidden]))
    g = np.tanh(z[:, 2 * hidden:3 * hidden])
    o = 1.0 / (1.0 + np.exp(-z[:, 3 * hidden:]))
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def reference_encode_batch(enc, token_seqs):
    """The per-timestep encoder: one `lstm_step` (about 20 tape nodes) per step."""
    cfg, params, vocab = enc.config, enc.params, enc.vocab
    seqs = [list(s)[: cfg.max_tokens] for s in token_seqs]
    uniq = {}
    for seq in seqs:
        for tok in seq:
            uniq.setdefault(tok, len(uniq))
    words = [w[: cfg.max_word_chars] for w in uniq]
    wlens = np.array([len(w) for w in words])
    dtype = params.fwd.Wx.data.dtype
    h = c = Tensor(np.zeros((len(words), cfg.char_lstm_dim), dtype=dtype))
    for t in range(int(wlens.max())):
        ids = [vocab.char_id(w[t]) if t < len(w) else 0 for w in words]
        h, c = lstm_step(params.char_lstm, ad.rows(params.char_table, ids), h, c, mask=wlens > t)
    char_vecs = h
    lens = np.array([len(s) for s in seqs])

    def x_at(pos):
        toks = [seq[min(p, len(seq) - 1)] for seq, p in zip(seqs, pos)]
        return ad.concat([ad.rows(params.word, [vocab.word_id(t) for t in toks]),
                          ad.rows(char_vecs, [uniq[t] for t in toks])], axis=1)

    finals = []
    for lstm, backward in ((params.fwd, False), (params.bwd, True)):
        h = c = Tensor(np.zeros((len(seqs), cfg.hidden), dtype=dtype))
        for t in range(int(lens.max())):
            pos = np.maximum(lens - 1 - t, 0) if backward else np.full(len(seqs), t)
            h, c = lstm_step(lstm, x_at(pos), h, c, mask=lens > t)
        finals.append(h)
    return ad.concat(finals, axis=1)


def encoder_grads(enc, encode, seqs, weights):
    params = enc.named_params()
    ad.zero_grads(params.values())
    with Tape() as tape:
        out = encode(enc, seqs)
        loss = ad.sum(ad.mul(ad.tanh(out), weights))
    tape.backward(loss)
    return out.data, {n: p.grad for n, p in params.items()}


RAGGED = [["the", "cat", "sat", "on", "the", "mat", "mat"], ["dog"],
          ["birds", "fly", "high", "up", "the", "dog"], ["a", "a", "cat", "zzzzunknownzzzz"]]


class TestFusedMatchesStepReference:
    """`encode_batch` (fused passes) against a loop of `lstm_step` calls."""

    @pytest.mark.parametrize("config", [
        TINY,
        EncoderConfig(),
        EncoderConfig(word_dim=4, char_dim=3, char_lstm_dim=4, hidden=5, max_tokens=5,
                      max_word_chars=3),
    ], ids=["tiny", "paper", "clipped"])
    def test_values_and_every_gradient(self, config):
        vocab = make_vocab([" ".join(s) for s in RAGGED[:3]])
        enc = TextEncoder.create(config, vocab, seed=13)
        enc.params.word.requires_grad = True  # cover word_emb's gradient too
        weights = np.random.default_rng(3).uniform(-1.0, 1.0, (len(RAGGED), config.l))
        got, got_grads = encoder_grads(enc, TextEncoder.encode_batch, RAGGED, weights)
        want, want_grads = encoder_grads(enc, reference_encode_batch, RAGGED, weights)
        assert np.allclose(got, want, rtol=0, atol=1e-10)
        assert set(got_grads) == set(want_grads)
        for name, grad in want_grads.items():
            assert grad is not None and got_grads[name] is not None, name
            assert np.allclose(got_grads[name], grad, rtol=1e-10, atol=1e-10), name

    @pytest.mark.parametrize("config", [TINY, EncoderConfig()], ids=["tiny", "paper"])
    def test_taped_forward_equals_untaped(self, config):
        # grad_check differences the taped forward, and the memory bank holds
        # untaped embeddings: the two forwards must give the same bytes.
        vocab = make_vocab([" ".join(s) for s in RAGGED[:3]])
        enc = TextEncoder.create(config, vocab, seed=13)
        untaped = enc.encode_batch(RAGGED).data
        with Tape():
            taped = enc.encode_batch(RAGGED).data
        assert taped.tobytes() == untaped.tobytes()

    @pytest.mark.parametrize("config", [
        TINY,
        EncoderConfig(),
        EncoderConfig(word_dim=4, char_dim=3, char_lstm_dim=4, hidden=5, max_tokens=5,
                      max_word_chars=3),
    ], ids=["tiny", "paper", "clipped"])
    def test_float32_values_and_every_gradient(self, config):
        # Tolerance, fixed before the first run: every compared number is a
        # float32 chain of at most about a thousand roundings (a 350-wide
        # input projection, a 400-wide gate product per step over 7 steps,
        # sums over steps and rows). Forward error analysis bounds such a
        # chain's error by about n * eps of its largest terms, so each
        # array may differ by 1000 * eps32 of its own largest magnitude.
        tol = 1000 * np.finfo(np.float32).eps
        vocab = make_vocab([" ".join(s) for s in RAGGED[:3]])
        enc = at_width(TextEncoder.create(config, vocab, seed=13), np.float32)
        enc.params.word.requires_grad = True
        weights = np.random.default_rng(3).uniform(-1.0, 1.0, (len(RAGGED), config.l))
        weights = weights.astype(np.float32)
        got, got_grads = encoder_grads(enc, TextEncoder.encode_batch, RAGGED, weights)
        want, want_grads = encoder_grads(enc, reference_encode_batch, RAGGED, weights)
        assert got.dtype == want.dtype == np.float32
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        assert set(got_grads) == set(want_grads)
        for name, grad in want_grads.items():
            assert grad is not None and got_grads[name] is not None, name
            assert got_grads[name].dtype == np.float32, name
            assert np.abs(got_grads[name] - grad).max() <= tol * np.abs(grad).max(), name

    def test_tape_length_independent_of_max_len(self, tiny_encoder):
        lengths = []
        for seq_len in (2, 9):
            with Tape() as tape:
                tiny_encoder.encode_batch([["the", "cat"] * seq_len, ["dog"]])
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    def test_float32_outputs(self):
        vocab = make_vocab(["the cat sat"])
        enc = at_width(TextEncoder.create(TINY, vocab, seed=2), np.float32)
        with Tape() as tape:
            out = enc.encode_batch([["the", "cat"], ["sat"]])
            loss = ad.sum(out)
        tape.backward(loss)
        assert out.data.dtype == np.float32
        assert enc.params.char_lstm.Wh.grad.dtype == np.float32


def word_inputs(enc, tokens):
    """The (len(tokens), d) LSTM inputs [word embedding; char composition]."""
    word_rows = ad.rows(enc.params.word, [enc.vocab.word_id(t) for t in tokens])
    return ad.concat([word_rows, enc._char_compose_batch(tokens)], axis=1).data


def encode_one(enc, tokens):
    return enc.encode_batch([tokens]).data[0]


def char_compose(enc, word):
    return enc._char_compose_batch([word]).data[0]


class TestShapes:
    def test_default_word_representation_width(self):
        assert EncoderConfig().d == 350
        assert EncoderConfig().l == 200

    def test_text_embedding_length(self, tiny_encoder):
        assert encode_one(tiny_encoder, ["the", "cat"]).shape == (2 * TINY.hidden,)

    def test_word_represent_width_any_config(self):
        for word_dim, char_dim in ((4, 3), (6, 2)):
            cfg = EncoderConfig(word_dim=word_dim, char_dim=char_dim, char_lstm_dim=3, hidden=4)
            vocab = make_vocab(["x y z"])
            enc = TextEncoder.create(cfg, vocab, seed=0)
            assert word_inputs(enc, ["x"]).shape == (1, cfg.d)
            assert enc.params.fwd.Wx.shape[0] == enc.params.bwd.Wx.shape[0] == cfg.d

    def test_batch_shape(self, tiny_encoder):
        out = tiny_encoder.encode_batch([["the", "cat"], ["dog"], ["birds", "fly", "high"]])
        assert out.shape == (3, TINY.l)


class TestCharCompose:
    def test_single_char_is_one_step_from_zero_state(self, tiny_encoder):
        enc = tiny_encoder
        got = char_compose(enc, "a")
        p = enc.params.char_lstm
        x = enc.params.char_table.data[enc.vocab.char_id("a")][None, :]
        want, _ = ref_lstm_step(p.Wx.data, p.Wh.data, p.b.data,
                                x, np.zeros((1, 4)), np.zeros((1, 4)))
        assert np.allclose(got, want[0], atol=1e-12)

    def test_deterministic(self, tiny_encoder):
        a = char_compose(tiny_encoder, "cat")
        b = char_compose(tiny_encoder, "cat")
        assert np.array_equal(a, b)

    def test_unknown_chars_map_to_id_zero(self, tiny_encoder):
        # Both words are entirely unknown characters of equal length.
        a = char_compose(tiny_encoder, "@@")
        b = char_compose(tiny_encoder, "##")
        assert np.array_equal(a, b)

    def test_empty_word_rejected(self, tiny_encoder):
        with pytest.raises(EncoderError):
            tiny_encoder._char_compose_batch([""])
        with pytest.raises(EncoderError):
            tiny_encoder._char_compose_batch(["cat", ""])

    def test_char_ids_match_per_character_lookup(self):
        vocab = make_vocab(["the cat", "naïve café über", "日本 語 \U0001F600"])
        config = EncoderConfig(word_dim=4, char_dim=3, char_lstm_dim=4, hidden=5, max_word_chars=4)
        enc = TextEncoder.create(config, vocab, seed=1)
        # Known and unknown non-ASCII characters (one outside the BMP), an
        # unknown ASCII one, and words longer than max_word_chars.
        words = ["the", "naïve", "zq@", "日本語ß", "a", "\U0001F600ü", "überlong", "Ωé"]
        ids, lens = enc._char_ids(words)
        want = np.zeros((4, len(words)), dtype=np.int64)
        for col, word in enumerate(words):
            clipped = word[: config.max_word_chars]
            want[: len(clipped), col] = [vocab.char_id(ch) for ch in clipped]
        assert lens.tolist() == [len(w[: config.max_word_chars]) for w in words]
        assert np.array_equal(ids, want)
        assert vocab.char_id("ï") > 0 and vocab.char_id("\U0001F600") > 0 and vocab.char_id("ß") == 0

    def test_gradient_matches_fd(self, tiny_encoder):
        enc = tiny_encoder

        def loss_fn():
            return ad.sum(enc._char_compose_batch(["cat"]))

        report = grad_check(loss_fn, {"char_emb": enc.params.char_table}, h=1e-4)
        assert report.worst() < 1e-3, report.max_rel_err


class TestCharPassWork:
    """The recurrence runs one row per distinct prefix: the rows a char pass
    hands to ``autodiff._matmul_rows`` are its words' distinct clipped
    prefixes, taped or not, and a lone word's are its length."""

    @staticmethod
    def recurrent_rows(monkeypatch, enc, words, tape):
        ids, lens = enc._char_ids(words)
        p = enc.params.char_lstm
        proj = ad.add(ad.matmul(enc.params.char_table, p.Wx), p.b)
        counted = []
        real = ad._matmul_rows

        def counting(a, b, out, n, chunk):
            counted.append(n)
            real(a, b, out, n, chunk)

        with monkeypatch.context() as patch:
            patch.setattr(ad, "_matmul_rows", counting)
            if tape:
                with Tape():
                    ad.lstm_sequence(proj, ids, p.Wh, lens)
            else:
                ad.lstm_sequence(proj, ids, p.Wh, lens)
        return sum(counted)

    @staticmethod
    def batch_words(docs, config):
        """A 32-document batch's distinct words, clipped as the encoder clips them."""
        words = dict.fromkeys(tok for d in docs[:32] for tok in d.tokens[:config.max_tokens])
        return list(words)

    @pytest.mark.parametrize("tape", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("corpus", ["marker", "topical"])
    def test_one_row_per_distinct_prefix(self, monkeypatch, corpus, tape):
        if corpus == "marker":
            docs, _, _ = make_marker_corpus(16, 2, 4, seed=3, visible_len=16)
            config = EncoderConfig(word_dim=50, char_dim=10, char_lstm_dim=20, hidden=25, max_tokens=16)
        else:
            docs, _ = make_topical_corpus(16, TopicalSpec(seed=3))
            config = EncoderConfig(word_dim=8, char_dim=5, char_lstm_dim=6, hidden=7)
        enc = TextEncoder.create(config, build_vocab(docs), seed=0)
        words = self.batch_words(docs, config)
        clipped = [w[:config.max_word_chars] for w in words]
        prefixes = {w[:k] for w in clipped for k in range(1, len(w) + 1)}
        rows = self.recurrent_rows(monkeypatch, enc, words, tape)
        assert rows == len(prefixes) < sum(len(w) for w in clipped) / 2

    @pytest.mark.parametrize("tape", [False, True], ids=["untaped", "taped"])
    def test_lone_word_runs_one_row_per_step(self, monkeypatch, tiny_encoder, tape):
        assert self.recurrent_rows(monkeypatch, tiny_encoder, ["birds"], tape) == 5


class TestWordRepresent:
    def test_oov_uses_row_zero(self, tiny_encoder):
        enc = tiny_encoder
        vec = word_inputs(enc, ["zzzz"])[0]
        assert np.allclose(vec[: TINY.word_dim], enc.params.word.data[0])

    def test_known_token_uses_its_row(self, tiny_encoder):
        enc = tiny_encoder
        row = enc.vocab.word_id("cat")
        vec = word_inputs(enc, ["cat"])[0]
        assert np.allclose(vec[: TINY.word_dim], enc.params.word.data[row])

    def test_batch_words_reach_projection_with_vocabulary_ids(self, tiny_encoder, monkeypatch):
        # encode_batch maps its distinct words to ids in one pass; OOV words get row 0.
        seen = []
        project = TextEncoder._project

        def spy(self, word_ids, words):
            seen.append((word_ids, list(words)))
            return project(self, word_ids, words)

        monkeypatch.setattr(TextEncoder, "_project", spy)
        tiny_encoder.encode_batch([["the", "zzz", "cat", "the"], ["qqq", "dog", "zzz"]])
        (word_ids, words), = seen
        assert words == ["the", "zzz", "cat", "qqq", "dog"]
        assert word_ids.dtype == np.int64
        assert word_ids.tolist() == [tiny_encoder.vocab.word_id(w) for w in words]
        assert word_ids[[1, 3]].tolist() == [0, 0] and word_ids[[0, 2, 4]].all()


class TestEncodeText:
    def test_single_token_single_step(self, tiny_encoder):
        # With one token, forward and backward each take exactly one step from zero.
        enc = tiny_encoder
        emb = encode_one(enc, ["cat"])
        x = word_inputs(enc, ["cat"])
        hf, _ = ref_lstm_step(enc.params.fwd.Wx.data, enc.params.fwd.Wh.data,
                              enc.params.fwd.b.data, x, np.zeros((1, 5)), np.zeros((1, 5)))
        hb, _ = ref_lstm_step(enc.params.bwd.Wx.data, enc.params.bwd.Wh.data,
                              enc.params.bwd.b.data, x, np.zeros((1, 5)), np.zeros((1, 5)))
        assert np.allclose(emb, np.concatenate([hf[0], hb[0]]), atol=1e-12)

    def test_order_sensitivity(self, tiny_encoder):
        a = encode_one(tiny_encoder, ["the", "cat", "sat"])
        b = encode_one(tiny_encoder, ["sat", "cat", "the"])
        assert not np.allclose(a, b)

    def test_empty_sequence_rejected(self, tiny_encoder):
        with pytest.raises(EncoderError):
            tiny_encoder.encode_batch([[]])

    def test_batch_matches_single(self, tiny_encoder):
        seqs = [["the", "cat", "sat", "on"], ["dog"], ["birds", "fly"]]
        batched = tiny_encoder.encode_batch(seqs).data
        for row, seq in enumerate(seqs):
            single = encode_one(tiny_encoder, seq)
            assert np.allclose(batched[row], single, rtol=1e-9, atol=1e-12)

    def test_padding_invariance(self, tiny_encoder):
        # The same sequence encodes identically regardless of batch companions.
        seq = ["the", "cat"]
        alone = tiny_encoder.encode_batch([seq, ["dog"]]).data[0]
        padded = tiny_encoder.encode_batch([seq, ["birds", "fly", "high", "up"]]).data[0]
        assert np.allclose(alone, padded, rtol=1e-12, atol=1e-14)

    def test_truncation_at_max_tokens(self, tiny_encoder):
        long_seq = ["the", "cat"] * 20  # 40 tokens > max_tokens=16
        truncated = encode_one(tiny_encoder, long_seq[:16])
        full = encode_one(tiny_encoder, long_seq)
        assert np.allclose(full, truncated, atol=1e-12)

    def test_full_encoder_grad_check(self, tiny_encoder):
        enc = tiny_encoder
        seqs = [["the", "cat"], ["dog", "ran", "fast"]]

        def loss_fn():
            return ad.sum(ad.tanh(enc.encode_batch(seqs)))

        params = {n: p for n, p in enc.named_params().items() if p.requires_grad}
        assert "word_emb" not in params  # frozen by default
        report = grad_check(loss_fn, params, h=1e-4)
        assert report.worst() < 1e-3, report.max_rel_err

    def test_shared_parameters_for_all_texts(self, tiny_encoder):
        # One parameter set regardless of how many texts are encoded.
        names = set(tiny_encoder.named_params())
        assert names == {
            "word_emb", "char_emb",
            "char_lstm.Wx", "char_lstm.Wh", "char_lstm.b",
            "lstm_fwd.Wx", "lstm_fwd.Wh", "lstm_fwd.b",
            "lstm_bwd.Wx", "lstm_bwd.Wh", "lstm_bwd.b",
        }


class TestBatchInvariance:
    """Untaped, a sequence's embedding does not depend on its batch."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_topical_corpus_encodes_to_identical_bytes(self, dtype):
        docs, _ = make_topical_corpus(75, TopicalSpec(seed=100))
        seqs = [d.tokens for d in docs]
        enc = at_width(TextEncoder.create(EncoderConfig(), build_vocab(docs[::2]), seed=0), dtype)
        batch = enc.encode_batch(seqs).data
        encodes = {
            "alone": np.concatenate([enc.encode_batch([s]).data for s in seqs]),
            "in pairs": np.concatenate([enc.encode_batch(seqs[i:i + 2]).data
                                        for i in range(0, len(seqs), 2)]),
            "reversed": enc.encode_batch(seqs[::-1]).data[::-1],
        }
        assert len(seqs) == 300 and batch.dtype == dtype
        for name, got in encodes.items():
            assert got.tobytes() == batch.tobytes(), f"{name}: {blas_build()}"


class TestFrozenEmbeddings:
    def test_word_table_gets_no_gradient(self, tiny_encoder):
        enc = tiny_encoder
        with Tape() as tape:
            loss = ad.sum(enc.encode_batch([["the", "cat"]]))
        tape.backward(loss)
        assert enc.params.word.grad is None
        assert enc.params.char_table.grad is not None

    def test_table_is_frozen_flagged(self, tiny_encoder):
        assert not tiny_encoder.params.word.requires_grad


class TestPretrainedEmbeddings:
    def vocab(self):
        return make_vocab(["alpha beta gamma"])

    def test_exact_row_from_file(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("alpha 1.0 2.0 3.0\nbeta -1.0 0.5 0.25\n", encoding="utf-8")
        vocab = self.vocab()
        table = load_pretrained_embeddings(p, vocab, seed=5)
        drawn = random_embedding_table(vocab.n_words, 3, seed=5).data
        assert table.shape[1] == 3
        assert np.array_equal(table.data[vocab.word_id("alpha")], [1.0, 2.0, 3.0])
        for row in (vocab.word_id("gamma"), 0):  # not in the file; row 0 is the OOV row
            assert np.array_equal(table.data[row], drawn[row])

    def test_width_inferred(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("alpha " + " ".join(["0.1"] * 50) + "\n", encoding="utf-8")
        table = load_pretrained_embeddings(p, self.vocab(), seed=0)
        assert table.shape[1] == 50

    def test_inconsistent_width_rejected(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("alpha 1.0 2.0\nbeta 1.0 2.0 3.0\n", encoding="utf-8")
        with pytest.raises(EncoderError, match="line 2"):
            load_pretrained_embeddings(p, self.vocab())

    @pytest.mark.parametrize("bad", ["abc", "nan", "-inf"])
    def test_non_finite_component_names_its_line(self, tmp_path, bad):
        p = tmp_path / "vecs.txt"
        # A word outside the vocabulary is skipped unparsed; a kept one is not.
        p.write_text(f"zeta 1.0 {bad} 3.0\nalpha 1.0 2.0 3.0\nbeta 1.0 {bad} 3.0\n",
                     encoding="utf-8")
        with pytest.raises(EncoderError, match=re.escape(f"{p}: line 3")):
            load_pretrained_embeddings(p, self.vocab())

    def test_empty_file_all_random_frozen(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("", encoding="utf-8")
        vocab = self.vocab()
        table = load_pretrained_embeddings(p, vocab, seed=1, fallback_dim=7)
        assert table.shape[1] == 7
        assert np.array_equal(table.data, random_embedding_table(vocab.n_words, 7, seed=1).data)
        assert not table.requires_grad

    def test_missing_rows_in_uniform_range(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("alpha 9.0 9.0 9.0\n", encoding="utf-8")
        vocab = self.vocab()
        table = load_pretrained_embeddings(p, vocab, seed=2)
        random_part = np.delete(table.data, vocab.word_id("alpha"), axis=0)
        assert np.all(np.abs(random_part) <= 0.05)

    def test_random_table_deterministic(self):
        a = random_embedding_table(10, 4, seed=3).data
        b = random_embedding_table(10, 4, seed=3).data
        assert np.array_equal(a, b)
