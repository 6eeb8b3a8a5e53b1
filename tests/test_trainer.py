import dataclasses
import json
import struct

import numpy as np
import pytest

import knnmem.autodiff as ad
from knnmem.autodiff import Adam, Tape
from knnmem.corpus import LabelSpace, build_vocab
from knnmem.datagen import make_separable_corpus
from knnmem.encoder import EncoderConfig, random_embedding_table
from knnmem.memory import KnnTextModel, ModelConfig, ModelError
from knnmem.retrieval import (
    Bm25Params,
    NeighborSet,
    build_index,
    precompute_neighbors,
    search_knn,
)
from knnmem.trainer import (
    Checkpoint,
    CheckpointError,
    NumericFailure,
    TrainConfig,
    TrainingError,
    evaluate,
    load_checkpoint,
    make_checkpoint,
    model_from_checkpoint,
    predict_with_provenance,
    run_pipeline,
    run_setup,
    save_checkpoint,
    train,
)

TINY = EncoderConfig(word_dim=4, char_dim=3, char_lstm_dim=4, hidden=4, max_tokens=12)


def quick_config(**kwargs):
    base = dict(epochs=2, lr=3e-3, batch_size=8, k_neighbors=2, perspectives=2,
                seed=0, preset="M7")
    base.update(kwargs)
    return TrainConfig(**base)


def memory_docs(result):
    """The documents that ``result``'s checkpoint retrieves from; None without a memory."""
    memory = result.train_result.checkpoint.memory
    return None if memory is None else memory.docs


@pytest.fixture(scope="module")
def world():
    train_docs, labels = make_separable_corpus(10, 3, seed=1)
    dev_docs, _ = make_separable_corpus(4, 3, seed=2)
    offset = len(train_docs)
    dev_docs = [dataclasses.replace(d, id=d.id + offset) for d in dev_docs]
    return train_docs, dev_docs, labels


class TestTrainLoop:
    def test_overfits_small_separable_set(self, world):
        train_docs, dev_docs, labels = world
        config = quick_config(epochs=40, lr=3e-2, preset="M1")
        result = run_pipeline(train_docs, dev_docs, labels, config, TINY)
        final = evaluate(result.model, train_docs, result.neighbors, memory_docs(result))
        assert final.accuracy == 1.0

    def test_same_corpus_neighbors_exclude_the_query(self, world):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels,
                              quick_config(epochs=1, k_neighbors=5), TINY)
        for doc in train_docs:
            ids = [nbr_id for nbr_id, _ in result.neighbors[doc.id].neighbors]
            assert ids and doc.id not in ids

    def test_epochs_one_checkpoint_is_epoch_one(self, world):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(epochs=1), TINY)
        assert result.train_result.best_epoch == 1
        assert len(result.train_result.history) == 1

    def test_deterministic_history(self, world):
        train_docs, dev_docs, labels = world
        config = quick_config(epochs=3)
        a = run_pipeline(train_docs, dev_docs, labels, config, TINY)
        b = run_pipeline(train_docs, dev_docs, labels, config, TINY)
        assert [h.dev_accuracy for h in a.train_result.history] == \
               [h.dev_accuracy for h in b.train_result.history]
        assert [h.train_loss for h in a.train_result.history] == \
               [h.train_loss for h in b.train_result.history]

    def test_best_on_dev_equals_history_max(self, world):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(epochs=4), TINY)
        best = max(h.dev_accuracy for h in result.train_result.history)
        assert result.train_result.best_dev_accuracy == best

    def test_tie_keeps_earliest_epoch(self, world):
        train_docs, dev_docs, labels = world
        config = quick_config(epochs=4, preset="M1", lr=5e-3)
        result = run_pipeline(train_docs, dev_docs, labels, config, TINY)
        history = result.train_result.history
        best_acc = result.train_result.best_dev_accuracy
        first_best = next(h.epoch for h in history if h.dev_accuracy == best_acc)
        assert result.train_result.best_epoch == first_best

    def test_frozen_word_embeddings_constant(self, world):
        train_docs, dev_docs, labels = world
        config = quick_config(epochs=2)
        vocab = build_vocab(train_docs)
        model_config = ModelConfig(encoder=TINY, preset="M7", perspectives=2,
                                   n_classes=labels.c)
        model = KnnTextModel.create(model_config, vocab, seed=0)
        before = model.encoder.params.word.data.copy()
        neighbors = {d.id: NeighborSet(d.id, ()) for d in train_docs + dev_docs}
        train(model, train_docs, dev_docs, neighbors, {d.id: d for d in train_docs},
              config, vocab)
        assert model.encoder.params.word.data.tobytes() == before.tobytes()

    def test_non_finite_loss_aborts_with_location(self, world):
        train_docs, dev_docs, labels = world
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c), vocab, seed=0)
        model.classifier.b.data[:] = np.inf
        with pytest.raises(NumericFailure, match="epoch 1, batch 0: softmax_cross_entropy"):
            train(model, train_docs, dev_docs, None, None, quick_config(preset="M1"), vocab)

    def test_non_finite_dev_evaluation_names_it(self, world):
        # A value that turns non-finite in the last step of an epoch surfaces
        # in the dev evaluation that follows it.
        train_docs, dev_docs, labels = world
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c), vocab, seed=0)
        forward = model.forward_batch

        def poisoned(*args, **kwargs):
            if not ad.recording():
                model.classifier.b.data = np.full_like(model.classifier.b.data, np.nan)
            return forward(*args, **kwargs)

        model.forward_batch = poisoned
        with pytest.raises(NumericFailure, match="epoch 1, dev evaluation: softmax_cross_entropy"):
            train(model, train_docs, dev_docs, None, None, quick_config(preset="M1"), vocab)

    def test_shape_error_is_not_relabelled(self, world):
        train_docs, dev_docs, labels = world
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c), vocab, seed=0)
        model.classifier.b.data = np.zeros((1, labels.c + 1))
        with pytest.raises(ad.AutodiffError, match="add: incompatible shapes") as excinfo:
            train(model, train_docs, dev_docs, None, None, quick_config(preset="M1"), vocab)
        assert not isinstance(excinfo.value, ad.NonFiniteError)

    def test_training_flag_cleared_when_train_raises(self, world):
        # ``train`` serves its steps and dev evaluation without the model's
        # bank, and gives the bank back however it ends.
        train_docs, dev_docs, labels = world
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c), vocab, seed=0)
        model.classifier.b.data[:] = np.inf
        bank = model.bank
        seen = []
        forward = model.forward_batch

        def spy(*args, **kwargs):
            seen.append(model.bank)
            return forward(*args, **kwargs)

        model.forward_batch = spy
        with pytest.raises(NumericFailure):
            train(model, train_docs, dev_docs, None, None, quick_config(preset="M1"), vocab)
        assert seen == [None]
        assert model.bank is bank

    def test_empty_split_is_refused(self, world, tmp_path):
        train_docs, dev_docs, labels = world
        metrics = tmp_path / "run" / "metrics.jsonl"
        for train_part, dev_part, match in ((train_docs, [], "empty dev corpus"),
                                            ([], dev_docs, "empty training corpus")):
            with pytest.raises(TrainingError, match=match):
                run_pipeline(train_part, dev_part, labels, quick_config(), TINY,
                             metrics_path=metrics)
        assert not metrics.parent.exists()

    @pytest.mark.parametrize("where", ["dev", "train"])
    def test_shared_document_id_is_refused(self, world, tmp_path, where):
        # Neighbours are kept by document id: a dev document with a training
        # document's id would overwrite that document's neighbours, and it
        # would then retrieve itself while training.
        train_docs, dev_docs, labels = world
        taken = train_docs[3].id
        if where == "dev":
            dev_docs = [dataclasses.replace(dev_docs[0], id=taken), *dev_docs[1:]]
        else:
            train_docs = [*train_docs, dataclasses.replace(train_docs[0], id=taken)]
        metrics = tmp_path / "run" / "metrics.jsonl"
        with pytest.raises(TrainingError, match=f"document id {taken} is used twice"):
            run_pipeline(train_docs, dev_docs, labels, quick_config(), TINY,
                         metrics_path=metrics)
        assert not metrics.parent.exists()

    def test_external_docs_need_their_label_space(self, world):
        train_docs, dev_docs, labels = world
        external, _ = make_separable_corpus(2, 5, seed=9)
        with pytest.raises(TrainingError, match="a memory declares its label space"):
            run_pipeline(train_docs, dev_docs, labels, quick_config(preset="M6"), TINY,
                         external_docs=external)

    @pytest.mark.parametrize("preset_name", ["M7", "M1"])
    def test_checkpoint_carries_its_memory_and_label_names(self, world, preset_name):
        # The best checkpoint is the one to serve, as run_pipeline returns it.
        train_docs, dev_docs, labels = world
        params = Bm25Params(k1=0.5, b=0.6)
        result = run_pipeline(train_docs, dev_docs, labels,
                              quick_config(epochs=1, preset=preset_name), TINY,
                              bm25_params=params)
        checkpoint = result.train_result.checkpoint
        assert checkpoint.manifest["label_names"] == list(labels.names)
        if preset_name == "M1":
            assert checkpoint.memory is None and result.neighbors is None
            return
        memory = checkpoint.memory
        assert memory.docs == {d.id: d for d in train_docs}
        assert (memory.labels, memory.params, memory.k) == (labels, params, 2)

    def test_train_builds_no_memory_bank(self, world):
        train_docs, dev_docs, labels = world
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M7", perspectives=2, n_classes=labels.c),
            vocab, seed=0)
        lookup = {d.id: d for d in train_docs}
        neighbors = {d.id: NeighborSet(d.id, ((train_docs[0].id, 1.0),))
                     for d in train_docs + dev_docs}
        train(model, train_docs, dev_docs, neighbors, lookup, quick_config(epochs=1), vocab)
        assert model.bank.table.size == 0
        assert all(p.data.flags.writeable for p in model.encoder.named_params().values())

    def test_metrics_file(self, world, tmp_path):
        train_docs, dev_docs, labels = world
        metrics = tmp_path / "metrics.jsonl"
        run_pipeline(train_docs, dev_docs, labels, quick_config(epochs=2), TINY,
                     metrics_path=metrics, config_echo={"preset": "M7"})
        lines = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert len(lines) == 3
        assert lines[0]["epoch"] == 1 and "train_loss" in lines[0] and "dev_accuracy" in lines[0]
        assert "summary" in lines[-1]
        assert lines[-1]["summary"]["config"] == {"preset": "M7"}


class TestEvaluate:
    def test_perfect_predictor_diagonal(self, world):
        train_docs, dev_docs, labels = world
        config = quick_config(epochs=40, lr=3e-2, preset="M1")
        result = run_pipeline(train_docs, dev_docs, labels, config, TINY)
        report = evaluate(result.model, train_docs, result.neighbors, memory_docs(result))
        assert report.accuracy == 1.0
        assert np.all(report.confusion == np.diag(np.diag(report.confusion)))

    def test_majority_predictor_on_balanced_classes(self, world):
        train_docs, dev_docs, labels = world
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c), vocab, seed=0)
        model.classifier.W.data[:] = 0.0
        model.classifier.b.data[:] = [[1.0, 0.0, 0.0]]
        report = evaluate(model, train_docs, None, None)
        assert report.accuracy == pytest.approx(1.0 / 3.0)
        assert report.per_class[0] == 1.0 and report.per_class[1] == 0.0

    def test_gold_label_outside_the_classes_is_refused(self, world):
        # An untaped forward reads no label, so evaluate checks them itself.
        train_docs, _, labels = world
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c), build_vocab(train_docs), seed=0)
        for bad in (-1, labels.c):
            docs = [train_docs[0], dataclasses.replace(train_docs[1], label=bad)]
            with pytest.raises(TrainingError, match="gold label"):
                evaluate(model, docs, None, None)

    def test_confusion_rows_match_support(self, world):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(), TINY)
        report = evaluate(result.model, dev_docs, result.neighbors, memory_docs(result))
        for label in range(labels.c):
            support = sum(1 for d in dev_docs if d.label == label)
            assert report.confusion[label].sum() == support
        assert report.accuracy == pytest.approx(np.trace(report.confusion) / report.total)

    def test_accuracy_matches_provenance_recount(self, world):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(), TINY)
        report = evaluate(result.model, dev_docs, result.neighbors, memory_docs(result))
        records = predict_with_provenance(result.model, dev_docs, result.neighbors,
                                          memory_docs(result))
        recount = sum(1 for r in records if r["predicted"] == r["gold"]) / len(records)
        assert report.accuracy == pytest.approx(recount)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("preset_name", ["M7", "M1"])
    def test_dev_report_equals_reloaded_model_evaluation(self, world, preset_name, dtype):
        # run_pipeline keeps the best epoch's report from `train` instead of
        # evaluating the reloaded checkpoint again. `train` encodes each dev
        # batch's neighbours with it and the reloaded model reads them from
        # its memory bank; a row's bytes do not depend on its batch, so the
        # reports are equal.
        train_docs, dev_docs, labels = world
        config = quick_config(epochs=3, lr=3e-2, preset=preset_name,
                              float_width=8 * np.dtype(dtype).itemsize)
        result = run_pipeline(train_docs, dev_docs, labels, config, TINY)
        again = evaluate(result.model, dev_docs, result.neighbors, memory_docs(result))
        assert result.model.classifier.W.data.dtype == dtype
        assert result.dev_report.accuracy == again.accuracy
        assert result.dev_report.per_class == again.per_class
        assert np.array_equal(result.dev_report.confusion, again.confusion)

    def test_provenance_respects_k(self, world):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(k_neighbors=2), TINY)
        top1 = {doc_id: ns.top(1) for doc_id, ns in result.neighbors.items()}
        records = predict_with_provenance(result.model, dev_docs, top1, memory_docs(result))
        assert all(len(r["neighbors"]) <= 1 for r in records)
        assert any(r["neighbors"] for r in records)
        sample = next(r for r in records if r["neighbors"])
        assert {"doc_id", "bm25", "label", "attention"} <= set(sample["neighbors"][0])


class TestCheckpoints:
    def test_save_load_save_byte_identical(self, world, tmp_path):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(), TINY)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, result.train_result.checkpoint)
        loaded = load_checkpoint(p1)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_forward_and_accuracy(self, world, tmp_path):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(), TINY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.train_result.checkpoint)
        reloaded = model_from_checkpoint(load_checkpoint(path), result.vocab)
        base = result.model.forward_batch(dev_docs[:5],
                                          {d.id: result.neighbors[d.id].top(2) for d in dev_docs[:5]},
                                          memory_docs(result))
        got = reloaded.forward_batch(dev_docs[:5],
                                     {d.id: result.neighbors[d.id].top(2) for d in dev_docs[:5]},
                                     memory_docs(result))
        assert base.logits.tobytes() == got.logits.tobytes()
        r1 = evaluate(result.model, dev_docs, result.neighbors, memory_docs(result))
        r2 = evaluate(reloaded, dev_docs, result.neighbors, memory_docs(result))
        assert r1.accuracy == r2.accuracy

    def test_restore_takes_checkpoint_tensors_without_copy(self, world, tmp_path):
        train_docs, _, labels = world
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(ModelConfig(encoder=TINY, n_classes=labels.c), vocab, seed=0)
        ckpt = make_checkpoint(model, vocab, epoch=0, dev_accuracy=0.0)
        assert not any(t.flags.writeable for t in ckpt.tensors.values())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        for source in (ckpt, load_checkpoint(path)):
            restored = model_from_checkpoint(source, vocab)
            for name, p in restored.named_params().items():
                assert p.data is source.tensors[name], name

    def test_restored_parameters_are_read_only_until_rebound(self, world):
        train_docs, _, labels = world
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(ModelConfig(encoder=TINY, n_classes=labels.c), vocab, seed=0)
        restored = model_from_checkpoint(make_checkpoint(model, vocab, epoch=0, dev_accuracy=0.0),
                                         vocab)
        bias = restored.classifier.b
        for name, p in restored.named_params().items():
            with pytest.raises(ValueError, match="read-only"):
                p.data[(0,) * p.data.ndim] = 1.0
        with pytest.raises(ad.AutodiffError, match="clf.b.*read-only"):
            ad.grad_check(lambda: ad.sum(ad.tanh(bias)), {"clf.b": bias})
        bias.data = bias.data.copy()
        assert ad.grad_check(lambda: ad.sum(ad.tanh(bias)), {"clf.b": bias}).worst() < 1e-6

    def test_truncated_file_is_explicit_error(self, world, tmp_path):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(epochs=1), TINY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.train_result.checkpoint)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match=": truncated tensor data"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match=": bad checkpoint magic b'NOTMAGIC'"):
            load_checkpoint(path)

    def test_mismatched_class_count_names_field(self, world):
        train_docs, dev_docs, labels = world
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c), vocab, seed=0)
        ckpt = make_checkpoint(model, vocab, epoch=1, dev_accuracy=0.5)
        with pytest.raises(CheckpointError, match="n_classes"):
            model_from_checkpoint(ckpt, vocab, expected_classes=7)

    def test_vocab_hash_mismatch(self, world):
        train_docs, dev_docs, labels = world
        vocab = build_vocab(train_docs)
        other_vocab = build_vocab(dev_docs)
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c), vocab, seed=0)
        ckpt = make_checkpoint(model, vocab, epoch=1, dev_accuracy=0.5)
        with pytest.raises(CheckpointError, match="hash"):
            model_from_checkpoint(ckpt, other_vocab)

    def test_stored_vocab_restores_model(self, world, tmp_path):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(), TINY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.train_result.checkpoint)
        reloaded = model_from_checkpoint(load_checkpoint(path))
        assert reloaded.encoder.vocab.word_hash() == result.vocab.word_hash()
        neighbors = {d.id: result.neighbors[d.id].top(2) for d in dev_docs[:5]}
        base = result.model.forward_batch(dev_docs[:5], neighbors, memory_docs(result))
        got = reloaded.forward_batch(dev_docs[:5], neighbors, memory_docs(result))
        assert base.logits.tobytes() == got.logits.tobytes()

    @staticmethod
    def _m1_checkpoint(train_docs, labels, dtype=np.float64):
        vocab = build_vocab(train_docs)
        model = KnnTextModel.create(
            ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c), vocab, seed=0, dtype=dtype)
        return make_checkpoint(model, vocab, epoch=1, dev_accuracy=0.5)

    def test_checkpoint_without_stored_vocab_is_error(self, world):
        train_docs, _, labels = world
        ckpt = self._m1_checkpoint(train_docs, labels)
        del ckpt.manifest["vocab"]["words"]
        with pytest.raises(CheckpointError, match="malformed checkpoint manifest"):
            model_from_checkpoint(ckpt)

    def test_plain_cosine_checkpoint_keeps_frozen_ones(self, world, tmp_path):
        train_docs, dev_docs, labels = world
        result = run_pipeline(train_docs, dev_docs, labels, quick_config(perspectives=0), TINY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.train_result.checkpoint)
        checkpoint = load_checkpoint(path)
        assert {"name": "match.W", "shape": [1, TINY.l]} in checkpoint.manifest["tensors"]
        reloaded = model_from_checkpoint(checkpoint)
        W = reloaded.matching.W
        assert np.array_equal(W.data, np.ones((1, TINY.l))) and not W.requires_grad
        args = (dev_docs, result.neighbors, checkpoint.memory.docs)
        assert (predict_with_provenance(reloaded, *args)
                == predict_with_provenance(result.model, *args))

    @pytest.mark.parametrize("preset_name, perspectives", [("M7", 2), ("M7", 0), ("M1", 2)],
                             ids=["M7-I2", "M7-I0", "M1"])
    def test_restore_trains_what_create_trains(self, world, tmp_path, preset_name, perspectives):
        # A checkpoint stores no trainability: a restored model's is create's.
        train_docs, _, labels = world
        vocab = build_vocab(train_docs)
        config = ModelConfig(encoder=TINY, preset=preset_name, perspectives=perspectives,
                             n_classes=labels.c)
        created = KnnTextModel.create(config, vocab, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_checkpoint(created, vocab, epoch=1, dev_accuracy=0.5))
        restored = model_from_checkpoint(load_checkpoint(path))
        trains = {name: p.requires_grad for name, p in created.named_params().items()}
        assert {name: p.requires_grad for name, p in restored.named_params().items()} == trains
        frozen = {"word_emb"} | ({"match.W"} if perspectives == 0 else set())
        assert {name for name, t in trains.items() if not t} == frozen

    def test_stored_vocab_must_match_its_hash(self, world):
        train_docs, _, labels = world
        ckpt = self._m1_checkpoint(train_docs, labels)
        words = ckpt.manifest["vocab"]["words"]
        words[0], words[1] = words[1], words[0]
        with pytest.raises(CheckpointError, match="word vocabulary hash"):
            model_from_checkpoint(ckpt)

    def test_restore_draws_no_random_word_table(self, world, monkeypatch):
        import knnmem.encoder as encoder

        train_docs, _, labels = world
        ckpt = self._m1_checkpoint(train_docs, labels)

        def forbidden(*args, **kwargs):
            raise AssertionError("restore drew a random word table")

        monkeypatch.setattr(encoder, "random_embedding_table", forbidden)
        model = model_from_checkpoint(ckpt)
        assert np.array_equal(model.encoder.params.word.data, ckpt.tensors["word_emb"])

    def test_missing_word_emb_is_error(self, world):
        train_docs, _, labels = world
        ckpt = self._m1_checkpoint(train_docs, labels)
        del ckpt.tensors["word_emb"]
        with pytest.raises(CheckpointError, match="word_emb is missing"):
            model_from_checkpoint(ckpt)

    def test_wrong_shape_word_emb_is_error(self, world):
        train_docs, _, labels = world
        ckpt = self._m1_checkpoint(train_docs, labels)
        ckpt.tensors["word_emb"] = ckpt.tensors["word_emb"][:, :2]
        with pytest.raises(CheckpointError, match="word_emb is shape"):
            model_from_checkpoint(ckpt)

    def test_unlisted_model_tensor_is_error(self, world):
        train_docs, _, labels = world
        ckpt = self._m1_checkpoint(train_docs, labels)
        ckpt.manifest["tensors"] = [s for s in ckpt.manifest["tensors"] if s["name"] != "clf.W"]
        with pytest.raises(CheckpointError, match="no tensor for clf.W"):
            model_from_checkpoint(ckpt)


class TestCheckpointFileErrors:
    """A damaged checkpoint file is a `CheckpointError`, never a silent load."""

    @pytest.fixture
    def saved(self, world, tmp_path):
        train_docs, _, labels = world
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, TestCheckpoints._m1_checkpoint(train_docs, labels))
        return path

    def test_every_truncation_is_an_error(self, saved):
        blob = saved.read_bytes()
        (size,) = struct.unpack("<Q", blob[8:16])
        for keep in range(len(blob)):
            saved.write_bytes(blob[:keep])
            match = ("magic" if keep < 8 else "truncated checkpoint header" if keep < 16
                     else "truncated checkpoint manifest" if keep < 16 + size
                     else "truncated tensor data")
            with pytest.raises(CheckpointError, match=match):
                load_checkpoint(saved)

    def test_trailing_bytes(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match=": 8 trailing bytes after the tensor data"):
            load_checkpoint(saved)

    def test_previous_format_magic(self, saved):
        saved.write_bytes(b"KNNTXT01" + saved.read_bytes()[8:])
        with pytest.raises(CheckpointError, match=": bad checkpoint magic b'KNNTXT01'"):
            load_checkpoint(saved)



def train_and_serve(model, train_docs, dev_docs, neighbors, lookup, dtype):
    """Three Adam steps on ``model``, then untaped forwards of ``dev_docs``
    and of its first doc (whose words the bank holds by then), yielding
    each result; every tape node, gradient and parameter of a step must be
    at ``dtype``."""
    params = model.named_params()
    optimizer = Adam(params, lr=3e-2)
    for start in range(0, 24, 8):
        ad.zero_grads(params.values())
        with Tape() as tape:
            result = model.forward_batch(train_docs[start:start + 8], neighbors, lookup)
        tape.backward(result.loss)
        optimizer.step()
        assert {node.data.dtype for node in tape._nodes} == {np.dtype(dtype)}
        assert {p.grad.dtype for p in params.values() if p.grad is not None} == {np.dtype(dtype)}
        assert {p.data.dtype for p in params.values()} == {np.dtype(dtype)}
        yield result
    yield model.forward_batch(dev_docs, neighbors, lookup)
    yield model.forward_batch(dev_docs[:1], neighbors, lookup)


class TestTwoWidths:
    """The float width is a model's: float32 and float64 models share a
    process, and a model whose arrays mix widths is refused."""

    def test_interleaved_models_keep_their_widths(self, world):
        train_docs, dev_docs, labels = world
        vocab, index = build_vocab(train_docs), build_index(train_docs)
        neighbors = precompute_neighbors(index, train_docs, 2, self_exclude=True)
        neighbors.update({d.id: search_knn(index, d, 2) for d in dev_docs})
        lookup = {d.id: d for d in train_docs}
        config = ModelConfig(encoder=TINY, preset="M7", perspectives=2, n_classes=labels.c)

        def run(dtype):
            model = KnnTextModel.create(config, vocab, seed=0, dtype=dtype)
            return train_and_serve(model, train_docs, dev_docs, neighbors, lookup, dtype)

        alone = list(run(np.float64))
        together = [r for pair in zip(run(np.float64), run(np.float32)) for r in pair]
        assert len(together) == 2 * len(alone) == 10
        for one, r64, r32 in zip(alone, together[0::2], together[1::2]):
            assert r64.logits.dtype == r64.attention.dtype == np.float64
            assert r32.logits.dtype == r32.attention.dtype == np.float32
            for field in ("logits", "probabilities", "attention"):
                assert getattr(r64, field).tobytes() == getattr(one, field).tobytes(), field
            if one.loss is not None:
                assert r64.loss.data.tobytes() == one.loss.data.tobytes()
                assert r32.loss.data.dtype == np.float32

    def test_float32_file_loads_as_float32_beside_float64_models(self, world, tmp_path):
        train_docs, dev_docs, labels = world
        served64 = model_from_checkpoint(TestCheckpoints._m1_checkpoint(train_docs, labels))
        paths = {}
        for dtype in (np.float32, np.float64):
            paths[dtype] = tmp_path / f"{np.dtype(dtype).name}.ckpt"
            save_checkpoint(paths[dtype], TestCheckpoints._m1_checkpoint(train_docs, labels, dtype))
        for dtype in (np.float32, np.float64, np.float32):
            checkpoint = load_checkpoint(paths[dtype])
            assert checkpoint.manifest["float_bytes"] == np.dtype(dtype).itemsize
            served = model_from_checkpoint(checkpoint)
            assert {p.data.dtype for p in served.named_params().values()} == {np.dtype(dtype)}
            assert served.forward_batch(dev_docs[:3]).logits.dtype == dtype
            assert served64.forward_batch(dev_docs[:3]).logits.dtype == np.float64
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, load_checkpoint(paths[np.float32]))
        assert again.read_bytes() == paths[np.float32].read_bytes()

    def test_create_refuses_a_word_table_of_another_width(self, world):
        train_docs, _, labels = world
        vocab = build_vocab(train_docs)
        config = ModelConfig(encoder=TINY, preset="M1", n_classes=labels.c)
        table = random_embedding_table(vocab.n_words, TINY.word_dim, seed=0)
        with pytest.raises(ModelError, match="float width float32, word_emb float64"):
            KnnTextModel.create(config, vocab, seed=0, word_emb=table, dtype=np.float32)
        with pytest.raises(ModelError, match="float width float16, word_emb float16"):
            KnnTextModel.create(config, vocab, seed=0, dtype=np.float16)

    def test_restore_refuses_a_tensor_of_another_width(self, world):
        train_docs, _, labels = world
        checkpoint = TestCheckpoints._m1_checkpoint(train_docs, labels, np.float32)
        checkpoint.tensors["clf.W"] = checkpoint.tensors["clf.W"].astype(np.float64)
        with pytest.raises(CheckpointError, match="tensor clf.W is float64, word_emb float32"):
            model_from_checkpoint(checkpoint)

    def test_save_refuses_mixed_widths_and_writes_nothing(self, world, tmp_path):
        train_docs, _, labels = world
        checkpoint = TestCheckpoints._m1_checkpoint(train_docs, labels, np.float32)
        checkpoint.tensors["lstm_fwd.b"] = checkpoint.tensors["lstm_fwd.b"].astype(np.float64)
        path = tmp_path / "mixed.ckpt"
        with pytest.raises(CheckpointError, match="tensor lstm_fwd.b is float64, word_emb float32"):
            save_checkpoint(path, checkpoint)
        assert list(tmp_path.iterdir()) == []


class TestSetups:
    def test_unbalanced_counts(self, world):
        train_docs, dev_docs, labels = world
        report, _ = run_setup("unbalanced", train_docs, dev_docs, labels,
                              quick_config(epochs=1), TINY, per_class_counts=(2, 4, 8))
        assert report["train_size"] == 14
        assert report["train_per_class"] == [2, 4, 8]
        assert 0.0 <= report["dev_accuracy"] <= 1.0

    def test_semi_supervised_forces_m6(self, world):
        train_docs, dev_docs, labels = world
        external, ext_labels = make_separable_corpus(4, 5, seed=9)
        report, result = run_setup("semi_supervised", train_docs, dev_docs, labels,
                                   quick_config(epochs=1), TINY,
                                   external_docs=external, external_label_space=ext_labels)
        assert report["preset"] == "M6"
        model = result.model
        # No attentive-label block: width is l + I*l.
        assert model.feature_width() == TINY.l + 2 * TINY.l

    def test_transfer_uses_external_label_width(self, world):
        train_docs, dev_docs, labels = world
        external, ext_labels = make_separable_corpus(2, 14, seed=9)
        _, result = run_setup("transfer", train_docs, dev_docs, labels,
                              quick_config(epochs=1), TINY,
                              external_docs=external, external_label_space=ext_labels)
        model = result.model
        assert model.feature_width() == TINY.l + 2 * 14 + 2 * TINY.l
        assert model.config.n_classes == labels.c

    def test_transfer_requires_label_feature(self, world):
        train_docs, dev_docs, labels = world
        external, ext_labels = make_separable_corpus(2, 5, seed=9)
        with pytest.raises(TrainingError, match="label"):
            run_setup("transfer", train_docs, dev_docs, labels,
                      quick_config(preset="M6"), TINY,
                      external_docs=external, external_label_space=ext_labels)

    def test_low_resource_fraction(self, world):
        train_docs, dev_docs, labels = world
        report, _ = run_setup("low_resource", train_docs, dev_docs, labels,
                              quick_config(epochs=1), TINY, low_resource_fraction=0.5)
        assert report["train_size"] == 15

    def test_unknown_setup(self, world):
        train_docs, dev_docs, labels = world
        with pytest.raises(TrainingError, match="unknown setup"):
            run_setup("bogus", train_docs, dev_docs, labels, quick_config(), TINY)

    def test_missing_external_corpus(self, world):
        train_docs, dev_docs, labels = world
        with pytest.raises(TrainingError, match="external"):
            run_setup("semi_supervised", train_docs, dev_docs, labels, quick_config(), TINY)


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(TrainingError):
            TrainConfig(epochs=0)

    def test_bad_k(self):
        with pytest.raises(TrainingError):
            TrainConfig(k_neighbors=-1)

    @pytest.mark.parametrize("field", ["lr", "clip_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lr_and_clip_rejected(self, field, value):
        # A NaN clip never clips and a NaN rate corrupts every parameter.
        with pytest.raises(TrainingError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -0.01])
    def test_non_positive_lr_rejected(self, value):
        # A negative rate trains by gradient ascent; a zero rate never moves.
        with pytest.raises(TrainingError, match="lr must be > 0"):
            TrainConfig(lr=value)

    def test_negative_clip_norm_rejected_zero_accepted(self):
        # A negative bound would disable clipping as silently as 0 does.
        assert TrainConfig(clip_norm=0.0).clip_norm == 0.0
        with pytest.raises(TrainingError, match="clip_norm must be >= 0"):
            TrainConfig(clip_norm=-1.0)

    def test_float_width_is_32_or_64(self):
        assert TrainConfig(float_width=32).float_width == 32
        with pytest.raises(TrainingError, match="float_width must be 32 or 64, got 16"):
            TrainConfig(float_width=16)

    def test_zero_perspectives_accepted_negative_rejected(self):
        assert TrainConfig(perspectives=0).perspectives == 0  # plain cosine
        with pytest.raises(TrainingError, match="perspectives"):
            TrainConfig(perspectives=-1)


class TestEmbeddingsFollowVocabulary:
    def test_low_resource_rows_hold_file_vectors(self, world, tmp_path):
        train_docs, dev_docs, labels = world
        full_vocab = build_vocab(train_docs)
        rng = np.random.default_rng(3)
        vectors = {w: rng.normal(size=TINY.word_dim) for w in sorted(full_vocab.word_to_id)}
        path = tmp_path / "vectors.txt"
        path.write_text("".join(f"{w} {' '.join(repr(float(v)) for v in vec)}\n"
                                for w, vec in vectors.items()), encoding="utf-8")
        _, result = run_setup("low_resource", train_docs, dev_docs, labels,
                              quick_config(epochs=1), TINY, low_resource_fraction=0.3,
                              embeddings=path)
        model = result.model
        vocab = model.encoder.vocab
        assert vocab.n_words < full_vocab.n_words
        table = model.encoder.params.word
        assert table.shape[0] == vocab.n_words
        for word, row in vocab.word_to_id.items():
            assert np.array_equal(table.data[row], vectors[word]), word

    def test_table_rows_must_match_vocabulary(self, world):
        from knnmem.encoder import EncoderError, random_embedding_table

        train_docs, _, labels = world
        vocab = build_vocab(train_docs)
        config = ModelConfig(encoder=TINY, preset="M7", perspectives=2, n_classes=labels.c)
        table = random_embedding_table(vocab.n_words + 5, TINY.word_dim, seed=0)
        with pytest.raises(EncoderError, match="rows"):
            KnnTextModel.create(config, vocab, seed=0, word_emb=table)


class TestGradNormTelemetry:
    def run_with_spy(self, world, tmp_path, monkeypatch, clip_norm):
        """Train 2 epochs; return the metrics lines and, per clip call, the
        returned norm and whether any gradient changed."""
        import knnmem.trainer as trainer_mod

        calls = []
        real = trainer_mod.clip_global_norm

        def spy(params, max_norm):
            params = list(params)
            before = [p.grad.copy() for p in params]
            norm = real(params, max_norm)
            changed = any(not np.array_equal(b, p.grad) for b, p in zip(before, params))
            calls.append((norm, changed))
            return norm

        monkeypatch.setattr(trainer_mod, "clip_global_norm", spy)
        train_docs, dev_docs, labels = world
        metrics = tmp_path / "metrics.jsonl"
        run_pipeline(train_docs, dev_docs, labels, quick_config(epochs=2, clip_norm=clip_norm),
                     TINY, metrics_path=metrics)
        lines = [json.loads(line) for line in metrics.read_text().splitlines()]
        return lines[:-1], calls

    def test_epoch_lines_carry_pre_clip_norm(self, world, tmp_path, monkeypatch):
        epochs, calls = self.run_with_spy(world, tmp_path, monkeypatch, clip_norm=1e-3)
        steps = len(calls) // 2
        assert len(epochs) == 2 and len(calls) == 2 * steps
        for line, chunk in zip(epochs, (calls[:steps], calls[steps:])):
            norms = [n for n, _ in chunk]
            assert line["grad_norm_mean"] == pytest.approx(sum(norms) / steps, rel=1e-12)
            assert line["grad_norm_max"] == max(norms)
            assert line["grad_norm_max"] > 1e-3  # measured before clipping
            assert line["clip_rate"] == 1.0
        assert all(changed for _, changed in calls)

    def test_zero_clip_norm_measures_without_scaling(self, world, tmp_path, monkeypatch):
        epochs, calls = self.run_with_spy(world, tmp_path, monkeypatch, clip_norm=0.0)
        assert calls and not any(changed for _, changed in calls)
        for line in epochs:
            assert line["grad_norm_mean"] > 0.0
            assert line["grad_norm_max"] >= line["grad_norm_mean"]
            assert line["clip_rate"] == 0.0
