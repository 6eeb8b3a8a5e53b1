import argparse
import hashlib
import json
import struct

import numpy as np
import pytest

import knnmem.autodiff as ad
import knnmem.memory as memory
import knnmem.trainer as trainer
from knnmem.cli import build_parser, main
from knnmem.config import _FIELDS, ConfigError, load_run_config
from knnmem.corpus import (
    Document,
    LabelSpace,
    LowResource,
    SplitSpec,
    build_vocab,
    load_dataset,
    split_dev,
    subsample,
    tokenize,
)
from knnmem.datagen import make_separable_corpus, write_zhang_csv
from knnmem.encoder import EncoderConfig, TextEncoder
from knnmem.retrieval import Bm25Params, NeighborSet, build_index, load_memory, search_knn

# Training flags of a small, fast run; `eval` and `predict` take only `serving(out)`.
FAST = ["--epochs", "2", "--lr", "0.01", "--batch-size", "8", "--k", "2",
        "--perspectives", "2", "--word-dim", "4", "--char-dim", "3",
        "--char-lstm-dim", "4", "--hidden", "4", "--dev-per-class", "3",
        "--classes", "3", "--eval-batch-size", "16"]

# Every parameter tensor of an M7 checkpoint with I > 0.
PARAMETERS = ["word_emb", "char_emb", "char_lstm.Wx", "char_lstm.Wh", "char_lstm.b",
              "lstm_fwd.Wx", "lstm_fwd.Wh", "lstm_fwd.b", "lstm_bwd.Wx", "lstm_bwd.Wh",
              "lstm_bwd.b", "match.W", "clf.W", "clf.b"]


def serving(out):
    """The serving arguments of a run: the checkpoint and memory it wrote."""
    return ["--checkpoint", out / "model.ckpt", "--memory", out / "memory.knn"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    docs, labels = make_separable_corpus(12, 3, seed=5)
    write_zhang_csv(root / "train.csv", docs)
    eval_docs, _ = make_separable_corpus(3, 3, seed=6)
    write_zhang_csv(root / "eval.csv", eval_docs)
    return root


def run(args):
    return main([str(a) for a in args])


_DROP = object()
_MALFORMED = "malformed checkpoint manifest"
_BAD_MEMORY = "malformed memory manifest"


def rewrite_manifest(src, dst, change):
    """Copy an artifact file with its manifest replaced by ``change`` (bytes),
    or with one field, named by a key path, set to a value or dropped."""
    blob = src.read_bytes()
    (size,) = struct.unpack("<Q", blob[8:16])
    if isinstance(change, bytes):
        raw = change
    else:
        keys, value = change
        manifest = json.loads(blob[16:16 + size])
        target = manifest
        for key in keys[:-1]:
            target = target[key]
        if value is _DROP:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        raw = json.dumps(manifest).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + size:])


class TestIndexCommand:
    """The BM25 index over the training documents, once written by its own
    command, is now written by `train` as part of the memory."""

    def test_writes_artifacts_and_stats(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, "--out-dir", out]) == 0
        assert str(out / "memory.knn") in capsys.readouterr().out
        train_docs, _ = split_dev(load_dataset(data_dir / "train.csv", LabelSpace.of_size(3)),
                                  SplitSpec(3, 0))
        want = build_index(train_docs)
        got = load_memory(out / "memory.knn")
        assert got.index.doc_ids.size == want.doc_ids.size == len(train_docs)
        assert got.index.terms == want.terms
        for field in ("doc_terms", "post_start", "post_rows", "post_tfs"):
            assert np.array_equal(getattr(got.index, field), getattr(want, field))
        assert got.index.avg_doc_len == want.avg_doc_len
        assert (got.params, got.k) == (Bm25Params(), 2)

    def test_rerun_is_identical(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["train", "--train", data_dir / "train.csv", *FAST, "--out-dir", out]) == 0
        assert (out1 / "memory.knn").read_bytes() == (out2 / "memory.knn").read_bytes()


class TestTrainEvalPredict:
    @pytest.fixture(scope="class")
    def trained(self, data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("trained")
        code = run(["train", "--train", data_dir / "train.csv", *FAST, "--out-dir", out])
        assert code == 0
        return out

    def test_train_artifacts(self, trained, capsys):
        assert (trained / "model.ckpt").exists()
        digest = hashlib.sha256((trained / "memory.knn").read_bytes()).hexdigest()
        assert trainer.read_checkpoint(trained / "model.ckpt").manifest["memory_sha256"] == digest
        assert (trained / "metrics.jsonl").exists()
        assert (trained / "train_report.json").exists()
        lines = (trained / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3  # 2 epochs + summary
        summary = json.loads(lines[-1])["summary"]
        assert summary["config"]["preset"] == "M7"

    def test_eval_prints_accuracy(self, trained, data_dir, tmp_path, capsys):
        out = tmp_path / "eval-out"
        code = run(["eval", *serving(trained), "--data", data_dir / "eval.csv", "--out-dir", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "accuracy 0." in captured.out or "accuracy 1." in captured.out
        payload = json.loads((out / "eval.json").read_text())
        assert "confusion" in payload
        # The config records what was served, and nothing that serving never read.
        assert payload["config"] == {
            "float_width": 64, "label_names": ["class_0", "class_1", "class_2"],
            "eval_batch_size": 16, "k1": 1.2, "b": 0.75, "k_neighbors": 2}

    def test_eval_class_mismatch_is_error(self, trained, data_dir, tmp_path, capsys):
        # Label names that do not number the model's classes cannot be served.
        bad = tmp_path / "bad.ckpt"
        rewrite_manifest(trained / "model.ckpt", bad, (("label_names",), ["a", "b", "c", "d"]))
        code = run(["eval", "--checkpoint", bad, "--memory", trained / "memory.knn",
                    "--data", data_dir / "eval.csv", "--out-dir", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert "4 label_names for a model of n_classes 3" in err and "retrain" in err
        assert "Traceback" not in err
        assert not (tmp_path / "eval.json").exists()

    def test_predict_single_text(self, trained, capsys):
        code = run(["predict", *serving(trained), "--text", "c0w1 c0w2 f3"])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 1
        assert out_lines[0] in ("class_0", "class_1", "class_2")

    def test_eval_and_predict_encode_neighbours_in_batch(self, trained, data_dir, tmp_path,
                                                         monkeypatch, capsys):
        # A CLI process serves one request set, so it builds no memory bank.
        def no_bank(*args, **kwargs):
            raise AssertionError("the CLI filled a memory bank")

        monkeypatch.setattr(memory.MemoryBank, "rows", no_bank)
        common = serving(trained)
        assert run(["eval", *common, "--data", data_dir / "eval.csv",
                    "--out-dir", tmp_path / "eval-out"]) == 0
        assert run(["predict", *common, "--text", "c0w1 c0w2 f3"]) == 0

    def test_predict_provenance_dump(self, trained, tmp_path, capsys):
        prov = tmp_path / "prov.jsonl"
        code = run(["predict", *serving(trained), "--text", "c1w0 c1w3 f2", "--provenance", prov])
        assert code == 0
        record = json.loads(prov.read_text().splitlines()[0])
        assert record["gold"] is None
        assert record["neighbors"]
        assert {"doc_id", "bm25", "label", "attention"} <= set(record["neighbors"][0])

    def test_predict_rejects_serve_time_min_count(self, trained, capsys):
        # The checkpoint's stored vocabulary is the one served; no flag can change it.
        code = run(["predict", *serving(trained), "--text", "c0w1 c0w2 f3", "--min-count", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --min-count 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("change, match", [
        (b"{not json", _MALFORMED),
        (b'{"x":1}', _MALFORMED),
        ((("vocab",), _DROP), _MALFORMED),
        ((("model",), _DROP), _MALFORMED),
        ((("vocab", "words"), 5), _MALFORMED),
        ((("word_random_rows",), _DROP), _MALFORMED),
        ((("word_random_rows",), "!!!"), _MALFORMED),
        ((("word_random_rows",), "AA=="), "at least"),
        ((("tensors", 0, "shape"), [-1, 4]), _MALFORMED),
        ((("tensors", 0, "shape"), [2.5, 4]), _MALFORMED),
        ((("tensors", 0, "shape"), "4x4"), _MALFORMED),
        ((("float_bytes",), 2), _MALFORMED),
        ((("vocab", "words"), _DROP), _MALFORMED),
        ((("vocab", "chars"), _DROP), _MALFORMED),
    ])
    def test_malformed_checkpoint_manifest_is_data_error(self, trained, tmp_path, capsys,
                                                         change, match):
        bad = tmp_path / "bad.ckpt"
        rewrite_manifest(trained / "model.ckpt", bad, change)
        with pytest.raises(trainer.CheckpointError, match=match):
            trainer.model_from_checkpoint(trainer.load_checkpoint(bad))
        code = run(["predict", "--checkpoint", bad, "--memory", trained / "memory.knn",
                    "--text", "c0w1 c0w2 f3"])
        assert code == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    @pytest.mark.parametrize("change, match", [
        ((("label_names",), _DROP), "records no label_names"),
        ((("eval_batch_size",), _DROP), "records no eval_batch_size"),
        ((("label_names",), "class_0,class_1,class_2"), "is not a list of strings"),
        ((("label_names",), [0, 1, 2]), "is not a list of strings"),
        ((("label_names",), ["a", "a", "b"]), "class names must be distinct"),
        ((("eval_batch_size",), 0), "eval_batch_size 0 is not an integer >= 1"),
        ((("eval_batch_size",), -4), "eval_batch_size -4 is not an integer >= 1"),
        ((("eval_batch_size",), 2.5), "eval_batch_size 2.5 is not an integer >= 1"),
        ((("eval_batch_size",), True), "eval_batch_size True is not an integer >= 1"),
    ])
    def test_checkpoint_without_serving_fields_is_data_error(self, trained, tmp_path, capsys,
                                                             change, match):
        bad = tmp_path / "bad.ckpt"
        rewrite_manifest(trained / "model.ckpt", bad, change)
        code = run(["predict", "--checkpoint", bad, "--memory", trained / "memory.knn",
                    "--text", "c0w1 c0w2 f3"])
        assert code == 2
        err = capsys.readouterr().err
        assert match in err and "retrain" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", PARAMETERS)
    def test_non_finite_checkpoint_tensor_is_data_error(self, trained, tmp_path, capsys,
                                                        name, bad):
        ckpt = trainer.read_checkpoint(trained / "model.ckpt")
        tensors = dict(ckpt.tensors, **{name: ckpt.tensors[name].copy()})
        tensors[name].flat[-1] = bad
        path = tmp_path / "bad.ckpt"
        trainer.save_checkpoint(path, trainer.Checkpoint(ckpt.manifest, tensors))
        code = run(["predict", "--checkpoint", path, "--memory", trained / "memory.knn",
                    "--text", "c0w1 c0w2 f3"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"checkpoint tensor {name} holds a non-finite value" in err
        assert "Traceback" not in err

    def test_memory_checkpoint_without_match_w_is_data_error(self, trained, tmp_path, capsys):
        # The shape of a checkpoint of the former plain-cosine mode, which
        # stored no match.W: it must never be served as a multi-perspective model.
        ckpt = trainer.read_checkpoint(trained / "model.ckpt")
        model = {**ckpt.manifest["model"], "mode": "vanilla_cosine"}
        specs = [spec for spec in ckpt.manifest["tensors"] if spec["name"] != "match.W"]
        bad = tmp_path / "vanilla.ckpt"
        trainer.save_checkpoint(bad, trainer.Checkpoint(
            {**ckpt.manifest, "model": model, "tensors": specs}, ckpt.tensors))
        code = run(["predict", "--checkpoint", bad, "--memory", trained / "memory.knn",
                    "--text", "c0w1 c0w2 f3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no tensor for match.W" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage, match", [
        pytest.param(lambda blob: blob[:-4], "truncated", id="cut-4"),
        pytest.param(lambda blob: blob[: len(blob) // 2], "truncated", id="cut-half"),
        pytest.param(lambda blob: blob + b"\0" * 4, "trailing bytes", id="trailing"),
        pytest.param(b"{not json", _BAD_MEMORY, id="not-json"),
        pytest.param((("labels",), _DROP), _BAD_MEMORY, id="no-labels"),
        pytest.param((("labels", 0), 7), _BAD_MEMORY, id="label-out-of-range"),
        pytest.param((("label_names",), ["only"]), _BAD_MEMORY, id="one-label-name"),
        pytest.param((("doc_ids", 0), "x"), _BAD_MEMORY, id="non-integer-doc-id"),
        pytest.param((("k",), -1), _BAD_MEMORY, id="negative-k"),
        pytest.param((("k1",), -0.5), _BAD_MEMORY, id="negative-k1"),
        pytest.param((("k1",), float("nan")), _BAD_MEMORY, id="nan-k1"),
        pytest.param(lambda blob: b"KNNMEM01" + blob[8:], "bad memory magic b'KNNMEM01'",
                     id="old-magic"),
        pytest.param(lambda blob: blob[:-4] + struct.pack("<I", 2**32 - 1),
                     "a term id is outside the index's terms", id="term-id-outside-terms"),
    ])
    def test_damaged_memory_is_data_error(self, trained, tmp_path, capsys, damage, match):
        bad = tmp_path / "bad.knn"
        if callable(damage):
            bad.write_bytes(damage((trained / "memory.knn").read_bytes()))
        else:
            rewrite_manifest(trained / "memory.knn", bad, damage)
        code = run(["predict", "--checkpoint", trained / "model.ckpt", "--memory", bad,
                    "--text", "c0w1 c0w2 f3"])
        assert code == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    def test_memory_of_another_run_is_data_error(self, trained, data_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, "--split-seed", "1",
                    "--out-dir", other]) == 0
        code = run(["eval", "--checkpoint", trained / "model.ckpt", "--memory", other / "memory.knn",
                    "--data", data_dir / "eval.csv", "--out-dir", tmp_path / "eval-out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "memory digest mismatch" in err and "Traceback" not in err

    def test_memory_preset_without_memory_is_usage_error(self, trained, capsys):
        code = run(["predict", "--checkpoint", trained / "model.ckpt", "--text", "c0w1 f3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--memory" in err and "Traceback" not in err

    def test_predict_input_not_utf8_is_data_error(self, trained, tmp_path, capsys):
        bad = tmp_path / "in.txt"
        bad.write_bytes(b"c0w1 f3\nc1w2 \xff\n")
        code = run(["predict", *serving(trained), "--input", bad])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 2 is not UTF-8" in err and "Traceback" not in err

    def test_predict_empty_input_is_error(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n", encoding="utf-8")
        code = run(["predict", "--checkpoint", trained / "model.ckpt",
                    "--memory", trained / "memory.knn",
                    "--input", empty])
        assert code == 2

    def test_predict_requires_exactly_one_source(self, trained, capsys):
        code = run(["predict", "--checkpoint", trained / "model.ckpt",
                    "--memory", trained / "memory.knn"])
        assert code == 1


class TestTrainReruns:
    def test_same_command_line_writes_identical_checkpoint(self, data_dir, tmp_path):
        # One out-dir for both runs: the config echo records it.
        args = ["train", "--train", data_dir / "train.csv", *FAST, "--out-dir", tmp_path]
        blobs = []
        for _ in range(2):
            assert run(args) == 0
            blobs.append([(tmp_path / name).read_bytes() for name in ("model.ckpt", "memory.knn")])
        assert blobs[0] == blobs[1]


class TestFloat32Serving:
    @pytest.fixture
    def trained32(self, data_dir, tmp_path):
        try:
            assert run(["train", "--train", data_dir / "train.csv", *FAST,
                        "--float-width", "32", "--out-dir", tmp_path]) == 0
            yield tmp_path
        finally:
            ad.set_default_dtype(np.float64)

    def test_predict_and_eval_take_width_from_checkpoint(self, trained32, data_dir, capsys):
        serve = serving(trained32)
        assert run(["predict", *serve, "--text", "c0w1 c0w2 f3"]) == 0
        assert capsys.readouterr().out.strip() in ("class_0", "class_1", "class_2")
        assert ad.get_default_dtype() == np.float64
        assert run(["eval", *serve, "--data", data_dir / "eval.csv",
                    "--out-dir", trained32 / "eval"]) == 0
        assert "accuracy" in capsys.readouterr().out
        assert json.loads((trained32 / "eval" / "eval.json").read_text())["config"]["float_width"] == 32
        # No flag can override the checkpoint's width.
        assert run(["predict", *serve, "--float-width", "64", "--text", "c1w0 f2"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --float-width 64" in err and "Traceback" not in err


    def test_library_call_after_float32_predict_runs_in_float64(self, trained32):
        assert run(["predict", *serving(trained32), "--text", "c0w1 c0w2 f3"]) == 0
        vocab = build_vocab([Document(id=0, label=0, title="c0w1 f3", body="",
                                      tokens=("c0w1", "f3"))])
        encoder = TextEncoder.create(EncoderConfig(word_dim=4, char_dim=3, char_lstm_dim=4,
                                                   hidden=4), vocab, seed=0)
        assert encoder.encode_batch([["c0w1", "f3"]]).data.dtype == np.float64

class TestServingUsesTrainingMemory:
    """`eval` and `predict` retrieve from the documents `train` trained
    against, with its BM25 settings and K, and take no flag that could
    change them."""

    LABELS = LabelSpace.of_size(3)

    @staticmethod
    def provenance(out, texts, tmp_path, *flags):
        inp, prov = tmp_path / "in.txt", tmp_path / "prov.jsonl"
        inp.write_text("\n".join(texts) + "\n", encoding="utf-8")
        assert run(["predict", *serving(out), "--input", inp, "--provenance", prov, *flags]) == 0
        return [json.loads(line) for line in prov.read_text().splitlines()]

    def split(self, data_dir):
        return split_dev(load_dataset(data_dir / "train.csv", self.LABELS), SplitSpec(3, 0))

    def test_predict_retrieves_with_trained_k1(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, "--k1", "0.5",
                    "--out-dir", out]) == 0
        texts = ["c0w1 c0w2 f3", "c1w0 c1w3 f2", "c2w1 f0 f1 f5"]
        records = self.provenance(out, texts, tmp_path)
        index = build_index(self.split(data_dir)[0])
        want = [search_knn(index, tokenize(t), 2, params=Bm25Params(0.5, 0.75)) for t in texts]
        assert [[(n["doc_id"], n["bm25"]) for n in r["neighbors"]] for r in records] == \
            [list(ns.neighbors) for ns in want]
        assert want != [search_knn(index, tokenize(t), 2) for t in texts]
        # Serving takes no flag that could override the memory's settings.
        for flag, value in (("--k1", "2.0"), ("--b", "0.1"), ("--k", "4")):
            assert run(["predict", *serving(out), "--text", texts[0], flag, value]) == 1
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {flag} {value}" in err and "Traceback" not in err

    def test_default_memory_holds_no_dev_doc(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, "--out-dir", out]) == 0
        train_docs, dev_docs = self.split(data_dir)
        memory = load_memory(out / "memory.knn")
        assert [(d.id, d.label, d.tokens) for d in memory.docs.values()] == \
            [(d.id, d.label, d.tokens) for d in train_docs]
        records = self.provenance(out, [d.text for d in dev_docs], tmp_path)
        dev_ids = {d.id for d in dev_docs}
        assert all(r["neighbors"] for r in records)
        assert not any(n["doc_id"] in dev_ids for r in records for n in r["neighbors"])

    def test_low_resource_memory_is_the_subsample(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, "--setup", "low_resource",
                    "--low-resource-fraction", "0.5", "--out-dir", out]) == 0
        train_docs = self.split(data_dir)[0]
        kept = subsample(train_docs, LowResource(0.5), seed=0)
        assert len(kept) < len(train_docs)
        assert sorted(load_memory(out / "memory.knn").docs) == [d.id for d in kept]

    def test_transfer_serves_its_external_memory(self, data_dir, tmp_path):
        external, _ = make_separable_corpus(6, 2, seed=9)
        write_zhang_csv(tmp_path / "external.csv", external)
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, "--setup", "transfer",
                    "--external-csv", tmp_path / "external.csv", "--external-classes", "2",
                    "--out-dir", out]) == 0
        memory = load_memory(out / "memory.knn")
        assert memory.labels == LabelSpace.of_size(2)
        assert [d.tokens for d in memory.docs.values()] == [d.tokens for d in external]
        records = self.provenance(out, ["c0w1 c0w2 f3", "c2w1 c2w4 f0 f1"], tmp_path)
        labels = [n["label"] for r in records for n in r["neighbors"]]
        assert labels and all(0 <= y < 2 for y in labels)
        assert run(["eval", *serving(out), "--data", data_dir / "eval.csv",
                    "--out-dir", tmp_path / "eval"]) == 0

    def test_m1_serves_without_memory(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, "--preset", "M1",
                    "--out-dir", out]) == 0
        assert not (out / "memory.knn").exists()
        assert trainer.read_checkpoint(out / "model.ckpt").manifest["memory_sha256"] is None
        serve = ["--checkpoint", out / "model.ckpt"]
        assert run(["predict", *serve, "--text", "c0w1 f3"]) == 0
        assert run(["eval", *serve, "--data", data_dir / "eval.csv", "--out-dir", out / "eval"]) == 0


class TestServingFromArtifacts:
    """`model.ckpt` and `memory.knn` are the whole input of `eval` and `predict`."""

    OPTIONS = {
        "eval": {"--checkpoint", "--memory", "--data", "--out-dir"},
        "predict": {"--checkpoint", "--memory", "--text", "--input", "--provenance"},
    }
    REQUEST = {"eval": ["--data", "eval.csv"], "predict": ["--text", "c0w1"]}

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_serving_options_are_exactly_the_artifacts(self, command):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert options - {"-h", "--help"} == self.OPTIONS[command]

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_every_training_flag_is_refused(self, command, capsys):
        flags = ["--config", "--k", "--i", "--train", "--dev"]
        flags += ["--" + name.replace("_", "-") for name in _FIELDS]
        # eval keeps --out-dir, for eval.json
        for flag in sorted(set(flags) - self.OPTIONS[command]):
            code = run([command, "--checkpoint", "model.ckpt", *self.REQUEST[command], flag, "1"])
            err = capsys.readouterr().err
            assert code == 1, flag
            assert f"unrecognized arguments: {flag} 1" in err and "Traceback" not in err, flag

    def test_label_names_come_from_the_checkpoint(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST,
                    "--class-names", "World,Sports,Tech", "--out-dir", out]) == 0
        texts = ["c0w1 c0w2 f3", "c1w0 c1w3 f2", "c2w1 f0 f1 f5"]
        inp = tmp_path / "in.txt"
        inp.write_text("\n".join(texts) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", *serving(out), "--input", inp]) == 0
        printed = capsys.readouterr().out.split()
        assert len(printed) == 3 and set(printed) <= {"World", "Sports", "Tech"}
        assert run(["eval", *serving(out), "--data", data_dir / "eval.csv",
                    "--out-dir", out / "eval"]) == 0
        config = json.loads((out / "eval" / "eval.json").read_text())["config"]
        assert config["label_names"] == ["World", "Sports", "Tech"]
        # No serving flag can name the classes otherwise.
        for flag, value in (("--class-names", "A,B,C"), ("--classes", "3")):
            assert run(["predict", *serving(out), "--text", texts[0], flag, value]) == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["64", "32"])
    def test_eval_reproduces_the_train_report(self, data_dir, tmp_path, width):
        # The same tensors in the same batches, neighbours encoded with each batch.
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", "--dev", data_dir / "eval.csv",
                    *FAST, "--eval-batch-size", "4", "--float-width", width, "--out-dir", out]) == 0
        assert run(["eval", *serving(out), "--data", data_dir / "eval.csv",
                    "--out-dir", out / "eval"]) == 0
        report = json.loads((out / "train_report.json").read_text())
        payload = json.loads((out / "eval" / "eval.json").read_text())
        assert report["dev_size"] == payload["total"] == 9
        assert payload["accuracy"] == report["dev_accuracy"]
        assert payload["per_class_accuracy"] == report["per_class_accuracy"]
        assert payload["config"]["eval_batch_size"] == 4
        assert payload["config"]["float_width"] == int(width)


class TestNonUtf8Input:
    def test_training_csv(self, data_dir, tmp_path, capsys):
        blob = (data_dir / "train.csv").read_bytes()
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(blob + '"1","caf\xe9 c0w1",""\n'.encode("latin-1"))
        code = run(["train", "--train", bad, *FAST, "--out-dir", tmp_path / "run"])
        assert code == 2
        err = capsys.readouterr().err
        line = blob.count(b"\n") + 1
        assert f"{bad}: line {line} is not UTF-8" in err and "Traceback" not in err

    def test_embeddings_file(self, data_dir, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"c0w1 0.1 0.2 0.3 0.4\n\xff 0.1 0.2 0.3 0.4\n")
        code = run(["train", "--train", data_dir / "train.csv", *FAST, "--embeddings", vectors,
                    "--out-dir", tmp_path / "run"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{vectors}: line 2 is not UTF-8" in err and "Traceback" not in err


class TestSweep:
    def test_preset_axis_writes_table(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep-out"
        code = run(["sweep", "--train", data_dir / "train.csv", "--axis", "preset",
                    "--epochs", "1", *FAST[2:], "--out-dir", out])
        assert code == 0
        lines = (out / "sweep.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["axis"] == "preset"
        rows = [json.loads(line) for line in lines[1:]]
        assert [r["value"] for r in rows] == ["M1", "M2", "M3", "M4", "M5", "M6", "M7"]

    def test_k_axis_includes_zero(self, data_dir, tmp_path):
        out = tmp_path / "sweep-k"
        code = run(["sweep", "--train", data_dir / "train.csv", "--axis", "K",
                    "--max", "2", "--epochs", "1", *FAST[2:], "--out-dir", out])
        assert code == 0
        rows = [json.loads(line) for line in (out / "sweep.jsonl").read_text().splitlines()[1:]]
        assert [r["value"] for r in rows] == [0, 1, 2]

    def test_i_axis_zero_is_vanilla(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep-i"
        code = run(["sweep", "--train", data_dir / "train.csv", "--axis", "I",
                    "--max", "1", "--epochs", "1", *FAST[2:], "--out-dir", out])
        assert code == 0
        rows = [json.loads(line) for line in (out / "sweep.jsonl").read_text().splitlines()[1:]]
        assert [r["value"] for r in rows] == [0, 1]

    def test_refused_sweep_creates_no_output_directory(self, data_dir, tmp_path, capsys):
        out = tmp_path / "never"
        assert run(["sweep", "--train", data_dir / "train.csv", "--axis", "K", *FAST,
                    "--eval-batch-size", "0", "--out-dir", out]) == 1
        assert "eval_batch_size must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_max_is_usage_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep-neg"
        code = run(["sweep", "--train", data_dir / "train.csv", "--axis", "K", "--max", "-1",
                    *FAST, "--out-dir", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "--max must be >= 0, got -1" in err and "Traceback" not in err
        assert not (out / "sweep.jsonl").exists()


class TestConfigHandling:
    def test_config_file_with_overrides(self, data_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"classes": 3, "epochs": 1, "word_dim": 4,
                                   "char_dim": 3, "char_lstm_dim": 4, "hidden": 4,
                                   "dev_per_class": 3, "k_neighbors": 2,
                                   "perspectives": 2, "batch_size": 8}), encoding="utf-8")
        out = tmp_path / "out"
        code = run(["train", "--config", cfg, "--train", data_dir / "train.csv",
                    "--preset", "M1", "--out-dir", out])
        assert code == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["preset"] == "M1"
        assert report["config"]["epochs"] == 1

    def test_unknown_config_key_is_usage_error(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nonsense_key": 1}), encoding="utf-8")
        code = run(["train", "--config", cfg, "--train", data_dir / "train.csv"])
        assert code == 1
        assert "nonsense_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("threads", 2), ("mode", "vanilla_cosine"),
                                            ("self_exclude", False)],
                             ids=["threads", "mode", "self_exclude"])
    def test_removed_threads_key_is_usage_error(self, data_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"epochs": 1, key: value}), encoding="utf-8")
        code = run(["train", "--config", cfg, "--train", data_dir / "train.csv",
                    "--out-dir", tmp_path / "run"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"unknown config keys: {key}" in err and "Traceback" not in err
        flag = "--" + key.replace("_", "-")
        code = run(["train", flag, value, "--train", data_dir / "train.csv",
                    "--out-dir", tmp_path / "run"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err

    def test_malformed_config_json_is_usage_error(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"epochs": 1,', encoding="utf-8")
        code = run(["train", "--config", cfg, "--train", data_dir / "train.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert "malformed JSON" in err and "Traceback" not in err

    def test_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--epochs", "--lr", "--k-neighbors", "--preset", "--perspectives",
                     "--clip-norm", "--max-tokens", "--unbalanced-counts", "--float-width"):
            assert flag in text
        assert "default: 15" in text  # epochs default documented
        assert "0 is plain cosine" in " ".join(text.split())

    def test_training_csv_is_required(self, tmp_path, capsys):
        assert run(["train", "--out-dir", tmp_path]) == 1
        assert "training CSV is required" in capsys.readouterr().err

    def test_missing_training_csv_is_data_error(self, tmp_path, capsys):
        assert run(["train", "--train", tmp_path / "absent.csv", "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "absent.csv" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value, code", [
        ("--k1", "nan", 2), ("--k1", "inf", 2), ("--lr", "nan", 1), ("--clip-norm", "nan", 1),
    ])
    def test_non_finite_setting_is_refused(self, data_dir, tmp_path, capsys, flag, value, code):
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, flag, value,
                    "--out-dir", out]) == code
        err = capsys.readouterr().err
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite" in err and "Traceback" not in err
        assert not (out / "memory.knn").exists() and not (out / "model.ckpt").exists()

    def test_non_finite_value_in_training_exits_3(self, data_dir, tmp_path, capsys):
        # A finite but huge lr sends the weights to about 1e300 in the first
        # step; the next batch's projection overflows, and the LSTM check stops the run.
        code = run(["train", "--train", data_dir / "train.csv", *FAST, "--lr", "1e300",
                    "--out-dir", tmp_path / "run"])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite value at epoch 1, batch 1: lstm_sequence" in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("flag, value, code, match", [
        ("--eval-batch-size", "0", 1, "eval_batch_size must be >= 1"),
        ("--eval-batch-size", "-4", 1, "eval_batch_size must be >= 1"),
        ("--dev-per-class", "-3", 2, "dev_per_class must be >= 0, got -3"),
        ("--lr", "-0.01", 1, "lr must be > 0, got -0.01"),
        ("--lr", "0", 1, "lr must be > 0, got 0.0"),
        ("--clip-norm", "-1", 1, "clip_norm must be >= 0"),
    ])
    def test_count_below_range_is_refused(self, data_dir, tmp_path, capsys, flag, value,
                                          code, match):
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, flag, value,
                    "--out-dir", out]) == code
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, match", [
        (["--dev-per-class", "0"], "empty dev corpus"),
        (["--dev-per-class", "12"], "empty training corpus"),
        (["--setup", "low_resource", "--low-resource-fraction", "0.05"], "empty training corpus"),
    ], ids=["no-dev", "all-dev", "low-resource-empty"])
    def test_empty_split_is_refused_before_any_work(self, data_dir, tmp_path, capsys, flags,
                                                    match, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(trainer, "build_index", no_training)
        monkeypatch.setattr(trainer, "train", no_training)
        out = tmp_path / "run"
        assert run(["train", "--train", data_dir / "train.csv", *FAST, *flags,
                    "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("class_names", ["World", "Sports"]),
                                            ("train_csv", 7), ("preset", False)])
    def test_non_string_value_of_string_key_is_usage_error(self, data_dir, tmp_path, capsys,
                                                           key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        code = run(["train", "--config", cfg, "--train", data_dir / "train.csv",
                    "--out-dir", tmp_path / "run"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"key {key!r} expects a string" in err and "Traceback" not in err

    def test_unbalanced_counts_keeps_its_list_form(self):
        config = load_run_config(overrides={"unbalanced_counts": [3, 5], "class_names": None})
        assert config.unbalanced_tuple() == (3, 5) and config.class_names is None
        with pytest.raises(ConfigError, match="'eval_csv' expects a string"):
            load_run_config(overrides={"eval_csv": 7})

    def test_unknown_command_rejected(self, capsys):
        assert main(["bogus"]) == 1

    def test_index_command_is_gone(self, data_dir, tmp_path, capsys):
        # train writes the memory it trained against; nothing else builds one.
        assert run(["index", "--train", data_dir / "train.csv", "--out-dir", tmp_path]) == 1
        assert "invalid choice: 'index'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_serving_help_says_retrieval_comes_from_the_memory(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--memory" in text and "K from the memory" in text
        assert "label names and batch size come from the checkpoint" in text
        for flag in ("--k1", "--b ", "--k ", "--config", "--classes", "--float-width"):
            assert flag not in text
        args = {"eval": ["--data", "x.csv"], "predict": ["--text", "c0w1"]}[command]
        for flag in ("--k1", "--b", "--k"):
            assert run([command, "--checkpoint", "m.ckpt", *args, flag, "1"]) == 1
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {flag} 1" in err and "Traceback" not in err


class TestBm25ParamsReachTraining:
    def test_train_neighbors_use_k1_and_b(self, data_dir, tmp_path, monkeypatch):
        calls = []
        real = trainer.run_pipeline

        def spy(train_docs, dev_docs, *args, **kwargs):
            calls.append((train_docs, dev_docs, real(train_docs, dev_docs, *args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(trainer, "run_pipeline", spy)
        code = run(["train", "--train", data_dir / "train.csv", *FAST, "--epochs", "1",
                    "--k1", "0.5", "--b", "0.3", "--out-dir", tmp_path])
        assert code == 0
        (train_docs, dev_docs, result), = calls
        params = Bm25Params(k1=0.5, b=0.3)
        for d in train_docs:
            want = search_knn(result.index, d, 2, exclude_id=d.id, params=params)
            assert result.neighbors[d.id] == NeighborSet(d.id, want.neighbors)
        for d in dev_docs:
            assert result.neighbors[d.id] == search_knn(result.index, d, 2, params=params)
        assert any(result.neighbors[d.id] != search_knn(result.index, d, 2) for d in dev_docs)


class TestEmbeddingsFollowVocabulary:
    def test_non_numeric_component_is_data_error(self, data_dir, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("c0w2 0.1 0.2 0.3 0.4\nc0w1 0.1 abc 0.3 0.4\n", encoding="utf-8")
        code = run(["train", "--train", data_dir / "train.csv", *FAST, "--embeddings", vectors,
                    "--out-dir", tmp_path / "run"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{vectors}: line 2" in err and "Traceback" not in err

    def test_low_resource_train_keeps_file_vectors(self, data_dir, tmp_path):
        import numpy as np

        from knnmem.trainer import load_checkpoint, model_from_checkpoint

        docs, _ = make_separable_corpus(12, 3, seed=5)
        words = sorted({t for d in docs for t in d.tokens})
        rng = np.random.default_rng(4)
        vectors = {w: rng.normal(size=4) for w in words}
        path = tmp_path / "vectors.txt"
        path.write_text("".join(f"{w} {' '.join(repr(float(v)) for v in vec)}\n"
                                for w, vec in vectors.items()), encoding="utf-8")
        out = tmp_path / "run"
        code = run(["train", "--train", data_dir / "train.csv", *FAST, "--epochs", "1",
                    "--setup", "low_resource", "--low-resource-fraction", "0.3",
                    "--embeddings", path, "--out-dir", out])
        assert code == 0
        model = model_from_checkpoint(load_checkpoint(out / "model.ckpt"))
        vocab = model.encoder.vocab
        assert vocab.n_words < len(words) + 1
        table = model.encoder.params.word.tensor.data
        for word, row in vocab.word_to_id.items():
            assert np.array_equal(table[row], vectors[word]), word
