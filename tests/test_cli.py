import json
import struct

import numpy as np
import pytest

import knnmem.autodiff as ad
import knnmem.memory as memory
import knnmem.trainer as trainer
from knnmem.cli import main
from knnmem.corpus import Document, build_vocab
from knnmem.datagen import make_separable_corpus, write_zhang_csv
from knnmem.encoder import EncoderConfig, TextEncoder
from knnmem.retrieval import Bm25Params, NeighborSet, search_knn

FAST = ["--epochs", "2", "--lr", "0.01", "--batch-size", "8", "--k", "2",
        "--perspectives", "2", "--word-dim", "4", "--char-dim", "3",
        "--char-lstm-dim", "4", "--hidden", "4", "--dev-per-class", "3",
        "--classes", "3", "--eval-batch-size", "16"]


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


def rewrite_manifest(src, dst, change):
    """Copy a checkpoint file with its manifest replaced by ``change`` (bytes),
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
    def test_writes_artifacts_and_stats(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["index", "--train", data_dir / "train.csv", "--classes", "3",
                    "--k", "2", "--self-exclude", "--out-dir", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "docs" in captured.out and "terms" in captured.out and "avgdl" in captured.out
        for name in ("train.idx", "train.cache", "index.config.json"):
            assert (out / name).exists()

    def test_config_echo_holds_only_what_shaped_the_index(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert run(["index", "--train", data_dir / "train.csv", "--classes", "3",
                    "--k", "2", "--k1", "0.5", "--epochs", "3", "--out-dir", out]) == 0
        echo = json.loads((out / "index.config.json").read_text())
        assert echo == {"train_csv": str(data_dir / "train.csv"), "classes": 3,
                        "class_names": None}

    def test_writes_no_neighbor_cache(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert run(["index", "--train", data_dir / "train.csv", "--classes", "3",
                    "--out-dir", out]) == 0
        assert not (out / "train.nbr").exists()

    def test_rerun_is_identical(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["index", "--train", data_dir / "train.csv", "--classes", "3",
                        "--k", "2", "--out-dir", out]) == 0
        for name in ("train.idx", "train.cache"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_input_nonzero_exit_stderr(self, tmp_path, capsys):
        code = run(["index", "--train", tmp_path / "absent.csv", "--out-dir", tmp_path])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_required_argument(self, tmp_path, capsys):
        code = run(["index", "--out-dir", tmp_path])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTrainEvalPredict:
    @pytest.fixture(scope="class")
    def trained(self, data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("trained")
        code = run(["train", "--train", data_dir / "train.csv", *FAST, "--out-dir", out])
        assert code == 0
        code = run(["index", "--train", data_dir / "train.csv", "--classes", "3",
                    "--k", "2", "--word-dim", "4", "--out-dir", out])
        assert code == 0
        return out

    def test_train_artifacts(self, trained, capsys):
        assert (trained / "model.ckpt").exists()
        assert (trained / "metrics.jsonl").exists()
        assert (trained / "train_report.json").exists()
        lines = (trained / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3  # 2 epochs + summary
        summary = json.loads(lines[-1])["summary"]
        assert summary["config"]["preset"] == "M7"

    def test_eval_prints_accuracy(self, trained, data_dir, tmp_path, capsys):
        out = tmp_path / "eval-out"
        code = run(["eval", "--checkpoint", trained / "model.ckpt",
                    "--data", data_dir / "eval.csv",
                    "--train-cache", trained / "train.cache",
                    "--index", trained / "train.idx",
                    *FAST, "--out-dir", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "accuracy 0." in captured.out or "accuracy 1." in captured.out
        payload = json.loads((out / "eval.json").read_text())
        assert "confusion" in payload and "config" in payload

    def test_eval_class_mismatch_is_error(self, trained, data_dir, tmp_path, capsys):
        code = run(["eval", "--checkpoint", trained / "model.ckpt",
                    "--data", data_dir / "eval.csv",
                    "--train-cache", trained / "train.cache",
                    "--index", trained / "train.idx",
                    "--classes", "7", "--out-dir", tmp_path])
        assert code == 2
        assert "n_classes" in capsys.readouterr().err

    def test_predict_single_text(self, trained, capsys):
        code = run(["predict", "--checkpoint", trained / "model.ckpt",
                    "--train-cache", trained / "train.cache",
                    "--index", trained / "train.idx",
                    "--text", "c0w1 c0w2 f3", *FAST])
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
        common = ["--checkpoint", trained / "model.ckpt", "--train-cache", trained / "train.cache",
                  "--index", trained / "train.idx", *FAST]
        assert run(["eval", *common, "--data", data_dir / "eval.csv",
                    "--out-dir", tmp_path / "eval-out"]) == 0
        assert run(["predict", *common, "--text", "c0w1 c0w2 f3"]) == 0

    def test_predict_provenance_dump(self, trained, tmp_path, capsys):
        prov = tmp_path / "prov.jsonl"
        code = run(["predict", "--checkpoint", trained / "model.ckpt",
                    "--train-cache", trained / "train.cache",
                    "--index", trained / "train.idx",
                    "--text", "c1w0 c1w3 f2", "--provenance", prov, *FAST])
        assert code == 0
        record = json.loads(prov.read_text().splitlines()[0])
        assert record["gold"] is None
        assert record["neighbors"]
        assert {"doc_id", "bm25", "label", "attention"} <= set(record["neighbors"][0])

    def test_predict_ignores_serve_time_min_count(self, trained, capsys):
        # The checkpoint was trained with min_count=1; its stored vocabulary wins.
        code = run(["predict", "--checkpoint", trained / "model.ckpt",
                    "--train-cache", trained / "train.cache",
                    "--index", trained / "train.idx",
                    "--text", "c0w1 c0w2 f3", *FAST, "--min-count", "2"])
        assert code == 0

    def test_truncated_index_is_data_error(self, trained, tmp_path, capsys):
        blob = (trained / "train.idx").read_bytes()
        for cut in (4, 8, len(blob) // 2):
            bad = tmp_path / "cut.idx"
            bad.write_bytes(blob[: len(blob) - cut])
            code = run(["predict", "--checkpoint", trained / "model.ckpt",
                        "--train-cache", trained / "train.cache", "--index", bad,
                        "--text", "c0w1 c0w2 f3", *FAST])
            assert code == 2
            err = capsys.readouterr().err
            assert "truncated" in err and "Traceback" not in err

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
    ])
    def test_malformed_checkpoint_manifest_is_data_error(self, trained, tmp_path, capsys,
                                                         change, match):
        bad = tmp_path / "bad.ckpt"
        rewrite_manifest(trained / "model.ckpt", bad, change)
        with pytest.raises(trainer.CheckpointError, match=match):
            trainer.model_from_checkpoint(trainer.load_checkpoint(bad))
        code = run(["predict", "--checkpoint", bad,
                    "--train-cache", trained / "train.cache", "--index", trained / "train.idx",
                    "--text", "c0w1 c0w2 f3", *FAST])
        assert code == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    def test_non_integer_cache_id_is_data_error(self, trained, tmp_path, capsys):
        lines = (trained / "train.cache").read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "bad.cache"
        bad.write_text("\n".join(["x" + lines[0]] + lines[1:]) + "\n", encoding="utf-8")
        code = run(["predict", "--checkpoint", trained / "model.ckpt",
                    "--train-cache", bad, "--index", trained / "train.idx",
                    "--text", "c0w1 c0w2 f3", *FAST])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1: id and label" in err and "Traceback" not in err

    def test_predict_empty_input_is_error(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n", encoding="utf-8")
        code = run(["predict", "--checkpoint", trained / "model.ckpt",
                    "--train-cache", trained / "train.cache",
                    "--index", trained / "train.idx",
                    "--input", empty])
        assert code == 2

    def test_predict_requires_exactly_one_source(self, trained, capsys):
        code = run(["predict", "--checkpoint", trained / "model.ckpt",
                    "--train-cache", trained / "train.cache",
                    "--index", trained / "train.idx"])
        assert code == 1


class TestTrainReruns:
    def test_same_command_line_writes_identical_checkpoint(self, data_dir, tmp_path):
        # One out-dir for both runs: the config echo records it.
        args = ["train", "--train", data_dir / "train.csv", *FAST, "--out-dir", tmp_path]
        blobs = []
        for _ in range(2):
            assert run(args) == 0
            blobs.append((tmp_path / "model.ckpt").read_bytes())
        assert blobs[0] == blobs[1]


class TestFloat32Serving:
    @pytest.fixture
    def trained32(self, data_dir, tmp_path):
        try:
            assert run(["train", "--train", data_dir / "train.csv", *FAST,
                        "--float-width", "32", "--out-dir", tmp_path]) == 0
            assert run(["index", "--train", data_dir / "train.csv", "--classes", "3",
                        "--out-dir", tmp_path]) == 0
            yield tmp_path
        finally:
            ad.set_default_dtype(np.float64)

    def test_predict_and_eval_take_width_from_checkpoint(self, trained32, data_dir, capsys):
        serve = ["--checkpoint", trained32 / "model.ckpt",
                 "--train-cache", trained32 / "train.cache", "--index", trained32 / "train.idx",
                 *FAST]
        assert run(["predict", *serve, "--text", "c0w1 c0w2 f3"]) == 0
        assert capsys.readouterr().out.strip() in ("class_0", "class_1", "class_2")
        assert ad.get_default_dtype() == np.float64
        assert run(["eval", *serve, "--data", data_dir / "eval.csv",
                    "--out-dir", trained32 / "eval"]) == 0
        assert "accuracy" in capsys.readouterr().out
        assert json.loads((trained32 / "eval" / "eval.json").read_text())["config"]["float_width"] == 32
        # An explicit width does not override the checkpoint's either.
        assert run(["predict", *serve, "--float-width", "64", "--text", "c1w0 f2"]) == 0


    def test_library_call_after_float32_predict_runs_in_float64(self, trained32):
        assert run(["predict", "--checkpoint", trained32 / "model.ckpt",
                    "--train-cache", trained32 / "train.cache", "--index", trained32 / "train.idx",
                    *FAST, "--text", "c0w1 c0w2 f3"]) == 0
        vocab = build_vocab([Document(id=0, label=0, title="c0w1 f3", body="",
                                      tokens=("c0w1", "f3"))])
        encoder = TextEncoder.create(EncoderConfig(word_dim=4, char_dim=3, char_lstm_dim=4,
                                                   hidden=4), vocab, seed=0)
        assert encoder.encode_batch([["c0w1", "f3"]]).data.dtype == np.float64

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

    def test_removed_threads_key_is_usage_error(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"epochs": 1, "threads": 2}), encoding="utf-8")
        code = run(["index", "--config", cfg, "--train", data_dir / "train.csv",
                    "--out-dir", tmp_path / "run"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown config keys: threads" in err and "Traceback" not in err

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
                     "--self-exclude", "--clip-norm", "--max-tokens", "--unbalanced-counts",
                     "--float-width"):
            assert flag in text
        assert "default: 15" in text  # epochs default documented

    def test_unknown_command_rejected(self, capsys):
        assert main(["bogus"]) == 1


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
