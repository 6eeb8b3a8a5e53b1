"""Command-line surface: index building, training, evaluation, prediction
with provenance, and ablation sweeps.

Every command reads one JSON config file (``--config``) whose keys are the
``RunConfig`` fields; explicit flags override file values. Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure.

The checkpoint carries the training vocabulary and float width, so ``eval``
and ``predict`` serve with the word and char ids and the precision the
model was trained with, whatever their own ``--min-count`` and
``--float-width``; ``train.cache`` only supplies the memory corpus.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import AutodiffError
from .config import ConfigError, RunConfig, load_run_config, _FIELDS
from .corpus import (
    CorpusError,
    Document,
    LabelSpace,
    load_corpus_cache,
    load_dataset,
    save_corpus_cache,
    split_dev,
    tokenize,
)
from .encoder import EncoderError
from .memory import ModelError
from .retrieval import (
    RetrievalError,
    build_index,
    load_index,
    save_index,
    search_knn,
)
from .trainer import (
    CheckpointError,
    NumericFailure,
    TrainingError,
    evaluate,
    model_from_checkpoint,
    predict_with_provenance,
    read_checkpoint,
    run_setup,
    save_checkpoint,
    write_provenance,
)


class UsageError(ValueError):
    """Bad command line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FLAG_ALIASES = {"k_neighbors": ["--k"], "perspectives": ["--i"]}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON config file (RunConfig keys)")
    for name, spec in _FIELDS.items():
        flag = "--" + name.replace("_", "-")
        names = [flag] + _FLAG_ALIASES.get(name, [])
        help_text = f"{spec.metadata['help']} (default: {spec.default})"
        default = spec.default
        if isinstance(default, bool):
            parser.add_argument(*names, dest=name, action=argparse.BooleanOptionalAction,
                                default=argparse.SUPPRESS, help=help_text)
        elif isinstance(default, int):
            parser.add_argument(*names, dest=name, type=int,
                                default=argparse.SUPPRESS, help=help_text)
        elif isinstance(default, float):
            parser.add_argument(*names, dest=name, type=float,
                                default=argparse.SUPPRESS, help=help_text)
        else:
            parser.add_argument(*names, dest=name, type=str,
                                default=argparse.SUPPRESS, help=help_text)


def build_parser() -> _Parser:
    parser = _Parser(prog="knnmem",
                     description="Retrieval-augmented text classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_index = sub.add_parser("index",
                             help="build the BM25 index and the memory corpus cache")
    _add_config_flags(p_index)
    p_index.add_argument("--train", dest="train_csv_arg", metavar="CSV",
                         help="training CSV (alias for --train-csv)")

    p_train = sub.add_parser("train",
                             help="train a model and save the best-on-dev checkpoint")
    _add_config_flags(p_train)
    p_train.add_argument("--train", dest="train_csv_arg", metavar="CSV",
                         help="training CSV (alias for --train-csv)")
    p_train.add_argument("--dev", dest="eval_csv_arg", metavar="CSV",
                         help="dev CSV (alias for --eval-csv)")

    p_eval = sub.add_parser("eval",
                            help="evaluate a checkpoint on a labeled CSV")
    _add_config_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True, metavar="FILE")
    p_eval.add_argument("--data", required=True, metavar="CSV", help="labeled evaluation CSV")
    p_eval.add_argument("--train-cache", required=True, metavar="FILE",
                        help="memory corpus (neighbour documents) written by `index`")
    p_eval.add_argument("--index", required=True, metavar="FILE", help="index file written by `index`")

    p_pred = sub.add_parser("predict",
                            help="predict labels for raw text, optionally with provenance")
    _add_config_flags(p_pred)
    p_pred.add_argument("--checkpoint", required=True, metavar="FILE")
    p_pred.add_argument("--text", metavar="TEXT", help="one text to classify")
    p_pred.add_argument("--input", metavar="FILE", help="file with one text per line")
    p_pred.add_argument("--train-cache", required=True, metavar="FILE",
                        help="memory corpus (neighbour documents) written by `index`")
    p_pred.add_argument("--index", required=True, metavar="FILE")
    p_pred.add_argument("--provenance", metavar="FILE",
                        help="write per-input neighbor/attention records (JSON lines)")

    p_sweep = sub.add_parser("sweep",
                             help="train across an axis (K, I, or preset) and tabulate dev accuracy")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--train", dest="train_csv_arg", metavar="CSV")
    p_sweep.add_argument("--dev", dest="eval_csv_arg", metavar="CSV")
    p_sweep.add_argument("--axis", required=True, choices=["K", "I", "preset"])
    p_sweep.add_argument("--max", dest="axis_max", type=int, default=20,
                         help="largest K or I value (default: 20)")
    return parser


_COMMAND_KEYS = {"command", "config", "train_csv_arg", "eval_csv_arg", "checkpoint",
                 "data", "train_cache", "index", "text", "input", "provenance",
                 "axis", "axis_max"}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {k: v for k, v in vars(args).items() if k not in _COMMAND_KEYS}
    if getattr(args, "train_csv_arg", None):
        overrides["train_csv"] = args.train_csv_arg
    if getattr(args, "eval_csv_arg", None):
        overrides["eval_csv"] = args.eval_csv_arg
    config = load_run_config(getattr(args, "config", None), overrides)
    ad.set_default_dtype(np.float64 if config.float_width == 64 else np.float32)
    return config


def _load_train_dev(config: RunConfig) -> tuple[list[Document], list[Document], LabelSpace]:
    if not config.train_csv:
        raise UsageError("a training CSV is required (--train or --train-csv)")
    labels = config.label_space()
    train_docs = load_dataset(config.train_csv, labels)
    if config.eval_csv:
        dev_raw = load_dataset(config.eval_csv, labels)
        offset = max(d.id for d in train_docs) + 1
        dev_docs = [dataclasses.replace(d, id=d.id + offset) for d in dev_raw]
    else:
        train_docs, dev_docs = split_dev(train_docs, config.split_spec())
    return train_docs, dev_docs, labels


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_index(config: RunConfig) -> int:
    if not config.train_csv:
        raise UsageError("a training CSV is required (--train or --train-csv)")
    labels = config.label_space()
    docs = load_dataset(config.train_csv, labels)
    index = build_index(docs)
    out = _out_dir(config)
    save_index(out / "train.idx", index)
    save_corpus_cache(out / "train.cache", docs)
    # Only these settings shaped train.idx and train.cache.
    shaped = {k: getattr(config, k) for k in ("train_csv", "classes", "class_names")}
    (out / "index.config.json").write_text(
        json.dumps(shaped, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"indexed {index.n_docs} docs, {len(index.terms)} terms, avgdl {index.avg_doc_len:.2f}")
    print(f"wrote {out / 'train.idx'}, {out / 'train.cache'}")
    return 0


def cmd_train(config: RunConfig) -> int:
    train_docs, dev_docs, labels = _load_train_dev(config)
    out = _out_dir(config)
    external_docs = None
    external_labels = None
    if config.setup in ("semi_supervised", "transfer"):
        if not config.external_csv:
            raise TrainingError(f"{config.setup} setup needs --external-csv")
        external_labels = config.external_label_space()
        external_docs = load_dataset(config.external_csv, external_labels)
    report = run_setup(
        config.setup, train_docs, dev_docs, labels, config.train_config(),
        config.encoder_config(),
        external_docs=external_docs, external_label_space=external_labels,
        low_resource_fraction=config.low_resource_fraction,
        per_class_counts=config.unbalanced_tuple(),
        embeddings=config.embeddings,
        metrics_path=out / "metrics.jsonl",
        config_echo=config.echo(),
        bm25_params=config.bm25_params(),
    )
    pipeline = report.pop("_pipeline")
    save_checkpoint(out / "model.ckpt", pipeline.train_result.checkpoint)
    (out / "train_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    for stats in pipeline.train_result.history:
        print(f"epoch {stats.epoch}: train_loss {stats.train_loss:.4f} "
              f"dev_accuracy {stats.dev_accuracy:.4f}")
    print(f"best epoch {pipeline.train_result.best_epoch} "
          f"dev_accuracy {pipeline.train_result.best_dev_accuracy:.4f}")
    print(f"wrote {out / 'model.ckpt'}, {out / 'metrics.jsonl'}, {out / 'train_report.json'}")
    return 0


def _restore(args: argparse.Namespace, labels: LabelSpace):
    """Model with its own training vocabulary and float width, index, and
    memory corpus by doc id. The model has no memory bank: a process serves
    one request set, so a bank would encode whole blocks of the memory that
    no later request reuses, where the batch encodes only the neighbours
    it needs."""
    checkpoint = read_checkpoint(args.checkpoint)
    ad.set_default_dtype(np.float32 if checkpoint.manifest["float_bytes"] == 4 else np.float64)
    model = model_from_checkpoint(checkpoint, expected_classes=labels.c)
    model.bank = None
    index = load_index(args.index)
    neighbor_docs = {d.id: d for d in load_corpus_cache(args.train_cache)}
    return model, index, neighbor_docs


def cmd_eval(config: RunConfig, args: argparse.Namespace) -> int:
    labels = config.label_space()
    model, index, neighbor_docs = _restore(args, labels)
    eval_raw = load_dataset(args.data, labels)
    offset = max(neighbor_docs) + 1
    eval_docs = [dataclasses.replace(d, id=d.id + offset) for d in eval_raw]
    neighbors = None
    if model.config.features.uses_memory:
        neighbors = {d.id: search_knn(index, d, config.k_neighbors, params=config.bm25_params())
                     for d in eval_docs}
    report = evaluate(model, eval_docs, neighbors, neighbor_docs,
                      batch_size=config.eval_batch_size)
    out = _out_dir(config)
    payload = {
        "accuracy": report.accuracy,
        "per_class_accuracy": report.per_class,
        "confusion": report.confusion.tolist(),
        "total": report.total,
        # The width served at is the checkpoint's, not --float-width.
        "config": {**config.echo(), "float_width": 8 * np.dtype(ad.get_default_dtype()).itemsize},
    }
    (out / "eval.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                                   encoding="utf-8")
    print(f"accuracy {report.accuracy:.4f}")
    print("confusion (rows gold, columns predicted):")
    for row in report.confusion:
        print("  " + " ".join(f"{int(v):6d}" for v in row))
    print(f"wrote {out / 'eval.json'}")
    return 0


def cmd_predict(config: RunConfig, args: argparse.Namespace) -> int:
    if bool(args.text) == bool(args.input):
        raise UsageError("provide exactly one of --text or --input")
    texts = [args.text] if args.text else Path(args.input).read_text(encoding="utf-8").splitlines()
    texts = [t for t in texts if t.strip()]
    if not texts:
        raise CorpusError("no input text to classify")
    labels = config.label_space()
    model, index, neighbor_docs = _restore(args, labels)
    offset = max(neighbor_docs) + 1
    docs = []
    for i, text in enumerate(texts):
        tokens = tokenize(text)
        if not tokens:
            raise CorpusError(f"input {i + 1} has no tokens after tokenization")
        docs.append(Document(id=offset + i, label=0, title=text, body="", tokens=tuple(tokens)))
    neighbors = None
    if model.config.features.uses_memory:
        neighbors = {d.id: search_knn(index, d, config.k_neighbors, params=config.bm25_params())
                     for d in docs}
    records = predict_with_provenance(model, docs, neighbors, neighbor_docs,
                                      batch_size=config.eval_batch_size, has_gold=False)
    for record in records:
        print(labels.names[record["predicted"]])
    if args.provenance:
        write_provenance(args.provenance, records)
        print(f"wrote {args.provenance}", file=sys.stderr)
    return 0


def cmd_sweep(config: RunConfig, args: argparse.Namespace) -> int:
    train_docs, dev_docs, labels = _load_train_dev(config)
    out = _out_dir(config)
    if args.axis == "K":
        values = [("K", k) for k in range(0, args.axis_max + 1)]
    elif args.axis == "I":
        values = [("I", i) for i in range(0, args.axis_max + 1)]
    else:
        values = [("preset", name) for name in ("M1", "M2", "M3", "M4", "M5", "M6", "M7")]
    rows = []
    base = config.train_config()
    for axis, value in values:
        if axis == "K":
            train_config = dataclasses.replace(base, k_neighbors=value)
        elif axis == "I":
            if value == 0:
                train_config = dataclasses.replace(base, mode="vanilla_cosine", perspectives=1)
            else:
                train_config = dataclasses.replace(base, mode="multi_perspective",
                                                   perspectives=value)
        else:
            train_config = dataclasses.replace(base, preset=value)
        report = run_setup("full", train_docs, dev_docs, labels, train_config,
                           config.encoder_config(), embeddings=config.embeddings,
                           bm25_params=config.bm25_params())
        report.pop("_pipeline")
        row = {"axis": axis, "value": value, "dev_accuracy": report["dev_accuracy"],
               "best_epoch": report["best_epoch"]}
        rows.append(row)
        print(f"{axis}={value}: dev_accuracy {report['dev_accuracy']:.4f}")
    sweep_path = out / "sweep.jsonl"
    with sweep_path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config.echo(), "axis": args.axis}, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"wrote {sweep_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    # Commands set the process-wide float width; an in-process caller gets its own back.
    dtype = ad.get_default_dtype()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if args.command == "index":
            return cmd_index(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            return cmd_eval(config, args)
        if args.command == "predict":
            return cmd_predict(config, args)
        if args.command == "sweep":
            return cmd_sweep(config, args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ConfigError, TrainingError) as exc:
        if isinstance(exc, NumericFailure):
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CorpusError, RetrievalError, CheckpointError, EncoderError, ModelError,
            FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AutodiffError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        ad.set_default_dtype(dtype)


if __name__ == "__main__":
    sys.exit(main())
