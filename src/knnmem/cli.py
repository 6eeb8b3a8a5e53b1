"""Command-line surface: training, evaluation, prediction with provenance,
and ablation sweeps.

``train`` and ``sweep`` read one JSON config file (``--config``) whose keys
are the ``RunConfig`` fields; explicit flags override file values. Exit
codes: 0 success, 1 usage error, 2 data error, 3 numeric failure: a NaN or inf
in training (named with its epoch, batch and check) or an ``autodiff`` error.

``train`` writes one artifact, ``model.ckpt``: the checkpoint that
``run_pipeline`` returns, as it is. It holds the model's tensors,
vocabulary, float width and label names and, unless the preset retrieves
nothing, its memory: the documents it trained against (after the dev split
or subsample, or the external corpus) with their labels, label names, BM25
``k1``/``b`` and K. ``eval`` and ``predict`` serve from that file alone and
take no ``RunConfig`` flag, so they retrieve exactly as training did.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import AutodiffError
from .config import ConfigError, RunConfig, load_run_config, _FIELDS
from .corpus import (
    CorpusError,
    Document,
    LabelSpace,
    load_dataset,
    split_dev,
    tokenize,
    utf8_lines,
)
from .encoder import EncoderError
from .memory import PRESETS, ModelError
from .retrieval import Memory, RetrievalError, search_knn
from .trainer import (
    CheckpointError,
    NumericFailure,
    TrainingError,
    evaluate,
    load_checkpoint,
    model_from_checkpoint,
    predict_with_provenance,
    run_setup,
    save_checkpoint,
    write_provenance,
)


class UsageError(ValueError):
    """Bad command line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FLAG_ALIASES = {"k_neighbors": ["--k"], "perspectives": ["--i"],
                 "train_csv": ["--train"], "eval_csv": ["--dev"]}
_SERVING = ("The vocabulary, float width and label names come from the checkpoint, "
            "and so do the memory's documents, BM25 k1/b and K.")
_CHECKPOINT_HELP = "model.ckpt that train wrote"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON config file (RunConfig keys)")
    for name, spec in _FIELDS.items():
        flag = "--" + name.replace("_", "-")
        names = [flag] + _FLAG_ALIASES.get(name, [])
        help_text = f"{spec.metadata['help']} (default: {spec.default})"
        default = spec.default
        if isinstance(default, bool):
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {"type": type(default) if isinstance(default, (int, float)) else str}
        parser.add_argument(*names, dest=name, default=argparse.SUPPRESS, help=help_text, **kind)


def build_parser() -> _Parser:
    parser = _Parser(prog="knnmem",
                     description="Retrieval-augmented text classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = sub.add_parser("train",
                             help="train a model; save the best-on-dev checkpoint with its memory")
    _add_config_flags(p_train)

    # Serving takes no abbreviations, so that no training flag (--i, say) is read as one.
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a labeled CSV",
                            description=_SERVING, allow_abbrev=False)
    p_eval.add_argument("--checkpoint", required=True, metavar="FILE", help=_CHECKPOINT_HELP)
    p_eval.add_argument("--data", required=True, metavar="CSV", help="labeled evaluation CSV")
    p_eval.add_argument("--out-dir", default="runs", metavar="DIR",
                        help="directory for eval.json (default: runs)")

    p_pred = sub.add_parser("predict", description=_SERVING, allow_abbrev=False,
                            help="predict labels for raw text, optionally with provenance")
    p_pred.add_argument("--checkpoint", required=True, metavar="FILE", help=_CHECKPOINT_HELP)
    p_pred.add_argument("--text", metavar="TEXT", help="one text to classify")
    p_pred.add_argument("--input", metavar="FILE", help="file with one text per line")
    p_pred.add_argument("--provenance", metavar="FILE",
                        help="write per-input neighbor/attention records (JSON lines)")

    p_sweep = sub.add_parser("sweep",
                             help="train across an axis (K, I, or preset) and tabulate dev accuracy")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=["K", "I", "preset"])
    p_sweep.add_argument("--max", dest="axis_max", type=int, default=20,
                         help="largest K or I value (default: 20)")
    return parser


_COMMAND_KEYS = {"command", "config", "axis", "axis_max"}


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


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _blas() -> dict:
    """The BLAS build and the thread settings this process saw, recorded in
    ``train_report.json`` and ``eval.json``: a product's bytes can depend on
    both, so two artifacts that differ can be told apart."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"name": blas.get("name"), "version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpus": cpus}


def cmd_train(config: RunConfig) -> int:
    train_config, encoder_config = config.train_config(), config.encoder_config()
    train_docs, dev_docs, labels = _load_train_dev(config)
    external_docs = external_labels = None
    if config.setup in ("semi_supervised", "transfer"):
        if not config.external_csv:
            raise TrainingError(f"{config.setup} setup needs --external-csv")
        external_labels = config.external_label_space()
        external_docs = load_dataset(config.external_csv, external_labels)
    out = Path(config.out_dir)  # made by ``train``, after the splits are checked
    report, pipeline = run_setup(
        config.setup, train_docs, dev_docs, labels, train_config, encoder_config,
        external_docs=external_docs, external_label_space=external_labels,
        low_resource_fraction=config.low_resource_fraction,
        per_class_counts=config.unbalanced_tuple(),
        embeddings=config.embeddings,
        metrics_path=out / "metrics.jsonl",
        config_echo=config.echo(),
        bm25_params=config.bm25_params(),
    )
    save_checkpoint(out / "model.ckpt", pipeline.train_result.checkpoint)
    (out / "train_report.json").write_text(
        json.dumps(dict(report, blas=_blas()), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    for stats in pipeline.train_result.history:
        print(f"epoch {stats.epoch}: train_loss {stats.train_loss:.4f} "
              f"dev_accuracy {stats.dev_accuracy:.4f}")
    print(f"best epoch {pipeline.train_result.best_epoch} "
          f"dev_accuracy {pipeline.train_result.best_dev_accuracy:.4f}")
    print(f"wrote {out / 'model.ckpt'}, {out / 'metrics.jsonl'}, {out / 'train_report.json'}")
    return 0


def _restore(path: str) -> tuple:
    """The model with its vocabulary and float width, its memory (None for a
    preset without one) and label space, as ``run_pipeline`` attached them.
    Its memory bank encodes only the neighbours read; other keys are ignored."""
    checkpoint = load_checkpoint(path)
    try:
        names = checkpoint.manifest["label_names"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ValueError(f"label_names {names!r} is not a list of strings")
        labels = LabelSpace(tuple(names))
    except KeyError:
        raise CheckpointError(f"{path}: checkpoint records no label_names; serve the checkpoint "
                              "that run_pipeline returns or knnmem train writes") from None
    except ValueError as exc:  # a CorpusError from LabelSpace too
        raise CheckpointError(f"{path}: checkpoint {exc}; retrain to serve it") from None
    model = model_from_checkpoint(checkpoint)
    if labels.c != model.config.n_classes:
        raise CheckpointError(f"{path}: checkpoint records {labels.c} label_names for "
                              f"a model of n_classes {model.config.n_classes}; retrain to serve it")
    if checkpoint.memory is None and model.config.features.uses_memory:
        raise CheckpointError(f"{path}: preset {model.config.preset} retrieves neighbours, "
                              "but the checkpoint holds no memory; retrain to serve it")
    return model, checkpoint.memory, labels


def _with_neighbors(memory: Memory | None, docs: list[Document]) -> tuple:
    """``docs`` with ids past the memory's, their neighbours retrieved as in
    training, and the memory's documents."""
    if memory is None:
        return docs, None, None
    offset = int(memory.index.doc_ids[-1]) + 1
    docs = [dataclasses.replace(d, id=d.id + offset) for d in docs]
    neighbors = {d.id: search_knn(memory.index, d, memory.k, params=memory.params) for d in docs}
    return docs, neighbors, memory.docs


def cmd_eval(args: argparse.Namespace) -> int:
    model, memory, labels = _restore(args.checkpoint)
    eval_docs, neighbors, neighbor_docs = _with_neighbors(memory, load_dataset(args.data, labels))
    report = evaluate(model, eval_docs, neighbors, neighbor_docs)
    out = _out_dir(args.out_dir)
    served = {"float_width": 8 * model.classifier.W.data.itemsize,
              "label_names": list(labels.names)}
    if memory is not None:
        served.update(k1=memory.params.k1, b=memory.params.b, k_neighbors=memory.k)
    payload = {
        "accuracy": report.accuracy,
        "per_class_accuracy": report.per_class,
        "confusion": report.confusion.tolist(),
        "total": report.total,
        "config": served,
        "blas": _blas(),
    }
    (out / "eval.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                                   encoding="utf-8")
    print(f"accuracy {report.accuracy:.4f}")
    print("confusion (rows gold, columns predicted):")
    for row in report.confusion:
        print("  " + " ".join(f"{int(v):6d}" for v in row))
    print(f"wrote {out / 'eval.json'}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    if (args.text is None) == (args.input is None):
        raise UsageError("provide exactly one of --text or --input")
    if args.text is not None:
        texts = [("--text", args.text)]
    else:
        texts = [(f"{args.input}: line {n}", line.rstrip("\n"))
                 for n, line in enumerate(utf8_lines(args.input, CorpusError), start=1)]
    texts = [(where, text) for where, text in texts if text.strip()]
    if not texts:
        raise CorpusError("no input text to classify")
    docs = []
    for where, text in texts:
        tokens = tokenize(text)
        if not tokens:
            raise CorpusError(f"{where} has no tokens after tokenization")
        docs.append(Document(id=len(docs), label=0, title=text, body="", tokens=tuple(tokens)))
    model, memory, labels = _restore(args.checkpoint)
    docs, neighbors, neighbor_docs = _with_neighbors(memory, docs)
    records = predict_with_provenance(model, docs, neighbors, neighbor_docs, has_gold=False)
    # Provenance first, so that a run that cannot write it prints no label.
    if args.provenance:
        write_provenance(args.provenance, records)
    for record in records:
        print(labels.names[record["predicted"]])
    if args.provenance:
        print(f"wrote {args.provenance}", file=sys.stderr)
    return 0


def cmd_sweep(config: RunConfig, args: argparse.Namespace) -> int:
    if args.axis_max < 0:
        raise UsageError(f"--max must be >= 0, got {args.axis_max}")
    base, encoder_config = config.train_config(), config.encoder_config()
    train_docs, dev_docs, labels = _load_train_dev(config)
    axis = args.axis
    rows = []
    field = {"K": "k_neighbors", "I": "perspectives", "preset": "preset"}[axis]
    for value in tuple(PRESETS) if axis == "preset" else range(args.axis_max + 1):
        train_config = dataclasses.replace(base, **{field: value})
        report, _ = run_setup("full", train_docs, dev_docs, labels, train_config,
                              encoder_config, embeddings=config.embeddings,
                              bm25_params=config.bm25_params())
        rows.append({"axis": axis, "value": value, "dev_accuracy": report["dev_accuracy"],
                     "best_epoch": report["best_epoch"]})
        print(f"{axis}={value}: dev_accuracy {report['dev_accuracy']:.4f}")
    sweep_path = _out_dir(config.out_dir) / "sweep.jsonl"
    with sweep_path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config.echo(), "axis": args.axis}, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"wrote {sweep_path}")
    return 0


# The fused ops' finite checks report a NaN or inf as an error line and exit 3;
# numpy's floating-point warnings would only print source lines before it.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("eval", "predict"):
            return (cmd_eval if args.command == "eval" else cmd_predict)(args)
        config = load_run_config(args.config, {k: v for k, v in vars(args).items()
                                               if k not in _COMMAND_KEYS})
        return cmd_train(config) if args.command == "train" else cmd_sweep(config, args)
    except (UsageError, ConfigError, TrainingError, AutodiffError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (NumericFailure, AutodiffError)) else 1
    except (CorpusError, RetrievalError, CheckpointError, EncoderError, ModelError,
            FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
