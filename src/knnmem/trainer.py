"""Training loop with Adam, per-epoch dev evaluation, best-on-dev selection,
checkpointing, and the full/low-resource/unbalanced/semi-supervised/transfer
experimental setups.

Dev and test neighbors are always retrieved from the training-side index;
training-time retrieval from the training corpus itself excludes the query
document.
"""

from __future__ import annotations

import dataclasses
import json
import math
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .artifact import read_artifact, write_artifact
from .autodiff import Adam, Tape, Tensor, clip_global_norm, zero_grads
from .corpus import (
    Document,
    LabelSpace,
    LowResource,
    Unbalanced,
    Vocabulary,
    build_vocab,
    subsample,
)
from .encoder import EncoderConfig, load_pretrained_embeddings
from .memory import KnnTextModel, ModelConfig, preset
from .retrieval import (
    Bm25Params,
    Memory,
    NeighborSet,
    RetrievalError,
    build_index,
    memory_manifest,
    memory_reader,
    precompute_neighbors,
    search_knn,
)

_CKPT_MAGIC = b"KNNTXT02"
_FLOATS_BY_WIDTH = {4: "<f4", 8: "<f8"}

SETUPS = ("full", "low_resource", "unbalanced", "semi_supervised", "transfer")


class TrainingError(ValueError):
    """Unusable training request (bad config, missing corpus, unknown setup)."""


class NumericFailure(TrainingError):
    """Training aborted on a non-finite value, at the epoch and batch named."""


class CheckpointError(ValueError):
    """Corrupt checkpoint file or checkpoint/corpus mismatch."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    lr: float = 1e-4
    batch_size: int = 32
    k_neighbors: int = 5
    perspectives: int = 5  # I; 0 is plain cosine
    seed: int = 0
    preset: str = "M7"
    clip_norm: float = 5.0
    min_count: int = 1
    float_width: int = 64  # the model's, 64 or 32 bits

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.min_count < 1:
            raise TrainingError(f"min_count must be >= 1, got {self.min_count}")
        if self.k_neighbors < 0:
            raise TrainingError("k_neighbors must be >= 0")
        if self.perspectives < 0:
            raise TrainingError("perspectives must be >= 0")
        if self.seed < 0:
            raise TrainingError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.lr):
            raise TrainingError(f"lr must be finite, got {self.lr}")
        if not math.isfinite(self.clip_norm):
            raise TrainingError(f"clip_norm must be finite, got {self.clip_norm}")
        if self.lr <= 0.0:
            raise TrainingError(f"lr must be > 0, got {self.lr}")
        if self.clip_norm < 0.0:
            raise TrainingError(f"clip_norm must be >= 0 (0 disables clipping), got {self.clip_norm}")
        if self.float_width not in (32, 64):
            raise TrainingError(f"float_width must be 32 or 64, got {self.float_width}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_accuracy: float
    grad_norm_mean: float
    grad_norm_max: float
    clip_rate: float


@dataclass
class EvalReport:
    accuracy: float
    per_class: list[float]
    confusion: np.ndarray  # rows gold, columns predicted
    total: int


@dataclass
class Checkpoint:
    manifest: dict
    tensors: dict[str, np.ndarray]
    memory: Memory | None = None  # what the model retrieves from; None without retrieval

    @property
    def epoch(self) -> int:
        return self.manifest["epoch"]

    @property
    def dev_accuracy(self) -> float:
        return self.manifest["dev_accuracy"]


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[EpochStats]
    dev_report: EvalReport  # the dev evaluation of the checkpoint's epoch

    @property
    def best_epoch(self) -> int:
        return self.checkpoint.epoch

    @property
    def best_dev_accuracy(self) -> float:
        return self.checkpoint.dev_accuracy


def make_checkpoint(model: KnnTextModel, vocab: Vocabulary, epoch: int,
                    dev_accuracy: float, config_echo: dict | None = None) -> Checkpoint:
    cfg = model.config
    tensors = {name: p.data.copy() for name, p in model.named_params().items()}
    for t in tensors.values():  # ``model_from_checkpoint`` makes them parameter arrays
        t.flags.writeable = False
    manifest = {
        "format": "knnmem-checkpoint",
        "model": {
            "preset": cfg.preset,
            "perspectives": cfg.perspectives,
            "n_classes": cfg.n_classes,
            "neighbor_classes": cfg.neighbor_classes,
            "encoder": dataclasses.asdict(cfg.encoder),
        },
        "vocab": {
            "word_hash": vocab.word_hash(),
            "char_hash": vocab.char_hash(),
            "n_words": vocab.n_words,
            "n_chars": vocab.n_chars,
            "words": sorted(vocab.word_to_id, key=vocab.word_to_id.__getitem__),
            "chars": sorted(vocab.char_to_id, key=vocab.char_to_id.__getitem__),
        },
        "epoch": epoch,
        "dev_accuracy": dev_accuracy,
        "config_echo": config_echo or {},
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in tensors.items()],
    }
    return Checkpoint(manifest=manifest, tensors=tensors)


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    """Checkpoint file: an ``artifact`` container whose body is every tensor,
    in manifest order, as little-endian floats of their one width (float64
    for none), which the manifest records as ``float_bytes``; then an
    attached memory's term ids, whose other fields (``retrieval.memory_manifest``)
    are the manifest's ``"memory"`` object, apart from the model's own label
    names. Tensors of two widths, or a memory that is not its index's, raise
    ``CheckpointError``, and nothing is written."""
    names = [spec["name"] for spec in checkpoint.manifest["tensors"]]
    dtype = checkpoint.tensors[names[0]].dtype if names else np.dtype(np.float64)
    for name in names:
        if checkpoint.tensors[name].dtype != dtype or dtype.char not in "fd":
            raise CheckpointError(f"{path}: tensor {name} is {checkpoint.tensors[name].dtype}, "
                                  f"{names[0]} {dtype}: a checkpoint is float32 or float64")
    manifest = {**checkpoint.manifest, "float_bytes": dtype.itemsize}
    parts = [np.ascontiguousarray(checkpoint.tensors[name], dtype=_FLOATS_BY_WIDTH[dtype.itemsize])
             for name in names]
    if checkpoint.memory is not None:
        try:
            manifest["memory"], term_ids = memory_manifest(checkpoint.memory)
        except RetrievalError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        parts.append(term_ids)
    write_artifact(path, _CKPT_MAGIC, manifest, parts)


def _checkpoint_reader(manifest) -> tuple[Callable[[bytes], Checkpoint], int]:
    """``read_artifact``'s parse of a ``save_checkpoint`` manifest."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest is not a JSON object")
    width = manifest["float_bytes"]
    if type(width) is not int or width not in _FLOATS_BY_WIDTH:
        raise ValueError(f"unknown float width {width!r}")
    specs = []
    for spec in manifest["tensors"]:
        name, shape = spec["name"], spec["shape"]
        if not isinstance(name, str):
            raise ValueError(f"tensor name {name!r} is not a string")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"tensor {name} shape {shape!r} is not a list of integers >= 0")
        specs.append((name, tuple(shape)))
    memory = manifest.pop("memory", None)
    try:
        read_memory, memory_bytes = (None, 0) if memory is None else memory_reader(memory)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"memory {exc}") from None

    def build(body: bytes) -> Checkpoint:
        tensors, offset = {}, 0
        for name, shape in specs:
            count = math.prod(shape)
            tensors[name] = np.frombuffer(body, dtype=_FLOATS_BY_WIDTH[width], count=count,
                                          offset=offset).reshape(shape)
            offset += count * width
        return Checkpoint(manifest, tensors, read_memory and read_memory(memoryview(body)[offset:]))

    return build, width * sum(math.prod(shape) for _, shape in specs) + memory_bytes


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a ``save_checkpoint`` file at the float width it was written
    with (its manifest's ``float_bytes``), whatever else the process holds,
    and its memory, if any, as ``Checkpoint.memory``; a short, overlong or
    malformed part of it raises ``CheckpointError``. Each tensor is a
    read-only view of the file's body."""
    return read_artifact(path, _CKPT_MAGIC, CheckpointError, _checkpoint_reader,
                         kind="checkpoint", body_name="tensor data")


def model_from_checkpoint(checkpoint: Checkpoint, vocab: Vocabulary | None = None,
                          expected_classes: int | None = None) -> KnnTextModel:
    """Rebuild the trained model. Without ``vocab`` the vocabulary is the one
    stored in the manifest; either way it must match the stored hashes. A
    manifest that lacks a field (the stored word and char lists included) or
    holds one of the wrong type, or a NaN or inf tensor, raises
    ``CheckpointError``, and so does a tensor of another float width than
    ``word_emb``. The model takes the stored width, and each checkpoint
    tensor becomes the parameter array itself, without a copy, so the
    parameter arrays are read-only: an in-place write (or ``grad_check``)
    raises until ``.data`` is rebound, as ``Adam.step`` does. Which tensors
    train is not stored: it is ``KnnTextModel.create``'s."""
    manifest = checkpoint.manifest
    try:
        vc, mc = manifest["vocab"], manifest["model"]
        word_hash, char_hash = vc["word_hash"], vc["char_hash"]
        words, chars = vc["words"], vc["chars"]
        if vocab is None:
            vocab = Vocabulary(
                word_to_id={t: i for i, t in enumerate(words, start=1)},
                char_to_id={c: i for i, c in enumerate(chars, start=1)},
            )
        config = ModelConfig(
            encoder=EncoderConfig(**mc["encoder"]),
            preset=mc["preset"],
            perspectives=mc["perspectives"],
            n_classes=mc["n_classes"],
            neighbor_classes=mc["neighbor_classes"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint manifest: {exc}") from None
    if word_hash != vocab.word_hash():
        raise CheckpointError("word vocabulary hash mismatch")
    if char_hash != vocab.char_hash():
        raise CheckpointError("char vocabulary hash mismatch")
    if expected_classes is not None and expected_classes != config.n_classes:
        raise CheckpointError(
            f"n_classes mismatch: checkpoint has {config.n_classes}, expected {expected_classes}"
        )
    stored = checkpoint.tensors.get("word_emb")
    want = (vocab.n_words, config.encoder.word_dim)
    if stored is None or stored.shape != want:
        got = "missing" if stored is None else f"shape {list(stored.shape)}"
        raise CheckpointError(f"checkpoint word_emb is {got}; expected shape {list(want)}")
    # The stored table stands in for the random one, which would only be overwritten.
    word_emb = Tensor(stored, name="word_emb")
    model = KnnTextModel.create(config, vocab, seed=None, word_emb=word_emb, dtype=stored.dtype)
    params = model.named_params()
    missing = params.keys() - {spec["name"] for spec in manifest["tensors"]}
    if missing:
        raise CheckpointError(f"checkpoint has no tensor for {', '.join(sorted(missing))}")
    for spec in manifest["tensors"]:
        name = spec["name"]
        if name not in params:
            raise CheckpointError(f"checkpoint tensor {name} has no slot in the model")
        if tuple(spec["shape"]) != params[name].data.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: manifest {spec['shape']} vs model {params[name].data.shape}"
            )
        tensor = checkpoint.tensors[name]
        if tensor.dtype != stored.dtype:
            raise CheckpointError(f"checkpoint tensor {name} is {tensor.dtype}, word_emb {stored.dtype}")
        if not np.isfinite(tensor).all():
            raise CheckpointError(f"checkpoint tensor {name} holds a non-finite value")
        if params[name] is not word_emb:  # word_emb holds its array already
            params[name].data = tensor
    return model


def evaluate(model: KnnTextModel, docs: Sequence[Document],
             neighbors: Mapping[int, NeighborSet] | None,
             neighbor_docs: Mapping[int, Document] | None,
             batch_size: int = 64) -> EvalReport:
    """Accuracy, per-class accuracy, and gold-by-predicted confusion matrix."""
    if not docs:
        raise TrainingError("cannot evaluate on an empty corpus")
    c = model.config.n_classes
    if any(not 0 <= doc.label < c for doc in docs):
        raise TrainingError(f"a gold label lies outside the model's {c} classes")
    confusion = np.zeros((c, c), dtype=np.int64)
    for start in range(0, len(docs), batch_size):
        batch = docs[start:start + batch_size]
        result = model.forward_batch(batch, neighbors, neighbor_docs)
        for doc, pred in zip(batch, result.predictions):
            confusion[doc.label, pred] += 1
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total
    support = confusion.sum(axis=1)
    per_class = [
        float(confusion[i, i]) / int(support[i]) if support[i] else 0.0 for i in range(c)
    ]
    return EvalReport(accuracy=accuracy, per_class=per_class, confusion=confusion, total=total)


def predict_with_provenance(model: KnnTextModel, docs: Sequence[Document],
                            neighbors: Mapping[int, NeighborSet] | None,
                            neighbor_docs: Mapping[int, Document] | None,
                            batch_size: int = 64, has_gold: bool = True) -> list[dict]:
    """One record per input: predicted/gold labels, probabilities, and the
    neighbor ids, BM25 scores, labels and per-perspective attentions (none
    for a preset without memory)."""
    records = []
    for start in range(0, len(docs), batch_size):
        batch = docs[start:start + batch_size]
        result = model.forward_batch(batch, neighbors, neighbor_docs)
        uses_memory = result.attention is not None
        attention = result.attention.tolist() if uses_memory else []
        pair = 0
        for pos, doc in enumerate(batch):
            listed = neighbors[doc.id].neighbors if uses_memory else ()
            records.append({
                "id": doc.id,
                "gold": doc.label if has_gold else None,
                "predicted": int(result.predictions[pos]),
                "probabilities": [float(p) for p in result.probabilities[pos]],
                "neighbors": [
                    {
                        "doc_id": nbr_id,
                        "bm25": score,
                        "label": neighbor_docs[nbr_id].label,
                        "attention": attention[pair + j],
                    }
                    for j, (nbr_id, score) in enumerate(listed)
                ],
            })
            pair += len(listed)
    return records


def write_provenance(path: str | Path, records: Sequence[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def train(model: KnnTextModel, train_docs: Sequence[Document], dev_docs: Sequence[Document],
          neighbors: Mapping[int, NeighborSet] | None,
          neighbor_docs: Mapping[int, Document] | None,
          config: TrainConfig, vocab: Vocabulary,
          metrics_path: str | Path | None = None,
          config_echo: dict | None = None) -> TrainResult:
    """Run exactly ``config.epochs`` passes with per-epoch seeded reshuffles,
    evaluate on dev after each epoch, and return the best-on-dev checkpoint
    (earliest epoch wins ties) with that epoch's dev report. The checkpoint
    holds no memory and no label names: ``run_pipeline`` attaches them.

    The global gradient norm is measured before clipping on every step, also
    when ``clip_norm`` is 0 and nothing is clipped; each epoch records its
    mean, its max and the share of steps that were clipped. ``model.bank`` is
    ``None`` while it runs, so the dev evaluation encodes each batch's
    neighbors with it, as the training steps do, and builds no memory bank
    for weights that change every epoch. A non-finite value raises
    ``NumericFailure``, naming the epoch and the batch or dev evaluation."""
    if not train_docs:
        raise TrainingError("empty training corpus")
    params = model.named_params()
    trainable = [p for p in params.values() if p.requires_grad]
    optimizer = Adam(params, lr=config.lr)
    if neighbors is not None:
        neighbors = {doc_id: ns.top(config.k_neighbors) for doc_id, ns in neighbors.items()}
    rng = np.random.default_rng([config.seed, zlib.crc32(b"epoch-shuffle")])
    history: list[EpochStats] = []
    best: Checkpoint | None = None
    best_report: EvalReport | None = None
    if metrics_path:
        Path(metrics_path).parent.mkdir(parents=True, exist_ok=True)
    metrics_fh = Path(metrics_path).open("w", encoding="utf-8") if metrics_path else None
    bank, model.bank = model.bank, None
    try:
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(len(train_docs))
            loss_sum = 0.0
            grad_norms: list[float] = []
            for batch_index, start in enumerate(range(0, len(train_docs), config.batch_size)):
                where = f"epoch {epoch}, batch {batch_index}"
                batch = [train_docs[i] for i in order[start:start + config.batch_size]]
                zero_grads(params.values())
                with Tape() as tape:
                    result = model.forward_batch(batch, neighbors, neighbor_docs)
                tape.backward(result.loss)
                grad_norms.append(clip_global_norm(trainable, config.clip_norm))
                optimizer.step()
                loss_sum += float(result.loss.data) * len(batch)
            where = f"epoch {epoch}, dev evaluation"
            dev_report = evaluate(model, dev_docs, neighbors, neighbor_docs)
            clipped = sum(n > config.clip_norm for n in grad_norms) if config.clip_norm > 0 else 0
            stats = EpochStats(
                epoch=epoch, train_loss=loss_sum / len(train_docs), dev_accuracy=dev_report.accuracy,
                grad_norm_mean=math.fsum(grad_norms) / len(grad_norms),
                grad_norm_max=max(grad_norms), clip_rate=clipped / len(grad_norms),
            )
            history.append(stats)
            if metrics_fh:
                metrics_fh.write(json.dumps(dataclasses.asdict(stats), sort_keys=True) + "\n")
                metrics_fh.flush()
            if best is None or dev_report.accuracy > best.dev_accuracy:
                best = make_checkpoint(model, vocab, epoch, dev_report.accuracy, config_echo)
                best_report = dev_report
        if metrics_fh:
            metrics_fh.write(json.dumps({
                "summary": {
                    "best_epoch": best.epoch,
                    "best_dev_accuracy": best.dev_accuracy,
                    "epochs": config.epochs,
                    "config": config_echo or {},
                }
            }, sort_keys=True) + "\n")
    except ad.NonFiniteError as exc:
        raise NumericFailure(f"non-finite value at {where}: {exc}") from None
    finally:
        model.bank = bank
        if metrics_fh:
            metrics_fh.close()
    return TrainResult(checkpoint=best, history=history, dev_report=best_report)


@dataclass
class PipelineResult:
    train_result: TrainResult
    dev_report: EvalReport
    model: KnnTextModel
    vocab: Vocabulary
    neighbors: dict[int, NeighborSet] | None  # the training and dev documents' neighbours


def run_pipeline(train_docs: Sequence[Document], dev_docs: Sequence[Document],
                 label_space: LabelSpace, config: TrainConfig,
                 encoder_config: EncoderConfig, *,
                 embeddings: str | Path | None = None,
                 external_docs: Sequence[Document] | None = None,
                 external_label_space: LabelSpace | None = None,
                 metrics_path: str | Path | None = None,
                 config_echo: dict | None = None,
                 bm25_params: Bm25Params = Bm25Params()) -> PipelineResult:
    """Index, retrieve, build, train, and evaluate in one pass.

    Neighbors come from ``external_docs`` when given (semi-supervised or
    transfer setups), otherwise from the training corpus itself, ranked
    with ``bm25_params``. Word vectors from the ``embeddings`` file are
    loaded against the vocabulary built here from ``train_docs``, and the
    file's width sets ``word_dim``. ``model`` is the best checkpoint
    reloaded, with bit-identical parameters. The dev report is the one
    ``train`` computed for that checkpoint's epoch, with each batch's
    neighbours encoded in the batch, and equals ``evaluate(model, ...)``,
    which reads them from the model's memory bank, exactly: a row's bytes do
    not depend on the batch that encoded it. The checkpoint is the one to
    serve: it carries the ``label_space`` names and, unless the preset
    retrieves nothing, the ``Memory`` trained against, with its declared
    label space, ``bm25_params`` and ``config.k_neighbors``. Refused: an
    empty split, an id that two training or dev documents share (neighbours
    are kept by id), and ``external_docs`` without ``external_label_space``.
    """
    if not train_docs:
        raise TrainingError("empty training corpus: the dev split or subsample left no document")
    if not dev_docs:
        raise TrainingError("empty dev corpus: best-on-dev selection needs a document")
    twice = [i for i, n in Counter(d.id for d in (*train_docs, *dev_docs)).items() if n > 1]
    if twice:
        raise TrainingError(f"document id {twice[0]} is used twice across the training "
                            "and dev corpora; each needs its own neighbours")
    if external_docs is not None and external_label_space is None:
        raise TrainingError("external_docs need their external_label_space: "
                            "a memory declares its label space")
    features = preset(config.preset)
    vocab = build_vocab(train_docs, min_count=config.min_count)
    dtype = np.float32 if config.float_width == 32 else np.float64
    word_emb = None
    if embeddings is not None:
        word_emb = load_pretrained_embeddings(embeddings, vocab, seed=config.seed,
                                              fallback_dim=encoder_config.word_dim)
        word_emb.data = word_emb.data.astype(dtype)
        encoder_config = dataclasses.replace(encoder_config, word_dim=word_emb.shape[1])
    model_config = ModelConfig(
        encoder=encoder_config,
        preset=config.preset,
        perspectives=config.perspectives,
        n_classes=label_space.c,
        neighbor_classes=(external_label_space.c if external_docs is not None
                          and features.use_attn_label else None),
    )
    model = KnnTextModel.create(model_config, vocab, seed=config.seed, word_emb=word_emb,
                                dtype=dtype)

    memory = None
    neighbors: dict[int, NeighborSet] | None = None
    neighbor_docs: dict[int, Document] | None = None
    if features.uses_memory:
        source = external_docs if external_docs is not None else train_docs
        neighbor_docs = {d.id: d for d in source}
        index = build_index(source)
        neighbors = precompute_neighbors(
            index, train_docs, config.k_neighbors,
            self_exclude=external_docs is None, params=bm25_params,
        )
        for doc in dev_docs:
            neighbors[doc.id] = search_knn(index, doc, config.k_neighbors, params=bm25_params)
        memory = Memory(index, neighbor_docs, external_label_space or label_space,
                        bm25_params, config.k_neighbors)

    result = train(model, train_docs, dev_docs, neighbors, neighbor_docs, config,
                   vocab, metrics_path=metrics_path, config_echo=config_echo)
    result.checkpoint = dataclasses.replace(result.checkpoint, memory=memory, manifest={
        **result.checkpoint.manifest, "label_names": list(label_space.names)})
    best_model = model_from_checkpoint(result.checkpoint, vocab,
                                       expected_classes=label_space.c)
    return PipelineResult(
        train_result=result,
        dev_report=result.dev_report,
        model=best_model,
        vocab=vocab,
        neighbors=neighbors,
    )


def run_setup(setup: str, train_docs: Sequence[Document], dev_docs: Sequence[Document],
              label_space: LabelSpace, config: TrainConfig, encoder_config: EncoderConfig, *,
              external_docs: Sequence[Document] | None = None,
              external_label_space: LabelSpace | None = None,
              low_resource_fraction: float = 0.1,
              per_class_counts: Sequence[int] | None = None,
              embeddings: str | Path | None = None,
              metrics_path: str | Path | None = None,
              config_echo: dict | None = None,
              bm25_params: Bm25Params = Bm25Params()) -> tuple[dict, PipelineResult]:
    """One experimental setup end to end: its JSON report and the
    ``run_pipeline`` result, whose checkpoint is the one to serve.

    ``semi_supervised`` forces the text-only neighbor features (M6) with
    neighbors from the external corpus; ``transfer`` keeps label features
    but one-hots them in the external corpus's own label space.
    """
    if setup not in SETUPS:
        raise TrainingError(f"unknown setup {setup!r}; expected one of {SETUPS}")
    effective_train = list(train_docs)
    effective_config = config
    ext_docs = None
    ext_labels = None
    if setup == "low_resource":
        effective_train = subsample(train_docs, LowResource(low_resource_fraction), config.seed)
    elif setup == "unbalanced":
        if per_class_counts is None:
            raise TrainingError("unbalanced setup needs per_class_counts")
        effective_train = subsample(train_docs, Unbalanced(tuple(per_class_counts)), config.seed)
    elif setup in ("semi_supervised", "transfer"):
        if external_docs is None or external_label_space is None:
            raise TrainingError(f"{setup} setup needs an external corpus and label space")
        ext_docs, ext_labels = external_docs, external_label_space
        if setup == "semi_supervised":
            effective_config = dataclasses.replace(config, preset="M6")
        elif not preset(config.preset).use_attn_label:
            raise TrainingError("transfer setup needs a preset with the attentive-label feature")
    result = run_pipeline(
        effective_train, dev_docs, label_space, effective_config, encoder_config,
        embeddings=embeddings, external_docs=ext_docs, external_label_space=ext_labels,
        metrics_path=metrics_path, config_echo=config_echo,
        bm25_params=bm25_params,
    )
    per_class_train = [0] * label_space.c
    for doc in effective_train:
        per_class_train[doc.label] += 1
    return {
        "setup": setup,
        "preset": effective_config.preset,
        "train_size": len(effective_train),
        "train_per_class": per_class_train,
        "dev_size": len(dev_docs),
        "best_epoch": result.train_result.best_epoch,
        "dev_accuracy": result.dev_report.accuracy,
        "per_class_accuracy": result.dev_report.per_class,
        "history": [dataclasses.asdict(h) for h in result.train_result.history],
        "config": config_echo or {},
    }, result
