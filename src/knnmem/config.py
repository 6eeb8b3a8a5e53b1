"""Run configuration: one JSON file drives ``train`` and ``sweep``,
explicit command-line flags override file values, and unknown keys are
rejected. ``eval`` and ``predict`` take none of it: they serve what the
checkpoint records, its memory included."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .artifact import file_sha256
from .corpus import LabelSpace, SplitSpec
from .encoder import EncoderConfig
from .retrieval import Bm25Params
from .trainer import SETUPS, TrainConfig


class ConfigError(ValueError):
    """Unknown key, bad value, or unusable combination in a run config."""


def _f(default, help_text: str):
    return field(default=default, metadata={"help": help_text})


@dataclass
class RunConfig:
    # data
    train_csv: str | None = _f(None, "training CSV (quoted fields: 1-based class, title, description)")
    eval_csv: str | None = _f(None, "evaluation/dev CSV; when absent the dev split is held out of train")
    classes: int = _f(4, "number of classes when class names are not given")
    class_names: str | None = _f(None, "comma-separated class names (overrides --classes)")
    dev_per_class: int = _f(500, "held-out dev instances per class when no eval CSV is given")
    split_seed: int = _f(0, "seed for the dev split shuffle")
    min_count: int = _f(1, "minimum training-token frequency kept in the vocabulary")
    # retrieval
    k1: float = _f(1.2, "BM25 term-frequency saturation")
    b: float = _f(0.75, "BM25 length normalization in [0, 1]")
    k_neighbors: int = _f(5, "neighbors retrieved per input (K)")
    # encoder
    word_dim: int = _f(300, "word-embedding width (overridden by a loaded vector file)")
    char_dim: int = _f(20, "character-embedding width")
    char_lstm_dim: int = _f(50, "character-LSTM output width")
    hidden: int = _f(100, "BiLSTM hidden size per direction")
    max_tokens: int = _f(256, "encoder truncation length in tokens")
    max_word_chars: int = _f(32, "character-LSTM truncation length per word")
    embeddings: str | None = _f(None, "pretrained word-vector text file")
    # memory
    preset: str = _f("M7", "feature preset M1..M7")
    perspectives: int = _f(5, "matching perspectives (I); 0 is plain cosine")
    # training
    epochs: int = _f(15, "training passes over the training set")
    lr: float = _f(1e-4, "Adam learning rate, > 0")
    batch_size: int = _f(32, "minibatch size")
    clip_norm: float = _f(5.0, "global gradient-norm clip, >= 0; 0 disables")
    seed: int = _f(0, "seed for init, shuffling, and subsampling")
    float_width: int = _f(64, "float width of the model and its checkpoint: 64 or 32 bits")
    # setups
    setup: str = _f("full", "experimental setup: full, low_resource, unbalanced, semi_supervised, transfer")
    low_resource_fraction: float = _f(0.1, "per-class fraction kept in the low_resource setup")
    unbalanced_counts: str | None = _f("2000,4000,8000,16000",
                                       "comma-separated per-class counts for the unbalanced setup")
    external_csv: str | None = _f(None, "external corpus CSV for semi_supervised/transfer setups")
    external_classes: int = _f(14, "class count of the external corpus")
    external_class_names: str | None = _f(None, "comma-separated class names of the external corpus")
    # io
    out_dir: str = _f("runs", "directory for output artifacts")

    def __post_init__(self):
        if self.setup not in SETUPS:
            raise ConfigError(f"setup must be one of {SETUPS}, got {self.setup!r}")
        if self.split_seed < 0:
            raise ConfigError(f"split_seed must be >= 0, got {self.split_seed}")

    def label_space(self) -> LabelSpace:
        if self.class_names:
            return LabelSpace(tuple(n.strip() for n in self.class_names.split(",")))
        return LabelSpace.of_size(self.classes)

    def external_label_space(self) -> LabelSpace:
        if self.external_class_names:
            return LabelSpace(tuple(n.strip() for n in self.external_class_names.split(",")))
        return LabelSpace.of_size(self.external_classes)

    def _values_for(self, cls) -> dict:
        """This config's values of every field of ``cls``; each has a namesake here."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(cls)}

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(**self._values_for(EncoderConfig))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._values_for(TrainConfig))

    def split_spec(self) -> SplitSpec:
        return SplitSpec(dev_per_class=self.dev_per_class, seed=self.split_seed)

    def bm25_params(self) -> Bm25Params:
        return Bm25Params(k1=self.k1, b=self.b)

    def unbalanced_tuple(self) -> tuple[int, ...] | None:
        if not self.unbalanced_counts:
            return None
        try:
            return tuple(int(v) for v in str(self.unbalanced_counts).split(","))
        except ValueError:
            raise ConfigError(
                f"unbalanced_counts must be comma-separated integers, got {self.unbalanced_counts!r}"
            ) from None

    def echo(self) -> dict:
        """The fields, each input file by its SHA-256 and no ``out_dir``."""
        echo = dataclasses.asdict(self)
        del echo["out_dir"]
        for name in ("train_csv", "eval_csv", "external_csv", "embeddings"):
            path = echo.pop(name)
            echo[f"{name}_sha256"] = file_sha256(path) if path else None
        return echo


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value):
    if value is None:
        return None
    default = _FIELDS[name].default
    target = type(default) if default is not None else str
    if name in ("unbalanced_counts",):
        if isinstance(value, (list, tuple)):
            if any(type(v) is not int for v in value):
                raise ConfigError(f"key {name!r} expects a list of integers, got {value!r}")
            return ",".join(map(str, value))
        return str(value)
    if target is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"key {name!r} expects true/false, got {value!r}")
    if target is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {name!r} expects an integer, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"key {name!r} expects an integer, got {value!r}")
        return int(value)
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {name!r} expects a number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"key {name!r} expects a string, got {value!r}")
    return value


def load_run_config(path: str | Path | None = None,
                    overrides: Mapping[str, object] | None = None) -> RunConfig:
    """Config file first, then overrides; any unknown key is an error."""
    data: dict[str, object] = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: malformed JSON config: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config file must hold a JSON object")
        unknown = sorted(set(raw) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
        data.update({k: _coerce(k, v) for k, v in raw.items()})
    if overrides:
        unknown = sorted(set(overrides) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        data.update({k: _coerce(k, v) for k, v in overrides.items()})
    try:
        return RunConfig(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
