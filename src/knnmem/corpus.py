"""Dataset ingestion: CSV loading, tokenization, vocabularies, splits, subsampling.

Datasets arrive as CSV files with 2 or 3 quoted fields per line:
a 1-based class index, a title, and an optional description. Inside a
field the two-character sequences ``\\n`` and ``\\"`` stand for a newline
and a double quote. There is no escape for a backslash or a carriage
return: a field cannot hold a backslash before ``n``, ``"`` or its end, nor
a carriage return, which ends a line. ``tokenize`` strips a token's edges
while a character is neither ``isalpha()`` nor ``isdigit()``; ``isalnum()``
would keep ``½`` and ``Ⅻ``, and regex ``\\w`` those and ``_``.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np


class CorpusError(ValueError):
    """Malformed dataset file or infeasible split/subsample request."""


@dataclass(frozen=True)
class Document:
    """One labeled text instance."""

    id: int
    label: int
    title: str
    body: str
    tokens: tuple[str, ...]

    @property
    def text(self) -> str:
        return f"{self.title} {self.body}" if self.body else self.title


@dataclass(frozen=True)
class LabelSpace:
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 2:
            raise CorpusError("label space needs at least 2 classes")
        if len(set(self.names)) != len(self.names):
            raise CorpusError("class names must be distinct")

    @property
    def c(self) -> int:
        return len(self.names)

    @staticmethod
    def of_size(c: int) -> "LabelSpace":
        return LabelSpace(tuple(f"class_{i}" for i in range(c)))


@dataclass(frozen=True)
class SplitSpec:
    dev_per_class: int = 500
    seed: int = 0


# Every character that ``tokenize`` strips from the edges of an ASCII token.
_ASCII_JUNK = "".join(ch for ch in map(chr, range(128)) if not (ch.isalpha() or ch.isdigit()))


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and strip each token's edges while a
    character is neither ``isalpha()`` nor ``isdigit()``; empty tokens drop."""
    text = text.lower()
    if text.isascii():
        junk = _ASCII_JUNK
    else:
        junk = "".join(ch for ch in set(text) if not (ch.isalpha() or ch.isdigit()))
    return [tok for raw in text.split() if (tok := raw.strip(junk))]


def _decode_escapes(text: str) -> str:
    # Every backslash before ``n`` or ``"`` starts an escape, so the pairs
    # never overlap and two replacements decode them all.
    if "\\" not in text:
        return text
    return text.replace("\\n", "\n").replace('\\"', '"')


# One quoted field: anything but a quote or backslash, or a backslash and
# the character after it, which stays in the field for ``_decode_escapes``.
_FIELD = re.compile(r'"((?:[^"\\]|\\.)*+)"', re.DOTALL)


def _parse_record(line: str, lineno: int) -> list[str]:
    """Split one quoted CSV record; escaped quotes stay raw for later decoding."""
    # Without a backslash, and with no quote but the ones that delimit the
    # fields, a record splits directly; anything else goes to the scanner.
    if "\\" not in line and len(line) > 1 and line[0] == line[-1] == '"':
        fields = line[1:-1].split('","')
        if line.count('"') == 2 * len(fields):
            return fields
    fields = []
    i, n = 0, len(line)
    while True:
        if i >= n or line[i] != '"':
            raise CorpusError(f"line {lineno}: expected opening quote for field {len(fields) + 1}")
        match = _FIELD.match(line, i)
        if match is None:
            raise CorpusError(f"line {lineno}: unterminated quoted field")
        fields.append(match[1])
        i = match.end()
        if i == n:
            return fields
        if line[i] != ",":
            raise CorpusError(f"line {lineno}: expected comma after field {len(fields)}")
        i += 1


def utf8_lines(path: str | Path, error: type[Exception]) -> Iterator[str]:
    """The lines of a UTF-8 text file, read as they are iterated; bytes that
    are not UTF-8 raise ``error``, naming the line."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise error(f"{path}: line {line} is not UTF-8") from None
        raise error(f"{path}: not UTF-8") from None


def load_dataset(path: str | Path, label_space: LabelSpace) -> list[Document]:
    """Load a quoted-CSV dataset; labels in files are 1-based, internally 0-based."""
    path = Path(path)
    docs: list[Document] = []
    for lineno, line in enumerate(utf8_lines(path, CorpusError), start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        fields = _parse_record(line, lineno)
        if len(fields) not in (2, 3):
            raise CorpusError(f"line {lineno}: expected 2 or 3 fields, found {len(fields)}")
        try:
            raw_label = int(fields[0])
        except ValueError:
            raise CorpusError(f"line {lineno}: class index {fields[0]!r} is not an integer") from None
        if not 1 <= raw_label <= label_space.c:
            raise CorpusError(f"line {lineno}: class index {raw_label} out of range 1..{label_space.c}")
        title = _decode_escapes(fields[1])
        body = _decode_escapes(fields[2]) if len(fields) == 3 else ""
        tokens = tokenize(f"{title} {body}")
        if not tokens:
            raise CorpusError(f"line {lineno}: document has no tokens after tokenization")
        docs.append(Document(len(docs), raw_label - 1, title, body, tuple(tokens)))
    if not docs:
        raise CorpusError(f"{path}: empty dataset")
    return docs


@dataclass
class Vocabulary:
    """Token and character id maps; id 0 is reserved for OOV/unknown in both."""

    word_to_id: dict[str, int] = field(default_factory=dict)
    char_to_id: dict[str, int] = field(default_factory=dict)

    OOV_ID = 0

    def word_id(self, token: str) -> int:
        return self.word_to_id.get(token, self.OOV_ID)

    def char_id(self, ch: str) -> int:
        return self.char_to_id.get(ch, self.OOV_ID)

    @property
    def n_words(self) -> int:
        return len(self.word_to_id) + 1

    @property
    def n_chars(self) -> int:
        return len(self.char_to_id) + 1

    def word_hash(self) -> str:
        blob = "\n".join(f"{t}\t{i}" for t, i in self.word_to_id.items())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def char_hash(self) -> str:
        blob = "\n".join(f"{c}\t{i}" for c, i in self.char_to_id.items())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_vocab(train: Sequence[Document], min_count: int = 1) -> Vocabulary:
    """Vocabulary from the training split only; rare tokens collapse to OOV id 0."""
    if not train:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    counts = Counter(chain.from_iterable(doc.tokens for doc in train))
    kept = sorted((t for t, n in counts.items() if n >= min_count), key=lambda t: (-counts[t], t))
    chars = sorted(set("".join(counts)))
    return Vocabulary({tok: i for i, tok in enumerate(kept, start=1)},
                      {ch: i for i, ch in enumerate(chars, start=1)})


def _group_by_label(corpus: Sequence[Document]) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for pos, doc in enumerate(corpus):
        groups.setdefault(doc.label, []).append(pos)
    return groups


def split_dev(corpus: Sequence[Document], spec: SplitSpec) -> tuple[list[Document], list[Document]]:
    """Hold out ``dev_per_class`` instances per class by seeded shuffle."""
    if spec.dev_per_class < 0:
        raise CorpusError(f"dev_per_class must be >= 0, got {spec.dev_per_class}")
    if spec.seed < 0:
        raise CorpusError(f"split seed must be >= 0, got {spec.seed}")
    groups = _group_by_label(corpus)
    rng = np.random.default_rng(spec.seed)
    dev_positions: set[int] = set()
    for label in sorted(groups):
        positions = groups[label]
        if len(positions) < spec.dev_per_class:
            raise CorpusError(
                f"class {label} has {len(positions)} instances, need {spec.dev_per_class} for the dev split"
            )
        perm = rng.permutation(len(positions))
        dev_positions.update(positions[i] for i in perm[: spec.dev_per_class])
    dev = [doc for pos, doc in enumerate(corpus) if pos in dev_positions]
    train = [doc for pos, doc in enumerate(corpus) if pos not in dev_positions]
    return train, dev


@dataclass(frozen=True)
class LowResource:
    fraction: float


@dataclass(frozen=True)
class Unbalanced:
    per_class_counts: tuple[int, ...]


def subsample(corpus: Sequence[Document], mode: LowResource | Unbalanced, seed: int) -> list[Document]:
    """Seeded per-class subsample; exact counts (unbalanced) or floor(fraction*n)."""
    if seed < 0:
        raise CorpusError(f"subsample seed must be >= 0, got {seed}")
    groups = _group_by_label(corpus)
    wanted: dict[int, int] = {}
    if isinstance(mode, LowResource):
        if not 0.0 <= mode.fraction <= 1.0:
            raise CorpusError(f"low-resource fraction {mode.fraction} outside [0, 1]")
        for label, positions in groups.items():
            wanted[label] = int(mode.fraction * len(positions))
    elif isinstance(mode, Unbalanced):
        for label, positions in groups.items():
            if label >= len(mode.per_class_counts):
                raise CorpusError(f"no requested count for class {label}")
            count = mode.per_class_counts[label]
            if count < 0:
                raise CorpusError(f"class {label} count {count} is negative")
            if count > len(positions):
                raise CorpusError(
                    f"class {label} has {len(positions)} instances, cannot sample {count}"
                )
            wanted[label] = count
    else:
        raise CorpusError(f"unknown subsample mode {mode!r}")
    keep: set[int] = set()
    for label in sorted(groups):
        positions = groups[label]
        rng = np.random.default_rng([seed, label])
        perm = rng.permutation(len(positions))
        keep.update(positions[i] for i in perm[: wanted[label]])
    return [doc for pos, doc in enumerate(corpus) if pos in keep]
