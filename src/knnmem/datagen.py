"""Synthetic corpus generators for experiments and the test suite.

Three families:

* separable: class-specific visible tokens, learnable by any encoder;
* marker: the label is carried only by rare marker tokens placed beyond
  the encoder's truncation window and shared with exactly one same-label
  training partner, so retrieval sees them but the encoder cannot;
* topical: news-like mixture of class-topical tokens, shared filler, and
  rare "entity" tokens that recur in a handful of same-class documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CorpusError, Document, LabelSpace


def _doc(doc_id: int, label: int, tokens: list[str]) -> Document:
    return Document(id=doc_id, label=label, title=" ".join(tokens), body="",
                    tokens=tuple(tokens))


def make_separable_corpus(n_per_class: int, c: int, seed: int,
                          class_tokens: int = 6, fillers: int = 20,
                          doc_len: tuple[int, int] = (5, 9)) -> tuple[list[Document], LabelSpace]:
    """Every document mixes tokens from its own class pool with shared filler."""
    rng = np.random.default_rng(seed)
    docs = []
    for label in range(c):
        pool = [f"c{label}w{j}" for j in range(class_tokens)]
        for _ in range(n_per_class):
            length = int(rng.integers(doc_len[0], doc_len[1] + 1))
            n_class = max(2, length // 2)
            tokens = [pool[rng.integers(0, class_tokens)] for _ in range(n_class)]
            tokens += [f"f{rng.integers(0, fillers)}" for _ in range(length - n_class)]
            rng.shuffle(tokens)
            docs.append(_doc(len(docs), label, list(tokens)))
    order = rng.permutation(len(docs))
    docs = [docs[i] for i in order]
    docs = [_doc(i, d.label, list(d.tokens)) for i, d in enumerate(docs)]
    return docs, LabelSpace.of_size(c)


def make_marker_corpus(n_train_per_class: int, n_dev_per_class: int, c: int, seed: int,
                       visible_len: int = 16, filler_vocab: int = 4000,
                       markers_per_pair: int = 5) -> tuple[list[Document], list[Document], LabelSpace]:
    """Label recoverable only through retrieval.

    Visible tokens (the first ``visible_len``) are label-independent filler.
    Markers live beyond the truncation window: training documents form
    same-label pairs sharing one marker set, and each dev document shares a
    fresh marker set with exactly one same-label training partner. Encode
    with ``max_tokens == visible_len`` so the encoder never sees a marker.
    """
    if n_train_per_class % 2:
        raise ValueError("n_train_per_class must be even (documents pair up)")
    if n_dev_per_class > n_train_per_class:
        raise ValueError("need at least one distinct training partner per dev doc")
    rng = np.random.default_rng(seed)
    marker_counter = 0

    def fresh_markers() -> list[str]:
        nonlocal marker_counter
        out = [f"mk{marker_counter + j}" for j in range(markers_per_pair)]
        marker_counter += markers_per_pair
        return out

    def filler() -> list[str]:
        return [f"f{rng.integers(0, filler_vocab)}" for _ in range(visible_len)]

    train_extra: dict[int, list[str]] = {}
    train_specs: list[tuple[int, list[str], list[str]]] = []
    for label in range(c):
        for _ in range(n_train_per_class // 2):
            shared = fresh_markers()
            train_specs.append((label, filler(), shared))
            train_specs.append((label, filler(), shared))
    order = rng.permutation(len(train_specs))
    train_specs = [train_specs[i] for i in order]

    dev_specs: list[tuple[int, list[str], list[str]]] = []
    partners: dict[int, list[int]] = {label: [] for label in range(c)}
    for pos, (label, _, _) in enumerate(train_specs):
        partners[label].append(pos)
    for label in range(c):
        usable = partners[label]
        chosen = rng.permutation(len(usable))[:n_dev_per_class]
        for pick in chosen:
            partner_pos = usable[int(pick)]
            shared = fresh_markers()
            train_extra.setdefault(partner_pos, []).extend(shared)
            dev_specs.append((label, filler(), shared))
    dev_order = rng.permutation(len(dev_specs))
    dev_specs = [dev_specs[i] for i in dev_order]

    train_docs = []
    for pos, (label, visible, shared) in enumerate(train_specs):
        tokens = visible + shared + train_extra.get(pos, [])
        train_docs.append(_doc(pos, label, tokens))
    dev_docs = []
    for offset, (label, visible, shared) in enumerate(dev_specs):
        dev_docs.append(_doc(len(train_docs) + offset, label, visible + shared))
    return train_docs, dev_docs, LabelSpace.of_size(c)


@dataclass(frozen=True)
class TopicalSpec:
    """Knobs for the news-like generator."""

    c: int = 4
    topical_pool: int = 40        # class-specific tokens per class
    filler_pool: int = 300        # shared, label-free tokens
    entity_docs: tuple[int, int] = (2, 5)  # docs in which one entity recurs
    doc_len: tuple[int, int] = (12, 24)
    topical_per_doc: tuple[int, int] = (2, 5)
    hard_fraction: float = 0.35   # docs with no topical tokens, entity only
    seed: int = 0


def make_topical_corpus(n_per_class: Sequence[int] | int,
                        spec: TopicalSpec) -> tuple[list[Document], LabelSpace]:
    """Mixture of class-topical tokens, shared filler, and rare same-class
    entities. "Hard" documents carry no topical tokens, but entity names
    ``ent{label}e{n}`` (like topical ``t{label}x{j}``) spell the label for
    the character LSTM: M1 alone solved 0.44-0.62 of hard documents
    (ROADMAP Measurements), not only entity-sharing neighbors (item 16)."""
    c = spec.c
    counts = [n_per_class] * c if isinstance(n_per_class, int) else list(n_per_class)
    if len(counts) != c:
        raise ValueError(f"expected {c} per-class counts, got {len(counts)}")
    rng = np.random.default_rng(spec.seed)
    entity_counter = 0
    specs: list[tuple[int, list[str]]] = []
    for label in range(c):
        pool = [f"t{label}x{j}" for j in range(spec.topical_pool)]
        remaining = counts[label]
        while remaining > 0:
            group = int(rng.integers(spec.entity_docs[0], spec.entity_docs[1] + 1))
            group = min(group, remaining)
            entity = f"ent{label}e{entity_counter}"
            entity_counter += 1
            for _ in range(group):
                length = int(rng.integers(spec.doc_len[0], spec.doc_len[1] + 1))
                hard = rng.random() < spec.hard_fraction
                tokens = [entity, entity]
                if not hard:
                    n_topical = int(rng.integers(spec.topical_per_doc[0],
                                                 spec.topical_per_doc[1] + 1))
                    tokens += [pool[rng.integers(0, spec.topical_pool)] for _ in range(n_topical)]
                while len(tokens) < length:
                    tokens.append(f"f{rng.integers(0, spec.filler_pool)}")
                perm = rng.permutation(len(tokens))
                specs.append((label, [tokens[i] for i in perm]))
            remaining -= group
    order = rng.permutation(len(specs))
    docs = [_doc(i, specs[j][0], specs[j][1]) for i, j in enumerate(order)]
    return docs, LabelSpace.of_size(c)


# No escape exists for a carriage return, which ends a line, nor for a
# backslash before ``n``, a quote or a field's end, which reads as an escape.
_UNWRITABLE = re.compile(r'\r|\\(?:[n"]|\Z)')


def _escape(text: str) -> str:
    return text.replace('"', '\\"').replace("\n", "\\n")


def write_zhang_csv(path: str | Path, docs: Sequence[Document]) -> None:
    """Write documents in the quoted-CSV distribution format (1-based labels);
    a text it cannot carry raises ``CorpusError`` and nothing is written."""
    for doc in docs:
        for name, text in (("title", doc.title), ("body", doc.body)):
            if bad := _UNWRITABLE.search(text):
                raise CorpusError(f"doc {doc.id}: {name} holds {bad[0]!r} at offset {bad.start()}, "
                                  "which the quoted-CSV format cannot carry")
    with Path(path).open("w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(f'"{doc.label + 1}","{_escape(doc.title)}","{_escape(doc.body)}"\n')
