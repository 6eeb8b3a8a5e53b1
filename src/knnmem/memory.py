"""kNN external memory: multi-perspective cosine attention over retrieved
neighbors, attention-weighted label/text features, and the softmax head.
Plain cosine is the I = 1 match with a frozen all-ones perspective row.

The head runs a whole batch through a fixed number of tape ops, whatever the
batch size B and the neighbor counts K_b:

- all P = sum(K_b) (query, neighbor) pairs are gathered into two (P, l)
  matrices and matched under every (I, l) perspective row by one fused
  ``perspective_cosine``, giving (P, I) attention; a pair's attention does
  not depend on what else is in the batch;
- both memory features are one attentive sum, ``_attentive_sum``, over
  different rows: the label feature sums rows of the constant one-hot table
  ``eye(c)``, the text feature the neighbors' embeddings. It gathers the
  pairs into a (B, K_max) table whose padding reads an appended zero
  attention row, then one broadcast ``mul`` and one ``sum`` over K give its
  (B, I*w) feature block; a query without neighbors gets zeros;
- one ``concat`` builds the feature matrix.

A query's pairs are summed in one canonical order, shared by both sums: one
``np.lexsort`` over all pairs, by query, then by neighbor doc id. Distinct
ids order the pairs whatever order they are listed in, and two pairs with
one id are one neighbor, which reads one bank row or in-batch slot and so
adds identical terms. So the features are exactly invariant to the order in
which neighbors are listed; padding adds exact zeros after a query's own
terms, so they do not depend on what else is in the batch.
``match_multi_perspective`` runs one pair through the same code.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document
from .encoder import EncoderConfig, EmbeddingTable, TextEncoder, param_rng
from .retrieval import NeighborSet

class ModelError(ValueError):
    """Invalid feature configuration or mismatched model inputs."""


@dataclass(frozen=True)
class FeatureConfig:
    use_text_embedding: bool
    use_attn_label: bool
    use_attn_text: bool

    def __post_init__(self):
        if not (self.use_text_embedding or self.use_attn_label or self.use_attn_text):
            raise ModelError("at least one feature source must be enabled")

    @property
    def uses_memory(self) -> bool:
        return self.use_attn_label or self.use_attn_text


PRESETS: dict[str, FeatureConfig] = {
    "M1": FeatureConfig(True, False, False),
    "M2": FeatureConfig(False, True, False),
    "M3": FeatureConfig(False, False, True),
    "M4": FeatureConfig(False, True, True),
    "M5": FeatureConfig(True, True, False),
    "M6": FeatureConfig(True, False, True),
    "M7": FeatureConfig(True, True, True),
}


def preset(name: str) -> FeatureConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ModelError(f"unknown feature preset {name!r}; expected M1..M7") from None


@dataclass
class MatchingParams:
    """The (I, l) perspective rows ``W`` that reweight both embeddings of a
    pair before their cosine."""

    W: Tensor

    @classmethod
    def create(cls, embedding_len: int, perspectives: int, seed: int) -> "MatchingParams":
        """I = ``perspectives`` trainable rows, or for I = 0 plain cosine: one
        frozen row of ones, whose products are exact."""
        if perspectives < 0:
            raise ModelError(f"perspectives must be >= 0, got {perspectives}")
        if perspectives == 0:
            return cls(W=Tensor(np.ones((1, embedding_len)), name="match.W"))
        rng = param_rng(seed, "match.W")
        # Start near plain cosine: all-ones rows plus small noise.
        data = 1.0 + rng.uniform(-0.01, 0.01, (perspectives, embedding_len))
        return cls(W=Tensor(data, requires_grad=True, name="match.W"))


def _match_pairs(h_query: Tensor, h_nbr: Tensor, params: MatchingParams) -> Tensor:
    """(P, I) similarities of P (query, neighbor) embedding pairs, given as two
    (P, l) matrices: one ``perspective_cosine`` over every pair and
    perspective."""
    if params.W.shape[1] != h_query.shape[1]:
        raise ModelError("matching weights do not fit the embedding length")
    return ad.perspective_cosine(h_query, h_nbr, params.W)


def match_multi_perspective(h: Tensor, h_nbr: Tensor, params: MatchingParams) -> Tensor:
    """Similarity vector of length I for one pair: cosine of the two
    embeddings after elementwise reweighting by each perspective row."""
    if h.size != h_nbr.size:
        raise ModelError(f"embedding lengths differ: {h.size} vs {h_nbr.size}")
    sims = _match_pairs(ad.reshape(h, (1, h.size)), ad.reshape(h_nbr, (1, h_nbr.size)), params)
    return ad.reshape(sims, (sims.size,))


def _canonical_slots(pair_query: np.ndarray, n_queries: int,
                     pair_ids: np.ndarray) -> np.ndarray:
    """(n_queries, K_max) pair indices in canonical order, padded with P.

    Row b lists query b's pairs by ascending neighbor doc id ``pair_ids``
    (one ``np.lexsort`` over all pairs, the query as primary key), so the
    sequence is the same for any permutation of a query's neighbors.
    """
    order = np.lexsort((pair_ids, pair_query))
    query = pair_query[order]
    n_pairs = pair_query.size
    counts = np.bincount(pair_query, minlength=n_queries)
    slots = np.full((n_queries, int(counts.max())), n_pairs, dtype=np.int64)
    slots[query, np.arange(n_pairs) - (np.cumsum(counts) - counts)[query]] = order
    return slots


def _attentive_sum(attention: Tensor, slots: np.ndarray, table: Tensor,
                   table_rows: np.ndarray) -> Tensor:
    """Per query b and perspective i, the sum over b's pairs p of
    ``attention[p, i] * table[table_rows[p]]``: (n_queries, I*w) from (P, I)
    pair attention; row b of ``slots`` (``_canonical_slots``) lists b's pairs.

    The pad index P reads an appended zero row of attention (and any row of
    ``table``), so padding adds exact zeros after a query's own terms and its
    sums do not depend on what it is batched with.
    """
    n_pairs, perspectives = attention.shape
    n_queries, k_max = slots.shape
    width = table.shape[1]
    if n_pairs == 0:
        return Tensor(np.zeros((n_queries, perspectives * width)))
    padded = ad.concat([attention, Tensor(np.zeros((1, perspectives)))], axis=0)
    att = ad.reshape(ad.rows(padded, slots.reshape(-1)), (n_queries, k_max, perspectives, 1))
    values = ad.rows(table, np.append(table_rows, table_rows[0])[slots.reshape(-1)])
    weighted = ad.mul(att, ad.reshape(values, (n_queries, k_max, 1, width)))
    return ad.reshape(ad.sum(weighted, axis=1), (n_queries, perspectives * width))


def feature_width(features: FeatureConfig, embedding_len: int, perspectives: int,
                  neighbor_classes: int) -> int:
    width = 0
    if features.use_text_embedding:
        width += embedding_len
    if features.use_attn_label:
        width += perspectives * neighbor_classes
    if features.use_attn_text:
        width += perspectives * embedding_len
    return width


def assemble_features(h: Tensor | None, attn_label: Tensor | None,
                      attn_text: Tensor | None, features: FeatureConfig) -> Tensor:
    """Fixed-order concatenation [text embedding; attentive label; attentive
    text] along the last axis, for one vector or a (batch, width) matrix."""
    parts = []
    if features.use_text_embedding:
        if h is None:
            raise ModelError("text-embedding feature enabled but no embedding given")
        parts.append(h)
    if features.use_attn_label:
        if attn_label is None:
            raise ModelError("attentive-label feature enabled but no distribution given")
        parts.append(attn_label)
    if features.use_attn_text:
        if attn_text is None:
            raise ModelError("attentive-text feature enabled but no embedding given")
        parts.append(attn_text)
    return parts[0] if len(parts) == 1 else ad.concat(parts, axis=parts[0].ndim - 1)


@dataclass
class ClassifierParams:
    W: Tensor
    b: Tensor

    @classmethod
    def create(cls, in_width: int, n_classes: int, seed: int) -> "ClassifierParams":
        rng = param_rng(seed, "clf.W")
        return cls(
            W=Tensor(rng.uniform(-0.08, 0.08, (in_width, n_classes)),
                     requires_grad=True, name="clf.W"),
            b=Tensor(np.zeros((1, n_classes)), requires_grad=True, name="clf.b"),
        )


BANK_BLOCK = 64


class MemoryBank:
    """Inference-time embeddings of a memory corpus, in the style of a kNN-LM
    datastore: encoded once per set of encoder weights, not once per request.

    Row r holds the embedding of the r-th smallest doc id. The rows are
    encoded one fixed block of ``BANK_BLOCK`` rows at a time, the first time
    one of them is asked for, so a row's bytes depend only on the weights
    and its block, never on which request filled it.

    The bank holds only while every encoder parameter's ``.data`` is the
    array it was built from and every document of a block is the object it
    encoded. Building marks those arrays read-only, so an in-place write
    raises instead of leaving the bank stale; rebinding ``.data`` (as
    ``Adam.step`` and ``model_from_checkpoint`` do), other doc ids, another
    float width or another encoder rebuilds it, and a block whose documents
    were replaced is encoded again.
    """

    def __init__(self):
        self._encoder: TextEncoder | None = None
        self._arrays: list[np.ndarray] = []
        self._row_of: dict[int, int] = {}
        self._ids: list[int] = []
        self._docs: list[Document | None] = []
        self.table = np.zeros((0, 0))

    def _holds(self, encoder: TextEncoder, arrays: list[np.ndarray],
               neighbor_docs: Mapping[int, Document]) -> bool:
        return (encoder is self._encoder and len(arrays) == len(self._arrays)
                and all(a is b for a, b in zip(arrays, self._arrays))
                and self.table.dtype == ad.get_default_dtype()
                and self._row_of.keys() == neighbor_docs.keys())

    def rows(self, encoder: TextEncoder, ids: Sequence[int],
             neighbor_docs: Mapping[int, Document]) -> tuple[np.ndarray, np.ndarray]:
        """The ``(len(neighbor_docs), l)`` table and the row of each of
        ``ids``, after encoding every block those rows need that does not
        hold its current documents."""
        arrays = [p.data for p in encoder.named_params().values()]
        if not self._holds(encoder, arrays, neighbor_docs):
            for a in arrays:
                a.flags.writeable = False
            self._encoder, self._arrays = encoder, arrays
            self._ids = sorted(neighbor_docs)
            self._row_of = {doc_id: row for row, doc_id in enumerate(self._ids)}
            self._docs = [None] * len(self._ids)
            self.table = np.empty((len(self._ids), encoder.config.l), dtype=ad.get_default_dtype())
        rows = np.array([self._row_of[doc_id] for doc_id in ids], dtype=np.int64)
        for start in np.unique(rows // BANK_BLOCK) * BANK_BLOCK:
            stop = min(start + BANK_BLOCK, len(self._ids))
            docs = [neighbor_docs[doc_id] for doc_id in self._ids[start:stop]]
            if not all(map(operator.is_, docs, self._docs[start:stop])):
                self.table[start:stop] = encoder.encode_batch([d.tokens for d in docs]).data
                self._docs[start:stop] = docs
        return self.table, rows


@dataclass
class ForwardResult:
    """A batch's mean loss and per-query outputs. ``attention`` is the
    (P, I) attention of every (query, neighbor) pair, queries in batch order
    and each query's neighbors in listed order, or ``None`` for a preset
    without memory."""

    loss: Tensor
    logits: np.ndarray
    predictions: np.ndarray
    probabilities: np.ndarray
    attention: np.ndarray | None


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    preset: str = "M7"
    perspectives: int = 5  # I; 0 is plain cosine
    n_classes: int = 2
    neighbor_classes: int | None = None
    stop_grad_neighbors: bool = False

    def __post_init__(self):
        preset(self.preset)
        if self.n_classes < 2:
            raise ModelError("need at least 2 classes")

    @property
    def features(self) -> FeatureConfig:
        return preset(self.preset)

    @property
    def effective_neighbor_classes(self) -> int:
        return self.n_classes if self.neighbor_classes is None else self.neighbor_classes


class KnnTextModel:
    """Full model: shared text encoder, kNN memory head, softmax classifier.

    ``bank`` serves the neighbour rows at inference; set it to ``None`` to
    encode each batch's neighbours with it instead, as a process that serves
    one request set should (a bank pays off only when requests repeat), and as
    ``trainer.train`` does. The parameter arrays of a restored model, and the
    encoder arrays of a banked one, are read-only: update them by rebinding
    ``.data``, as ``Adam.step`` does, never in place.
    """

    def __init__(self, config: ModelConfig, encoder: TextEncoder,
                 matching: MatchingParams | None, classifier: ClassifierParams):
        self.config = config
        self.encoder = encoder
        self.matching = matching
        self.classifier = classifier
        self.bank: MemoryBank | None = MemoryBank()

    @classmethod
    def create(cls, config: ModelConfig, vocab, seed: int,
               word_table: EmbeddingTable | None = None) -> "KnnTextModel":
        encoder = TextEncoder.create(config.encoder, vocab, seed, word_table)
        matching = None
        if config.features.uses_memory:
            matching = MatchingParams.create(config.encoder.l, config.perspectives, seed)
        width = feature_width(config.features, config.encoder.l,
                              matching.W.shape[0] if matching else 0,
                              config.effective_neighbor_classes)
        classifier = ClassifierParams.create(width, config.n_classes, seed)
        return cls(config, encoder, matching, classifier)

    def named_params(self) -> dict[str, Tensor]:
        out = self.encoder.named_params()
        if self.matching is not None:
            out["match.W"] = self.matching.W
        out["clf.W"] = self.classifier.W
        out["clf.b"] = self.classifier.b
        return out

    def feature_width(self) -> int:
        return self.classifier.W.shape[0]

    def forward_batch(self, docs: Sequence[Document],
                      neighbor_map: Mapping[int, NeighborSet] | None = None,
                      neighbor_docs: Mapping[int, Document] | None = None) -> ForwardResult:
        """Encode the inputs, apply the memory head, and return the mean
        cross-entropy, per-example predictions and the pairs' attention.

        Under a ``Tape`` or without a ``bank``, the neighbors are encoded
        with the inputs (deduplicated), and gradients flow through both
        encodings unless the model was configured with
        ``stop_grad_neighbors``. Otherwise only the inputs are encoded, and
        the neighbor rows come from ``bank``.
        """
        if not docs:
            raise ModelError("empty batch")
        cfg = self.config
        features = cfg.features
        neighbor_docs = neighbor_docs or {}
        banked = self.bank is not None and not ad.recording()

        slots: dict[object, int] = {}
        seqs: list[Sequence[str]] = []

        def slot_for(key, tokens) -> int:
            found = slots.get(key)
            if found is None:
                found = len(seqs)
                slots[key] = found
                seqs.append(tokens)
            return found

        input_slots = []
        for pos, doc in enumerate(docs):
            shared = neighbor_docs.get(doc.id) is doc
            input_slots.append(slot_for(doc.id if shared else ("query", pos), doc.tokens))

        # Every (query, neighbor) pair of the batch, queries in batch order and
        # each query's neighbors in listed order.
        pair_ids: list[int] = []
        counts: list[int] = []
        if features.uses_memory:
            if neighbor_map is None:
                raise ModelError("memory features enabled but no neighbor map given")
            for doc in docs:
                ns = neighbor_map.get(doc.id)
                if ns is None:
                    raise ModelError(f"no precomputed neighbors for doc {doc.id}")
                ids = ns.ids()
                pair_ids += ids
                counts.append(len(ids))
            try:
                nbrs = [neighbor_docs[nbr_id] for nbr_id in pair_ids]
            except KeyError as missing:
                raise ModelError(f"neighbor doc {missing.args[0]} missing from lookup") from None
            if not banked:
                nbr_slots = np.array([slot_for(nbr_id, nbr.tokens)
                                      for nbr_id, nbr in zip(pair_ids, nbrs)], dtype=np.int64)

        H = self.encoder.encode_batch(seqs)
        h = ad.rows(H, input_slots)
        attention = None
        if not features.uses_memory:
            feat_mat = h
        else:
            if banked:
                table, nbr_slots = self.bank.rows(self.encoder, pair_ids, neighbor_docs)
                H_nbr = Tensor(table)
            else:
                H_nbr = H.detach() if cfg.stop_grad_neighbors else H
            query = np.repeat(np.arange(len(docs)), counts)
            att = _match_pairs(ad.rows(h, query), ad.rows(H_nbr, nbr_slots), self.matching)
            order = _canonical_slots(query, len(docs), np.asarray(pair_ids, dtype=np.int64))
            attn_label = attn_text = None
            if features.use_attn_label:
                c = cfg.effective_neighbor_classes
                labels = np.array([nbr.label for nbr in nbrs], dtype=np.int64)
                if labels.size and (labels.min() < 0 or labels.max() >= c):
                    raise ModelError(f"neighbor label out of range for c={c}")
                attn_label = _attentive_sum(att, order, Tensor(np.eye(c)), labels)
            if features.use_attn_text:
                attn_text = _attentive_sum(att, order, H_nbr, nbr_slots)
            feat_mat = assemble_features(h, attn_label, attn_text, features)
            attention = att.data

        if feat_mat.shape[1] != self.classifier.W.shape[0]:
            raise ModelError(
                f"feature width {feat_mat.shape[1]} != classifier width {self.classifier.W.shape[0]}"
            )
        logits = ad.add(ad.matmul(feat_mat, self.classifier.W), self.classifier.b)
        targets = [doc.label for doc in docs]
        losses = ad.softmax_cross_entropy(logits, targets)
        loss = ad.scalar_mul(ad.sum(losses), 1.0 / len(docs))
        return ForwardResult(
            loss=loss,
            logits=logits.data,
            predictions=np.argmax(logits.data, axis=1),
            probabilities=ad.softmax_probs(logits.data),
            attention=attention,
        )
