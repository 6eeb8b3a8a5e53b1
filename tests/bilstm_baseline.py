"""Reference oracle: a standalone BiLSTM text classifier (encoder + affine +
softmax, no retrieval), written apart from ``KnnTextModel``.

Parameter names and per-name seeded initialization match the full model's
text-embedding-only configuration, so with a shared seed the two produce
identical losses batch for batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from knnmem import autodiff as ad
from knnmem.autodiff import Tensor
from knnmem.corpus import Document, Vocabulary
from knnmem.encoder import EncoderConfig, TextEncoder, param_rng


@dataclass
class BaselineResult:
    loss: Tensor
    logits: np.ndarray
    predictions: np.ndarray
    probabilities: np.ndarray


class BilstmBaseline:
    def __init__(self, encoder: TextEncoder, clf_W: Tensor, clf_b: Tensor):
        self.encoder = encoder
        self.clf_W = clf_W
        self.clf_b = clf_b

    @classmethod
    def create(cls, config: EncoderConfig, vocab: Vocabulary, n_classes: int, seed: int,
               word_emb: Tensor | None = None) -> "BilstmBaseline":
        encoder = TextEncoder.create(config, vocab, seed, word_emb)
        rng = param_rng(seed, "clf.W")
        clf_W = Tensor(rng.uniform(-0.08, 0.08, (config.l, n_classes)),
                       requires_grad=True, name="clf.W")
        clf_b = Tensor(np.zeros((1, n_classes)), requires_grad=True, name="clf.b")
        return cls(encoder, clf_W, clf_b)

    def named_params(self) -> dict[str, Tensor]:
        out = self.encoder.named_params()
        out["clf.W"] = self.clf_W
        out["clf.b"] = self.clf_b
        return out

    def forward_batch(self, docs: Sequence[Document]) -> BaselineResult:
        H = self.encoder.encode_batch([doc.tokens for doc in docs])
        feat_mat = ad.rows(H, list(range(len(docs))))
        logits = ad.add(ad.matmul(feat_mat, self.clf_W), self.clf_b)
        targets = [doc.label for doc in docs]
        losses = ad.softmax_cross_entropy(logits, targets)
        loss = ad.scalar_mul(ad.sum(losses), 1.0 / len(docs))
        return BaselineResult(
            loss=loss,
            logits=logits.data,
            predictions=np.argmax(logits.data, axis=1),
            probabilities=ad.softmax_probs(logits.data),
        )
