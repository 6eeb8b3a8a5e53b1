"""Text encoder: frozen word vectors + trainable character-composed vectors,
composed by a BiLSTM whose final forward/backward states form the text
embedding.

Encoding is batched, and each LSTM input projection, bias included, is
computed once per distinct row, then gathered for every occurrence:

- the character LSTM projects the whole character table once per batch
  (``char_table @ Wx + b``) and runs over the batch's unique words, whose
  characters are mapped to ids with one sorted-table lookup;
- each word direction projects ``[word vector; char composition]`` once
  per unique word in the batch (``x @ Wx + b``).

Each of the three passes is then one ``autodiff.lstm_sequence`` node: the
recurrence runs in numpy over rows sorted by length, so the rows still
running at a step are a prefix, and a hand-written backward through time
reads the gates, ``h_prev``, ``c_prev`` and ``tanh(c)`` the forward saved.
A row shorter than the batch maximum is never touched after its last step,
so its state carries over exactly: padding never enters a sequence's
embedding. The embedding is still not bit-identical across batch
compositions, because BLAS picks its matrix-product kernel by row count. At
paper dimensions (OpenBLAS 0.3.31, Haswell kernels, 1 or 2 threads) every
sequence of a 300-document topical corpus encoded alone differed from its
row in the 300-sequence batch, by at most 1.0e-17 in float64 and 5.6e-9 in
float32 (about one unit in the last place of embeddings up to 0.045), and
157 of 300 rows differed when the sequences were encoded in pairs. That is why
a library caller's inference reads the neighbour rows from the model's
``memory.MemoryBank``: it encodes the memory corpus in fixed blocks of sorted
doc ids, so a neighbour's row does not depend on the request it serves.
Training and the CLI's ``eval`` and ``predict`` run without a bank
(``model.bank = None``) and encode the neighbours with their batch, as the
inputs always are.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Vocabulary, utf8_lines


class EncoderError(ValueError):
    """Bad encoder configuration or embedding file."""


@dataclass(frozen=True)
class EncoderConfig:
    word_dim: int = 300
    char_dim: int = 20
    char_lstm_dim: int = 50
    hidden: int = 100
    max_tokens: int = 256
    max_word_chars: int = 32

    def __post_init__(self):
        for field_name in ("word_dim", "char_dim", "char_lstm_dim", "hidden", "max_tokens", "max_word_chars"):
            if getattr(self, field_name) < 1:
                raise EncoderError(f"{field_name} must be >= 1")

    @property
    def l(self) -> int:
        """Text-embedding width: forward plus backward final states."""
        return 2 * self.hidden

    @property
    def d(self) -> int:
        """Per-word representation width: word vector plus char composition."""
        return self.word_dim + self.char_lstm_dim


def param_rng(seed: int, name: str) -> np.random.Generator:
    """Independent stream per parameter name, so adding or removing one
    parameter never shifts another's initialization."""
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


@dataclass
class EmbeddingTable:
    """Word-vector matrix; row 0 is the OOV row. ``random_rows`` marks rows
    that were randomly initialized rather than loaded from a vector file."""

    tensor: Tensor
    random_rows: np.ndarray

    @property
    def dim(self) -> int:
        return self.tensor.shape[1]

    @property
    def frozen(self) -> bool:
        return not self.tensor.requires_grad


@dataclass
class LstmParams:
    """Fused-gate LSTM weights; gate order along columns is i, f, g, o."""

    Wx: Tensor
    Wh: Tensor
    b: Tensor

    @property
    def hidden(self) -> int:
        return self.Wh.shape[0]


def init_lstm(seed: int, name: str, in_dim: int, hidden: int) -> LstmParams:
    rng = param_rng(seed, name)
    Wx = rng.uniform(-0.08, 0.08, (in_dim, 4 * hidden))
    Wh = rng.uniform(-0.08, 0.08, (hidden, 4 * hidden))
    b = np.zeros((1, 4 * hidden))
    b[0, hidden:2 * hidden] = 1.0  # forget-gate bias
    return LstmParams(
        Wx=Tensor(Wx, requires_grad=True, name=f"{name}.Wx"),
        Wh=Tensor(Wh, requires_grad=True, name=f"{name}.Wh"),
        b=Tensor(b, requires_grad=True, name=f"{name}.b"),
    )


def random_embedding_table(n_words: int, dim: int, seed: int) -> EmbeddingTable:
    rng = param_rng(seed, "word_emb")
    data = rng.uniform(-0.05, 0.05, (n_words, dim))
    return EmbeddingTable(
        tensor=Tensor(data, requires_grad=False, name="word_emb"),
        random_rows=np.ones(n_words, dtype=bool),
    )


def load_pretrained_embeddings(path: str | Path, vocab: Vocabulary, seed: int = 0,
                               fallback_dim: int = 300) -> EmbeddingTable:
    """Whitespace-separated text vectors; vocabulary rows missing from the
    file (and the OOV row) are drawn from U(-0.05, 0.05). Width is inferred
    from the file; an empty file falls back to ``fallback_dim``. A vocabulary
    word's line with a component that is not a finite number raises
    ``EncoderError``."""
    vectors: dict[str, np.ndarray] = {}
    width: int | None = None
    for lineno, line in enumerate(utf8_lines(path, EncoderError), start=1):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if width is None:
            width = len(values)
            if width == 0:
                raise EncoderError(f"{path}: line {lineno} has no vector components")
        elif len(values) != width:
            raise EncoderError(
                f"{path}: inconsistent vector width at line {lineno} "
                f"({len(values)} vs {width})"
            )
        if token in vocab.word_to_id:
            try:
                vec = np.asarray([float(v) for v in values])
            except ValueError:
                vec = None
            if vec is None or not np.isfinite(vec).all():
                raise EncoderError(
                    f"{path}: line {lineno} has a non-numeric or non-finite component")
            vectors[token] = vec
    dim = width if width is not None else fallback_dim
    table = random_embedding_table(vocab.n_words, dim, seed)
    random_rows = np.ones(vocab.n_words, dtype=bool)
    for token, vec in vectors.items():
        row = vocab.word_to_id[token]
        table.tensor.data[row] = vec
        random_rows[row] = False
    return EmbeddingTable(tensor=table.tensor, random_rows=random_rows)


@dataclass
class EncoderParams:
    word: EmbeddingTable
    char_table: Tensor
    char_lstm: LstmParams
    fwd: LstmParams
    bwd: LstmParams

    def named(self) -> dict[str, Tensor]:
        out = {"word_emb": self.word.tensor, "char_emb": self.char_table}
        for prefix, lstm in (("char_lstm", self.char_lstm), ("lstm_fwd", self.fwd), ("lstm_bwd", self.bwd)):
            out[f"{prefix}.Wx"] = lstm.Wx
            out[f"{prefix}.Wh"] = lstm.Wh
            out[f"{prefix}.b"] = lstm.b
        return out


def init_encoder_params(config: EncoderConfig, vocab: Vocabulary, seed: int,
                        word_table: EmbeddingTable | None = None) -> EncoderParams:
    if word_table is None:
        word_table = random_embedding_table(vocab.n_words, config.word_dim, seed)
    if word_table.tensor.shape[0] != vocab.n_words:
        raise EncoderError(
            f"embedding table has {word_table.tensor.shape[0]} rows; "
            f"the vocabulary has {vocab.n_words} words"
        )
    if word_table.dim != config.word_dim:
        raise EncoderError(
            f"embedding width {word_table.dim} != configured word_dim {config.word_dim}"
        )
    char_rng = param_rng(seed, "char_emb")
    char_table = Tensor(
        char_rng.uniform(-0.05, 0.05, (vocab.n_chars, config.char_dim)),
        requires_grad=True, name="char_emb",
    )
    return EncoderParams(
        word=word_table,
        char_table=char_table,
        char_lstm=init_lstm(seed, "char_lstm", config.char_dim, config.char_lstm_dim),
        fwd=init_lstm(seed, "lstm_fwd", config.d, config.hidden),
        bwd=init_lstm(seed, "lstm_bwd", config.d, config.hidden),
    )


def lstm_step(p: LstmParams, x: Tensor, h_prev: Tensor, c_prev: Tensor,
              mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One masked LSTM step built from primitive ops; where mask is 0 the
    previous state carries over.

    The encoder runs whole passes with ``autodiff.lstm_sequence`` instead;
    this op-level step is the reference the tests compare it against.
    """
    hidden = p.hidden
    z = ad.add(ad.add(ad.matmul(x, p.Wx), ad.matmul(h_prev, p.Wh)), p.b)
    i = ad.sigmoid(ad.slice_cols(z, 0, hidden))
    f = ad.sigmoid(ad.slice_cols(z, hidden, 2 * hidden))
    g = ad.tanh(ad.slice_cols(z, 2 * hidden, 3 * hidden))
    o = ad.sigmoid(ad.slice_cols(z, 3 * hidden, 4 * hidden))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    if mask is not None and not mask.all():
        dtype = ad.get_default_dtype()
        m = Tensor(mask.astype(dtype).reshape(-1, 1))
        inv = Tensor((~mask).astype(dtype).reshape(-1, 1))
        c = ad.add(ad.mul(c, m), ad.mul(c_prev, inv))
        h = ad.add(ad.mul(h, m), ad.mul(h_prev, inv))
    return h, c


class TextEncoder:
    """Shared encoder applied to input texts and to every retrieved neighbor."""

    def __init__(self, config: EncoderConfig, vocab: Vocabulary, params: EncoderParams):
        self.config = config
        self.vocab = vocab
        self.params = params
        # Code point -> char id, sorted by code point, closed by a sentinel
        # above every code point so a lookup never runs off the end.
        table = sorted((ord(ch), i) for ch, i in vocab.char_to_id.items() if len(ch) == 1)
        table.append((0x110000, Vocabulary.OOV_ID))
        self._table_codes = np.array([code for code, _ in table], dtype=np.uint32)
        self._table_ids = np.array([i for _, i in table], dtype=np.int64)

    @classmethod
    def create(cls, config: EncoderConfig, vocab: Vocabulary, seed: int,
               word_table: EmbeddingTable | None = None) -> "TextEncoder":
        return cls(config, vocab, init_encoder_params(config, vocab, seed, word_table))

    def named_params(self) -> dict[str, Tensor]:
        return self.params.named()

    def _char_ids(self, words: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The ``(max_len, n)`` char ids of ``words`` clipped to
        ``max_word_chars``, 0 past each word's end, and the clipped lengths:
        one table lookup for all the batch's characters."""
        clipped = [w[: self.config.max_word_chars] for w in words]
        lens = np.array([len(w) for w in clipped], dtype=np.int64)
        if lens.size == 0 or lens.min() < 1:
            raise EncoderError("char composition needs nonempty words")
        codes = np.frombuffer("".join(clipped).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        pos = np.searchsorted(self._table_codes, codes)
        ids = np.zeros((lens.size, int(lens.max())), dtype=np.int64)
        ids[np.arange(ids.shape[1]) < lens[:, None]] = np.where(
            self._table_codes[pos] == codes, self._table_ids[pos], Vocabulary.OOV_ID)
        return ids.T, lens

    def _char_compose_batch(self, words: Sequence[str]) -> Tensor:
        ids, lens = self._char_ids(words)
        p = self.params.char_lstm
        proj = ad.add(ad.matmul(self.params.char_table, p.Wx), p.b)
        return ad.lstm_sequence(proj, ids, p.Wh, lens)

    def encode_batch(self, token_seqs: Sequence[Sequence[str]]) -> Tensor:
        """Encode a batch of token sequences into a (batch, 2*hidden) tensor."""
        cfg = self.config
        seqs = [list(s)[: cfg.max_tokens] for s in token_seqs]
        if not seqs:
            raise EncoderError("empty batch")
        if any(len(s) == 0 for s in seqs):
            raise EncoderError("empty token sequence")
        uniq: dict[str, int] = {}
        batch = len(seqs)
        lens = np.array([len(s) for s in seqs], dtype=np.int64)
        max_len = int(lens.max())
        occ_ids = np.zeros((batch, max_len), dtype=np.int64)
        for row, seq in enumerate(seqs):
            occ_ids[row, : len(seq)] = [uniq.setdefault(tok, len(uniq)) for tok in seq]
        word_ids = [self.vocab.word_id(tok) for tok in uniq]
        x = ad.concat(
            [ad.rows(self.params.word.tensor, word_ids), self._char_compose_batch(list(uniq))],
            axis=1,
        )
        steps = np.arange(max_len)[:, None]
        fwd_index = occ_ids.T
        bwd_index = occ_ids[np.arange(batch), np.maximum(lens - 1 - steps, 0)]
        fwd, bwd = self.params.fwd, self.params.bwd
        h_f = ad.lstm_sequence(ad.add(ad.matmul(x, fwd.Wx), fwd.b), fwd_index, fwd.Wh, lens)
        h_b = ad.lstm_sequence(ad.add(ad.matmul(x, bwd.Wx), bwd.b), bwd_index, bwd.Wh, lens)
        return ad.concat([h_f, h_b], axis=1)
