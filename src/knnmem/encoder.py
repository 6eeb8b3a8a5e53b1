"""Text encoder: frozen word vectors + trainable character-composed vectors,
composed by a BiLSTM whose final forward/backward states form the text
embedding. The word table, ``word_emb``, never requires a gradient.

Encoding is batched, and each LSTM input projection, bias included, is
computed once per distinct row, then gathered for every occurrence:

- the character LSTM projects the whole character table once per batch
  (``char_table @ Wx + b``) and runs over the batch's unique words, whose
  characters are mapped to ids with one sorted-table lookup;
- each word direction projects ``[word vector; char composition]`` once
  per unique word in the batch, split at the frozen word table's width
  ``d``: one ``autodiff.project`` computes ``word_emb[ids] @ Wx[:d] +
  char @ Wx[d:] + b``. Its word half reads only frozen rows; training
  forms the gradient of ``Wx``, ``b`` and the char compositions, not of
  the table. A ``WordCache`` keeps both rows of each spelling it has
  served, known or OOV, so a served word it has seen costs a row gather.

Each of the three passes is then one ``autodiff.lstm_sequence`` node: the
recurrence runs in numpy over one row per distinct prefix of the pass's
rows, so words that share their first characters (and texts that share
their first tokens) share those states. On the benchmark's corpora a
training batch's char pass runs about a quarter of its characters. The
states are ordered by their longest row, so where no prefix branches the
states still running at a step are the leading block of the last step's,
and a hand-written backward through time reads the gates, ``h_prev``,
``c_prev`` and ``tanh(c)`` the forward saved. A row shorter than the batch
maximum reads nothing after its last step, so its state carries over
exactly: padding never enters a sequence's embedding. Untaped, each
product whose rows are items (the input projections and every recurrence
step) is aligned and chunked (``autodiff.matmul_rows``), so an
embedding's bytes do not depend on its batch: a ``memory.MemoryBank``
caches exact rows. A taped encode runs each product unchunked, over all
its rows at once, so a row may differ from its untaped bytes by about one
unit in the last place, in float64 as in float32: the width of the
parameters, drawn in float64 and cast by ``memory.KnnTextModel.create``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace
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


def param_rng(seed: int | None, name: str) -> np.random.Generator:
    """Independent stream per parameter name, so adding or removing one
    parameter never shifts another's initialization. ``seed=None`` draws
    zeros, for a model whose every weight a checkpoint then replaces."""
    if seed is None:
        return SimpleNamespace(uniform=lambda low, high, size: np.zeros(size))
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


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


def random_embedding_table(n_words: int, dim: int, seed: int) -> Tensor:
    """The frozen ``word_emb`` table drawn from U(-0.05, 0.05); row 0 is the OOV row."""
    data = param_rng(seed, "word_emb").uniform(-0.05, 0.05, (n_words, dim))
    return Tensor(data, name="word_emb")


def load_pretrained_embeddings(path: str | Path, vocab: Vocabulary, seed: int = 0,
                               fallback_dim: int = 300) -> Tensor:
    """The frozen ``word_emb`` table from whitespace-separated text vectors;
    vocabulary rows missing from the file (and the OOV row) are drawn from
    U(-0.05, 0.05), as ``random_embedding_table`` draws them. Width is inferred
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
    for token, vec in vectors.items():
        table.data[vocab.word_to_id[token]] = vec
    return table


@dataclass
class EncoderParams:
    word: Tensor  # ``word_emb``, frozen: it never requires a gradient
    char_table: Tensor
    char_lstm: LstmParams
    fwd: LstmParams
    bwd: LstmParams

    def named(self) -> dict[str, Tensor]:
        out = {"word_emb": self.word, "char_emb": self.char_table}
        for prefix, lstm in (("char_lstm", self.char_lstm), ("lstm_fwd", self.fwd), ("lstm_bwd", self.bwd)):
            out[f"{prefix}.Wx"] = lstm.Wx
            out[f"{prefix}.Wh"] = lstm.Wh
            out[f"{prefix}.b"] = lstm.b
        return out


def init_encoder_params(config: EncoderConfig, vocab: Vocabulary, seed: int,
                        word_emb: Tensor | None = None) -> EncoderParams:
    if word_emb is None:
        word_emb = random_embedding_table(vocab.n_words, config.word_dim, seed)
    if word_emb.shape[0] != vocab.n_words:
        raise EncoderError(
            f"embedding table has {word_emb.shape[0]} rows; "
            f"the vocabulary has {vocab.n_words} words"
        )
    if word_emb.shape[1] != config.word_dim:
        raise EncoderError(
            f"embedding width {word_emb.shape[1]} != configured word_dim {config.word_dim}"
        )
    char_rng = param_rng(seed, "char_emb")
    char_table = Tensor(
        char_rng.uniform(-0.05, 0.05, (vocab.n_chars, config.char_dim)),
        requires_grad=True, name="char_emb",
    )
    return EncoderParams(
        word=word_emb,
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
        dtype = c.data.dtype
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
               word_emb: Tensor | None = None) -> "TextEncoder":
        return cls(config, vocab, init_encoder_params(config, vocab, seed, word_emb))

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

    def _project(self, word_ids: np.ndarray, words: Sequence[str]) -> tuple[Tensor, Tensor]:
        """The forward and backward word passes' input projections
        ``[word vector; char composition] @ Wx + b``, one row per word of
        ``words``, whose vocabulary ids are ``word_ids``: one
        ``autodiff.project`` per direction, split at the frozen word table."""
        char = self._char_compose_batch(words)
        return tuple(ad.project(self.params.word, word_ids, char, p.Wx, p.b)
                     for p in (self.params.fwd, self.params.bwd))

    def encode_batch(self, token_seqs: Sequence[Sequence[str]]) -> Tensor:
        """Encode a batch of token sequences into a (batch, 2*hidden) tensor."""
        cfg = self.config
        seqs = [list(s)[: cfg.max_tokens] for s in token_seqs]
        if not seqs:
            raise EncoderError("empty batch")
        if any(len(s) == 0 for s in seqs):
            raise EncoderError("empty token sequence")
        batch = len(seqs)
        lens = np.array([len(s) for s in seqs], dtype=np.int64)
        max_len = int(lens.max())
        uniq: dict[str, int] = {}
        occ_ids = np.zeros((batch, max_len), dtype=np.int64)
        occ_ids[np.arange(max_len) < lens[:, None]] = [
            uniq.setdefault(tok, len(uniq)) for seq in seqs for tok in seq]
        words = list(uniq)
        word_ids = np.fromiter(map(self.vocab.word_to_id.get, words, repeat(Vocabulary.OOV_ID)),
                               dtype=np.int64, count=len(words))
        proj_f, proj_b = self._project(word_ids, words)
        steps = np.arange(max_len)[:, None]
        bwd_index = occ_ids[np.arange(batch), np.maximum(lens - 1 - steps, 0)]
        h_f = ad.lstm_sequence(proj_f, occ_ids.T, self.params.fwd.Wh, lens)
        h_b = ad.lstm_sequence(proj_b, bwd_index, self.params.bwd.Wh, lens)
        return ad.concat([h_f, h_b], axis=1)


class WordCache(TextEncoder):
    """``encoder`` caching each word's two input projections by spelling.

    ``slot`` maps a spelling to its row of two tables, filled in the order
    the spellings were first asked for. The tables have room for every
    known word (``vocab.n_words`` rows, resident only once written) and
    double, with their contents, when OOV spellings outgrow them. A request
    runs one char pass and one ``autodiff.project`` per direction over the
    spellings it lacks, known and OOV alike (an OOV word's id is 0), and
    gathers the rest. A row depends only on its spelling and the weights,
    and untaped the char pass and ``project`` give each row the bytes of
    that row alone, so a cached row is byte-identical to
    ``TextEncoder._project``'s. Request text supplies the keys, so the
    cache holds at most ``bound`` = 2 · ``vocab.n_words`` spellings: a
    request that leaves it holding more drops them all.
    ``memory.MemoryBank`` holds one per weights.
    """

    def __init__(self, encoder: TextEncoder):
        super().__init__(encoder.config, encoder.vocab, encoder.params)
        shape = (self.vocab.n_words, 4 * self.config.hidden)
        self._rows = tuple(np.empty(shape, dtype=self.params.fwd.Wx.data.dtype) for _ in range(2))
        self.slot: dict[str, int] = {}
        self.bound = 2 * self.vocab.n_words
        self._lstms = (self.params.fwd, self.params.bwd)

    def _project(self, word_ids: np.ndarray, words: Sequence[str]) -> tuple[Tensor, Tensor]:
        slot = self.slot
        fresh = {w: i for i, w in enumerate(words) if w not in slot}
        if fresh:
            start, stop = len(slot), len(slot) + len(fresh)
            if stop > len(self._rows[0]):
                grown = tuple(np.empty((2 * stop, t.shape[1]), dtype=t.dtype) for t in self._rows)
                for new, old in zip(grown, self._rows):
                    new[:start] = old[:start]
                self._rows = grown
            char = self._char_compose_batch(list(fresh))
            ids = word_ids[list(fresh.values())]
            for table, p in zip(self._rows, self._lstms):
                table[start:stop] = ad.project(self.params.word, ids, char, p.Wx, p.b).data
            slot.update(zip(fresh, range(start, stop)))
        # Whole-row gathers: each direction's rows stay C-contiguous.
        index = np.fromiter(map(slot.__getitem__, words), dtype=np.int64, count=len(words))
        proj = tuple(Tensor(table[index]) for table in self._rows)
        if len(slot) > self.bound:
            self.slot = {}
        return proj
