"""Reverse-mode automatic differentiation over dense numpy tensors.

Operations executed inside an active :class:`Tape` record themselves in
creation order; ``Tape.backward`` replays that list in reverse, skipping
nodes the loss never reached. Gradient buffers are treated as immutable:
accumulation rebinds ``tensor.grad`` rather than writing in place, so a
gradient may safely alias another node's buffer or a view.

The multi-perspective cosine of a row pair under a perspective row ``w``
is cos(w * q, w * n); it is defined as 0 (with zero gradient) whenever
either reweighted row has norm below ``COSINE_EPS`` (1e-12), which keeps
collapsed embeddings finite. Plain cosine is the case of one row of ones.

Non-finite values are caught where they surface, by three ops that always
check and raise ``NonFiniteError`` saying what the check covers:
``lstm_sequence`` checks ``proj`` and ``Wh`` (the embedding rows, character
composition and ``x @ Wx + b`` that feed it), as a saturated gate would hide
an inf; ``perspective_cosine`` its output (the pair rows and the weights; a
NaN norm is not masked as a zero one); ``softmax_cross_entropy`` its logits
(the attentive sums, feature concat, classifier matmul and bias), a check
that a forward computing no loss makes by ``check_logits``. With finite
operands every value between them is bounded, so no other op scans.
A restored checkpoint is scanned once (``trainer.model_from_checkpoint``),
so a bad weight is refused at load, by name, not by the requests reading it.

A tensor keeps a float32 or float64 array's dtype and an op's output its
inputs', so models of both widths share a process; a model's parameters
have one width (``memory.KnnTextModel.create``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

_ACTIVE_TAPE: "Tape | None" = None

COSINE_EPS = 1e-12
ROW_ALIGN, ROW_CHUNK = 4, 64


class AutodiffError(ValueError):
    """Shape mismatch, non-finite value, or misuse of the tape."""


class NonFiniteError(AutodiffError):
    """A NaN or inf reached one of the three checked ops."""


def get_default_dtype():
    """float64: the width of a model built without one."""
    return np.float64


def recording() -> bool:
    """Whether a ``Tape`` is active, so that ops record themselves."""
    return _ACTIVE_TAPE is not None


def _check_finite(message: str, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NonFiniteError(message)


class Tensor:
    """Dense real tensor; a leaf parameter when created directly. A float32
    or float64 array keeps its dtype; anything else becomes float64."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        data = np.asarray(data)
        self.data = data if data.dtype.char in "fd" else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size


class Tape:
    """Ordered record of op outputs; creation order is topological order."""

    def __init__(self):
        self._nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise AutodiffError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and sweep the record once, in reverse."""
        if loss.size != 1:
            raise AutodiffError(f"loss must be scalar, got shape {loss.shape}")
        if not loss.requires_grad:
            return
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


def _record(out: Tensor, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    if _ACTIVE_TAPE is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        _ACTIVE_TAPE._nodes.append(out)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    # Rebinding (never in-place) keeps aliased/viewed gradient buffers valid.
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise AutodiffError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _record(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise AutodiffError(f"elementwise_mul: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), backward)


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    data = a.data * s
    out = Tensor(data)

    def backward(g):
        _accum(a, g * s)

    return _record(out, (a,), backward)


def _matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray, n: int, chunk: bool) -> None:
    """``out[:n] = a[:n] @ b`` by products of a multiple of ``ROW_ALIGN`` rows,
    each of at most ``ROW_CHUNK`` when ``chunk``: OpenBLAS 0.3.31 (Haswell)
    picks gemv for one row, a tail kernel for rows past a multiple of 4, and
    in float32 other kernels for longer products, so a row's bytes would
    depend on its batch. Spare rows of ``a`` and ``out`` past ``n`` are used
    in place; without them the last rows go through a padded copy."""
    bulk = n - n % ROW_ALIGN
    if bulk < n and min(a.shape[0], out.shape[0]) >= bulk + ROW_ALIGN:
        bulk += ROW_ALIGN
    step = ROW_CHUNK if chunk else max(bulk, 1)
    for lo in range(0, bulk, step):
        hi = min(lo + step, bulk)
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    if bulk < n:  # the last rows, padded by repeating the last
        pad = a.take(np.minimum(np.arange(bulk, bulk + ROW_ALIGN), n - 1), axis=0)
        out[bulk:n] = (pad @ b)[:n - bulk]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise AutodiffError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a.data, b.data))
    _matmul_rows(a.data, b.data, data, a.shape[0], chunk=_ACTIVE_TAPE is None)
    out = Tensor(data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _record(out, (a, b), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise AutodiffError("concat: need at least one tensor")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise AutodiffError(
            f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}"
        ) from None
    out = Tensor(data)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                _accum(t, g[tuple(index)])

    return _record(out, tuple(tensors), backward)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.ndim != 2 or not 0 <= start <= stop <= a.shape[1]:
        raise AutodiffError(f"slice_cols: bad range [{start}:{stop}] for shape {a.shape}")
    out = Tensor(a.data[:, start:stop])

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[:, start:stop] = g
        _accum(a, buf)

    return _record(out, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    out = Tensor(data)

    def backward(g):
        _accum(a, g * (1.0 - data * data))

    return _record(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(data)

    def backward(g):
        _accum(a, g * data * (1.0 - data))

    return _record(out, (a,), backward)


def sum(a: Tensor, axis: int | None = None) -> Tensor:
    data = a.data.sum(axis=axis)
    out = Tensor(data)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _record(out, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise AutodiffError(f"reshape: cannot view {a.shape} as {shape}") from None
    out = Tensor(data)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _record(out, (a,), backward)


def _scatter_add_rows(idx: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """``out[idx[k]] += values[k]`` into zeros of ``n_rows`` rows.

    One stable sort by (multiplicity, index) makes all indices that occur
    ``k`` times one contiguous ``(rows, k, width)`` block of gathered
    values, summed with one ``np.add.reduce`` along its middle axis: one
    gather and one sum per distinct multiplicity, each reading whole
    contiguous rows (an ``np.add.reduceat`` along axis 0 walks each group
    column by column and is several times slower on wide rows). The
    result matches ``np.add.at`` to rounding.
    """
    out = np.zeros((n_rows,) + values.shape[1:], dtype=values.dtype)
    counts = np.bincount(idx)
    order = np.lexsort((idx, counts[idx]))
    present = np.flatnonzero(counts)
    present = present[np.argsort(counts[present], kind="stable")]
    ks, firsts = np.unique(counts[present], return_index=True)
    start = 0
    for rows_k, k in zip(np.split(present, firsts[1:]), ks.tolist()):
        stop = start + rows_k.size * k
        block = values[order[start:stop]]
        out[rows_k] = block if k == 1 else np.add.reduce(
            block.reshape((rows_k.size, k) + values.shape[1:]), axis=1)
        start = stop
    return out


def rows(table: Tensor, indices) -> Tensor:
    """Gather rows; gradients scatter-add back into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    if table.ndim != 2 or idx.ndim != 1:
        raise AutodiffError(f"rows: need 2-d table and 1-d indices, got {table.shape}, {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise AutodiffError(f"rows: index out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[idx])

    def backward(g):
        _accum(table, _scatter_add_rows(idx, g, table.shape[0]))

    return _record(out, (table,), backward)


def _prefix_tree(idx: np.ndarray, counts: list[int], n_rows: int):
    """The prefix tree of the rows of ``idx``, one level per step.

    The rows are sorted by descending length, ``counts[t]`` of them running
    at step ``t``. A node at depth ``t`` is a distinct prefix
    ``idx[:t + 1, j]`` of the running rows. The nodes of a depth are
    ordered by their longest row, the first of them in row order. Yields
    ``(n, parents, proj_rows, ends)`` per depth:

    - ``n`` nodes, whose projection rows are ``proj_rows``;
    - ``parents``, the previous depth's node of each, or ``None`` when they
      are the previous depth's first ``n`` nodes. That holds at every depth
      where no node has two children: a node's longest row continues it;
    - ``ends``, the node of each row that ends at this depth (the rows
      ``counts[t + 1]:counts[t]``), or ``None`` once every node holds one
      row. From there on node ``p`` is row ``p``, and every level is the
      plain sorted-rows step.

    It holds O(B) index state, whatever the number of steps.
    """
    node = rep = None  # while rows share nodes: each running row's node, each node's first row
    for t, cnt in enumerate(counts):
        x = idx[t, :cnt]
        parents = None
        if t == 0:
            groups = _group(x) if cnt > 1 else None
        elif rep is None:
            yield cnt, None, x, None
            continue
        else:
            up = node[:cnt]
            # A node has two children where a row's entry differs from its first row's.
            if np.array_equal(x, x[rep[up]]):
                rep = rep[:int(np.searchsorted(rep, cnt))]
                groups = (node, rep) if rep.size < cnt else None
            else:
                groups = _group(up * n_rows + x)
                parents = up if groups is None else up[groups[1]]
        if groups is None:  # every node holds one row: node p is row p from here on
            node = rep = None
            yield cnt, parents, x, None
        else:
            node, rep = groups
            ends_from = counts[t + 1] if t + 1 < len(counts) else 0
            yield rep.size, parents, x[rep], node[ends_from:cnt]


def _group(key: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Groups of equal ``key`` entries, ordered by their first entry: each
    entry's group and each group's first entry, or ``None`` when every
    entry differs. One stable sort, so the check for no repeats is cheap."""
    by_key = np.argsort(key, kind="stable")
    sorted_key = key[by_key]
    starts = np.empty(key.size, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=starts[1:])
    if starts.all():
        return None
    first = by_key[starts]  # each group's first entry, groups in key order
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    group = np.empty_like(by_key)
    group[by_key] = rank[np.cumsum(starts) - 1]
    return group, first[by_first]


def lstm_sequence(proj: Tensor, index, Wh: Tensor, lengths) -> Tensor:
    """One whole LSTM pass from a zero state; returns each row's final ``h``.

    ``proj`` holds precomputed input projections ``x @ Wx + b`` (gate order
    i, f, g, o along columns). Row ``j`` runs ``lengths[j]`` steps, reading
    ``proj[index[t, j]]`` at step ``t``. The pass is a single tape node
    whose backward is hand-written BPTT.

    An LSTM state depends only on the inputs read so far, so rows whose
    first ``t + 1`` entries of ``index`` agree share one state at step
    ``t``: the recurrence runs one row per node of the rows' prefix tree
    (``_prefix_tree``), and each row's output is its last node's ``h``.
    The rows are stably sorted once by descending length, and each depth's
    nodes are ordered by their longest row. Where no node has two children
    the nodes still running are then the prefix ``[:n_t]`` of the previous
    depth's, and forward and backward update the views ``h[:n]``,
    ``c[:n]``, ``dh[:n]`` and ``dc[:n]`` in place. Only a depth where a node
    has two or more children gathers its parents' ``h`` and ``c``, and its
    backward sums each parent's children's ``dh`` and ``dc``: one stable
    sort by parent, then one ``np.add.reduceat`` over the runs, on rows
    only ``h`` wide. A row that ends on a node that runs on (a prefix of
    another row, or one of duplicate rows) copies out its ``h`` at its last
    step, and its output gradient is added into that node's ``dh``. Once
    every node holds one row, the remaining steps are the plain sorted-rows
    loop: a row's state is never touched after its last step, and its ``h``
    stays in place. A call whose rows all differ at step 0 runs that loop
    from the start.

    Each step's ``h_prev @ Wh`` is one ``_matmul_rows`` call, chunked only
    without a tape; ``h`` and the buffer it writes have spare rows for it.
    Untaped, a node's bytes are those of any row it stands for run alone.

    Without a tape (or with nothing to differentiate) one ``(B, 4h)`` gate
    buffer and one ``(B, h)`` buffer serve every step, so the pass holds one
    step's worth of memory whatever its length. Under a tape every
    node's projection row is gathered into one ``(sum n_t, 4h)`` stack,
    which becomes the saved gates in place (with ``tanh(g)`` in the g
    columns), beside stacks of each node's ``h_prev``, ``c_prev`` and
    ``tanh(c)``: one row per node. The backward reads all four by depth
    offset and writes each node's gate gradients into its row of one buffer
    ``dZ``, applying the gate derivatives (``s(1-s)``, ``1-g**2`` in the g
    columns) as one block; ``dWh`` is then one product ``H_prev.T @ dZ``
    and ``dproj`` one scatter-add of ``dZ``. Every buffer takes ``proj``'s dtype.
    """
    idx = np.asarray(index, dtype=np.int64)
    lens = np.asarray(lengths, dtype=np.int64)
    hidden = Wh.shape[0] if Wh.ndim == 2 else -1
    width = 4 * hidden
    if proj.ndim != 2 or proj.shape[1] != width or Wh.shape != (hidden, width):
        raise AutodiffError(f"lstm_sequence: incompatible shapes proj {proj.shape}, Wh {Wh.shape}")
    if idx.ndim != 2 or lens.shape != idx.shape[1:]:
        raise AutodiffError(
            f"lstm_sequence: index {idx.shape} and lengths {lens.shape} must be (T, B) and (B,)")
    n_steps, batch = idx.shape
    if lens.size and (lens.min() < 1 or lens.max() > n_steps):
        raise AutodiffError(f"lstm_sequence: lengths must lie in [1, {n_steps}]")
    if idx.size and (idx.min() < 0 or idx.max() >= proj.shape[0]):
        raise AutodiffError(f"lstm_sequence: index out of range for {proj.shape[0]} projection rows")
    P, W = proj.data, Wh.data
    _check_finite("lstm_sequence: non-finite proj or Wh (this check covers the embedding rows,"
                  " the character composition and x @ Wx + b)", P, W)
    track = _ACTIVE_TAPE is not None and (proj.requires_grad or Wh.requires_grad)
    order = np.argsort(-lens, kind="stable")
    idx = idx[:, order]
    # Rows still running at each step; with the rows in `order` they are a prefix.
    counts = batch - np.cumsum(np.bincount(lens, minlength=n_steps))[:n_steps]
    counts = counts[counts > 0].tolist()
    levels = _prefix_tree(idx, counts, P.shape[0])
    dtype = P.dtype
    h = np.zeros((batch + ROW_ALIGN, hidden), dtype=dtype)
    c = np.zeros((batch, hidden), dtype=dtype)
    out_data = np.empty_like(c)
    kept = 0  # rows [:kept] keep their final h in place
    gi, gf, gg, go = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    if track:
        levels = list(levels)
        offsets = np.cumsum([0] + [level[0] for level in levels]).tolist()
        rows_all = np.concatenate([np.empty(0, dtype=np.int64), *(level[2] for level in levels)])
        S = P.take(rows_all, axis=0)
        H_prev, C_prev, TC = (np.empty((offsets[-1], hidden), dtype=dtype) for _ in range(3))
        # Each step's h_prev @ Wh goes into this one buffer: a fresh product
        # of this size would take new pages, and page faults, every step.
        hw = np.empty((batch + ROW_ALIGN, width), dtype=dtype)
    else:
        gates = np.empty((batch + ROW_ALIGN, width), dtype=dtype)
        work = np.empty((batch, hidden), dtype=dtype)
    with np.errstate(over="ignore"):
        for t, (n, parents, proj_rows, ends) in enumerate(levels):
            if parents is not None:
                h[:n], c[:n] = h[parents], c[parents]
            if ends is None and not kept:
                kept = n
            h_n, c_n = h[:n], c[:n]
            if track:
                lo, hi = offsets[t], offsets[t + 1]
                s, tc = S[lo:hi], TC[lo:hi]
                H_prev[lo:hi] = h_n
                C_prev[lo:hi] = c_n
                _matmul_rows(h, W, hw, n, chunk=False)
                s += hw[:n]
            else:
                s, tc = gates[:n], work[:n]
                _matmul_rows(h, W, gates, n, chunk=True)
                # A plain gather: `np.take(..., out=s)` is about twice as slow.
                s += P.take(proj_rows, axis=0)
            # tc holds tanh(g) while s becomes 1 / (1 + exp(-s)) in place.
            np.tanh(s[:, gg], out=tc)
            np.exp(np.negative(s, out=s), out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            s[:, gg] = tc
            np.multiply(s[:, gi], s[:, gg], out=tc)
            c_n *= s[:, gf]
            c_n += tc
            np.tanh(c_n, out=tc)
            np.multiply(s[:, go], tc, out=h_n)
            if ends is not None:
                out_data[order[counts[t] - ends.size:counts[t]]] = h[ends]
    out_data[order[:kept]] = h[:kept]
    out = Tensor(out_data)

    def backward(gh):
        dh = np.asarray(gh[order], dtype=dtype)
        dc = np.zeros_like(dh)
        dZ = np.empty((offsets[-1], width), dtype=dtype)
        deriv = np.empty((batch, width), dtype=dtype)
        work = np.empty((batch, hidden), dtype=dtype)
        n_next, next_parents = 0, None
        for t in reversed(range(len(levels))):
            n, parents, _, ends = levels[t]
            if ends is not None:
                # dh[:n] and dc[:n] become this depth's nodes' gradients: the
                # sums over their children, and the rows ending on them.
                if next_parents is not None:
                    # Each continuing parent's children, one run each in
                    # parent order, summed with `work` as the gather buffer.
                    by_parent = np.argsort(next_parents, kind="stable")
                    runs = np.bincount(next_parents)
                    starts = np.cumsum(runs) - runs
                    m = runs.size
                    for grad in (dh, dc):
                        np.take(grad, by_parent, axis=0, out=work[:n_next], mode="clip")
                        np.add.reduceat(work[:n_next], starts, axis=0, out=grad[:m])
                    dh[m:n] = 0.0
                    dc[m:n] = 0.0
                else:
                    dh[n_next:n] = 0.0
                    dc[n_next:n] = 0.0
                ending = gh[order[counts[t] - ends.size:counts[t]]]
                if ends.size and np.bincount(ends).max() > 1:  # duplicate rows end on one node
                    np.add.at(dh, ends, ending)
                else:
                    dh[ends] += ending
            n_next, next_parents = n, parents
            lo, hi = offsets[t], offsets[t + 1]
            s, tc, c_prev, dz = S[lo:hi], TC[lo:hi], C_prev[lo:hi], dZ[lo:hi]
            dh_n, dc_n, d, tmp = dh[:n], dc[:n], deriv[:n], work[:n]
            # dc += dh * o * (1 - tc**2)
            np.multiply(tc, tc, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            tmp *= s[:, go]
            tmp *= dh_n
            dc_n += tmp
            # Gate gradients before the derivative block: dc*g, dc*c_prev,
            # dc*i and dh*tanh(c) for gates i, f, g and o.
            np.multiply(dc_n, s[:, gg], out=dz[:, gi])
            np.multiply(dc_n, c_prev, out=dz[:, gf])
            np.multiply(dc_n, s[:, gi], out=dz[:, gg])
            np.multiply(dh_n, tc, out=dz[:, go])
            np.subtract(1.0, s, out=d)
            d *= s
            np.multiply(s[:, gg], s[:, gg], out=d[:, gg])
            np.subtract(1.0, d[:, gg], out=d[:, gg])
            dz *= d
            dc_n *= s[:, gf]
            np.matmul(dz, W.T, out=dh_n)
        if Wh.requires_grad:
            _accum(Wh, H_prev.T @ dZ)
        if proj.requires_grad:
            _accum(proj, _scatter_add_rows(rows_all, dZ, proj.shape[0]))

    return _record(out, (proj, Wh), backward)


def perspective_cosine(q: Tensor, n: Tensor, W: Tensor) -> Tensor:
    """Multi-perspective cosine of P row pairs: ``out[p, i]`` is the cosine
    of ``W[i] * q[p]`` and ``W[i] * n[p]``; (P, l) rows and (I, l) weights
    give (P, I). One tape node with a hand-written backward.

    With ``W2 = W * W`` the cosine is ``sum_j W2[i, j] q[p, j] n[p, j]``
    over the two norms ``sqrt(sum_j W2[i, j] q[p, j]**2)`` and likewise for
    ``n``. The three (P, l) products ``q*n``, ``q*q`` and ``n*n`` are each
    contracted against ``W2`` by ``np.einsum``, so no (P, I, l) array is
    formed. Its sum for a row depends only on that row, where a BLAS
    product picks its kernel by row count, so a pair's similarity does not
    depend on its batch. A pair and perspective with either norm below
    ``COSINE_EPS`` gives 0 and passes no gradient.
    """
    if q.ndim != 2 or q.shape != n.shape or W.ndim != 2 or W.shape[1] != q.shape[1]:
        raise AutodiffError(
            f"perspective_cosine: incompatible shapes {q.shape}, {n.shape} and {W.shape}")
    W2 = W.data * W.data
    qn, qq, nn = q.data * n.data, q.data * q.data, n.data * n.data
    sq_q = np.einsum("pj,ij->pi", qq, W2)
    sq_n = np.einsum("pj,ij->pi", nn, W2)
    norm_q, norm_n = np.sqrt(sq_q), np.sqrt(sq_n)
    # Only a vanishing norm is masked: a NaN one compares false, and raises below.
    ok = ~((norm_q <= COSINE_EPS) | (norm_n <= COSINE_EPS))
    denom = np.where(ok, norm_q * norm_n, 1.0)
    data = np.where(ok, np.einsum("pj,ij->pi", qn, W2) / denom, 0.0)
    _check_finite("perspective_cosine: non-finite output (this check covers the query and"
                  " neighbour embeddings of the pairs and the perspective weights)", data)
    out = Tensor(data)

    def backward(g):
        # Per pair and perspective: u = g / (|q| |n|), v = g cos / |q|^2,
        # w = g cos / |n|^2, all zero where a norm vanished.
        gm = np.where(ok, g, 0.0)
        u = gm / denom
        v = gm * data / np.where(ok, sq_q, 1.0)
        w = gm * data / np.where(ok, sq_n, 1.0)
        if q.requires_grad or n.requires_grad:
            uW = u @ W2
            if q.requires_grad:
                _accum(q, n.data * uW - q.data * (v @ W2))
            if n.requires_grad:
                _accum(n, q.data * uW - n.data * (w @ W2))
        if W.requires_grad:
            _accum(W, W.data * (2.0 * (u.T @ qn) - v.T @ qq - w.T @ nn))

    return _record(out, (q, n, W), backward)


def check_logits(logits: np.ndarray) -> None:
    """The check ``softmax_cross_entropy`` makes on its logits, for a forward
    that computes no loss."""
    _check_finite("softmax_cross_entropy: non-finite logits (this check covers the attentive"
                  " sums, the feature concat, the classifier matmul and its bias)", logits)


def softmax_cross_entropy(logits: Tensor, target_indices) -> Tensor:
    """Fused, shift-stabilized softmax + cross entropy; one loss per row."""
    targets = np.asarray(target_indices, dtype=np.int64)
    if logits.ndim != 2 or targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise AutodiffError(
            f"softmax_cross_entropy: logits {logits.shape} vs targets {targets.shape}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise AutodiffError("softmax_cross_entropy: target index out of range")
    z = logits.data
    check_logits(z)
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    batch = np.arange(z.shape[0])
    losses = np.log(total) - shifted[batch, targets]
    out = Tensor(losses)
    probs = exp / total[:, None]

    def backward(g):
        dz = probs * g[:, None]
        dz[batch, targets] -= g
        _accum(logits, dz)

    return _record(out, (logits,), backward)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax for inference-time probabilities."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def clip_global_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    grads = [p for p in params if p.requires_grad and p.grad is not None]
    total = math.sqrt(math.fsum(float((p.grad * p.grad).sum()) for p in grads))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / total
        for p in grads:
            p.grad = p.grad * scale
    return total


class Adam:
    """Adam with bias correction; a tensor that requires no gradient is
    never touched."""

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items() if p.requires_grad}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items() if p.requires_grad}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            if not p.requires_grad:
                continue
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise AutodiffError(f"adam_step: gradient shape {g.shape} != param shape {p.data.shape} for {name}")
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[name] / (1.0 - self.beta1 ** t)
            v_hat = self.v[name] / (1.0 - self.beta2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class GradCheckReport:
    """Per-parameter max relative error of backward vs central differences."""

    max_rel_err: dict[str, float]

    def worst(self) -> float:
        return max(self.max_rel_err.values()) if self.max_rel_err else 0.0

    def failures(self, tolerance: float) -> list[str]:
        return [n for n, e in self.max_rel_err.items() if e >= tolerance]

    def passed(self, tolerance: float) -> bool:
        return not self.failures(tolerance)


def grad_check(loss_fn: Callable[[], Tensor], params: Mapping[str, Tensor],
               h: float = 1e-4, floor: float = 1e-6) -> GradCheckReport:
    """Compare tape gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` must be a deterministic function of ``params`` returning a
    scalar tensor. Relative error uses ``max(|analytic|, |numeric|, floor)``
    as the denominator. Every ``loss_fn()`` call runs under a ``Tape``, so
    the finite differences take the same path as the analytic gradient.
    The parameters are perturbed in place, so a read-only array (a restored
    or banked model's) raises ``AutodiffError``.
    """
    for name, p in params.items():
        if not p.data.flags.writeable:
            raise AutodiffError(f"grad_check perturbs {name} in place, but its array is read-only;"
                                f" rebind it to a writable copy first")
    zero_grads(params.values())
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    analytic = {n: (np.array(p.grad) if p.grad is not None else np.zeros_like(p.data))
                for n, p in params.items()}
    report: dict[str, float] = {}
    for name, p in params.items():
        worst = 0.0
        flat = p.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            with Tape():
                f_plus = float(loss_fn().data)
            flat[j] = orig - h
            with Tape():
                f_minus = float(loss_fn().data)
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[j])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            worst = max(worst, rel)
        report[name] = worst
    return GradCheckReport(report)
