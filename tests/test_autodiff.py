import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnmem.autodiff as ad
from knnmem.autodiff import (
    Adam,
    AutodiffError,
    NonFiniteError,
    Tape,
    Tensor,
    add,
    clip_global_norm,
    concat,
    grad_check,
    lstm_sequence,
    matmul,
    mul,
    perspective_cosine,
    reshape,
    rows,
    scalar_mul,
    sigmoid,
    slice_cols,
    softmax_cross_entropy,
    softmax_probs,
    tanh,
    zero_grads,
)


def rand(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


def cosine(a, b):
    """Plain cosine of each row pair: the one perspective of ones."""
    return perspective_cosine(a, b, Tensor(np.ones((1, a.shape[1]))))


def fd_check(loss_fn, params, tol=1e-6, h=1e-5, floor=1e-3):
    report = grad_check(loss_fn, params, h=h, floor=floor)
    assert report.passed(tol), report.max_rel_err


class TestPrimitiveGradients:
    """Every primitive's backward matches central finite differences."""

    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 1, 4)
        fd_check(lambda: ad.sum(tanh(add(a, b))), {"a": a, "b": b})

    def test_mul_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 3, 4), rand(rng, 3, 1)
        fd_check(lambda: ad.sum(tanh(mul(a, b))), {"a": a, "b": b})

    def test_matmul(self):
        rng = np.random.default_rng(2)
        a, b = rand(rng, 3, 5), rand(rng, 5, 2)
        fd_check(lambda: ad.sum(tanh(matmul(a, b))), {"a": a, "b": b})

    def test_scalar_mul(self):
        rng = np.random.default_rng(3)
        a = rand(rng, 4, 2)
        fd_check(lambda: ad.sum(tanh(scalar_mul(a, 0.37))), {"a": a})

    def test_concat_both_axes(self):
        rng = np.random.default_rng(4)
        a, b = rand(rng, 2, 3), rand(rng, 2, 3)
        fd_check(lambda: ad.sum(tanh(concat([a, b], axis=0))), {"a": a, "b": b})
        fd_check(lambda: ad.sum(tanh(concat([a, b], axis=1))), {"a": a, "b": b})

    def test_slice_cols(self):
        rng = np.random.default_rng(5)
        a = rand(rng, 3, 6)
        fd_check(lambda: ad.sum(tanh(slice_cols(a, 1, 4))), {"a": a})

    def test_tanh_sigmoid(self):
        rng = np.random.default_rng(6)
        a = rand(rng, 4, 3)
        fd_check(lambda: ad.sum(tanh(a)), {"a": a})
        fd_check(lambda: ad.sum(sigmoid(a)), {"a": a})

    def test_sum_axes(self):
        rng = np.random.default_rng(7)
        a = rand(rng, 3, 4)
        fd_check(lambda: ad.sum(tanh(ad.sum(a, axis=0))), {"a": a})
        fd_check(lambda: ad.sum(tanh(ad.sum(a, axis=1))), {"a": a})

    def test_reshape_transpose(self):
        rng = np.random.default_rng(8)
        a = rand(rng, 3, 4)
        fd_check(lambda: ad.sum(tanh(reshape(a, (2, 6)))), {"a": a})

    def test_rows_gather(self):
        rng = np.random.default_rng(9)
        table = rand(rng, 5, 3)
        idx = [0, 2, 2, 4]
        fd_check(lambda: ad.sum(tanh(rows(table, idx))), {"table": table})

    def test_perspective_cosine(self):
        rng = np.random.default_rng(11)
        a, b, w = rand(rng, 4, 5), rand(rng, 4, 5), rand(rng, 3, 5)
        weights = Tensor(rng.normal(size=(4, 3)))
        fd_check(lambda: ad.sum(mul(perspective_cosine(a, b, w), weights)),
                 {"a": a, "b": b, "w": w})

    @pytest.mark.parametrize("frozen", [False, True])
    def test_perspective_cosine_zero_rows(self, frozen):
        # Pair 1 has a zero query row and pair 2 a zero neighbour row; with
        # the frozen weights, perspective 0 is a zero row. Each such pair
        # and perspective gives 0 and passes no gradient.
        rng = np.random.default_rng(16)
        a, b = rand(rng, 4, 5), rand(rng, 4, 5)
        w = Tensor(rng.uniform(-1.0, 1.0, (3, 5)), requires_grad=not frozen)
        if frozen:
            w.data[0] = 0.0
        keep_a, keep_b = np.ones((4, 1)), np.ones((4, 1))
        keep_a[1] = keep_b[2] = 0.0
        weights = Tensor(rng.normal(size=(4, 3)))

        def loss_fn():
            return ad.sum(mul(perspective_cosine(mul(a, keep_a), mul(b, keep_b), w), weights))

        fd_check(loss_fn, {"a": a, "b": b} | ({} if frozen else {"w": w}))
        zero_grads([a, b, w])
        with Tape() as tape:
            qa, qb = mul(a, keep_a), mul(b, keep_b)
            sims = perspective_cosine(qa, qb, w)
            loss = ad.sum(mul(sims, weights))
        tape.backward(loss)
        assert np.array_equal(sims.data[1:3], np.zeros((2, 3)))
        assert np.array_equal(qa.grad[1:3], np.zeros((2, 5)))
        assert np.array_equal(qb.grad[1:3], np.zeros((2, 5)))
        assert np.all(sims.data[[0, 3], 1:] != 0.0)
        assert np.array_equal(sims.data[:, 0], np.zeros(4)) == frozen
        assert (w.grad is None) == frozen

    def test_perspective_cosine_shape_error(self):
        with pytest.raises(AutodiffError, match="perspective_cosine"):
            perspective_cosine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
                               Tensor(np.ones((1, 4))))

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(12)
        logits = rand(rng, 5, 4)
        targets = [0, 1, 2, 3, 1]
        fd_check(lambda: ad.sum(softmax_cross_entropy(logits, targets)), {"logits": logits})


def near_zero_norm_head(seed: int, dtype):
    """Pairs whose weighted norms are 1, 1e-6, 4 and 1.1 times COSINE_EPS
    (kept) and 0.9 and 0.25 times it (masked), in every combination, each
    with an unrelated, a 10%-noisy and a 0.1%-noisy copy of the query as
    neighbour; matched under 5 perspectives near 1 (so a weighted norm lies
    within 1% of the row's), then a classifier and the softmax. Returns the
    float64 inputs (float32-representable), and the cosines,
    probabilities, losses, logits and gradients of q, n and W computed at
    ``dtype``."""
    rng = np.random.default_rng(seed)
    eps, width, perspectives, classes = ad.COSINE_EPS, 200, 5, 4
    norms = np.array([1.0, 1e-6, 4 * eps, 1.1 * eps, 0.9 * eps, 0.25 * eps])
    nq, nn = (a.ravel() for a in np.meshgrid(norms, norms))
    unit = lambda x: x / np.linalg.norm(x, axis=1, keepdims=True)
    q, n = [], []
    for noise in (None, 0.1, 1e-3):
        u = unit(rng.normal(size=(nq.size, width)))
        v = unit(rng.normal(size=u.shape) if noise is None
                 else u * (1.0 + noise * rng.normal(size=u.shape)))
        q.append(u * nq[:, None])
        n.append(v * nn[:, None])
    inputs = [np.concatenate(q), np.concatenate(n),
              1.0 + rng.uniform(-0.01, 0.01, (perspectives, width)),
              rng.uniform(-3.0, 3.0, (perspectives, classes))]
    inputs = [a.astype(np.float32).astype(np.float64) for a in inputs]
    inputs.append(rng.integers(0, classes, inputs[0].shape[0]))
    *weights, targets = inputs
    qt, nt, Wt, Ct = (Tensor(a.astype(dtype), requires_grad=True) for a in weights)
    with Tape() as tape:
        cos = perspective_cosine(qt, nt, Wt)
        logits = matmul(cos, Ct)
        losses = softmax_cross_entropy(logits, targets)
        loss = ad.sum(losses)
    tape.backward(loss)
    return inputs, (cos.data, softmax_probs(logits.data), losses.data, logits.data,
                    qt.grad, nt.grad, Wt.grad)


class TestFloatWidth:
    """A tensor keeps its array's float width, so float32 and float64 run
    side by side, and float32 is held to written bounds against float64."""

    def test_tensor_keeps_float32_and_float64(self):
        assert Tensor(np.zeros(2, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.float32(1.0)).data.dtype == np.float32
        for other in (np.zeros(2, dtype=np.float16), np.arange(3), [1, 2], True, 0.5):
            assert Tensor(other).data.dtype == np.float64
        a = rand(np.random.default_rng(60), 3, 4)
        b = Tensor(a.data.astype(np.float32), requires_grad=True)
        with Tape() as tape:
            out64, out32 = ad.sum(tanh(a)), ad.sum(tanh(b))
        tape.backward(out32)
        assert (out64.data.dtype, out32.data.dtype, b.grad.dtype) == (np.float64, np.float32,
                                                                       np.float32)

    @pytest.mark.parametrize("seed", range(5))
    def test_float32_tracks_float64_near_zero_norms(self, seed):
        # The bound was chosen from measurements: over seeds 0-199 of these
        # inputs, float32 differed from float64 by at most 3.3 eps32 in a
        # cosine, 4.0 eps32 in a probability, 5.0 eps32 of 1 + max |logit|
        # in a loss, and 0.43, 0.43 and 1.8 eps32 of the scale below in an
        # entry of the q, n and W gradients. That scale is the size of the
        # terms an entry sums, not of the sum: the sum cancels for nearly
        # parallel pairs, and the softmax gradient p - 1 for a confident
        # target. The worst cosine error was 3.1 eps32 among the pairs with
        # a norm of 1.1 or 4 times COSINE_EPS and 3.2 eps32 among those with
        # norms of 1e-6 or more: the arithmetic is scale-free. The bound is
        # 16 eps32, about three times the worst figure. The pairs masked in
        # float64 (a norm below COSINE_EPS) are exactly those masked in
        # float32, and their gradient is exactly zero in both.
        tol = 16 * np.finfo(np.float32).eps
        (q, n, W, C, targets), want = near_zero_norm_head(seed, np.float64)
        _, got = near_zero_norm_head(seed, np.float32)
        # softmax_probs reads float32 logits in float64, as served predictions do.
        assert [g.dtype for g in got] == [np.float32, np.float64] + [np.float32] * 5
        cos, probs, losses, logits, dq, dn, dW = want
        assert np.array_equal(got[0] == 0.0, cos == 0.0)
        assert np.abs(got[0] - cos).max() <= tol
        assert np.abs(got[1] - probs).max() <= tol
        assert np.abs(got[2] - losses).max() <= tol * (1.0 + np.abs(logits).max())
        # The size of dL/dcos's terms per pair and perspective (zero where
        # masked), and the weighted norms it is divided by.
        dcos = np.where(cos == 0.0, 0.0, (probs + np.eye(C.shape[1])[targets]) @ np.abs(C.T))
        W2 = W * W
        norm_q, norm_n = np.sqrt(q * q @ W2.T), np.sqrt(n * n @ W2.T)
        safe = lambda x: np.where(dcos == 0.0, 1.0, x)
        scale_q = (dcos / safe(norm_q)) @ np.abs(W)
        scale_n = (dcos / safe(norm_n)) @ np.abs(W)
        scale_W = np.abs(W) * (2 * (dcos / safe(norm_q * norm_n)).T @ np.abs(q * n)
                               + (dcos / safe(norm_q ** 2)).T @ (q * q)
                               + (dcos / safe(norm_n ** 2)).T @ (n * n))
        for g32, g64, scale in ((got[4], dq, scale_q), (got[5], dn, scale_n), (got[6], dW, scale_W)):
            assert np.all(np.abs(g32 - g64) <= tol * scale)


class TestForwardExamples:
    def test_cosine_identical_is_one(self):
        v = Tensor([[0.3, -1.2, 2.0]])
        assert cosine(v, v).data[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_cosine_orthogonal_is_zero(self):
        v = Tensor([[1.0, 0.0]])
        w = Tensor([[0.0, 2.5]])
        assert cosine(v, w).data[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_cosine_zero_vector_policy(self):
        z = Tensor([[0.0, 0.0]])
        v = Tensor([[1.0, 2.0]])
        assert cosine(z, v).data[0, 0] == 0.0

    def test_cross_entropy_uniform_is_ln_c(self):
        for c in (2, 4, 10):
            logits = Tensor(np.zeros((1, c)))
            loss = softmax_cross_entropy(logits, [c - 1])
            assert loss.data[0] == pytest.approx(math.log(c), abs=1e-12)

    def test_softmax_probs_match_scalar_oracle(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(6, 5))
        probs = softmax_probs(z)
        for i in range(6):
            denom = math.fsum(math.exp(v) for v in z[i])
            for j in range(5):
                assert probs[i, j] == pytest.approx(math.exp(z[i, j]) / denom, rel=1e-12)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=8),
           st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_cosine_bounded(self, xs, ys):
        n = min(len(xs), len(ys))
        a = Tensor(np.asarray(xs[:n]).reshape(1, n))
        b = Tensor(np.asarray(ys[:n]).reshape(1, n))
        c = cosine(a, b).data[0, 0]
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum(p)
        tape.backward(loss)
        assert np.array_equal(p.grad, np.ones((2, 3)))

    def test_cosine_stationary_at_identical_inputs(self):
        p = Tensor([[0.5, -1.0, 2.0]], requires_grad=True)
        q = Tensor([[0.5, -1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            loss = ad.sum(cosine(p, q))
        tape.backward(loss)
        assert np.allclose(p.grad, 0.0, atol=1e-10)
        assert np.allclose(q.grad, 0.0, atol=1e-10)

    def test_unused_parameter_gets_no_gradient(self):
        used = Tensor([[1.0]], requires_grad=True)
        unused = Tensor([[5.0]], requires_grad=True)
        with Tape() as tape:
            loss = ad.sum(mul(used, used))
        tape.backward(loss)
        assert unused.grad is None

    def test_diamond_reuse_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.sum(add(mul(x, x), x))  # x^2 + x -> grad 2x + 1
        tape.backward(loss)
        assert x.grad[0] == pytest.approx(5.0, abs=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(AutodiffError, match="scalar"):
            tape.backward(y)

    def test_random_graph_matches_fd(self):
        rng = np.random.default_rng(14)
        w1, w2 = rand(rng, 4, 6), rand(rng, 6, 3)
        b1 = rand(rng, 1, 6)
        x = Tensor(rng.normal(size=(5, 4)))

        def loss_fn():
            hidden = tanh(add(matmul(x, w1), b1))
            logits = matmul(hidden, w2)
            return scalar_mul(ad.sum(softmax_cross_entropy(logits, [0, 1, 2, 0, 1])), 0.2)

        report = grad_check(loss_fn, {"w1": w1, "w2": w2, "b1": b1}, h=1e-4)
        assert report.worst() < 1e-3, report.max_rel_err

    def test_corrupted_backward_rule_is_reported(self):
        a = Tensor([[0.7, -0.3]], requires_grad=True)

        def bad_square(t):
            out = Tensor(t.data**2)

            def backward(g):
                ad._accum(t, g * 3.0 * t.data)  # wrong factor on purpose

            return ad._record(out, (t,), backward)

        report = grad_check(lambda: ad.sum(bad_square(a)), {"a": a}, h=1e-5)
        assert not report.passed(1e-3)

    def test_read_only_parameter_is_reported(self):
        a = Tensor([[0.7, -0.3]], requires_grad=True)
        a.data.flags.writeable = False
        with pytest.raises(AutodiffError, match="a.*read-only"):
            grad_check(lambda: ad.sum(mul(a, a)), {"a": a})

    def test_determinism(self):
        rng = np.random.default_rng(15)
        w = rand(rng, 3, 3)
        x = Tensor(rng.normal(size=(2, 3)))

        def run():
            zero_grads([w])
            with Tape() as tape:
                loss = ad.sum(tanh(matmul(x, w)))
            tape.backward(loss)
            return float(loss.data), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestErrors:
    def test_matmul_shape_error_names_primitive(self):
        with pytest.raises(AutodiffError, match="matmul"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_concat_shape_error(self):
        with pytest.raises(AutodiffError, match="concat"):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_non_finite_forward_is_error(self):
        # Each of the three checked ops refuses a NaN or an inf, also where
        # its output alone would hide it: an inf in the first (input gate)
        # column of the LSTM projection saturates to a finite state, a NaN
        # perspective weight gives a NaN norm (never masked as a zero one),
        # and a -inf logit off the target leaves the loss finite.
        rng = np.random.default_rng(47)
        for bad in (np.nan, np.inf, -np.inf):
            proj, index, Wh, _, lengths = lstm_inputs(rng)
            proj.data[index[0, 0], 0] = bad
            with pytest.raises(NonFiniteError,
                               match=r"lstm_sequence: non-finite proj or Wh.*x @ Wx \+ b"):
                lstm_sequence(proj, index, Wh, lengths)
            proj, index, Wh, _, lengths = lstm_inputs(rng)
            Wh.data[1, 2] = bad
            with pytest.raises(NonFiniteError, match="lstm_sequence: non-finite proj or Wh"):
                lstm_sequence(proj, index, Wh, lengths)
            w = rand(rng, 2, 4)
            w.data[1, 2] = bad
            with np.errstate(invalid="ignore"), \
                 pytest.raises(NonFiniteError, match="perspective_cosine.*perspective weights"):
                perspective_cosine(rand(rng, 3, 4), rand(rng, 3, 4), w)
            logits = rand(rng, 2, 3)
            logits.data[1, 0] = bad
            with pytest.raises(NonFiniteError,
                               match="softmax_cross_entropy.*classifier matmul and its bias"):
                softmax_cross_entropy(logits, [0, 1])
        # Between the three, no op scans its output.
        big = Tensor([1e308])
        with np.errstate(over="ignore"):
            assert np.isinf(add(big, big).data[0])

    def test_rows_out_of_range(self):
        with pytest.raises(AutodiffError, match="rows"):
            rows(Tensor(np.ones((2, 2))), [0, 5])

    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(AutodiffError, match="active"):
                with Tape():
                    pass


class TestAdam:
    def test_zero_gradient_leaves_params_step_increments(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        assert opt.step_count == 1
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_first_step_moves_by_lr(self):
        p = Tensor([0.0], requires_grad=True)
        opt = Adam({"p": p}, lr=1e-4)
        p.grad = np.ones(1)
        opt.step()
        assert p.data[0] == pytest.approx(-1e-4, rel=1e-6)

    def test_frozen_param_bitwise_untouched(self):
        frozen = Tensor(np.array([3.0, 4.0]), requires_grad=False)
        live = Tensor(np.array([1.0]), requires_grad=True)
        before = frozen.data.copy()
        opt = Adam({"frozen": frozen, "live": live}, lr=0.5)
        for _ in range(10):
            frozen.grad = np.ones(2)
            live.grad = np.ones(1)
            opt.step()
        assert frozen.data.tobytes() == before.tobytes()
        assert live.data[0] != 1.0

    def test_matches_reference_adam_trajectory(self):
        # Independent scalar reference implementation of Adam with bias correction.
        rng = np.random.default_rng(16)
        grads = rng.normal(size=8)
        p = Tensor([0.5], requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        theta, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([g])
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert p.data[0] == pytest.approx(theta, rel=1e-12)

    def test_gradient_shape_mismatch(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.ones(4)
        with pytest.raises(AutodiffError, match="adam_step"):
            opt.step()


class TestClip:
    def test_norm_scaling(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        a.grad = np.array([3.0, 4.0, 0.0])
        total = clip_global_norm([a], max_norm=1.0)
        assert total == pytest.approx(5.0)
        assert np.linalg.norm(a.grad) == pytest.approx(1.0)

    def test_no_clip_below_threshold(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.4])
        clip_global_norm([a], max_norm=1.0)
        assert np.allclose(a.grad, [0.3, 0.4])


def ref_lstm_sequence(proj, index, Wh, lengths):
    """Step-by-step numpy reference: finished rows keep their last state."""
    hidden = Wh.shape[0]
    h = np.zeros((index.shape[1], hidden))
    c = np.zeros_like(h)
    for t in range(index.shape[0]):
        z = proj[index[t]] + h @ Wh
        i = 1.0 / (1.0 + np.exp(-z[:, :hidden]))
        f = 1.0 / (1.0 + np.exp(-z[:, hidden:2 * hidden]))
        g = np.tanh(z[:, 2 * hidden:3 * hidden])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * hidden:]))
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        m = (t < lengths)[:, None]
        h, c = np.where(m, h_new, h), np.where(m, c_new, c)
    return h


def lstm_inputs(rng, n_rows=5, dtype=np.float64):
    """Four steps, four rows, hidden 3, at width ``dtype``; the op reads
    ``add(proj, b)``."""
    proj = Tensor(rng.uniform(-1.0, 1.0, (n_rows, 12)).astype(dtype), requires_grad=True)
    Wh = Tensor(rng.uniform(-0.5, 0.5, (3, 12)).astype(dtype), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, (1, 12)).astype(dtype), requires_grad=True)
    index = rng.integers(0, n_rows, (4, 4))
    # Rows: full length, ragged, active at the first step only, and ragged again.
    lengths = np.array([4, 3, 1, 2])
    return proj, index, Wh, b, lengths


class TestLstmSequence:
    @staticmethod
    def check_step_reference(lengths):
        rng = np.random.default_rng(40)
        proj, index, Wh, b, _ = lstm_inputs(rng)
        got = lstm_sequence(add(proj, b), index, Wh, lengths).data
        with Tape():  # the taped forward saves its gates in place, in another code path
            taped = lstm_sequence(add(proj, b), index, Wh, lengths).data
        want = ref_lstm_sequence(proj.data + b.data, index, Wh.data, lengths)
        assert np.allclose(got, want, rtol=0, atol=1e-14)
        assert np.allclose(taped, want, rtol=0, atol=1e-14)

    def test_matches_step_reference(self):
        self.check_step_reference(np.array([4, 3, 1, 2]))

    def test_ascending_lengths_match_step_reference(self):
        # The op sorts rows by descending length: this order reverses every
        # row's place, so the sort and the un-sort must both be right.
        self.check_step_reference(np.array([1, 2, 3, 4]))

    def test_masked_rows_carry_state_exactly(self):
        rng = np.random.default_rng(41)
        proj, index, Wh, _, lengths = lstm_inputs(rng)
        first_only = lstm_sequence(proj, index[:1], Wh, np.ones(4, dtype=int)).data
        full = lstm_sequence(proj, index, Wh, lengths).data
        assert np.array_equal(full[2], first_only[2])

    def test_grad_check(self):
        rng = np.random.default_rng(42)
        proj, index, Wh, b, lengths = lstm_inputs(rng)
        weights = rng.uniform(-1.0, 1.0, (4, 3))
        fd_check(lambda: ad.sum(mul(tanh(lstm_sequence(add(proj, b), index, Wh, lengths)), weights)),
                 {"proj": proj, "Wh": Wh, "b": b})

    def test_grad_check_with_repeated_rows(self):
        # Every step reads the same two projection rows, so dproj sums many steps.
        rng = np.random.default_rng(43)
        proj, _, Wh, b, lengths = lstm_inputs(rng, n_rows=2)
        index = np.tile([0, 1, 0, 1], (4, 1))
        fd_check(lambda: ad.sum(tanh(lstm_sequence(add(proj, b), index, Wh, lengths))),
                 {"proj": proj, "Wh": Wh, "b": b})

    @staticmethod
    def check_shared_prefixes(index, lengths, fd=False, seed=48):
        """Rows that share prefixes share states. Untaped, each row's output
        has the bytes of the row run alone; taped, the outputs match the
        step reference and the gradients are the sums of each row's own,
        to rounding; with ``fd``, they match finite differences too."""
        index, lengths = np.asarray(index), np.asarray(lengths)
        rng = np.random.default_rng(seed)
        proj, _, Wh, b, _ = lstm_inputs(rng, n_rows=int(index.max()) + 1)
        batch = index.shape[1]
        weights = rng.uniform(-1.0, 1.0, (batch, 3))
        want = ref_lstm_sequence(proj.data + b.data, index, Wh.data, lengths)
        got = lstm_sequence(add(proj, b), index, Wh, lengths).data
        assert np.allclose(got, want, rtol=0, atol=1e-14)
        for j in range(batch):
            alone = lstm_sequence(add(proj, b), index[:, j:j + 1], Wh, lengths[j:j + 1]).data
            assert np.array_equal(got[j], alone[0])

        def grads(cols):
            zero_grads([proj, Wh, b])
            with Tape() as tape:
                out = lstm_sequence(add(proj, b), index[:, cols], Wh, lengths[cols])
                loss = ad.sum(mul(tanh(out), weights[cols]))
            tape.backward(loss)
            return out.data, [np.array(p.grad) for p in (proj, Wh, b)]

        taped, together = grads(np.arange(batch))
        assert np.allclose(taped, want, rtol=0, atol=1e-14)
        apart = [grads(np.array([j]))[1] for j in range(batch)]
        for k, grad in enumerate(together):
            assert np.allclose(grad, np.sum([g[k] for g in apart], axis=0), rtol=1e-12, atol=1e-14)
        if fd:
            fd_check(lambda: ad.sum(mul(tanh(lstm_sequence(add(proj, b), index, Wh, lengths)), weights)),
                     {"proj": proj, "Wh": Wh, "b": b})

    def test_duplicate_rows(self):
        # Rows 0, 1 and 3 are one row three times; their gradients add up on one state.
        self.check_shared_prefixes([[0, 0, 1, 0], [1, 1, 0, 1], [2, 2, 0, 2]], [3, 3, 2, 3], fd=True)

    def test_row_that_is_a_prefix_of_another(self):
        # Rows 1 and 2 end on nodes that row 0 runs on from.
        self.check_shared_prefixes([[0, 0, 0, 2], [1, 1, 1, 0], [2, 0, 2, 0], [1, 0, 0, 0]],
                                   [4, 2, 3, 1], fd=True)

    def test_rows_share_only_their_first_entry(self):
        self.check_shared_prefixes([[0, 0, 0, 1], [1, 2, 0, 1], [2, 1, 1, 0]], [3, 3, 2, 3])

    def test_fan_out_below_step_zero(self):
        # Rows 0-2 share two steps; rows 0 and 2 part at step 3, rows 0 and 1 at step 2.
        self.check_shared_prefixes([[0, 0, 0, 1], [1, 1, 1, 1], [2, 0, 2, 2], [0, 1, 2, 0]],
                                   [4, 4, 4, 2], fd=True)

    def test_no_shared_prefix(self):
        self.check_shared_prefixes([[0, 1, 2, 3], [1, 1, 0, 2], [2, 0, 0, 1], [3, 3, 1, 0]],
                                   [4, 3, 1, 2])

    @given(st.integers(2, 3), st.integers(1, 5), st.integers(1, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shared_prefixes_on_small_alphabets(self, alphabet, n_steps, batch, data):
        symbols = st.integers(0, alphabet - 1)
        index = data.draw(st.lists(st.lists(symbols, min_size=batch, max_size=batch),
                                   min_size=n_steps, max_size=n_steps))
        lengths = data.draw(st.lists(st.integers(1, n_steps), min_size=batch, max_size=batch))
        self.check_shared_prefixes(index, lengths)

    def test_empty_batch(self):
        rng = np.random.default_rng(49)
        proj, _, Wh, _, _ = lstm_inputs(rng)
        for n_steps in (0, 3):
            index, lengths = np.zeros((n_steps, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
            assert lstm_sequence(proj, index, Wh, lengths).shape == (0, 3)
            zero_grads([proj, Wh])
            with Tape() as tape:
                loss = ad.sum(lstm_sequence(proj, index, Wh, lengths))
            tape.backward(loss)
            assert not proj.grad.any() and not Wh.grad.any()

    def test_one_tape_node(self):
        rng = np.random.default_rng(44)
        proj, index, Wh, _, lengths = lstm_inputs(rng)
        with Tape() as tape:
            lstm_sequence(proj, index, Wh, lengths)
        assert len(tape) == 1

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(45)
        proj, index, Wh, b, lengths = lstm_inputs(rng, dtype=np.float32)
        with Tape() as tape:
            loss = ad.sum(lstm_sequence(add(proj, b), index, Wh, lengths))
        tape.backward(loss)
        assert loss.data.dtype == np.float32
        for p in (proj, Wh, b):
            assert p.grad.dtype == np.float32

    def test_shape_errors(self):
        rng = np.random.default_rng(46)
        proj, index, Wh, _, lengths = lstm_inputs(rng)
        with pytest.raises(AutodiffError, match="lstm_sequence"):
            lstm_sequence(Tensor(np.zeros((5, 5))), index, Wh, lengths)
        with pytest.raises(AutodiffError, match="lstm_sequence"):
            lstm_sequence(proj, index, Wh, lengths[:2])
        with pytest.raises(AutodiffError, match="lstm_sequence"):
            lstm_sequence(proj, index + 5, Wh, lengths)
        with pytest.raises(AutodiffError, match="lstm_sequence"):
            lstm_sequence(proj, index, Wh, [4, 3, 0, 2])
        with pytest.raises(AutodiffError, match="lstm_sequence"):
            lstm_sequence(proj, index, Wh, [4, 5, 1, 2])

    @staticmethod
    def peak_bytes(n_steps, tape: bool, requires_grad: bool = True) -> int:
        rng = np.random.default_rng(47)
        hidden, batch = 16, 8
        proj = Tensor(rng.uniform(-1, 1, (6, 4 * hidden)), requires_grad=requires_grad)
        Wh = Tensor(rng.uniform(-0.1, 0.1, (hidden, 4 * hidden)), requires_grad=requires_grad)
        index = rng.integers(0, 6, (n_steps, batch))
        lengths = np.full(batch, n_steps)
        tracemalloc.start()
        try:
            if tape:
                with Tape():
                    out = lstm_sequence(proj, index, Wh, lengths)
            else:
                out = lstm_sequence(proj, index, Wh, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del out
        return peak

    def test_no_per_step_state_without_tape(self):
        # Under a tape, 400 steps keep ~1.6 MB of activations; without one
        # (or with nothing to differentiate) the pass keeps a few rows only.
        kept = self.peak_bytes(400, tape=True) - self.peak_bytes(25, tape=True)
        assert kept > 1_000_000
        assert self.peak_bytes(400, tape=False) - self.peak_bytes(25, tape=False) < 50_000
        no_grad = self.peak_bytes(400, tape=True, requires_grad=False)
        assert no_grad - self.peak_bytes(25, tape=True, requires_grad=False) < 50_000


class TestRowsBackward:
    def test_scatter_matches_add_at(self):
        rng = np.random.default_rng(48)
        for idx in ([4, 1, 0], [2, 2, 5, 2, 0, 5], []):
            table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            weights = rng.normal(size=(len(idx), 3))
            with Tape() as tape:
                loss = ad.sum(mul(rows(table, idx), weights))
            tape.backward(loss)
            want = np.zeros((6, 3))
            np.add.at(want, np.asarray(idx, dtype=np.int64), weights)
            assert np.allclose(table.grad, want, rtol=1e-15, atol=1e-15)


class TestScatterAddRows:
    """`_scatter_add_rows` against `np.add.at` on wide rows.

    Tolerance, fixed before the first run: a row that receives m values is
    a float64 sum of m terms, and any summation order lies within
    (m - 1) * eps * sum(|terms|) of any other (Higham, Accuracy and
    Stability of Numerical Algorithms, section 4.2).
    """

    @staticmethod
    def check(idx, n_rows, width=400, seed=49):
        idx = np.asarray(idx, dtype=np.int64)
        values = np.random.default_rng(seed).normal(size=(idx.size, width))
        got = ad._scatter_add_rows(idx, values, n_rows)
        want = np.zeros((n_rows, width))
        np.add.at(want, idx, values)
        mass = np.zeros((n_rows, width))
        np.add.at(mass, idx, np.abs(values))
        counts = np.bincount(idx, minlength=n_rows)[:, None]
        bound = np.maximum(counts - 1, 0) * np.finfo(np.float64).eps * mass
        assert got.shape == want.shape and got.dtype == values.dtype
        assert np.all(np.abs(got - want) <= bound)

    def test_zipf_duplicates(self):
        idx = np.random.default_rng(50).zipf(1.3, 3100) % 505
        assert np.bincount(idx).max() > 100 and len(np.unique(idx)) > 100
        self.check(idx, 505)

    def test_all_distinct(self):
        self.check(np.random.default_rng(51).permutation(600)[:450], 600)

    def test_one_index_repeated(self):
        self.check(np.full(700, 3), 8)

    def test_empty(self):
        self.check([], 5)
