import io
import json
import math
import re
import threading
import time
import tracemalloc
import zipfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from evotraj import cli
from evotraj.model import (
    ModelConfig,
    TrainConfig,
    Transformer,
    batch_arrays,
    load_checkpoint,
    masked_cross_entropy,
    rank_next_mutations,
    save_checkpoint,
    train,
    trajectory_loss,
)
from evotraj.model.ranking import top_k_unseen
from evotraj.model.nn import (
    CausalSelfAttention,
    Gelu,
    Linear,
    Parameter,
    rope_angles,
    rope_rotate,
    softmax,
)
from evotraj.model.training import Adam, TrainingDiverged, TrainState, plan_batch, train_step
from evotraj.model import transformer
from evotraj.model.transformer import LOGIT_BLOCK_BYTES
from evotraj.genome import NtMutation
from evotraj.pipeline import sha256_file
from evotraj.tokenizer import PREFIX_LENGTH, LayoutSpec, TokenizedSample, Tokenizer
from evotraj.tree import SequenceMeta, Trajectory

VOCAB = 97
DESK = ModelConfig(vocab_size=VOCAB, layers=2, hidden=64, heads=4, max_seq=64)


def small_batch(seed=0, b=2, t=10, vocab=VOCAB):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, vocab, size=(b, t))
    targets = rng.integers(0, vocab, size=(b, t))
    mask = rng.random((b, t)) < 0.6
    mask[0, 0] = True  # never empty
    return inputs, targets, mask


def every_row(method, ids):
    """``method``, a model's ``hidden``, ``logits`` or ``forward``, at every
    position of (B, T) ``ids``: the (B * T, d) rows reshaped to (B, T, d)."""
    ids = np.asarray(ids)
    return method(ids, np.nonzero(np.ones(ids.shape, dtype=bool))).reshape(*ids.shape, -1)


class TestForward:
    def test_distributions_normalize(self):
        model = Transformer(DESK, seed=1)
        probs = every_row(model.forward, [np.arange(12) % VOCAB])
        assert probs.shape == (1, 12, VOCAB)
        assert np.all(probs >= 0)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-6

    def test_causality_exact(self):
        model = Transformer(DESK, seed=2)
        rng = np.random.default_rng(3)
        ids = rng.integers(0, VOCAB, size=(1, 16))
        base = every_row(model.logits, ids)
        for j in (0, 5, 15):
            perturbed = ids.copy()
            perturbed[0, j] = (perturbed[0, j] + 1) % VOCAB
            out = every_row(model.logits, perturbed)
            assert np.array_equal(base[:, :j], out[:, :j]), f"leak before position {j}"
            assert not np.array_equal(base[:, j], out[:, j])

    def test_determinism_bitwise(self):
        ids = [np.arange(20) % VOCAB]
        a = every_row(Transformer(DESK, seed=7).logits, ids)
        b = every_row(Transformer(DESK, seed=7).logits, ids)
        assert np.array_equal(a, b)

    def test_rows_gather_prediction_positions(self):
        model = Transformer(DESK, seed=3)
        ids, _, _ = small_batch(seed=4, b=3, t=12)
        b_idx, t_idx = np.array([0, 2, 2, 1]), np.array([11, 0, 5, 7])
        full = every_row(model.logits, ids)
        gathered = model.logits(ids, rows=(b_idx, t_idx))
        assert np.allclose(gathered, full[b_idx, t_idx], rtol=1e-12, atol=1e-12)
        probs = model.forward(ids, rows=(b_idx, t_idx))
        assert probs.shape == (4, VOCAB)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_forward_is_softmax_of_logits_bitwise(self):
        model = Transformer(DESK, seed=3)
        ids, _, _ = small_batch(seed=5, b=3, t=12)
        rows = (np.array([0, 1, 2, 2]), np.array([3, 11, 0, 7]))
        assert np.array_equal(model.forward(ids, rows), softmax(model.logits(ids, rows)))

    def test_too_long_rejected(self):
        model = Transformer(DESK, seed=0)
        with pytest.raises(ValueError, match="max_seq"):
            every_row(model.logits, np.zeros((1, 65), dtype=int))

    def test_bad_token_rejected(self):
        model = Transformer(DESK, seed=0)
        with pytest.raises(ValueError, match="vocabulary"):
            every_row(model.logits, [[VOCAB]])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, hidden=65, heads=4)


class TestRope:
    def test_common_offset_invariance_scores(self):
        rng = np.random.default_rng(5)
        head_dim = 16
        q = rng.normal(size=head_dim)
        k = rng.normal(size=head_dim)

        def score(i, j):
            qi = rope_rotate(q[None], rope_angles(np.array([i]), head_dim))
            kj = rope_rotate(k[None], rope_angles(np.array([j]), head_dim))
            return (qi @ kj.T).item()

        for i, j, shift in [(0, 0, 7), (3, 1, 10), (9, 9, 100), (12, 4, 1000)]:
            assert abs(score(i, j) - score(i + shift, j + shift)) < 1e-6

    def test_single_layer_output_invariant_to_common_shift(self):
        rng = np.random.default_rng(6)
        attn = CausalSelfAttention(32, 4, rng)
        x = rng.normal(size=(1, 12, 32))
        base = attn.forward(x, positions=np.arange(12))
        shifted = attn.forward(x, positions=np.arange(12) + 51)
        assert np.abs(base - shifted).max() < 1e-6

    def test_rotation_changes_relative_scores(self):
        # sanity: different relative offsets give different scores
        rng = np.random.default_rng(8)
        head_dim = 16
        q, k = rng.normal(size=head_dim), rng.normal(size=head_dim)

        def score(i, j):
            qi = rope_rotate(q[None], rope_angles(np.array([i]), head_dim))
            kj = rope_rotate(k[None], rope_angles(np.array([j]), head_dim))
            return (qi @ kj.T).item()

        assert abs(score(4, 0) - score(8, 0)) > 1e-8


class TestLossFunction:
    def test_uniform_logits_give_log_vocab(self):
        # zero rows give zero logits, whatever the head
        head = np.random.default_rng(0).normal(size=(8, VOCAB))
        res = masked_cross_entropy(np.zeros((4, 8)), head, np.array([1, 2, 3, 4]))
        assert res.loss == pytest.approx(math.log(VOCAB), rel=1e-12)

    def test_certain_prediction_gives_zero_loss(self):
        head = np.zeros((1, VOCAB))
        head[0, 5] = 1e4
        res = masked_cross_entropy(np.ones((1, 1)), head, np.array([5]))
        assert res.loss == pytest.approx(0.0, abs=1e-12)

    def test_zero_head_model_is_uniform(self):
        model = Transformer(DESK, seed=0)
        model.head.weight.value[...] = 0.0
        inputs, targets, mask = small_batch()
        res = trajectory_loss(model, inputs, targets, mask)
        assert res.loss == pytest.approx(math.log(VOCAB), rel=1e-12)

    def test_prefix_labels_cannot_affect_loss(self):
        model = Transformer(DESK, seed=4)
        inputs, targets, mask = small_batch(seed=9)
        base = trajectory_loss(model, inputs, targets, mask).loss
        scrambled = targets.copy()
        scrambled[~mask] = (scrambled[~mask] + 13) % VOCAB
        after = trajectory_loss(model, inputs, scrambled, mask).loss
        assert after == base

    def test_empty_mask_rejected(self):
        model = Transformer(DESK, seed=0)
        inputs, targets, _ = small_batch()
        with pytest.raises(ValueError, match="no trajectory-token targets"):
            trajectory_loss(model, inputs, targets, np.zeros_like(targets, dtype=bool))

    def test_grad_zero_outside_mask(self):
        # the one target sees positions (0, 0..2) only, so no gradient
        # reaches the embedding rows of the ids anywhere else
        model = Transformer(DESK, seed=0)
        ids = np.arange(10).reshape(2, 5)
        targets = np.zeros((2, 5), dtype=int)
        mask = np.zeros((2, 5), dtype=bool)
        mask[0, 2] = True
        model.backward(trajectory_loss(model, ids, targets, mask).grad_hidden)
        grad = dense_grad(model.parameters()["embed.weight"])
        assert np.all(grad[ids[0, 3:]] == 0.0) and np.all(grad[ids[1]] == 0.0)
        assert grad[ids[0, :3]].all(axis=1).all()


def collect_head_grad(shape: tuple[int, int]):
    """A head update for the loss that only copies each block of the head's
    gradient into one dense array, and that array (nan where no block
    came): the whole head gradient, for a reference to use."""
    dense = np.full(shape, np.nan)

    def update(lo, grad):
        dense[:, lo : lo + grad.shape[1]] = grad

    return update, dense


def dense_grad(p: Parameter) -> np.ndarray:
    """``p``'s gradient over all of its rows: a row-wise one scattered into
    zeros, since every row it does not hold has a zero gradient."""
    if p.rows is None:
        return p.grad
    full = np.zeros(p.value.shape)
    full[p.rows] = p.grad
    return full


def dense_moments(opt: Adam, k: str) -> tuple[np.ndarray, np.ndarray]:
    """``opt``'s m and v of parameter ``k`` over all of its rows: a row-wise
    parameter's scattered into zeros from its live rows."""
    if k not in opt.live:
        return opt.m[k], opt.v[k]
    out = []
    for rows in (opt.m[k], opt.v[k]):
        full = np.zeros(opt.params[k].value.shape)
        full[opt.live[k]] = rows
        out.append(full)
    return out[0], out[1]


def one_shot_softmax(z: np.ndarray) -> np.ndarray:
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def one_shot_cross_entropy(z: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """The mean cross-entropy of (n, V) logits and its gradient, over the
    whole array at once."""
    p = one_shot_softmax(z)
    at = (np.arange(len(targets)), targets)
    loss = float(-np.log(np.maximum(p[at], 1e-300)).mean())
    p[at] -= 1.0
    return loss, p / len(targets)


def one_shot_head_and_loss(h: np.ndarray, w: np.ndarray, targets: np.ndarray):
    """The loss of the logits h @ w, the gradient of h and the gradient of
    w, from the whole (n, V) logits at once."""
    loss, grad = one_shot_cross_entropy(h @ w, targets)
    return loss, grad @ w.T, h.T @ grad


def loss_case(vocab: int, n: int, hidden: int = 16, seed: int = 0):
    """(n, hidden) rows, a (hidden, V) head and n targets, the first in the
    first column and the last in the last."""
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, vocab, size=n)
    targets[[0, -1]] = 0, vocab - 1
    return rng.normal(size=(n, hidden)), rng.normal(size=(hidden, vocab)), targets


class TestBlockedLoss:
    """The loss runs the head, the softmax, the cross-entropy and the head's
    backward one block of vocabulary columns at a time: at most
    LOGIT_BLOCK_BYTES of logits, and as much of the head's gradient, which
    it hands to its update block by block."""

    # (V, rows) whose (rows, V) logits fit one block: the desk vocabulary at
    # its largest step, the production one, and exactly one block's bytes.
    # The rows are at least the hidden size, so the head's gradient block
    # is no larger than the logits
    ONE_BLOCK = [(97, 1400), (3195, 563), (150_210, 2), (LOGIT_BLOCK_BYTES // 64, 8)]

    @pytest.mark.parametrize("vocab, n", ONE_BLOCK)
    def test_one_block_is_bit_identical_to_one_shot(self, vocab, n):
        h, w, targets = loss_case(vocab, n, hidden=min(16, n), seed=vocab + n)
        assert n * vocab * 8 <= LOGIT_BLOCK_BYTES
        loss, dh, dw = one_shot_head_and_loss(h, w, targets)
        update, head_grad = collect_head_grad(w.shape)
        got = masked_cross_entropy(h, w, targets, update)
        assert got.loss == loss and got.n_targets == n
        assert np.array_equal(got.grad_hidden, dh)
        assert np.array_equal(head_grad, dw)

    # (V, rows, budget in bytes, or None for LOGIT_BLOCK_BYTES): the
    # production vocabulary just past one block, a last block of 414
    # columns; nine blocks of 10 columns and one of 7; and one column a
    # block, for a budget below one column's bytes
    SHAPES = [(150_210, 14, None), (97, 5, 5 * 8 * 10), (97, 5, 8)]

    @pytest.mark.parametrize("vocab, n, budget", SHAPES)
    def test_column_blocks_match_one_shot(self, monkeypatch, vocab, n, budget):
        if budget is not None:
            monkeypatch.setattr(transformer, "LOGIT_BLOCK_BYTES", budget)
        assert n * vocab * 8 > transformer.LOGIT_BLOCK_BYTES
        h, w, targets = loss_case(vocab, n, hidden=min(16, n), seed=vocab + n)
        loss, dh, dw = one_shot_head_and_loss(h, w, targets)
        update, head_grad = collect_head_grad(w.shape)
        got = masked_cross_entropy(h, w, targets, update)
        assert got.loss == pytest.approx(loss, rel=1e-12, abs=0)
        assert np.abs(got.grad_hidden - dh).max() <= 1e-12 * np.abs(dh).max()
        assert np.abs(head_grad - dw).max() <= 1e-12 * np.abs(dw).max()

    @pytest.mark.parametrize("n, hidden", [(5, 16), (16, 5)])
    def test_blocks_bound_the_logits_and_the_head_gradient(self, monkeypatch, n, hidden):
        # with fewer rows than the hidden size, the head's gradient block
        # sets the width: each block holds at most the budget of either
        monkeypatch.setattr(transformer, "LOGIT_BLOCK_BYTES", 16 * 8 * 10)
        h, w, targets = loss_case(VOCAB, n, hidden=hidden)
        widths = []
        masked_cross_entropy(h, w, targets, lambda lo, grad: widths.append((lo, grad.shape)))
        assert [lo for lo, _ in widths] == list(range(0, VOCAB, 10))
        assert all(shape == (hidden, min(10, VOCAB - lo)) for lo, shape in widths)

    def test_update_may_change_the_columns_it_was_given(self, monkeypatch):
        # each block's term of the input gradient takes the old weights
        # before its update runs: an update that wrecks each block's columns
        # changes neither the loss nor any gradient
        monkeypatch.setattr(transformer, "LOGIT_BLOCK_BYTES", 16 * 8 * 10)
        h, w, targets = loss_case(VOCAB, 6)
        update, head_grad = collect_head_grad(w.shape)
        kept = masked_cross_entropy(h, w, targets, update)
        collect, wrecked_grad = collect_head_grad(w.shape)

        def wreck(lo, grad):
            collect(lo, grad)
            w[:, lo : lo + grad.shape[1]] = np.nan

        wrecked = masked_cross_entropy(h, w, targets, wreck)
        assert np.isnan(w).all()
        assert wrecked.loss == kept.loss
        assert np.array_equal(wrecked.grad_hidden, kept.grad_hidden)
        assert np.array_equal(wrecked_grad, head_grad)

    def test_without_update_the_same_loss_and_input_gradient(self):
        h, w, targets = loss_case(VOCAB, 6)
        with_update = masked_cross_entropy(h, w, targets, collect_head_grad(w.shape)[0])
        without = masked_cross_entropy(h, w, targets)
        assert without.loss == with_update.loss
        assert np.array_equal(without.grad_hidden, with_update.grad_hidden)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_refused_before_any_update(self, bad):
        h, w, targets = loss_case(VOCAB, 4)
        h[2, 3] = bad
        calls = []
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite loss nan"):
            masked_cross_entropy(h, w, targets, lambda lo, grad: calls.append(lo))
        assert calls == []

    def test_target_outside_the_vocabulary_rejected(self):
        h, w, targets = loss_case(VOCAB, 3)
        for bad in (-1, VOCAB):
            targets[1] = bad
            with pytest.raises(ValueError, match="target id outside vocabulary"):
                masked_cross_entropy(h, w, targets)


class TestGradients:
    def test_finite_difference_agreement_every_parameter(self):
        self.check(Transformer(DESK, seed=11), *small_batch(seed=12))

    def test_finite_difference_agreement_across_column_blocks(self, monkeypatch):
        # a budget of 48 logits: the batch's 8 loss rows take the
        # vocabulary 6 columns a block, the last block 1 column
        inputs, targets, mask = small_batch(seed=12)
        monkeypatch.setattr(transformer, "LOGIT_BLOCK_BYTES", 48 * 8)
        assert mask.sum() == 8 and VOCAB % 6 == 1
        self.check(Transformer(DESK, seed=11), inputs, targets, mask)

    @staticmethod
    def check(model, inputs, targets, mask):
        def loss_fn():
            return trajectory_loss(model, inputs, targets, mask).loss

        update, head_grad = collect_head_grad(model.head.weight.value.shape)
        res = trajectory_loss(model, inputs, targets, mask, update)
        model.backward(res.grad_hidden)

        rng = np.random.default_rng(13)
        touched_rows = np.unique(inputs)
        worst = 0.0
        for name, p in model.parameters().items():
            flat = p.value.reshape(-1)
            gflat = (head_grad if name == "head.weight" else dense_grad(p)).reshape(-1)
            if name == "embed.weight":
                # only rows present in the batch receive gradient
                cols = p.value.shape[1]
                idxs = [r * cols + rng.integers(0, cols) for r in touched_rows[:6]]
            else:
                idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idxs:
                h = 1e-5 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn()
                flat[i] = orig - h
                down = loss_fn()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(gflat[i]), 1e-8)
                rel = abs(fd - gflat[i]) / denom
                worst = max(worst, rel)
                assert rel < 1e-4, f"{name}[{i}]: analytic {gflat[i]:.3e} vs fd {fd:.3e}"
        assert worst < 1e-4


def prefixed_batch(seed=0, vocab=VOCAB):
    """A training batch with prefix rows and, from uneven lengths, padding."""
    rng = np.random.default_rng(seed)
    samples = [
        (rng.integers(0, vocab, size=n), prefix) for n, prefix in [(12, 5), (7, 5), (9, 3), (6, 1)]
    ]
    return batch_arrays(samples)


class TestLossRows:
    """The training step runs the head and the loss on the loss rows only."""

    def test_grad_logits_are_loss_rows(self):
        # the head's input gradient has one row per loss row
        model = Transformer(DESK, seed=5)
        inputs, targets, mask = prefixed_batch()
        assert not mask.all()
        res = trajectory_loss(model, inputs, targets, mask)
        assert res.grad_hidden.shape == (mask.sum(), DESK.hidden) == (res.n_targets, DESK.hidden)

    def test_equals_full_logits_path(self):
        # every row through the final layer norm, with the loss rows'
        # gradient scattered into zeros, backpropagates to the same
        # parameter gradients
        inputs, targets, mask = prefixed_batch(seed=1)
        rows_model, full_model = Transformer(DESK, seed=6), Transformer(DESK, seed=6)
        rows_update, rows_head = collect_head_grad(rows_model.head.weight.value.shape)
        rows = trajectory_loss(rows_model, inputs, targets, mask, rows_update)
        rows_model.backward(rows.grad_hidden)
        hidden = every_row(full_model.hidden, inputs)
        full_update, full_head = collect_head_grad(full_model.head.weight.value.shape)
        full = masked_cross_entropy(hidden[mask], full_model.head.weight.value, targets[mask], full_update)
        grad = np.zeros_like(hidden)
        grad[mask] = full.grad_hidden
        full_model.backward(grad.reshape(-1, DESK.hidden))
        assert rows.loss == pytest.approx(full.loss, rel=1e-12)
        assert np.allclose(rows_head, full_head, rtol=0, atol=1e-12)
        full_params = full_model.parameters()
        for name, p in rows_model.parameters().items():
            if name != "head.weight":
                assert np.allclose(p.grad, full_params[name].grad, rtol=0, atol=1e-12), name

    def test_finite_difference_through_gathered_rows(self):
        # any distinct rows, not just a loss mask, and an arbitrary linear
        # function of the gathered head inputs
        model = Transformer(ModelConfig(vocab_size=VOCAB, layers=1, hidden=32, heads=4), seed=7)
        ids, _, _ = small_batch(seed=8, b=3, t=9)
        rows = (np.array([0, 2, 2, 1]), np.array([8, 0, 4, 6]))
        weights = np.random.default_rng(9).normal(size=(4, 32))

        def f():
            return float((weights * model.hidden(ids, rows=rows)).sum())

        f()
        model.backward(weights)
        rng = np.random.default_rng(10)
        for name, p in model.parameters().items():
            if name == "head.weight":
                continue  # f ends before the head
            flat, gflat = p.value.reshape(-1), dense_grad(p).reshape(-1)
            if name == "embed.weight":
                cols = p.value.shape[1]
                idxs = [r * cols + rng.integers(0, cols) for r in np.unique(ids)[:4]]
            else:
                idxs = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in idxs:
                h = 1e-5 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = f()
                flat[i] = orig - h
                down = f()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                assert rel < 1e-4, f"{name}[{i}]: analytic {gflat[i]:.3e} vs fd {fd:.3e}"


class TestBackwardWrites:
    """Backward writes each gradient, so none is zeroed between steps."""

    def test_second_backward_leaves_same_gradients(self):
        model = Transformer(DESK, seed=14)
        inputs, targets, mask = prefixed_batch(seed=15)
        res = trajectory_loss(model, inputs, targets, mask)
        model.backward(res.grad_hidden)
        once = {name: p.grad.copy() for name, p in model.parameters().items() if p.grad is not None}
        assert once.keys() == model.parameters().keys() - {"head.weight"}
        model.backward(res.grad_hidden)
        for name, grad in once.items():
            assert np.array_equal(model.parameters()[name].grad, grad), name

    def test_disjoint_ids_clear_earlier_rows(self):
        model, fresh = Transformer(DESK, seed=16), Transformer(DESK, seed=16)
        rng = np.random.default_rng(17)
        first = rng.integers(0, 40, size=(2, 10))
        second = rng.integers(50, VOCAB, size=(2, 10))
        targets, mask = rng.integers(0, VOCAB, size=(2, 10)), np.ones((2, 10), dtype=bool)
        for ids in (first, second):
            model.backward(trajectory_loss(model, ids, targets, mask).grad_hidden)
        fresh.backward(trajectory_loss(fresh, second, targets, mask).grad_hidden)
        embed = model.parameters()["embed.weight"]
        assert not dense_grad(embed)[np.unique(first)].any()
        assert np.array_equal(embed.rows, np.unique(second))
        fresh_params = fresh.parameters()
        for name, p in model.parameters().items():
            if name != "head.weight":
                assert np.array_equal(dense_grad(p), dense_grad(fresh_params[name])), name


class TestLayers:
    def test_gelu_matches_closed_form(self):
        x = np.concatenate([np.linspace(-12.0, 12.0, 2401), [-40.0, -10.0, 10.0, 40.0]])
        c = math.sqrt(2.0 / math.pi)
        tanh = np.tanh(c * (x + 0.044715 * np.power(x, 3)))
        expected = 0.5 * x * (1.0 + tanh)
        d_expected = 0.5 * (1.0 + tanh) + 0.5 * x * (1.0 - tanh**2) * c * (
            1.0 + 3 * 0.044715 * np.power(x, 2)
        )
        gelu = Gelu()
        y = gelu.forward(x.copy())
        assert np.allclose(y, expected, rtol=1e-13, atol=1e-300)
        assert np.allclose(gelu.backward(np.ones_like(x)), d_expected, rtol=1e-13, atol=1e-300)
        big = np.abs(x) >= 10
        assert np.array_equal(y[big & (x > 0)], x[big & (x > 0)])
        assert np.all(np.abs(y[big & (x < 0)]) < 1e-30)

    def test_gelu_backward_is_the_formula_bit_for_bit(self):
        # the backward's buffers change no bit of the one-expression formula,
        # on tails where tanh saturates and on subnormal inputs too
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(size=4000) * 4.0, np.linspace(-40.0, 40.0, 801), [0.0, -0.0, 5e-324, -1e-310]])
        grad_out = rng.normal(size=x.shape)
        gelu = Gelu()
        gelu.forward(x)
        t, c = gelu._tanh, math.sqrt(2.0 / math.pi)
        du = c * (1.0 + 3 * 0.044715 * (x * x))
        formula = grad_out * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)
        got = gelu.backward(grad_out)
        assert np.array_equal(got.view(np.int64), formula.view(np.int64))

    def test_linear_equals_row_by_row(self):
        rng = np.random.default_rng(11)
        layer = Linear(8, 5, rng)
        layer.bias.value[...] = rng.normal(size=5)
        x = rng.normal(size=(3, 4, 8))
        g = rng.normal(size=(3, 4, 5))
        y = layer.forward(x)
        dx = layer.backward(g)
        w, b = layer.weight.value, layer.bias.value
        assert y.shape == (3, 4, 5) and dx.shape == x.shape
        w_grad, b_grad = np.zeros_like(w), np.zeros_like(b)
        for i in range(3):
            for t in range(4):
                assert np.allclose(y[i, t], x[i, t] @ w + b, rtol=0, atol=1e-12)
                assert np.allclose(dx[i, t], w @ g[i, t], rtol=0, atol=1e-12)
                w_grad += np.outer(x[i, t], g[i, t])
                b_grad += g[i, t]
        assert np.allclose(layer.weight.grad, w_grad, rtol=0, atol=1e-12)
        assert np.allclose(layer.bias.grad, b_grad, rtol=0, atol=1e-12)


class TestAdam:
    # per step, the widths of the column blocks that the head's update takes:
    # one block wider than BLOCK, so that a row goes in two chunks; blocks of
    # several rows a chunk with a partial last one; a one-column block; a
    # block of one column past BLOCK; and blocks of every row at once
    HEAD_COLUMNS = Adam.BLOCK + 40
    COLUMN_BLOCKS = [
        [HEAD_COLUMNS],
        [5000] * 6 + [HEAD_COLUMNS - 30_000],
        [1, HEAD_COLUMNS - 1],
        [Adam.BLOCK + 1, 39],
        [4096] * 8 + [HEAD_COLUMNS - 8 * 4096],
    ]

    def test_bit_identical_to_reference_formula(self):
        rng = np.random.default_rng(12)
        # one parameter spans several update blocks, with a partial last
        # one; "head" has no gradient array, and takes its update column
        # block by column block, as the loss hands its gradient over
        shapes = {
            "small": (3, 5), "blocks": (2 * Adam.BLOCK + 7,), "matrix": (40, 30), "head": (7, self.HEAD_COLUMNS),
        }
        params = {k: Parameter(rng.normal(size=s)) for k, s in shapes.items()}
        params["head"].grad = None
        ref = {k: p.value.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        c = TrainConfig()
        opt = Adam(params, c)
        for step, widths in enumerate(self.COLUMN_BLOCKS, start=1):
            assert sum(widths) == self.HEAD_COLUMNS
            lr = 0.01 / step
            bc1, bc2 = 1.0 - c.beta1**step, 1.0 - c.beta2**step
            grads = {k: rng.normal(size=shapes[k]) * 10.0 ** rng.uniform(-6, 2) for k in shapes}
            for k, grad in grads.items():
                m[k] = c.beta1 * m[k] + (1 - c.beta1) * grad
                v[k] = c.beta2 * v[k] + (1 - c.beta2) * grad**2
                ref[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + c.eps)
            # each block's gradient is a strided view of a wider buffer, as
            # the loss gives it
            buf = np.empty((shapes["head"][0] + 3, max(widths)))
            lo = 0
            for width in widths:
                block = buf[3:, :width]
                block[...] = grads["head"][:, lo : lo + width]
                opt.update_columns("head", lo, block, lr)
                lo += width
            for k, p in params.items():
                if k != "head":
                    p.grad[...] = grads[k]
            opt.step(lr)
            assert opt.step_count == step
            for k, p in params.items():
                assert np.array_equal(p.value, ref[k]), (step, k)
                assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k]), (step, k)

    def test_row_path_matches_dense_formula(self):
        rng = np.random.default_rng(13)
        rows, cols = 50, 4
        emb = Parameter(rng.normal(size=(rows, cols)), row_wise=True)
        dense = Parameter(rng.normal(size=(3, 5)))
        params = {"emb": emb, "dense": dense}
        start = emb.value.copy()
        ref = {k: p.value.copy() for k, p in params.items()}
        m = {k: np.zeros(p.value.shape) for k, p in params.items()}
        v = {k: np.zeros(p.value.shape) for k, p in params.items()}
        c = TrainConfig()
        opt = Adam(params, c)
        # row 0 has a gradient at step 1 only; row 49 never has one
        touched = [[0, 3, 7], [3, 8, 9, 20], [21, 22], [7, 48], [1, 2, 3, 4, 5]]
        for step, live in enumerate(touched, start=1):
            lr = 0.01 / step
            bc1, bc2 = 1.0 - c.beta1**step, 1.0 - c.beta2**step
            # as an embedding's backward leaves it: the gradient of its rows only
            emb.grad = rng.normal(size=(len(live), cols))
            emb.rows = np.array(live)
            dense.grad[...] = rng.normal(size=dense.value.shape)
            for k, p in params.items():
                m[k] = c.beta1 * m[k] + (1 - c.beta1) * dense_grad(p)
                v[k] = c.beta2 * v[k] + (1 - c.beta2) * dense_grad(p)**2
                ref[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + c.eps)
            before = emb.value[0].copy()
            opt.step(lr)
            for k, p in params.items():
                assert np.array_equal(p.value, ref[k]), (step, k)
                opt_m, opt_v = dense_moments(opt, k)
                assert np.array_equal(opt_m, m[k]) and np.array_equal(opt_v, v[k]), (step, k)
            # the row touched at step 1 keeps moving on its decaying moments
            assert not np.array_equal(emb.value[0], before), step
        assert np.array_equal(emb.value[-1], start[-1])
        opt_m, opt_v = dense_moments(opt, "emb")
        assert not opt_m[-1].any() and not opt_v[-1].any()
        # and no moment row is stored for it
        assert 49 not in opt.live["emb"] and len(opt.m["emb"]) == len(opt.live["emb"])


def toy_dataset(tok: Tokenizer, n=64, seed=0):
    """Trajectories whose second mutation is a fixed function of the first."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        first = int(rng.integers(0, 20))
        second = (first * 7 + 3) % 25
        prefix = (tok.unknown_token,) * 5
        traj = (
            tok.mutation_token(first + 1, "T"),
            tok.mutation_token(second + 1, "G"),
        )
        samples.append(TokenizedSample(prefix, traj, split_index=1))
    return samples


class TestTraining:
    def make_tok(self):
        return Tokenizer(LayoutSpec(genome_length=30))

    def test_loss_drops_below_log_vocab(self):
        tok = self.make_tok()
        samples = toy_dataset(tok)
        cfg = ModelConfig(vocab_size=tok.vocab_size, layers=2, hidden=32, heads=4, max_seq=16)
        tcfg = TrainConfig(steps=200, batch_size=16, seed=1)
        state = train(samples, list(range(len(samples))), cfg, tcfg)
        assert state.final_loss < math.log(tok.vocab_size)
        assert state.log[-1][2] < state.log[0][2]

    def test_lr_schedule_endpoints(self):
        tcfg = TrainConfig(steps=100, batch_size=4)
        assert tcfg.lr_at(0) == pytest.approx(1e-4)
        assert tcfg.lr_at(99) == pytest.approx(1e-5)
        cos = TrainConfig(steps=100, batch_size=4, schedule="cosine")
        assert cos.lr_at(0) == pytest.approx(1e-4)
        assert cos.lr_at(99) == pytest.approx(1e-5)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="plan is empty"):
            plan_batch([], batch_size=4, step=0)

    def test_divergence_detected(self):
        tok = self.make_tok()
        samples = toy_dataset(tok, n=8)
        cfg = ModelConfig(vocab_size=tok.vocab_size, layers=1, hidden=32, heads=4, max_seq=16)
        tcfg = TrainConfig(steps=3, batch_size=4, seed=0, lr_start=1e100, lr_end=1e99)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged, match="step 1"):
            train(samples, list(range(8)), cfg, tcfg)


    def test_diverging_step_changes_nothing(self, monkeypatch):
        # the divergence is refused between the loss's two passes, before
        # the head's first column update: the step that diverges leaves
        # every parameter and moment as the step before left them
        tok = self.make_tok()
        samples = toy_dataset(tok, n=8)
        cfg = ModelConfig(vocab_size=tok.vocab_size, layers=1, hidden=32, heads=4, max_seq=16)
        tcfg = TrainConfig(steps=3, batch_size=4, seed=0, lr_start=1e100, lr_end=1e99)
        ended = []
        step = Adam.step

        def snapshot_step(opt, lr):
            step(opt, lr)
            ended.append((opt, {k: (p.value.copy(), opt.m[k].copy(), opt.v[k].copy())
                                for k, p in opt.params.items()}))

        monkeypatch.setattr(Adam, "step", snapshot_step)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged, match="step 1"):
            train(samples, list(range(8)), cfg, tcfg)
        assert len(ended) == 1
        opt, before = ended[0]
        assert opt.step_count == 1
        for k, p in opt.params.items():
            for now, then in zip((p.value, opt.m[k], opt.v[k]), before[k]):
                assert np.array_equal(now, then, equal_nan=True), k

    @staticmethod
    def dense_reference(samples, plan, cfg, tcfg):
        """The losses and parameters of a training run that zeroes every
        gradient before each backward, collects the head's gradient blocks
        into one dense array, and runs the textbook Adam over every row of
        every parameter."""
        model = Transformer(cfg, seed=tcfg.seed)
        params = model.parameters()
        m = {k: np.zeros(p.value.shape) for k, p in params.items()}
        v = {k: np.zeros(p.value.shape) for k, p in params.items()}
        arrays = [(np.asarray(s.tokens, dtype=np.int64), len(s.prefix_tokens)) for s in samples]
        losses = []
        for step in range(tcfg.steps):
            batch = [arrays[i] for i in plan_batch(plan, tcfg.batch_size, step)]
            inputs, targets, mask = batch_arrays(batch)
            for p in params.values():
                if p.grad is not None:
                    p.grad[...] = 0.0
            update, head_grad = collect_head_grad(model.head.weight.value.shape)
            res = trajectory_loss(model, inputs, targets, mask, update)
            model.backward(res.grad_hidden)
            losses.append(res.loss)
            lr = tcfg.lr_at(step)
            bc1, bc2 = 1.0 - tcfg.beta1 ** (step + 1), 1.0 - tcfg.beta2 ** (step + 1)
            for k, p in params.items():
                grad = head_grad if k == "head.weight" else dense_grad(p)
                m[k] = tcfg.beta1 * m[k] + (1 - tcfg.beta1) * grad
                v[k] = tcfg.beta2 * v[k] + (1 - tcfg.beta2) * grad**2
                p.value -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + tcfg.eps)
        return losses, params

    def test_equals_dense_reference_loop(self):
        tok = self.make_tok()
        samples = toy_dataset(tok, n=24, seed=3)
        plan = list(range(len(samples)))
        cfg = ModelConfig(vocab_size=tok.vocab_size, layers=1, hidden=16, heads=2, max_seq=16)
        tcfg = TrainConfig(steps=6, batch_size=5, lr_start=0.01, lr_end=0.001, seed=4)
        state = train(samples, plan, cfg, tcfg)
        losses, params = self.dense_reference(samples, plan, cfg, tcfg)
        assert [loss for _, _, loss in state.log] == losses
        trained = state.model.parameters()
        # some embedding rows never had a gradient: the row path was taken
        arrays = [np.asarray(s.tokens) for s in samples]
        assert len(np.unique(np.concatenate(arrays))) < cfg.vocab_size
        for name, p in params.items():
            assert np.array_equal(trained[name].value, p.value), name

    def test_equals_dense_reference_at_production_vocabulary(self, monkeypatch):
        # two steps at V = 150,210, each over two column blocks of the head
        vocab = 150_210
        rng = np.random.default_rng(8)
        samples = [
            TokenizedSample(tuple(int(t) for t in rng.integers(0, vocab, size=5)),
                            tuple(int(t) for t in rng.integers(0, vocab, size=n)), split_index=0)
            for n in (3, 6, 2, 5, 4, 7)
        ]
        plan = list(range(len(samples)))
        cfg = ModelConfig(vocab_size=vocab, layers=1, hidden=16, heads=2, max_seq=16)
        tcfg = TrainConfig(steps=2, batch_size=3, lr_start=0.01, lr_end=0.001, seed=5)
        blocks = []
        update_columns = Adam.update_columns

        def counted(opt, k, lo, grad, lr):
            blocks.append((opt.step_count, lo, grad.shape[1]))
            update_columns(opt, k, lo, grad, lr)

        monkeypatch.setattr(Adam, "update_columns", counted)
        state = train(samples, plan, cfg, tcfg)
        for step in range(tcfg.steps):
            starts = [lo for done, lo, _ in blocks if done == step]
            assert len(starts) >= 2 and starts[0] == 0, step
            assert sum(width for done, _, width in blocks if done == step) == vocab
        losses, params = self.dense_reference(samples, plan, cfg, tcfg)
        assert [loss for _, _, loss in state.log] == losses
        trained = state.model.parameters()
        for name, p in params.items():
            assert np.array_equal(trained[name].value, p.value), name

    @pytest.mark.parametrize("field, value, message", [
        ("eps", 0.0, "eps must be positive"),
        ("eps", -1e-8, "eps must be positive"),
        ("beta1", 1.0, r"beta1 must be in \[0, 1\)"),
        ("beta2", -0.1, r"beta2 must be in \[0, 1\)"),
        ("beta2", float("nan"), r"beta2 must be in \[0, 1\)"),
    ], ids=["eps-zero", "eps-negative", "beta1-one", "beta2-negative", "beta2-nan"])
    def test_optimizer_constants_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})
        TrainConfig(beta1=0.0, beta2=0.0)


class TestCheckpoint:
    def test_roundtrip_preserves_logits(self, tmp_path):
        tok = Tokenizer(LayoutSpec(genome_length=30))
        samples = toy_dataset(tok, n=16)
        cfg = ModelConfig(vocab_size=tok.vocab_size, layers=1, hidden=32, heads=4, max_seq=16)
        state = train(samples, list(range(16)), cfg, TrainConfig(steps=5, batch_size=4, seed=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, layout_hash="lh", config_hash="ch")
        loaded, meta, _ = load_checkpoint(path)
        assert meta["layout_hash"] == "lh"
        ids = [np.arange(10) % cfg.vocab_size]
        assert np.array_equal(every_row(state.model.logits, ids), every_row(loaded.logits, ids))

    def test_roundtrip_is_bitwise(self, tmp_path):
        model = Transformer(DESK, seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(TrainState(model=model, config=TrainConfig()), path, layout_hash="lh", config_hash="ch")
        loaded, _, _ = load_checkpoint(path)
        want, got = model.parameters(), loaded.parameters()
        assert want.keys() == got.keys()
        for name, p in want.items():
            assert got[name].value.dtype == p.value.dtype
            assert got[name].value.tobytes() == p.value.tobytes(), name

    def test_same_state_gives_identical_bytes(self, tmp_path, monkeypatch):
        tok = Tokenizer(LayoutSpec(genome_length=30))
        samples = toy_dataset(tok, n=16)
        cfg = ModelConfig(vocab_size=tok.vocab_size, layers=1, hidden=32, heads=4, max_seq=16)
        state = train(samples, list(range(16)), cfg, TrainConfig(steps=3, batch_size=4, seed=2))
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(state, a, layout_hash="lh", config_hash="ch")
        # a save an hour later: the wall clock must not reach the file
        now = time.time
        monkeypatch.setattr(time, "time", lambda: now() + 3600)
        save_checkpoint(state, b, layout_hash="lh", config_hash="ch")
        assert a.read_bytes() == b.read_bytes()
        # each array entry holds exactly what np.save writes
        with zipfile.ZipFile(a) as zf:
            for name, param in state.model.parameters().items():
                buf = io.BytesIO()
                np.save(buf, param.value)
                assert zf.read(f"param/{name}.npy") == buf.getvalue(), name

    def test_rejects_non_checkpoint(self, tmp_path):
        import zipfile

        p = tmp_path / "bad.ckpt"
        with zipfile.ZipFile(p, "w") as zf:
            zf.writestr("meta.json", '{"format": "other"}')
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(p)


def npy_bytes(arr: np.ndarray, version=None) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, version=version)
    return buf.getvalue()


def rewrite_checkpoint(src, dst, drop=(), replace=None):
    """Copy a checkpoint, dropping entries and replacing or adding entries,
    each given as an array or as raw bytes."""
    replace = replace or {}
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for name in zin.namelist():
            if name not in drop and name not in replace:
                zout.writestr(name, zin.read(name))
        for name, data in replace.items():
            zout.writestr(name, data if isinstance(data, bytes) else npy_bytes(data))


def load_model(path):
    """The model as ``predict`` and ``evaluate`` load it: the checkpoint read
    through the CLI's stage loader, which also checks the tokenizer layout
    and the file's digest, here against a manifest recording it as it is."""
    inputs = {"layout": {"sha256": "lh"}, "checkpoint": {"sha256": sha256_file(path)}}
    stage = SimpleNamespace(args=SimpleNamespace(checkpoint=path), inputs=inputs)
    return cli._checked_model(stage)


class TestStrictCheckpoint:
    @pytest.fixture
    def ckpt(self, tmp_path):
        tok = Tokenizer(LayoutSpec(genome_length=30))
        cfg = ModelConfig(vocab_size=tok.vocab_size, layers=1, hidden=32, heads=4, max_seq=16)
        tcfg = TrainConfig(steps=2, batch_size=4)
        state = train(toy_dataset(tok, n=8), list(range(8)), cfg, tcfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, layout_hash="lh", config_hash="ch")
        return path, state

    @pytest.mark.parametrize("loader", [load_checkpoint, load_model])
    def test_missing_head_rejected(self, ckpt, tmp_path, loader):
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(ckpt[0], bad, drop={"param/head.weight.npy"})
        with pytest.raises(ValueError, match="param/head.weight.npy is missing") as err:
            loader(bad)
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize(
        "loader, entry",
        [(load_checkpoint, "param/embed.weight.npy"), (load_model, "param/embed.weight.npy")],
    )
    def test_misshapen_array_rejected(self, ckpt, tmp_path, loader, entry):
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(ckpt[0], bad, replace={entry: np.zeros((3, 32))})
        with pytest.raises(ValueError, match=f"{entry} has shape \\(3, 32\\)") as err:
            loader(bad)
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize("loader", [load_checkpoint, load_model])
    def test_extra_array_rejected(self, ckpt, tmp_path, loader):
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(ckpt[0], bad, replace={"param/extra.weight.npy": np.zeros(4)})
        with pytest.raises(ValueError, match="unexpected checkpoint entry param/extra") as err:
            loader(bad)
        assert str(bad) in str(err.value)

    def test_old_format_with_optimizer_moments_rejected(self, ckpt, tmp_path):
        """A v1 file: the same parameters plus both Adam moments."""
        path, state = ckpt
        with zipfile.ZipFile(path) as zf:
            meta = json.loads(zf.read("meta.json"))
        meta.update(format="evotraj-checkpoint-v1", adam_step_count=state.step)
        old = tmp_path / "v1.ckpt"
        moments = {
            f"{kind}/{name}.npy": np.zeros_like(p.value)
            for kind in ("adam_m", "adam_v")
            for name, p in state.model.parameters().items()
        }
        rewrite_checkpoint(path, old, drop={"meta.json"}, replace=moments)
        with zipfile.ZipFile(old, "a") as zf:
            zf.writestr("meta.json", json.dumps(meta))
        with pytest.raises(ValueError, match="not a checkpoint file") as err:
            load_checkpoint(old)
        assert str(old) in str(err.value)

    @pytest.mark.parametrize("entry_bytes, message", [
        (lambda v: npy_bytes(v.astype(np.float32)), "has dtype float32, expected float64"),
        (lambda v: npy_bytes(np.asfortranarray(v)), "is in Fortran order, expected C order"),
        (lambda v: npy_bytes(v)[:-8], "is truncated"),
        (lambda v: npy_bytes(v) + b"\0", "has data past its array"),
        (lambda v: b"not an array", "the magic string is not correct"),
        # save_checkpoint writes 1.0 headers only
        (lambda v: npy_bytes(v, version=(2, 0)), "unsupported .npy version (2, 0)"),
    ], ids=["float32", "fortran-order", "truncated", "trailing-data", "not-npy", "npy-2.0"])
    def test_bad_entry_refused_by_name(self, ckpt, tmp_path, entry_bytes, message):
        path, state = ckpt
        entry = "param/blocks.0.attn.wq.weight.npy"
        value = state.model.parameters()["blocks.0.attn.wq.weight"].value
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(path, bad, replace={entry: entry_bytes(value)})
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            load_checkpoint(bad)
        assert f"{bad}: checkpoint entry {entry}" in str(err.value)

    def test_flipped_data_byte_fails_crc_by_name(self, ckpt, tmp_path):
        path, _ = ckpt
        entry = "param/head.weight.npy"
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as zf:
            data = zf.read(entry)
        # entries are stored uncompressed; flip the entry's last data byte
        at = bytes(raw).index(data) + len(data) - 1
        raw[at] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="Bad CRC-32") as err:
            load_checkpoint(bad)
        assert f"{bad}: checkpoint entry {entry}" in str(err.value)

    @pytest.mark.parametrize("loader", [load_checkpoint, load_model])
    def test_empty_file_refused_by_name(self, tmp_path, loader):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"")
        with pytest.raises(ValueError, match="not a readable zip archive") as err:
            loader(bad)
        assert str(bad) in str(err.value)

    def test_digest_is_the_files_sha256(self, ckpt):
        assert load_checkpoint(ckpt[0])[2] == sha256_file(ckpt[0])

    def test_refusal_leaves_no_worker_running(self, ckpt, tmp_path):
        path, state = ckpt
        bad = tmp_path / "bad.ckpt"
        value = state.model.parameters()["head.weight"].value
        rewrite_checkpoint(path, bad, replace={"param/head.weight.npy": npy_bytes(value)[:-8]})
        before = threading.active_count()
        for _ in range(3):
            with pytest.raises(ValueError, match="is truncated"):
                load_checkpoint(bad)
        assert threading.active_count() == before

    @pytest.mark.parametrize("at, message", [
        (0, "Bad magic number for file header"),
        (30, "File name in directory 'param/head.weight.npy' and header b'Xaram/head.weight.npy' differ."),
    ], ids=["signature", "name"])
    def test_damaged_local_header_refused_by_name(self, ckpt, tmp_path, at, message):
        path, _ = ckpt
        entry = "param/head.weight.npy"
        with zipfile.ZipFile(path) as zf:
            offset = zf.getinfo(entry).header_offset
        raw = bytearray(path.read_bytes())
        raw[offset + at] = ord("X")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            load_checkpoint(bad)
        assert f"{bad}: checkpoint entry {entry}" in str(err.value)

    def test_compressed_entry_refused_by_name(self, ckpt, tmp_path):
        path, _ = ckpt
        bad = tmp_path / "bad.ckpt"
        with zipfile.ZipFile(path) as zin, zipfile.ZipFile(bad, "w", zipfile.ZIP_DEFLATED) as zout:
            for name in zin.namelist():
                zout.writestr(name, zin.read(name))
        with pytest.raises(ValueError, match="is compressed \\(method 8\\), expected stored") as err:
            load_checkpoint(bad)
        assert f"{bad}: checkpoint entry meta.json" in str(err.value)

    def test_truncated_archive_refused_by_name(self, ckpt, tmp_path):
        path, _ = ckpt
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="not a readable zip archive") as err:
            load_checkpoint(bad)
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize("loader", [load_checkpoint, load_model])
    @pytest.mark.parametrize("edit, message", [
        (lambda meta: b"{nope", "not JSON: Expecting property name enclosed in double quotes"),
        (lambda meta: [1], "not a JSON object"),
        (lambda meta: {**meta, "model_config": None}, "model_config is not an object of integers: None"),
        (lambda meta: {**meta, "model_config": 3}, "model_config is not an object of integers: 3"),
        (lambda meta: {**meta, "model_config": {**meta["model_config"], "hidden": "32"}},
         "model_config is not an object of integers"),
        (lambda meta: {**meta, "model_config": {**meta["model_config"], "bogus": 1}},
         "model_config: ModelConfig.__init__() got an unexpected keyword argument 'bogus'"),
        (lambda meta: {**meta, "model_config": {**meta["model_config"], "heads": 0}},
         "model_config: heads must be at least 1"),
        (lambda meta: {k: v for k, v in meta.items() if k != "layout_hash"},
         "layout_hash is not a string: None"),
        (lambda meta: {**meta, "layout_hash": 5}, "layout_hash is not a string: 5"),
    ], ids=["not-json", "list", "no-model-config", "model-config-number", "string-size",
            "unknown-model-key", "no-heads", "no-layout-hash", "layout-hash-number"])
    def test_malformed_meta_refused_by_name(self, ckpt, tmp_path, loader, edit, message):
        path, _ = ckpt
        with zipfile.ZipFile(path) as zf:
            meta = edit(json.loads(zf.read("meta.json")))
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(path, bad, replace={
            "meta.json": meta if isinstance(meta, bytes) else json.dumps(meta).encode()})
        with pytest.raises(ValueError, match=re.escape(f"{bad}: checkpoint entry meta.json: {message}")):
            loader(bad)


def two_d_top_k(probs: np.ndarray, seen: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ranking rule over the whole (rows, V) block at once: a masked copy
    of ``probs``, a 2-D argpartition along the columns, then a descending
    argsort of each row's k picks."""
    scores = probs.copy()
    n = scores.shape[1]
    r, c = np.nonzero((seen >= 0) & (seen < n))
    scores[r, seen[r, c]] = -1.0
    k_eff = min(k, n)
    top = np.argpartition(scores, -k_eff, axis=1)[:, -k_eff:]
    top_scores = np.take_along_axis(scores, top, axis=1)
    order = np.argsort(top_scores, axis=1)[:, ::-1]
    top = np.take_along_axis(top, order, axis=1)
    top_scores = np.take_along_axis(top_scores, order, axis=1)
    keep = top_scores >= 0.0
    return [(t[m], s[m]) for t, s, m in zip(top, top_scores, keep)]


def reference_top_k(row: np.ndarray, seen, k: int) -> tuple[list[int], list[float]]:
    """The per-row ranking rule, written out one row at a time."""
    row = row.copy()
    for c in seen:
        if 0 <= c < row.size:
            row[c] = -1.0
    k_eff = min(k, row.size)
    top = np.argpartition(row, -k_eff)[-k_eff:]
    top = top[np.argsort(row[top])[::-1]]
    top = top[row[top] >= 0.0]
    return [int(t) for t in top], [float(row[t]) for t in top]


class TestTopKUnseen:
    @pytest.mark.parametrize("k", [1, 3, 10, 40, 60])
    def test_matches_row_by_row_rule_with_ties(self, k):
        rng = np.random.default_rng(k)
        # coarse values force many ties, at and across the k boundary
        probs = rng.integers(0, 6, size=(25, 40)) / 10.0
        seen = np.where(rng.random((25, 9)) < 0.7, rng.integers(-3, 45, size=(25, 9)), -1)
        ranked = top_k_unseen(probs, seen, k)
        for row, row_seen, (cols, scores) in zip(probs, seen, ranked):
            ref_cols, ref_scores = reference_top_k(row, row_seen, k)
            assert cols.tolist() == ref_cols
            assert scores.tolist() == ref_scores

    @pytest.mark.parametrize("cols", [3_190, 40_000])
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_equals_two_d_rule(self, cols, k):
        rng = np.random.default_rng(cols + k)
        # few distinct values: ties fill whole rows, across the k boundary
        probs = rng.integers(0, 4, size=(12, cols)) / 8.0
        seen = np.full((12, cols), -1)
        seen[:, :30] = np.where(
            rng.random((12, 30)) < 0.8, rng.integers(-5, cols + 5, size=(12, 30)), -1
        )
        # the last two rows leave fewer than k columns unseen
        seen[-2:] = rng.permuted(np.tile(np.arange(cols), (2, 1)), axis=1)
        seen[-2:, : k // 2] = -1
        ranked = top_k_unseen(probs, seen, k)
        expected = two_d_top_k(probs, seen, k)
        assert [len(c) for c, _ in ranked[-2:]] == [k // 2, k // 2]
        assert len(ranked) == len(expected)
        for (cols_got, s_got), (cols_want, s_want) in zip(ranked, expected):
            assert cols_got.dtype == cols_want.dtype
            assert cols_got.tolist() == cols_want.tolist()
            assert s_got.tobytes() == s_want.tobytes()

    def test_seen_columns_dropped_and_input_untouched(self):
        probs = np.array([[0.1, 0.5, 0.4], [0.3, 0.3, 0.4]])
        before = probs.copy()
        ranked = top_k_unseen(probs, np.array([[1, -1], [2, 0]]), k=3)
        assert ranked[0][0].tolist() == [2, 0]
        assert ranked[1][0].tolist() == [1]
        assert np.array_equal(probs, before)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            top_k_unseen(np.ones((1, 3)), np.zeros((1, 0), dtype=int), 0)


def traced_peak(fn, *args):
    """Bytes allocated at the peak of ``fn(*args)``, beyond what was live
    before the call, as ``tracemalloc`` sees it (numpy reports its array
    buffers to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


class TestAllocation:
    """At the production vocabulary a second (rows, V) array is the cost,
    so the inference path must not make one."""

    ROWS, V = 64, 100_000
    BLOCK = ROWS * V * 8  # bytes of one float64 (rows, V) array

    def test_top_k_unseen_makes_no_rows_by_v_array(self):
        rng = np.random.default_rng(0)
        probs = rng.random((self.ROWS, self.V))
        seen = rng.integers(-1, self.V, size=(self.ROWS, 40))
        peak, ranked = traced_peak(top_k_unseen, probs, seen, 20)
        assert len(ranked) == self.ROWS
        assert peak < self.BLOCK // 4, f"peak {peak / 2**20:.1f} MB"

    def test_forward_makes_one_rows_by_v_array(self):
        model = Transformer(ModelConfig(vocab_size=self.V, layers=1, hidden=16, heads=2), seed=0)
        ids = np.arange(self.ROWS).reshape(8, 8)
        peak, probs = traced_peak(model.forward, ids, np.nonzero(np.ones((8, 8), dtype=bool)))
        assert probs.shape == (self.ROWS, self.V)
        # the output itself, plus a margin far below a second block
        assert peak < self.BLOCK * 5 // 4, f"peak {peak / 2**20:.1f} MB"

    def test_head_backward_makes_no_hidden_by_v_array(self):
        # a Linear of the head's shape writes its weight gradient in place,
        # not made and then added. The model's own head has none: its loss
        # hands the gradient on block by block
        rng = np.random.default_rng(0)
        layer = Linear(16, self.V, rng, bias=False)
        head = layer.weight.value.nbytes
        layer.forward(rng.normal(size=(self.ROWS, 16)))
        peak, dx = traced_peak(layer.backward, rng.normal(size=(self.ROWS, self.V)))
        assert dx.shape == (self.ROWS, 16)
        assert peak < head // 4, f"peak {peak / 2**20:.1f} MB"

    def test_loss_and_backward_make_no_rows_by_v_array(self):
        # at the production vocabulary a step's 205 loss rows would make
        # 246 MB of logits; the loss holds one block of them at a time
        vocab, rows = 150_210, 205
        model = Transformer(ModelConfig(vocab_size=vocab, layers=1, hidden=16, heads=2, max_seq=64), seed=0)
        rng = np.random.default_rng(2)
        ids, targets = rng.integers(0, vocab, size=(5, 41)), rng.integers(0, vocab, size=(5, 41))

        def step():
            res = trajectory_loss(model, ids, targets, np.ones((5, 41), dtype=bool))
            model.backward(res.grad_hidden)
            return res

        peak, res = traced_peak(step)
        assert res.n_targets == rows and math.isfinite(res.loss)
        assert peak < rows * vocab * 8 // 4, f"peak {peak / 2**20:.1f} MB"

    def test_training_step_makes_no_head_gradient(self, monkeypatch):
        # a model at the production vocabulary, its Adam and one training
        # step peak below the parameters, the moments and a quarter of the
        # head: the head's (hidden, V) gradient is never whole. A 1 MiB
        # budget keeps a block of logits and one of the head's gradient far
        # below that quarter
        monkeypatch.setattr(transformer, "LOGIT_BLOCK_BYTES", 1 << 20)
        vocab = 150_210
        rng = np.random.default_rng(3)
        ids, targets = rng.integers(0, vocab, size=(4, 12)), rng.integers(0, vocab, size=(4, 12))

        def build_and_step():
            model = Transformer(ModelConfig(vocab_size=vocab, layers=1, hidden=16, heads=2, max_seq=16), seed=0)
            opt = Adam(model.parameters(), TrainConfig())
            train_step(model, opt, ids, targets, np.ones((4, 12), dtype=bool), 1e-3)
            return model, opt

        peak, (model, opt) = traced_peak(build_and_step)
        params = sum(p.value.nbytes for p in model.parameters().values())
        moments = sum(a.nbytes for a in (*opt.m.values(), *opt.v.values()))
        bound = params + moments + model.head.weight.value.nbytes // 4
        assert opt.step_count == 1
        assert peak < bound, f"peak {peak / 2**20:.1f} MB, bound {bound / 2**20:.1f} MB"

    def test_training_step_keeps_only_the_embedding_rows_it_touched(self):
        # at the production vocabulary the embedding's gradient and moments
        # hold its live rows, not 150,210 of them
        vocab, hidden = 150_210, 16
        model = Transformer(ModelConfig(vocab_size=vocab, layers=1, hidden=hidden, heads=2), seed=0)
        opt = Adam(model.parameters(), TrainConfig())
        embed = model.parameters()["embed.weight"]
        rng = np.random.default_rng(1)
        live = np.empty(0, dtype=np.intp)
        for _ in range(2):
            ids = rng.integers(0, vocab, size=(2, 8))
            targets = rng.integers(0, vocab, size=(2, 8))
            model.backward(trajectory_loss(model, ids, targets, np.ones((2, 8), dtype=bool)).grad_hidden)
            assert embed.grad.shape == (len(np.unique(ids)), hidden)
            assert np.array_equal(embed.rows, np.unique(ids))
            opt.step(1e-3)
            live = np.union1d(live, ids)
            assert np.array_equal(opt.live["embed.weight"], live)
            assert opt.m["embed.weight"].shape == opt.v["embed.weight"].shape == (len(live), hidden)

    def test_save_checkpoint_copies_no_parameter(self, tmp_path):
        # at the production vocabulary the (hidden, V) head is larger than
        # np.save's 16 MiB copy buffer; a save writes it without a copy,
        # and every entry still holds exactly np.save's bytes
        model = Transformer(ModelConfig(vocab_size=150_210, layers=1, hidden=16, heads=2), seed=0)
        head = model.parameters()["head.weight"].value.nbytes
        path = tmp_path / "model.ckpt"
        peak, _ = traced_peak(save_checkpoint, TrainState(model=model, config=TrainConfig()), path, "lh", "ch")
        assert peak < head // 8, f"peak {peak / 2**20:.1f} MB"
        with zipfile.ZipFile(path) as zf:
            for name, p in model.parameters().items():
                assert zf.read(f"param/{name}.npy") == npy_bytes(p.value), name


class TestRanking:
    def setup_method(self):
        self.tok = Tokenizer(LayoutSpec(genome_length=30))
        cfg = ModelConfig(vocab_size=self.tok.vocab_size, layers=1, hidden=32, heads=4, max_seq=32)
        self.model = Transformer(cfg, seed=5)
        self.context = [self.tok.unknown_token] * 5 + [self.tok.mutation_token(3, "T")]

    def test_k1_is_argmax_mutation(self):
        pred = rank_next_mutations(self.model, self.tok, self.context, k=1)
        probs = every_row(self.model.forward, [self.context])[0, -1]
        lo, hi = self.tok.mutation_block
        mut = probs[lo:hi].copy()
        mut[self.tok.mutation_token(3, "T")] = -1
        assert pred.tokens[0] == int(np.argmax(mut)) + lo

    def test_context_tokens_excluded(self):
        k = self.tok.mutation_block[1]  # ask for everything
        pred = rank_next_mutations(self.model, self.tok, self.context, k=k)
        assert self.tok.mutation_token(3, "T") not in pred.tokens
        assert len(pred.tokens) == self.tok.mutation_block[1] - 1

    def test_candidates_only_from_mutation_block(self):
        pred = rank_next_mutations(self.model, self.tok, self.context, k=50)
        lo, hi = self.tok.mutation_block
        assert all(lo <= t < hi for t in pred.tokens)

    def test_scores_descending(self):
        pred = rank_next_mutations(self.model, self.tok, self.context, k=20)
        assert list(pred.scores) == sorted(pred.scores, reverse=True)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            rank_next_mutations(self.model, self.tok, self.context, k=0)

    @pytest.mark.parametrize("k", [1, 10, 20, 50, 150])
    def test_same_tokens_and_scores_as_full_forward_rule(self, k):
        """The ranking over every position's forward, the rule's earlier
        form, gives the same candidates and scores."""
        lo, hi = self.tok.mutation_block
        for context in (self.context, self.context + [self.tok.mutation_token(7, "G")]):
            probs = every_row(self.model.forward, [context])[0, -1, lo:hi]
            seen = [t - lo for t in context[PREFIX_LENGTH:]]
            tokens, scores = reference_top_k(probs, seen, k)
            pred = rank_next_mutations(self.model, self.tok, context, k=k)
            assert list(pred.tokens) == [t + lo for t in tokens]
            assert pred.scores == pytest.approx(scores, rel=1e-12, abs=0)

    def located_and_withheld(self) -> tuple[list[int], list[int]]:
        """self.context's trajectory from Bavaria, tokenized with its location
        and without it."""
        for name in ("Germany", "Bavaria"):
            self.tok.register_location(name)
        traj = Trajectory(SequenceMeta("s", country="Germany", region="Bavaria"), "V", (),
                          (NtMutation(3, "T"),))
        withheld = replace(traj, meta=replace(traj.meta, country=None, region=None))
        return list(self.tok.tokenize(traj).tokens), list(self.tok.tokenize(withheld).tokens)

    def test_without_location_ignores_location_fields(self):
        # withholding location is tokenizing without it: both location
        # tokens are the unknown token, so the model ranks the context of a
        # sample with no location, whatever the sample's location was
        located, withheld = self.located_and_withheld()
        assert located[:2] == list(self.tok.location_tokens("Germany", "Bavaria"))
        assert self.tok.unknown_token not in located[:2]
        assert withheld == self.context

    def test_shapes_match_between_modes(self):
        located, withheld = self.located_and_withheld()
        a = rank_next_mutations(self.model, self.tok, located, k=10)
        b = rank_next_mutations(self.model, self.tok, withheld, k=10)
        assert len(a.tokens) == len(b.tokens) == 10


class TestBatchArrays:
    def test_padding_and_mask(self):
        samples = [
            (np.array([1, 2, 3, 4]), 2),  # 2 prefix + 2 trajectory
            (np.array([5, 6]), 1),  # 1 prefix + 1 trajectory
        ]
        inputs, targets, mask = batch_arrays(samples)
        assert inputs.shape == (2, 3)
        assert inputs[0].tolist() == [1, 2, 3]
        assert targets[0].tolist() == [2, 3, 4]
        assert mask[0].tolist() == [False, True, True]
        assert mask[1].tolist() == [True, False, False]

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            batch_arrays([(np.array([1]), 1)])


class TestHeldOutLoss:
    def test_training_reduces_held_out_loss(self):
        tok = Tokenizer(LayoutSpec(genome_length=30))
        samples = toy_dataset(tok, n=96, seed=4)
        held_out = toy_dataset(tok, n=32, seed=5)
        cfg = ModelConfig(vocab_size=tok.vocab_size, layers=2, hidden=32, heads=4, max_seq=16)
        tcfg = TrainConfig(steps=150, batch_size=16, seed=6)

        def held_out_loss(model):
            arrays = [(np.asarray(s.tokens), len(s.prefix_tokens)) for s in held_out]
            inputs, targets, mask = batch_arrays(arrays)
            return trajectory_loss(model, inputs, targets, mask).loss

        initial = held_out_loss(Transformer(cfg, seed=tcfg.seed))
        state = train(samples, list(range(len(samples))), cfg, tcfg)
        assert held_out_loss(state.model) < initial
