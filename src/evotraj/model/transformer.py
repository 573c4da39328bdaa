"""Decoder-only transformer over mutation-trajectory tokens.

Next-token training with the loss restricted to trajectory tokens; the
location/time prefix only ever provides context. Positions are encoded
rotationally inside attention, so there is no absolute position table.

A training step never makes the (rows, vocabulary) logits whole, nor the
head's (hidden, vocabulary) gradient: the loss takes the final hidden rows
and the head's weight, and runs the head, the softmax, the cross-entropy
and the head's backward one block of vocabulary columns at a time, handing
each block of the head's gradient to the optimizer, which updates those
columns before the next block is made. Inference (``logits``, ``forward``)
makes the whole array, since it needs every probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .nn import Block, Embedding, LayerNorm, Linear, Module, softmax

# bytes of logits, and at most as many of the head's gradient, per column
# block of the loss: a whole desk-scale step (at most 563 rows of 3,195 ids,
# 14.4 MB) fits one block, and a production-vocabulary step of 147 rows
# (177 MB of logits) takes 11
LOGIT_BLOCK_BYTES = 1 << 24


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    layers: int = 2
    hidden: int = 64
    heads: int = 4
    max_seq: int = 256

    def __post_init__(self):
        for name in ("layers", "hidden", "heads", "max_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.hidden % self.heads != 0:
            raise ValueError("hidden must be divisible by heads")
        if self.vocab_size < 2:
            raise ValueError("vocab_size too small")


class Transformer(Module):
    def __init__(self, config: ModelConfig, seed: int | np.random.Generator = 0):
        """Parameters are drawn from ``np.random.default_rng(seed)``; a
        Generator is used as given."""
        rng = np.random.default_rng(seed)
        self.config = config
        self.embed = Embedding(config.vocab_size, config.hidden, rng)
        self.blocks = [Block(config.hidden, config.heads, rng) for _ in range(config.layers)]
        self.ln_f = LayerNorm(config.hidden)
        self.head = Linear(config.hidden, config.vocab_size, rng, bias=False)
        # the loss hands the head's gradient to the optimizer one block of
        # columns at a time, so the head has no gradient array
        self.head.weight.grad = None

    def _check_input(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.shape[1] > self.config.max_seq:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds max_seq {self.config.max_seq}"
            )
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError("token id outside vocabulary")
        return ids

    def hidden(self, ids: np.ndarray, rows) -> np.ndarray:
        """(n, hidden) final-layer-norm outputs of (B, T) ``ids`` at the n
        positions that ``rows`` indexes, e.g. a (batch indices, positions)
        pair: the head's input rows. The rows must be distinct, as
        ``np.nonzero`` of a mask gives them."""
        ids = self._check_input(ids)
        x = self.embed.forward(ids)
        for block in self.blocks:
            x = block.forward(x)
        x = self.ln_f.forward(x)
        self._rows, self._hidden_shape = rows, x.shape
        return x[rows]

    def logits(self, ids: np.ndarray, rows) -> np.ndarray:
        """(n, V) next-token logits at ``rows`` (see ``hidden``); only those
        positions go through the head."""
        return self.head.forward(self.hidden(ids, rows))

    def forward(self, ids: np.ndarray, rows) -> np.ndarray:
        """(n, V) probability distributions over the vocabulary at ``rows``
        (see ``logits``). The softmax is taken in place on the fresh logits,
        so one (n, V) array is made, not two."""
        z = self.logits(ids, rows)
        return softmax(z, out=z)

    def backward(self, grad_hidden: np.ndarray) -> None:
        """Backpropagate the (n, hidden) gradient of the last ``hidden``
        call's output, the head's input rows, down to the embedding.
        Positions outside its rows had no head input, so their gradient is
        zero. The head's own gradient is the loss's to hand on."""
        full = np.zeros(self._hidden_shape)
        full[self._rows] = grad_hidden
        dx = self.ln_f.backward(full)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        self.embed.backward(dx)


@dataclass
class LossResult:
    loss: float
    n_targets: int
    grad_hidden: np.ndarray  # (n, hidden): the gradient of the head's input rows


# update(lo, grad): take the head's (hidden, width) gradient of its columns
# lo : lo + width, a buffer that the loss reuses for the next block
HeadUpdate = Callable[[int, np.ndarray], None]


def masked_cross_entropy(
    h: np.ndarray, w: np.ndarray, targets: np.ndarray, update: HeadUpdate | None = None
) -> LossResult:
    """Mean next-token cross-entropy of the logits ``h @ w`` of (n, hidden)
    rows ``h`` and the (hidden, V) head ``w`` against the n row target ids,
    with its gradient: the gradient of ``h`` is returned, and the head's is
    handed to ``update`` one block of columns at a time.

    The (n, V) logits are never whole, and neither is the head's gradient.
    Each block of vocabulary columns, at most LOGIT_BLOCK_BYTES of logits
    and as much of gradient, is made in one reused buffer. Pass 1 keeps
    each row's largest logit and sum of exponentials per block; together
    they give the softmax's shift M and denominator S. The loss is finite
    exactly when every row's M and S are, so a non-finite one raises
    FloatingPointError here, before ``update`` is called. Pass 2 makes each
    block again as exp(z - M) / S, less the one-hot, over n: the block's
    gradient g, which adds its term g @ w[:, c].T of the gradient of ``h``
    while the block's weights are still the old ones, and then gives
    ``update`` the head's gradient h.T @ g of those columns, which it may
    use to change them. Without ``update`` the head's gradient is not made.
    When the whole array fits one block, pass 2 takes pass 1's
    exponentials, and every value is the one-shot formula's to the bit."""
    n, hidden = h.shape
    vocab = w.shape[1]
    if targets.min() < 0 or targets.max() >= vocab:
        raise ValueError("target id outside vocabulary")
    width = min(vocab, max(1, LOGIT_BLOCK_BYTES // (max(n, hidden) * w.itemsize)))
    starts = range(0, vocab, width)
    # the logits block, then the head's gradient block: one allocation a
    # call, as the logits alone would take
    buf = np.empty((n + (hidden if update is not None else 0), width))
    maxes, sums = np.empty((len(starts), n)), np.empty((len(starts), n))
    for b, lo in enumerate(starts):
        wb = w[:, lo : lo + width]
        z = np.matmul(h, wb, out=buf[:n, : wb.shape[1]])
        z.max(axis=1, out=maxes[b])
        z -= maxes[b][:, None]
        np.exp(z, out=z)
        z.sum(axis=1, out=sums[b])
    top = maxes.max(axis=0)
    # one block: exp(0) is 1 and a sum of one row is that row, so this is
    # exactly the block's own sum
    total = (sums * np.exp(maxes - top)).sum(axis=0)
    if not (np.isfinite(top).all() and np.isfinite(total).all()):
        # some row's probabilities, and so the loss, would be nan
        raise FloatingPointError("non-finite loss nan")

    rows = np.arange(n)
    at_target = np.empty(n)
    grad = np.empty_like(h)
    for b, lo in enumerate(starts):
        wb = w[:, lo : lo + width]
        if len(starts) > 1:
            z = np.matmul(h, wb, out=buf[:n, : wb.shape[1]])
            z -= top[:, None]
            np.exp(z, out=z)
        z /= total[:, None]
        hit = (targets >= lo) & (targets < lo + width)
        at = (rows[hit], targets[hit] - lo)
        at_target[hit] = z[at]
        z[at] -= 1.0
        z /= n
        if b == 0:
            np.matmul(z, wb.T, out=grad)
        else:
            grad += z @ wb.T
        if update is not None:
            update(lo, np.matmul(h.T, z, out=buf[n:, : wb.shape[1]]))
    loss = float(-np.log(np.maximum(at_target, 1e-300)).mean())
    return LossResult(loss=loss, n_targets=n, grad_hidden=grad)


def trajectory_loss(
    model: Transformer,
    inputs: np.ndarray,
    targets: np.ndarray,
    target_mask: np.ndarray,
    update: HeadUpdate | None = None,
) -> LossResult:
    """``masked_cross_entropy`` of the model on a batch, over the mask-true
    target positions: targets[i, t] is the token to predict from position t,
    and the mask selects trajectory-token targets only, so prefix and padding
    positions contribute nothing. Only the loss rows go through the head;
    the head's gradient goes to ``update`` block by block, and
    ``grad_hidden``, (n_targets, hidden), is for ``model.backward``."""
    if not target_mask.any():
        raise ValueError("batch has no trajectory-token targets")
    rows = np.nonzero(target_mask)
    return masked_cross_entropy(model.hidden(inputs, rows), model.head.weight.value, targets[rows], update)


def batch_arrays(
    samples: list[tuple[np.ndarray, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack (token array, prefix length) samples into padded training arrays.

    Returns (inputs, targets, target_mask). Sequences shorter than the batch
    width are padded at the end; padded positions are excluded from the loss
    by the mask, and causality keeps them from influencing real positions.
    """
    if not any(len(tokens) >= 2 for tokens, _ in samples):
        raise ValueError("no sample in batch has at least two tokens")
    inputs = pad_batch([tokens[:-1] for tokens, _ in samples])
    targets = pad_batch([tokens[1:] for tokens, _ in samples])
    mask = np.zeros(inputs.shape, dtype=bool)
    for i, (tokens, prefix_len) in enumerate(samples):
        # the target at input position t is token t+1; trajectory tokens
        # start right after the prefix
        first = max(prefix_len - 1, 0)
        mask[i, first : max(len(tokens) - 1, 0)] = True
    return inputs, targets, mask


def pad_batch(seqs: Sequence[Sequence[int]]) -> np.ndarray:
    """Stack token sequences into a (B, T) array, padded with id 0 at the end
    to the longest. Causality keeps the padding from influencing real
    positions."""
    out = np.zeros((len(seqs), max(len(s) for s in seqs)), dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out
