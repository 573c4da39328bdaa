"""Decoder-only transformer over mutation-trajectory tokens.

Next-token training with the loss restricted to trajectory tokens; the
location/time prefix only ever provides context. Positions are encoded
rotationally inside attention, so there is no absolute position table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nn import Block, Embedding, LayerNorm, Linear, Module, softmax

# bytes of logits per loss block: one 150,210-id row, or about 40 rows of
# 3,195 ids, fits a 2 MB L2 with room to spare
LOSS_BLOCK_BYTES = 1 << 20


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

    def _check_input(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.shape[1] > self.config.max_seq:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds max_seq {self.config.max_seq}"
            )
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError("token id outside vocabulary")
        return ids

    def logits(self, ids: np.ndarray, rows) -> np.ndarray:
        """(n, V) next-token logits of (B, T) ``ids`` at the n positions that
        ``rows`` indexes, e.g. a (batch indices, positions) pair; only those
        positions go through the head. The rows must be distinct, as
        ``np.nonzero`` of a mask gives them."""
        ids = self._check_input(ids)
        x = self.embed.forward(ids)
        for block in self.blocks:
            x = block.forward(x)
        x = self.ln_f.forward(x)
        self._rows, self._hidden_shape = rows, x.shape
        return self.head.forward(x[rows])

    def forward(self, ids: np.ndarray, rows) -> np.ndarray:
        """(n, V) probability distributions over the vocabulary at ``rows``
        (see ``logits``). The softmax is taken in place on the fresh logits,
        so one (n, V) array is made, not two."""
        z = self.logits(ids, rows)
        return softmax(z, out=z)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate the (n, V) gradient of the last ``logits`` call's
        output. Positions outside its rows had no head output, so their
        gradient is zero."""
        full = np.zeros(self._hidden_shape)
        full[self._rows] = self.head.backward(grad_logits)
        dx = self.ln_f.backward(full)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        self.embed.backward(dx)


@dataclass
class LossResult:
    loss: float
    n_targets: int
    grad_logits: np.ndarray


def masked_cross_entropy(z: np.ndarray, targets: np.ndarray) -> LossResult:
    """Mean next-token cross-entropy of (n, V) row logits ``z`` against the n
    row target ids.

    ``z`` becomes the softmax and then the gradient (p - onehot) / n, in
    place: one (n, V) array in all. Each block of rows goes through the
    softmax, the target gather and the gradient while it is in cache; every
    row's values are those of the one-shot formula."""
    n = len(targets)
    block = max(1, LOSS_BLOCK_BYTES // (z.shape[1] * z.itemsize))
    at_target = np.empty(n, dtype=z.dtype)
    for lo in range(0, n, block):
        zb, tb = z[lo : lo + block], targets[lo : lo + block]
        softmax(zb, out=zb)
        hit = (np.arange(len(tb)), tb)
        at_target[lo : lo + block] = zb[hit]
        zb[hit] -= 1.0
        zb /= n
    loss = float(-np.log(np.maximum(at_target, 1e-300)).mean())
    return LossResult(loss=loss, n_targets=n, grad_logits=z)


def trajectory_loss(
    model: Transformer,
    inputs: np.ndarray,
    targets: np.ndarray,
    target_mask: np.ndarray,
) -> LossResult:
    """``masked_cross_entropy`` of the model on a batch, over the mask-true
    target positions: targets[i, t] is the token to predict from position t,
    and the mask selects trajectory-token targets only, so prefix and padding
    positions contribute nothing. Only the loss rows go through the head, so
    ``grad_logits`` is (n_targets, V); pass it to ``model.backward``."""
    if not target_mask.any():
        raise ValueError("batch has no trajectory-token targets")
    rows = np.nonzero(target_mask)
    return masked_cross_entropy(model.logits(inputs, rows), targets[rows])


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
