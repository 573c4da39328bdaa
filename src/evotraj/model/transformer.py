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


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    layers: int = 2
    hidden: int = 64
    heads: int = 4
    max_seq: int = 256

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ValueError("hidden must be divisible by heads")
        if self.vocab_size < 2:
            raise ValueError("vocab_size too small")


class Transformer(Module):
    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.config = config
        self.embed = Embedding(config.vocab_size, config.hidden, rng)
        self.blocks = [Block(config.hidden, config.heads, rng) for _ in range(config.layers)]
        self.ln_f = LayerNorm(config.hidden)
        self.head = Linear(config.hidden, config.vocab_size, rng, bias=False)

    def _check_input(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.shape[1] > self.config.max_seq:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds max_seq {self.config.max_seq}"
            )
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError("token id outside vocabulary")
        return ids

    def logits(self, ids: np.ndarray, rows=None) -> np.ndarray:
        """(B, T, V) next-token logits. ``rows`` indexes the (B, T) positions,
        e.g. a (batch indices, positions) pair; then only those positions go
        through the head and the result is (rows, V). Only a full forward can
        be followed by ``backward``."""
        ids = self._check_input(ids)
        x = self.embed.forward(ids)
        for block in self.blocks:
            x = block.forward(x)
        x = self.ln_f.forward(x)
        if rows is not None:
            x = x[rows]
        return self.head.forward(x)

    def forward(self, ids: np.ndarray, rows=None) -> np.ndarray:
        """Per-position probability distribution over the vocabulary, at
        ``rows`` only when given (see ``logits``)."""
        return softmax(self.logits(ids, rows))

    def backward(self, grad_logits: np.ndarray) -> None:
        dx = self.head.backward(grad_logits)
        dx = self.ln_f.backward(dx)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        self.embed.backward(dx)

    def n_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters().values())


@dataclass
class LossResult:
    loss: float
    n_targets: int
    grad_logits: np.ndarray | None = None


def masked_cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    target_mask: np.ndarray,
    compute_grad: bool = True,
) -> LossResult:
    """Mean next-token cross-entropy over mask-true target positions.

    targets[i, t] is the token to predict from position t; target_mask selects
    trajectory-token targets only, so prefix and padding positions contribute
    nothing.
    """
    if not target_mask.any():
        raise ValueError("batch has no trajectory-token targets")
    probs = softmax(logits)
    b_idx, t_idx = np.nonzero(target_mask)
    n = len(b_idx)
    picked = probs[b_idx, t_idx, targets[b_idx, t_idx]]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    grad = None
    if compute_grad:
        grad = np.zeros_like(logits)
        grad[b_idx, t_idx] = probs[b_idx, t_idx]
        grad[b_idx, t_idx, targets[b_idx, t_idx]] -= 1.0
        grad /= n
    return LossResult(loss=loss, n_targets=n, grad_logits=grad)


def trajectory_loss(
    model: Transformer,
    inputs: np.ndarray,
    targets: np.ndarray,
    target_mask: np.ndarray,
    compute_grad: bool = True,
) -> LossResult:
    return masked_cross_entropy(model.logits(inputs), targets, target_mask, compute_grad)


def batch_arrays(
    samples: list[tuple[np.ndarray, int]], pad_id: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack (token array, prefix length) samples into padded training arrays.

    Returns (inputs, targets, target_mask). Sequences shorter than the batch
    width are padded at the end; padded positions are excluded from the loss
    by the mask, and causality keeps them from influencing real positions.
    """
    if not any(len(tokens) >= 2 for tokens, _ in samples):
        raise ValueError("no sample in batch has at least two tokens")
    inputs = pad_batch([tokens[:-1] for tokens, _ in samples], pad_id)
    targets = pad_batch([tokens[1:] for tokens, _ in samples], pad_id)
    mask = np.zeros(inputs.shape, dtype=bool)
    for i, (tokens, prefix_len) in enumerate(samples):
        # the target at input position t is token t+1; trajectory tokens
        # start right after the prefix
        first = max(prefix_len - 1, 0)
        mask[i, first : max(len(tokens) - 1, 0)] = True
    return inputs, targets, mask


def pad_batch(seqs: Sequence[Sequence[int]], pad_id: int = 0) -> np.ndarray:
    """Stack token sequences into a (B, T) array, padded at the end to the
    longest. Causality keeps the padding from influencing real positions."""
    out = np.full((len(seqs), max(len(s) for s in seqs)), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out
