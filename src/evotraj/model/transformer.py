"""Decoder-only transformer over mutation-trajectory tokens.

Next-token training with the loss restricted to trajectory tokens; the
location/time prefix only ever provides context. Positions are encoded
rotationally inside attention, so there is no absolute position table.

A training step never makes the (rows, vocabulary) logits whole: the loss
takes the final hidden rows and the head's weight, and runs the head, the
softmax, the cross-entropy and the head's backward one block of vocabulary
columns at a time. Inference (``logits``, ``forward``) makes the whole
array, since it needs every probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nn import Block, Embedding, LayerNorm, Linear, Module, Parameter, softmax

# bytes of logits per column block of the loss: a whole desk-scale step
# (at most 563 rows of 3,195 ids, 14.4 MB) fits one block, and a
# production-vocabulary step of 147 rows (177 MB of logits) takes 11
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
        zero. The head's own gradient is the loss's to write."""
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


def masked_cross_entropy(h: np.ndarray, head: Parameter, targets: np.ndarray) -> LossResult:
    """Mean next-token cross-entropy of the logits ``h @ head.value`` of
    (n, hidden) rows ``h`` against the n row target ids, with its gradient:
    ``head.grad`` is written, and the gradient of ``h`` returned.

    The (n, V) logits are never whole. Each block of vocabulary columns,
    LOGIT_BLOCK_BYTES of logits, is made in one reused buffer. Pass 1 keeps
    each row's largest logit and sum of exponentials per block; together
    they give the softmax's shift M and denominator S. Pass 2 makes each
    block again as exp(z - M) / S, less the one-hot, over n: the block's
    gradient, which writes its columns of ``head.grad`` and adds its term
    of the gradient of ``h``. When the whole array fits one block, pass 2
    takes pass 1's exponentials, and every value is the one-shot formula's
    to the bit."""
    n, w = len(targets), head.value
    vocab = w.shape[1]
    if targets.min() < 0 or targets.max() >= vocab:
        raise ValueError("target id outside vocabulary")
    width = min(vocab, max(1, LOGIT_BLOCK_BYTES // (n * w.itemsize)))
    starts = range(0, vocab, width)
    buf = np.empty((n, width))
    maxes, sums = np.empty((len(starts), n)), np.empty((len(starts), n))
    for b, lo in enumerate(starts):
        wb = w[:, lo : lo + width]
        z = np.matmul(h, wb, out=buf[:, : wb.shape[1]])
        z.max(axis=1, out=maxes[b])
        z -= maxes[b][:, None]
        np.exp(z, out=z)
        z.sum(axis=1, out=sums[b])
    top = maxes.max(axis=0)
    # one block: exp(0) is 1 and a sum of one row is that row, so this is
    # exactly the block's own sum
    total = (sums * np.exp(maxes - top)).sum(axis=0)

    rows = np.arange(n)
    at_target = np.empty(n)
    grad = np.empty_like(h)
    for b, lo in enumerate(starts):
        wb = w[:, lo : lo + width]
        if len(starts) > 1:
            z = np.matmul(h, wb, out=buf[:, : wb.shape[1]])
            z -= top[:, None]
            np.exp(z, out=z)
        z /= total[:, None]
        hit = (targets >= lo) & (targets < lo + width)
        at = (rows[hit], targets[hit] - lo)
        at_target[hit] = z[at]
        z[at] -= 1.0
        z /= n
        np.matmul(h.T, z, out=head.grad[:, lo : lo + width])
        if b == 0:
            np.matmul(z, wb.T, out=grad)
        else:
            grad += z @ wb.T
    loss = float(-np.log(np.maximum(at_target, 1e-300)).mean())
    return LossResult(loss=loss, n_targets=n, grad_hidden=grad)


def trajectory_loss(
    model: Transformer,
    inputs: np.ndarray,
    targets: np.ndarray,
    target_mask: np.ndarray,
) -> LossResult:
    """``masked_cross_entropy`` of the model on a batch, over the mask-true
    target positions: targets[i, t] is the token to predict from position t,
    and the mask selects trajectory-token targets only, so prefix and padding
    positions contribute nothing. Only the loss rows go through the head;
    the loss writes the head's gradient, and ``grad_hidden``, (n_targets,
    hidden), is for ``model.backward``."""
    if not target_mask.any():
        raise ValueError("batch has no trajectory-token targets")
    rows = np.nonzero(target_mask)
    return masked_cross_entropy(model.hidden(inputs, rows), model.head.weight, targets[rows])


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
