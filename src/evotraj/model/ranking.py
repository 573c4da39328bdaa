"""Ranked next-mutation inference from a trained model.

One kernel, ``top_k_unseen``, ranks every prediction: top-k over the
mutation block, best first, with the tokens already seen in the context
trajectory left out. ``rank_contexts`` feeds it from batched forwards.
It walks the rows one at a time through one reused row of scores, so at
the production vocabulary it makes no (rows, V) copy of the probabilities
and no (rows, V) index array. Neither knows location: a caller withholds
it by tokenizing without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..tokenizer import PREFIX_LENGTH, Tokenizer
from .transformer import Transformer, pad_batch

# contexts per forward, and prediction rows per forward: the (rows, V) head
# block of one forward stays within that of a training step
BATCH_CONTEXTS = 64
BATCH_ROWS = 128


@dataclass(frozen=True)
class RankedPrediction:
    """Candidate mutation tokens with scores, best first."""

    tokens: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.tokens) != len(set(self.tokens)):
            raise ValueError("duplicate candidates in ranking")


def top_k_unseen(
    probs: np.ndarray, seen: np.ndarray, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The k best columns of each row of ``probs``, best first, with the
    row's seen columns left out; returns (columns, scores) per row.

    ``seen`` is (rows, s) column indices; entries outside the row are
    ignored, so it may be padded with -1. The rows are ranked one by one:
    each is copied into one reused score buffer, its seen columns score -1,
    the k largest are selected by argpartition and ordered by a descending
    argsort, and the seen ones are dropped, so a row may return fewer than
    k. Per row this is the same selection as a 2-D argpartition along the
    columns, so the columns and their order are the same.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = probs.shape[1]
    k_eff = min(k, n)
    scores = np.empty(n, dtype=probs.dtype)
    out = []
    for row, row_seen in zip(probs, seen):
        np.copyto(scores, row)
        scores[row_seen[(row_seen >= 0) & (row_seen < n)]] = -1.0
        top = np.argpartition(scores, -k_eff)[-k_eff:]
        top_scores = scores[top]
        order = np.argsort(top_scores)[::-1]
        top, top_scores = top[order], top_scores[order]
        keep = top_scores >= 0.0
        out.append((top[keep], top_scores[keep]))
    return out


def _batches(contexts: Sequence[Sequence[int]], positions: Sequence[Sequence[int]]):
    """Context indices grouped for forwards: sorted by length, at most
    BATCH_CONTEXTS contexts and, unless one context alone exceeds it,
    BATCH_ROWS prediction rows per group."""
    batch: list[int] = []
    rows = 0
    for i in sorted(range(len(contexts)), key=lambda i: len(contexts[i])):
        if batch and (len(batch) == BATCH_CONTEXTS or rows + len(positions[i]) > BATCH_ROWS):
            yield batch
            batch, rows = [], 0
        batch.append(i)
        rows += len(positions[i])
    if batch:
        yield batch


def rank_contexts(
    model: Transformer,
    tokenizer: Tokenizer,
    contexts: Sequence[Sequence[int]],
    positions: Sequence[Sequence[int]],
    k: int,
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Top-k mutation tokens and their probabilities after each position of
    each context, excluding mutation tokens at or before that position.

    Contexts are packed into padded batches; each forward runs the head on
    the prediction rows only. Returns, per context, one (tokens, scores)
    pair per position.
    """
    lo, hi = tokenizer.mutation_block
    out: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in contexts]
    for batch in _batches(contexts, positions):
        ids = pad_batch([contexts[i] for i in batch])
        b_idx = np.repeat(np.arange(len(batch)), [len(positions[i]) for i in batch])
        t_idx = np.concatenate([np.asarray(positions[i], dtype=np.int64) for i in batch])
        probs = model.forward(ids, rows=(b_idx, t_idx))[:, lo:hi]
        # a row has seen the trajectory tokens up to its own position
        cols = np.arange(ids.shape[1])
        live = (cols >= PREFIX_LENGTH) & (cols <= t_idx[:, None])
        seen = np.where(live, ids[b_idx] - lo, -1)
        ranked = top_k_unseen(probs, seen, k)
        for b, (tokens, scores) in zip(b_idx, ranked):
            out[batch[b]].append((tokens + lo, scores))
    return out


def rank_next_mutations(
    model: Transformer,
    tokenizer: Tokenizer,
    context_tokens: list[int],
    k: int,
) -> RankedPrediction:
    """Top-k mutation-block tokens by model probability at the end of the context.

    Tokens already present in the context trajectory are excluded: the same
    site-state event cannot meaningfully recur.
    """
    [(tokens, scores)] = rank_contexts(
        model, tokenizer, [context_tokens], [[len(context_tokens) - 1]], k
    )[0]
    return RankedPrediction(tokens=tuple(tokens.tolist()), scores=tuple(scores.tolist()))

