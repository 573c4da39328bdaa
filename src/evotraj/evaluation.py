"""Recall@k evaluation with teacher forcing over private-mutation trajectories.

Each private mutation becomes one prediction step: the predictor sees the
prefix, the variant mutations, and all earlier private mutations, and its
top-k candidates are checked against the true next mutation. A sequence's
recall is the mean over its steps; aggregates are reported unweighted and
weighted by representativeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from .genome import AaMutation, SpikeMap, SpikeState
from .tokenizer import PREFIX_LENGTH, TokenizedSample, Tokenizer
from .tree import Trajectory, spike_aa_steps
from .model.ranking import rank_contexts, strip_location
from .pipeline import write_csv
from .model.transformer import Transformer


class NtPredictor(Protocol):
    def rank_batch(
        self, contexts: Sequence[Sequence[int]], positions: Sequence[Sequence[int]], k: int
    ) -> list[list[tuple[int, ...]]]:
        """Top-k mutation tokens for each end position of each context."""

    def rank_at_positions(
        self, tokens: Sequence[int], positions: Sequence[int], k: int
    ) -> list[tuple[int, ...]]:
        """rank_batch for one context."""


class ModelPredictor:
    """Ranks with a trained model; one forward pass serves every step of a
    batch of sequences because the distributions at all positions are causal."""

    def __init__(self, model: Transformer, tokenizer: Tokenizer, use_location: bool = True):
        self.model = model
        self.tokenizer = tokenizer
        self.use_location = use_location

    @property
    def max_context(self) -> int:
        return self.model.config.max_seq

    def rank_batch(self, contexts, positions, k):
        if not self.use_location:
            contexts = [strip_location(self.tokenizer, c) for c in contexts]
        ranked = rank_contexts(self.model, self.tokenizer, contexts, positions, k)
        return [[tuple(tokens.tolist()) for tokens, _ in seq] for seq in ranked]

    def rank_at_positions(self, tokens, positions, k):
        return self.rank_batch([tokens], [positions], k)[0]


class StaticPredictor:
    """Context-independent ranking (a baseline table): the same candidate list
    answers every step."""

    def __init__(self, ranked_tokens: Sequence[int]):
        self.ranked_tokens = tuple(ranked_tokens)

    def rank_batch(self, contexts, positions, k):
        return [[self.ranked_tokens[:k] for _ in p] for p in positions]

    def rank_at_positions(self, tokens, positions, k):
        return self.rank_batch([tokens], [positions], k)[0]


class RandomPredictor:
    """Uniform draws from a fixed candidate pool, without replacement."""

    def __init__(self, candidate_tokens: Sequence[int], seed: int = 0):
        self.candidates = np.asarray(candidate_tokens)
        self.rng = np.random.default_rng(seed)

    def rank_batch(self, contexts, positions, k):
        k_eff = min(k, self.candidates.size)
        return [
            [
                tuple(int(t) for t in self.rng.choice(self.candidates, size=k_eff, replace=False))
                for _ in p
            ]
            for p in positions
        ]

    def rank_at_positions(self, tokens, positions, k):
        return self.rank_batch([tokens], [positions], k)[0]


class StaticAaPredictor:
    """Context-independent spike amino-acid ranking from an aa-form table."""

    def __init__(self, ranked_aa: Sequence[AaMutation]):
        self.ranked_aa = tuple(ranked_aa)

    def rank_aa_at_steps(self, n_steps: int, k: int) -> list[tuple[AaMutation, ...]]:
        return [self.ranked_aa[:k] for _ in range(n_steps)]


def nucleotide_candidate_count(genome_length: int) -> int:
    """Single-mutation candidate space: each site can change to any of the
    four states it does not currently hold."""
    return genome_length * 4


@dataclass
class SequenceRecall:
    recall: float
    n_steps: int


# A step's hit rank is the index of the first candidate matching its target;
# the step is a hit at every k above it. Top-k lists are nested, so one
# ranking at the largest k scores every smaller k.
MISS = math.inf


def _recall(ranks: Sequence[float], k: int) -> SequenceRecall:
    return SequenceRecall(recall=sum(r < k for r in ranks) / len(ranks), n_steps=len(ranks))


def _spike_hit_ranks(
    trajectory: Trajectory,
    steps: Sequence[tuple[int, AaMutation]],
    ranked: Sequence[tuple[int, ...]],
    tokenizer: Tokenizer,
    spike_map: SpikeMap,
) -> list[float]:
    """Nucleotide candidates matched through the codon context in force at
    each step."""
    state = SpikeState(spike_map)
    for m in trajectory.variant_mutations:
        state.apply(m)
    ranks = []
    step_iter = iter(zip(steps, ranked))
    pending = next(step_iter, None)
    for i, mut in enumerate(trajectory.sequence_mutations):
        if pending is not None and pending[0][0] == i:
            (_, target), candidates = pending
            rank = MISS
            for j, token in enumerate(candidates):
                cand = tokenizer.mutation_of_token(token)
                ctx = state.context_for_site(cand.site)
                if ctx is not None and spike_map.aa_mutation_of(cand, ctx) == target:
                    rank = j
                    break
            ranks.append(rank)
            pending = next(step_iter, None)
        state.apply(mut)
    return ranks


def _hit_ranks(
    trajectories: Sequence[Trajectory | None],
    samples: Sequence[TokenizedSample],
    predictor,
    k: int,
    task: str,
    tokenizer: Tokenizer | None = None,
    spike_map: SpikeMap | None = None,
    max_context: int | None = None,
) -> list[list[float] | None]:
    """Every sequence's step hit ranks from one batched ranking at k; None
    for a sequence whose context exceeds max_context.

    A step is a private mutation (nucleotide task) or a private mutation that
    changes a spike residue (spike task); its context is the prefix, the
    variant mutations and all earlier private mutations.
    """
    aa = hasattr(predictor, "rank_aa_at_steps")
    pairs = list(zip(trajectories, samples))
    out: list[list[float] | None] = [None] * len(pairs)
    kept, contexts, positions, steps = [], [], [], []
    for idx, (traj, sample) in enumerate(pairs):
        base = PREFIX_LENGTH + sample.split_index
        if task == "nucleotide":
            targets = sample.tokens[base:]
            if not targets:
                raise ValueError("sequence has no private mutations to predict")
            seq_steps = list(enumerate(targets))
        else:
            seq_steps = spike_aa_steps(traj, spike_map)
            if not seq_steps:
                raise ValueError("sequence has no private spike amino-acid mutations")
        context = list(sample.tokens[:-1])
        if max_context is not None and len(context) > max_context:
            continue
        kept.append(idx)
        contexts.append(context)
        positions.append([base + i - 1 for i, _ in seq_steps])
        steps.append(seq_steps)

    if aa:
        ranked_all = [predictor.rank_aa_at_steps(len(s), k) for s in steps]
    else:
        ranked_all = predictor.rank_batch(contexts, positions, k)
    for idx, seq_steps, ranked in zip(kept, steps, ranked_all):
        if task == "nucleotide" or aa:
            out[idx] = [c.index(t) if t in c else MISS for (_, t), c in zip(seq_steps, ranked)]
        else:
            out[idx] = _spike_hit_ranks(trajectories[idx], seq_steps, ranked, tokenizer, spike_map)
    return out


def nucleotide_recall_at_k(
    sample: TokenizedSample, predictor: NtPredictor, k: int, max_context: int | None = None
) -> SequenceRecall | None:
    """Teacher-forced recall over a tokenized sample's private mutations.

    Returns None when the longest context would exceed max_context; the caller
    counts and reports such exclusions.
    """
    [ranks] = _hit_ranks([None], [sample], predictor, k, "nucleotide", max_context=max_context)
    return None if ranks is None else _recall(ranks, k)


def spike_recall_at_k(
    trajectory: Trajectory,
    sample: TokenizedSample,
    predictor,
    k: int,
    tokenizer: Tokenizer,
    spike_map: SpikeMap,
    max_context: int | None = None,
) -> SequenceRecall | None:
    """Teacher-forced spike recall: a step for each private mutation that
    changes a spike residue.

    A nucleotide predictor's candidates are mapped through the codon context
    in force at the step; an amino-acid predictor (rank_aa_at_steps) is
    matched directly.
    """
    [ranks] = _hit_ranks(
        [trajectory], [sample], predictor, k, "spike", tokenizer, spike_map, max_context
    )
    return None if ranks is None else _recall(ranks, k)


def aggregate(recalls: Sequence[float], weights: Sequence[float] | None = None) -> tuple[float, float]:
    """(macro mean, representativeness-weighted mean)."""
    if len(recalls) == 0:
        raise ValueError("nothing to aggregate")
    r = np.asarray(recalls, dtype=float)
    macro = float(r.mean())
    if weights is None:
        return macro, macro
    w = np.asarray(weights, dtype=float)
    if w.shape != r.shape:
        raise ValueError("weights and recalls must align")
    return macro, float((w * r).sum() / w.sum())


@dataclass(frozen=True, slots=True)
class RecallReport:
    task: str
    k: int
    slice_label: str
    macro_recall: float
    weighted_recall: float
    n_sequences: int


@dataclass
class EvalResult:
    task: str
    per_k: dict[int, list[float]]  # recall per evaluated sequence
    weights: list[float]
    months: list[int | None]
    reports: list[RecallReport] = field(default_factory=list)
    n_excluded_too_long: int = 0


def evaluate_sequences(
    trajectories: Sequence[Trajectory],
    samples: Sequence[TokenizedSample],
    predictor,
    ks: Sequence[int],
    task: str = "nucleotide",
    tokenizer: Tokenizer | None = None,
    spike_map: SpikeMap | None = None,
    weights: Sequence[float] | None = None,
    base_year: int = 2019,
    max_context: int | None = None,
) -> EvalResult:
    """Recall@k for every sequence, plus aggregate and per-month reports."""
    if task == "spike" and (spike_map is None or tokenizer is None):
        raise ValueError("spike task needs tokenizer and spike_map")
    if max_context is None and hasattr(predictor, "max_context"):
        max_context = predictor.max_context

    if not ks:
        raise ValueError("no k to evaluate")

    result = EvalResult(task=task, per_k={k: [] for k in ks}, weights=[], months=[])
    ranks_all = _hit_ranks(
        trajectories, samples, predictor, max(ks), task, tokenizer, spike_map, max_context
    )
    for idx, (traj, ranks) in enumerate(zip(trajectories, ranks_all)):
        if ranks is None:
            result.n_excluded_too_long += 1
            continue
        for k in ks:
            result.per_k[k].append(_recall(ranks, k).recall)
        w = 1.0 if weights is None else float(weights[idx])
        result.weights.append(w)
        collected = traj.meta.collected
        result.months.append(
            None if collected is None else collected.month_index(base_year)
        )

    for k in ks:
        if not result.per_k[k]:
            continue
        macro, weighted = aggregate(result.per_k[k], result.weights)
        result.reports.append(
            RecallReport(task, k, "all", macro, weighted, len(result.per_k[k]))
        )
    result.reports.extend(slice_by_month(result))
    return result


def slice_by_month(result: EvalResult) -> list[RecallReport]:
    """One report per calendar month of collection; empty months are omitted."""
    out = []
    months = sorted({m for m in result.months if m is not None})
    for month in months:
        idxs = [i for i, m in enumerate(result.months) if m == month]
        for k, recalls in result.per_k.items():
            sub = [recalls[i] for i in idxs]
            w = [result.weights[i] for i in idxs]
            macro, weighted = aggregate(sub, w)
            out.append(
                RecallReport(result.task, k, f"month={month}", macro, weighted, len(sub))
            )
    return out


def write_report_csv(reports: Iterable[RecallReport], path: Path | str) -> None:
    write_csv(
        path,
        ["task", "k", "slice", "macro_recall", "weighted_recall", "n_sequences"],
        (
            [r.task, r.k, r.slice_label, f"{r.macro_recall:.6f}",
             f"{r.weighted_recall:.6f}", r.n_sequences]
            for r in reports
        ),
    )
