"""Recall@k evaluation with teacher forcing over private-mutation trajectories.

Each private mutation, or on the spike task each one that changes a spike
residue, is a prediction step: the predictor sees the prefix, the variant
mutations, and all earlier private mutations, and its top-k candidates are
checked against the step's hits. A sequence's recall is the mean over its
steps; aggregates are reported unweighted and weighted by representativeness.
Every predictor ranks through its one method, ``rank_at_positions``;
location is withheld by tokenizing without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .genome import AaMutation, SpikeMap, SpikeState
from .tokenizer import PREFIX_LENGTH, TokenizedSample, Tokenizer
from .tree import Trajectory
from .model.ranking import rank_contexts
from .pipeline import write_csv
from .model.transformer import Transformer


class NtPredictor(Protocol):
    """What evaluation asks of every predictor, for either task: one ranking
    call and the longest context it takes."""

    max_context: int | None  # None: any length

    def rank_at_positions(
        self, contexts: Sequence[Sequence[int]], positions: Sequence[Sequence[int]], k: int
    ) -> list[list[tuple[int | AaMutation, ...]]]:
        """Top-k candidates, mutation tokens or spike amino-acid mutations,
        for each end position of each context."""


class ModelPredictor:
    """Ranks with a trained model; one forward pass serves every step of a
    batch of sequences because the distributions at all positions are causal."""

    def __init__(self, model: Transformer, tokenizer: Tokenizer):
        self.model = model
        self.tokenizer = tokenizer

    @property
    def max_context(self) -> int:
        return self.model.config.max_seq

    def rank_at_positions(self, contexts, positions, k):
        ranked = rank_contexts(self.model, self.tokenizer, contexts, positions, k)
        return [[tuple(tokens.tolist()) for tokens, _ in seq] for seq in ranked]


class StaticPredictor:
    """Context-independent ranking (a baseline table): the same candidate list,
    of mutation tokens or of spike amino-acid mutations, answers every step."""

    max_context = None

    def __init__(self, ranked: Sequence[int | AaMutation]):
        self.ranked = tuple(ranked)

    def rank_at_positions(self, contexts, positions, k):
        return [[self.ranked[:k] for _ in p] for p in positions]


@dataclass
class SequenceRecall:
    recall: float
    n_steps: int


TASKS = ("nucleotide", "spike")

# A step's hits are the candidates that score it; its hit rank is the index
# of the first ranked candidate among them, and the step is a hit at every k
# above it. Top-k lists are nested, so one ranking at the largest k scores
# every smaller k.
MISS = math.inf

# a step: its index into the sequence's private mutations, and its hits
Step = tuple[int, set[int | AaMutation]]


def _recall(ranks: Sequence[float], k: int) -> SequenceRecall:
    return SequenceRecall(recall=sum(r < k for r in ranks) / len(ranks), n_steps=len(ranks))


def spike_replay(
    trajectory: Trajectory, spike_map: SpikeMap
) -> Iterator[tuple[int, AaMutation, SpikeState]]:
    """Each private mutation that produces a spike amino-acid change, replayed
    in path order: its index into sequence_mutations, the change, and the
    spike state in force just before it, until the next item is drawn."""
    state = SpikeState(spike_map)
    for m in trajectory.variant_mutations:
        state.write(m)
    for i, m in enumerate(trajectory.sequence_mutations):
        effect = state.effect_of(m)
        if isinstance(effect, AaMutation):
            yield i, effect, state
        state.write(m)


def _spike_hits(target: AaMutation, state: SpikeState, tokenizer: Tokenizer) -> set[int | AaMutation]:
    """The amino-acid change itself and every mutation token that makes it
    against the codons in force; a site beyond the layout has no token."""
    return {target, *(tokenizer.mutation_token(m.site, m.to) for m in state.sources_of(target)
                      if m.site <= tokenizer.spec.genome_length)}


def task_steps(
    task: str, trajectories: Sequence[Trajectory], tokenizer: Tokenizer, spike_map: SpikeMap | None
) -> list[list[Step]]:
    """Every sequence's steps on ``task``, none for one without a signal: a
    nucleotide step is a private mutation, hit by its own token; a spike step
    is one that changes a spike residue, found by one replay of the sequence
    and hit by the change and by every token that makes it at that step."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if task == "nucleotide":
        return [[(i, {tokenizer.mutation_token(m.site, m.to)}) for i, m in enumerate(t.sequence_mutations)]
                for t in trajectories]
    return [[(i, _spike_hits(target, state, tokenizer)) for i, target, state in spike_replay(t, spike_map)]
            for t in trajectories]


def _hit_ranks(
    samples: Sequence[TokenizedSample],
    steps: Sequence[Sequence[Step]],
    predictor: NtPredictor,
    k: int,
    task: str,
    bound: int | None,
) -> list[list[float] | None]:
    """Every sequence's step hit ranks from one batched ranking at k; None
    for a sequence whose context is longer than ``bound``. A step's context
    is the prefix, the variant mutations and all earlier private mutations.
    Amino-acid candidates are refused on the nucleotide task.
    """
    out: list[list[float] | None] = [None] * len(samples)
    kept, contexts, positions, hits = [], [], [], []
    for idx, (sample, seq_steps) in enumerate(zip(samples, steps)):
        if not seq_steps:
            raise ValueError("sequence has no step to score")
        if bound is not None and len(sample.tokens) - 1 > bound:
            continue
        base = PREFIX_LENGTH + sample.split_index
        kept.append(idx)
        contexts.append(list(sample.tokens[:-1]))
        positions.append([base + i - 1 for i, _ in seq_steps])
        hits.append([h for _, h in seq_steps])

    for idx, step_hits, ranked in zip(kept, hits, predictor.rank_at_positions(contexts, positions, k)):
        if task == "nucleotide" and any(isinstance(c, AaMutation) for cands in ranked for c in cands):
            raise ValueError("amino-acid candidates score task=spike only, not task=nucleotide")
        out[idx] = [next((j for j, c in enumerate(cands) if c in h), MISS)
                    for h, cands in zip(step_hits, ranked)]
    return out


def spike_recall_at_k(
    trajectory: Trajectory,
    sample: TokenizedSample,
    predictor: NtPredictor,
    k: int,
    tokenizer: Tokenizer,
    spike_map: SpikeMap,
) -> SequenceRecall | None:
    """Teacher-forced spike recall over the sequence's spike steps, bounded
    by the predictor's context.

    An amino-acid candidate hits a step that is its change; a token
    candidate hits a step whose change it makes against the codons in force.
    """
    steps = task_steps("spike", [trajectory], tokenizer, spike_map)
    [ranks] = _hit_ranks([sample], steps, predictor, k, "spike", predictor.max_context)
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
    context_bound: int | None = None  # longest context scored; None: any


def evaluate_sequences(
    trajectories: Sequence[Trajectory],
    samples: Sequence[TokenizedSample],
    steps: Sequence[Sequence[Step]],
    predictor: NtPredictor,
    ks: Sequence[int],
    task: str = "nucleotide",
    weights: Sequence[float] | None = None,
    base_year: int = 2019,
    max_context: int | None = None,
) -> EvalResult:
    """Recall@k for every sequence over its steps, plus aggregate and
    per-month reports. A sequence whose context is longer than the smaller of
    max_context and the predictor's own bound is counted as excluded."""
    if not ks:
        raise ValueError("no k to evaluate")

    bound = min((b for b in (max_context, predictor.max_context) if b is not None), default=None)
    result = EvalResult(task=task, per_k={k: [] for k in ks}, weights=[], months=[], context_bound=bound)
    ranks_all = _hit_ranks(samples, steps, predictor, max(ks), task, bound)
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
