"""Ranking baseline from a deep-mutational-scanning estimator table.

Each table row carries an expected count c and a fitness score f for one
mutation; candidates are ranked by c, by f, or by the blend c * exp(alpha*f).
Rankings are static per table: the same list serves every evaluated sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .genome import AaMutation, NtMutation
from .pipeline import Refused, parse_number, read_csv
from .tokenizer import Tokenizer

MODES = ("count", "fitness", "mixed")


@dataclass(frozen=True, slots=True)
class BloomRecord:
    mutation: str  # "C1000T" nucleotide form or "S:Q493E" spike form
    expected_count: float
    fitness: float

    def __post_init__(self):
        if self.expected_count < 0:
            raise ValueError("expected count must be non-negative")

    @property
    def is_aa(self) -> bool:
        return ":" in self.mutation


@dataclass(frozen=True)
class BloomTable:
    kind: str  # "nt" | "aa"
    records: tuple[BloomRecord, ...]

    def __post_init__(self):
        seen = set()
        for r in self.records:
            if r.mutation in seen:
                raise ValueError(f"duplicate table row for {r.mutation}")
            seen.add(r.mutation)


def mixed_score(c: float, f: float, alpha: float = 1.0) -> float:
    return c * math.exp(alpha * f)


def record_score(record: BloomRecord, mode: str, alpha: float = 1.0) -> float:
    if mode == "count":
        return record.expected_count
    if mode == "fitness":
        return record.fitness
    if mode == "mixed":
        return mixed_score(record.expected_count, record.fitness, alpha)
    raise ValueError(f"unknown baseline mode {mode!r}")


def load_bloom_table(path: Path | str) -> BloomTable:
    records = [
        BloomRecord(
            mutation=row["mutation"],
            expected_count=parse_number(row["expected_count"], path, row["mutation"], "expected_count"),
            fitness=parse_number(row["fitness"], path, row["mutation"], "fitness"),
        )
        for row in read_csv(path, ("mutation", "expected_count", "fitness"))
    ]
    if not records:
        raise Refused(f"{path}: empty baseline table")
    kinds = {r.is_aa for r in records}
    if len(kinds) != 1:
        raise Refused(f"{path}: table mixes nucleotide and amino-acid rows")
    return BloomTable(kind="aa" if kinds.pop() else "nt", records=tuple(records))


def rank_nt_table(
    table: BloomTable, mode: str, k: int, tokenizer: Tokenizer, alpha: float = 1.0
) -> list[tuple[int, float]]:
    """Top-k (mutation token, score); ties broken by token id ascending."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if table.kind != "nt":
        raise ValueError("nucleotide ranking needs a nucleotide table")
    scored = []
    for r in table.records:
        m = NtMutation.parse(r.mutation)
        token = tokenizer.mutation_token(m.site, m.to)
        scored.append((token, record_score(r, mode, alpha)))
    scored.sort(key=lambda ts: (-ts[1], ts[0]))
    return scored[:k]


def rank_aa_table(
    table: BloomTable, mode: str, k: int, alpha: float = 1.0
) -> list[tuple[AaMutation, float]]:
    """Top-k (amino-acid mutation, score); ties broken by position then target."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if table.kind != "aa":
        raise ValueError("amino-acid ranking needs an amino-acid table")
    scored = [(AaMutation.parse(r.mutation), record_score(r, mode, alpha)) for r in table.records]
    scored.sort(key=lambda ms: (-ms[1], ms[0].pos, ms[0].to_aa, ms[0].from_aa))
    return scored[:k]
