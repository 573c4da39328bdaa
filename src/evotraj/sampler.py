"""Deterministic distributed weighted sampling with per-worker accumulators.

Each epoch, the pool is shuffled by a seeded permutation and split into
contiguous worker shards. A worker walks its shard adding each sequence's
probability to a local accumulator; a sequence is selected once for every
integer boundary the accumulator crosses. Workers share no state, so the
selection is reproducible for any worker count.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .pipeline import Refused, refuse_data_past, unpack_exact, write_atomic

PLAN_MAGIC = b"EVPL"
PLAN_VERSION = 1


@dataclass
class WorkerState:
    worker_id: int
    accumulator: float = 0.0

    def encounter(self, p: float) -> int:
        """Add one sequence's probability; return how many copies to select."""
        if p <= 0:
            raise ValueError(f"sampling probability must be positive, got {p}")
        before = self.accumulator
        self.accumulator = before + p
        return math.floor(self.accumulator) - math.floor(before)


@dataclass
class EpochSelection:
    """Ordered (sequence id, copies) per worker; copies >= 1."""

    per_worker: list[list[tuple[int, int]]]

    def flatten(self) -> list[int]:
        out = []
        for worker in self.per_worker:
            for seq_id, copies in worker:
                out.extend([seq_id] * copies)
        return out

    @property
    def total_copies(self) -> int:
        return sum(c for worker in self.per_worker for _, c in worker)


def shuffle_pool(n_sequences: int, seed: int) -> np.ndarray:
    """The epoch's seeded global permutation of sequence ids."""
    return np.random.default_rng(seed).permutation(n_sequences)


def shard(pool: Sequence[int] | np.ndarray, n_workers: int) -> list[np.ndarray]:
    """Contiguous split; first shards take the remainder."""
    if n_workers < 1:
        raise ValueError("need at least one worker")
    return [np.asarray(chunk) for chunk in np.array_split(np.asarray(pool), n_workers)]


def run_worker(
    partition: Iterable[int], probabilities: Sequence[float], worker_id: int = 0
) -> list[tuple[int, int]]:
    """One worker's pass over its shard; accumulator starts at zero."""
    state = WorkerState(worker_id)
    selected = []
    for seq_id in partition:
        copies = state.encounter(probabilities[seq_id])
        if copies:
            selected.append((int(seq_id), copies))
    return selected


def run_epoch(
    probabilities: Sequence[float], seed: int, n_workers: int = 1
) -> EpochSelection:
    """Deterministic epoch selection over the whole pool."""
    pool = shuffle_pool(len(probabilities), seed)
    shards = shard(pool, n_workers)
    return EpochSelection([run_worker(s, probabilities, w) for w, s in enumerate(shards)])


def save_plan(selection: EpochSelection, path: Path | str) -> None:
    """Binary plan: per worker, a list of (sequence id, copy count) pairs."""
    chunks = [PLAN_MAGIC, struct.pack("<II", PLAN_VERSION, len(selection.per_worker))]
    for worker in selection.per_worker:
        chunks.append(struct.pack("<I", len(worker)))
        for seq_id, copies in worker:
            chunks.append(struct.pack("<II", seq_id, copies))
    write_atomic(path, b"".join(chunks))


def load_plan(path: Path | str) -> EpochSelection:
    data = Path(path).read_bytes()
    (magic,), at = unpack_exact("4s", data, 0, path)
    if magic != PLAN_MAGIC:
        raise Refused(f"{path}: not a sample-plan file")
    (version, n_workers), at = unpack_exact("<II", data, at, path)
    if version != PLAN_VERSION:
        raise Refused(f"{path}: unsupported plan version {version}")
    per_worker = []
    for _ in range(n_workers):
        (n,), at = unpack_exact("<I", data, at, path)
        pairs, at = unpack_exact(f"<{2 * n}I", data, at, path)
        per_worker.append(list(zip(pairs[0::2], pairs[1::2])))
    refuse_data_past(data, at, path)
    return EpochSelection(per_worker)
