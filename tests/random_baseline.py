"""The random-guess baseline the tests score the model against: a predictor
drawing uniformly from a candidate pool, and the size of the nucleotide
candidate space."""

from typing import Sequence

import numpy as np


class RandomPredictor:
    """Uniform draws from a fixed candidate pool, without replacement."""

    max_context = None

    def __init__(self, candidate_tokens: Sequence[int], seed: int = 0):
        self.candidates = np.asarray(candidate_tokens)
        self.rng = np.random.default_rng(seed)

    def rank_at_positions(self, contexts, positions, k):
        k_eff = min(k, self.candidates.size)
        return [
            [
                tuple(int(t) for t in self.rng.choice(self.candidates, size=k_eff, replace=False))
                for _ in p
            ]
            for p in positions
        ]


def nucleotide_candidate_count(genome_length: int) -> int:
    """Single-mutation candidate space: each site can change to any of the
    four states it does not currently hold."""
    return genome_length * 4
