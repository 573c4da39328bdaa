"""Synthetic phylogenies with a planted, learnable mutation spectrum.

The generator grows a random tree whose branch mutations follow a conditional
spectrum: the site bucket of the previous mutation selects a skewed
distribution over next mutations, and chained buckets cycle through the
genome. Leaves carry region and date metadata with configurable imbalance. An
optional temporal shift blends in an alternate spectrum as months pass, which
gives evaluation slices a genuine concept drift to expose.

Everything is a pure function of the seed.
"""

from __future__ import annotations

import bisect
import datetime
import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .genome import NT_STATES, NtMutation
from .pipeline import write_atomic, write_csv
from .tree import PartialDate, PhyloTree, SequenceMeta, TreeNode, serialize_tree


@dataclass(frozen=True)
class RegionSpec:
    name: str
    population: float
    sample_weight: float  # relative chance a leaf is sampled here


DEFAULT_REGIONS = (
    RegionSpec("Alandia", 80_000_000, 0.55),
    RegionSpec("Borrania", 40_000_000, 0.25),
    RegionSpec("Cestia", 150_000_000, 0.12),
    RegionSpec("Dorvan", 900_000_000, 0.05),
    RegionSpec("Elmare", 30_000_000, 0.03),
)


@dataclass(frozen=True)
class SynthConfig:
    genome_length: int = 1000
    n_buckets: int = 10
    bucket_hop: int = 3
    support_per_bucket: int = 25
    geometric_ratio: float = 0.8
    depth: int = 8
    branching: tuple[int, ...] = (2, 3, 4)
    branching_probs: tuple[float, ...] = (0.3, 0.4, 0.3)
    leaf_rate: float = 0.25  # expected sampled sequences per internal node
    internal_mut_rate: float = 0.7  # branch mutations are 1 + Poisson(rate)
    private_mut_rate: float = 1.5
    noise_rate: float = 0.0  # spurious uniform mutations appended per leaf
    variant_base_depth: int = 2  # every node at this depth is variant-tagged
    variant_prob: float = 0.15  # deeper internal nodes tagged at this rate
    month_advance: float = 0.35  # chance a child sits one month after its parent
    collection_lag_months: float = 0.0  # Poisson extra months before a leaf is sampled
    month_span: int = 12
    start_year: int = 2024
    start_month: int = 1
    release_lag_days: tuple[int, int] = (3, 45)
    regions: tuple[RegionSpec, ...] = DEFAULT_REGIONS
    shift_month: int | None = None
    ramp_months: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.genome_length < self.n_buckets:
            raise ValueError("genome_length must be at least n_buckets")
        if abs(sum(self.branching_probs) - 1.0) > 1e-9:
            raise ValueError("branching_probs must sum to 1")
        if any(p < 0 for p in self.branching_probs):
            raise ValueError("branching_probs must not be negative")
        weights = [r.sample_weight for r in self.regions]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("region sample_weights must not be negative and must sum above 0")
        if self.ramp_months < 1:
            raise ValueError("ramp_months must be at least 1")
        for name in ("leaf_rate", "internal_mut_rate", "private_mut_rate", "noise_rate",
                     "collection_lag_months"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must not be negative")
        if self.depth < 0:
            raise ValueError("depth must not be negative")
        for name in ("variant_prob", "month_advance"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def bucket_width(self) -> int:
        return self.genome_length // self.n_buckets

    def bucket_of_site(self, site: int) -> int:
        return min((site - 1) // self.bucket_width, self.n_buckets - 1)

    def alt_fraction(self, month_offset: int) -> float:
        """Share of mutations drawn from the alternate spectrum in a month."""
        if self.shift_month is None:
            return 0.0
        return min(max((month_offset - self.shift_month) / self.ramp_months, 0.0), 1.0)


def plant_temporal_shift(config: SynthConfig, shift_month: int, ramp_months: int = 1) -> SynthConfig:
    """Derive a config whose spectrum drifts to the alternate table after
    shift_month; ramp_months=1 is a hard swap for months beyond the shift."""
    return replace(config, shift_month=shift_month, ramp_months=ramp_months)


@dataclass(frozen=True)
class SpectrumTable:
    """Per bucket: parallel (site, state, probability) arrays, best first."""

    sites: np.ndarray  # (n_buckets, support)
    states: np.ndarray  # (n_buckets, support) indices into NT_STATES
    probs: np.ndarray  # (n_buckets, support) rows sum to 1

    @cached_property
    def cdfs(self) -> list[list[float]]:
        """Per bucket, the cumulative cell probabilities, for ``pick``."""
        return np.cumsum(self.probs, axis=1).tolist()

    @cached_property
    def cells(self) -> list[list[NtMutation]]:
        """Per bucket, each cell's mutation, shared by every draw of it."""
        return [
            [NtMutation(site, NT_STATES[state]) for site, state in zip(row_sites, row_states)]
            for row_sites, row_states in zip(self.sites.tolist(), self.states.tolist())
        ]

    def cell_mutation(self, bucket: int, cell: int) -> NtMutation:
        return self.cells[bucket][cell]


@dataclass
class GroundTruth:
    config: SynthConfig
    base: SpectrumTable
    alt: SpectrumTable


def build_spectra(config: SynthConfig) -> GroundTruth:
    """Base and alternate conditional tables over a shared support.

    Bucket b's support sites live in bucket (b + hop) % n_buckets, so chains
    hop deterministically between buckets while the cell within the bucket is
    the learnable part. Cell probabilities decay geometrically; the alternate
    table reverses the order, so a model trained on one table ranks the other
    badly in proportion to how little of it it saw.
    """
    rng = np.random.default_rng([config.seed, 101])
    k = config.support_per_bucket
    probs_row = config.geometric_ratio ** np.arange(k)
    probs_row /= probs_row.sum()

    sites = np.zeros((config.n_buckets, k), dtype=np.int64)
    states = np.zeros((config.n_buckets, k), dtype=np.int64)
    for b in range(config.n_buckets):
        target = (b + config.bucket_hop) % config.n_buckets
        lo = target * config.bucket_width + 1
        # the last bucket also holds the sites past n_buckets * bucket_width
        hi = config.genome_length + 1 if target == config.n_buckets - 1 else lo + config.bucket_width
        # pool cell i is site lo + i // 4 in substitution state i % 4;
        # deletions are left to noise
        chosen = rng.choice(4 * (hi - lo), size=k, replace=False)
        sites[b], states[b] = lo + chosen // 4, chosen % 4

    probs = np.tile(probs_row, (config.n_buckets, 1))
    return GroundTruth(
        config=config,
        base=SpectrumTable(sites, states, probs.copy()),
        alt=SpectrumTable(sites.copy(), states.copy(), probs[:, ::-1].copy()),
    )


def pick(cdf: list[float], rng: np.random.Generator) -> int:
    """One categorical draw: the index of the first cumulative weight above a
    uniform, clamped to the last index for a CDF that rounds below 1."""
    return min(bisect.bisect_right(cdf, rng.random()), len(cdf) - 1)


def draw_mutation(
    truth: GroundTruth, bucket: int, month_offset: int, rng: np.random.Generator
) -> tuple[NtMutation, int]:
    """One spectrum step; returns the mutation and the next chain bucket.

    Consumes exactly two uniforms regardless of which table is used, so
    configs differing only in shift parameters share the rest of the stream.
    """
    table = truth.alt if rng.random() < truth.config.alt_fraction(month_offset) else truth.base
    mut = table.cell_mutation(bucket, pick(table.cdfs[bucket], rng))
    return mut, truth.config.bucket_of_site(mut.site)


def draw_chain(
    truth: GroundTruth, bucket: int, month_offset: int, rate: float, rng: np.random.Generator
) -> tuple[list[NtMutation], int]:
    """1 + Poisson(rate) chained spectrum steps from ``bucket``; returns the
    mutations and the bucket the chain ends in."""
    muts = []
    for _ in range(1 + rng.poisson(rate)):
        mut, bucket = draw_mutation(truth, bucket, month_offset, rng)
        muts.append(mut)
    return muts, bucket


@dataclass
class SynthOutput:
    tree: PhyloTree
    truth: GroundTruth
    populations: dict[str, float]

    @property
    def n_leaves(self) -> int:
        return sum(1 for _ in self.tree.leaves())


def generate(config: SynthConfig) -> SynthOutput:
    truth = build_spectra(config)
    rng = np.random.default_rng([config.seed, 202])
    region_probs = np.array([r.sample_weight for r in config.regions], dtype=float)
    region_probs /= region_probs.sum()
    branching_cdf = np.cumsum(config.branching_probs).tolist()
    region_cdf = np.cumsum(region_probs).tolist()

    nodes: dict[str, TreeNode] = {
        "root": TreeNode(node_id="root", parent_id=None, branch_mutations=())
    }
    n_internal = 0
    n_sample = 0
    variant_counter = 0

    # (node id, depth, month offset, chain bucket)
    frontier: list[tuple[str, int, int, int]] = [("root", 0, 0, 0)]
    while frontier:
        node_id, depth, month, bucket = frontier.pop()
        if depth < config.depth:
            for _ in range(config.branching[pick(branching_cdf, rng)]):
                n_internal += 1
                child_id = f"n{n_internal}"
                child_month = min(
                    month + int(rng.random() < config.month_advance), config.month_span - 1
                )
                muts, child_bucket = draw_chain(truth, bucket, child_month, config.internal_mut_rate, rng)
                child_depth = depth + 1
                variant = None
                if child_depth == config.variant_base_depth or (
                    child_depth > config.variant_base_depth
                    and child_depth < config.depth
                    and rng.random() < config.variant_prob
                ):
                    variant_counter += 1
                    variant = f"V{variant_counter:04d}"
                nodes[child_id] = TreeNode(
                    node_id=child_id,
                    parent_id=node_id,
                    branch_mutations=tuple(muts),
                    variant_name=variant,
                )
                frontier.append((child_id, child_depth, child_month, child_bucket))

        n_leaves_here = rng.poisson(config.leaf_rate)
        if depth == config.depth:
            n_leaves_here = max(1, n_leaves_here)
        for _ in range(n_leaves_here):
            n_sample += 1
            leaf_id = f"s{n_sample}"
            region = config.regions[pick(region_cdf, rng)]
            # private mutations accrue up to the collection month, so they are
            # drawn under that month's spectrum mixture
            leaf_month = min(
                month + int(rng.poisson(config.collection_lag_months)), config.month_span - 1
            )
            muts, _ = draw_chain(truth, bucket, leaf_month, config.private_mut_rate, rng)
            n_noise = rng.poisson(config.noise_rate)
            for _ in range(n_noise):
                site = int(rng.integers(1, config.genome_length + 1))
                muts.append(NtMutation(site, NT_STATES[int(rng.integers(0, 5))]))

            year = config.start_year + (config.start_month - 1 + leaf_month) // 12
            cal_month = (config.start_month - 1 + leaf_month) % 12 + 1
            day = int(rng.integers(1, 29))
            collected = PartialDate(year, cal_month, day)
            lag = int(rng.integers(config.release_lag_days[0], config.release_lag_days[1] + 1))
            released_date = collected.to_date() + datetime.timedelta(days=lag)
            released = PartialDate(released_date.year, released_date.month, released_date.day)
            nodes[leaf_id] = TreeNode(
                node_id=leaf_id,
                parent_id=node_id,
                branch_mutations=tuple(muts),
                leaf_meta=SequenceMeta(
                    name=leaf_id,
                    collected=collected,
                    released=released,
                    country=region.name,
                ),
            )

    tree = PhyloTree(nodes, "root")
    populations = {r.name: r.population for r in config.regions}
    return SynthOutput(tree=tree, truth=truth, populations=populations)


# -- artifact emission -------------------------------------------------------


def spectrum_to_json(truth: GroundTruth) -> dict:
    def table(t: SpectrumTable) -> dict:
        return {
            "sites": t.sites.tolist(),
            "states": t.states.tolist(),
            "probs": t.probs.tolist(),
        }

    c = truth.config
    return {
        "genome_length": c.genome_length,
        "n_buckets": c.n_buckets,
        "bucket_hop": c.bucket_hop,
        "shift_month": c.shift_month,
        "ramp_months": c.ramp_months,
        "seed": c.seed,
        "base": table(truth.base),
        "alt": table(truth.alt),
    }


def write_outputs(out: SynthOutput, out_dir: Path | str) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "tree": out_dir / "tree.jsonl",
        "spectrum": out_dir / "spectrum.json",
        "population": out_dir / "population.csv",
    }
    write_atomic(paths["tree"], serialize_tree(out.tree))
    write_atomic(paths["spectrum"], json.dumps(spectrum_to_json(out.truth), sort_keys=True))
    write_csv(
        paths["population"],
        ["region_key", "population"],
        ([name, f"{pop:g}"] for name, pop in sorted(out.populations.items())),
    )
    return paths
