"""Sequence weights from regional sampling density.

Density d is sequences per million population per month for a region. The
representative weight r (persons) follows a piecewise curve of d, the epoch
sampling probability grows with log(r), and probabilities are adjusted by
sample age in months. Large countries configured for sub-national densities
use their region as the density key.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .pipeline import parse_number, read_csv, write_csv
from .tree import Trajectory

PER_MILLION = 1e6
# the population of a region key missing from the population table
DEFAULT_POPULATION = 1e6

# countries dense enough that country-level density would wash out regional
# differences; density is tracked per sub-region for these
DEFAULT_SUBNATIONAL = ("China", "India", "United States")


@dataclass(frozen=True)
class WeightConfig:
    d0: float = 0.1
    d1: float = 10.0
    d2: float = 10_000.0
    m: float = 10.0
    r0: float = 100.0
    lam: float = 0.1
    t0_month: int = 0  # training-set release month, as a month index
    subnational_countries: tuple[str, ...] = DEFAULT_SUBNATIONAL
    representative_weighting: bool = True  # off: every sequence represents r0
    temporal_weighting: bool = True  # off: p is not adjusted for sample age

    def __post_init__(self):
        if not 0 < self.d0 < self.d1 < self.d2:
            raise ValueError("need 0 < d0 < d1 < d2")
        if self.m <= 0 or self.r0 <= 0:
            raise ValueError("m and r0 must be positive")


@dataclass(frozen=True, slots=True)
class DensityRecord:
    region_key: str
    month: int  # month index
    n: int
    population: float

    @property
    def density(self) -> float:
        """Sequences per million population per month."""
        if self.population <= 0:
            raise ValueError(f"{self.region_key}: population must be positive")
        return self.n / (self.population / PER_MILLION)


def representative_weight(d: float, config: WeightConfig = WeightConfig()) -> float:
    """Persons represented by one sequence at sample density d.

    Piecewise in d: capped at 1e6 persons below d0, a square-root easing
    between d0 and d1, inverse density between d1 and d2, floored at 100
    persons above d2 (with default thresholds).
    """
    if d < 0:
        raise ValueError("density must be non-negative")
    c = config
    if d <= c.d0:
        per_million = 1.0 / math.sqrt(c.d0 * c.d1)
    elif d <= c.d1:
        per_million = 1.0 / math.sqrt(d * c.d1)
    elif d <= c.d2:
        per_million = 1.0 / d
    else:
        per_million = 1.0 / c.d2
    return PER_MILLION * per_million


def sampling_probability(r: float, config: WeightConfig = WeightConfig()) -> float:
    """Epoch sampling probability, proportional to log representativeness."""
    if r < config.r0 / math.e:
        raise ValueError(f"representativeness {r} gives non-positive probability")
    return (math.log(r / config.r0) + 1.0) / config.m


def temporal_adjust(p: float, sample_month: int, config: WeightConfig) -> float:
    """Scale p by (age in months)^lam, age measured against the training-set
    release month; the sample must predate it."""
    age = config.t0_month - sample_month
    if age < 1:
        raise ValueError(
            f"sample month {sample_month} not before cutoff month {config.t0_month}"
        )
    return p * age**config.lam


def density_key(country: str | None, region: str | None, config: WeightConfig) -> str:
    """Country name, or 'country/region' for configured sub-national countries."""
    if country is None:
        return "unknown"
    if country in config.subnational_countries and region:
        return f"{country}/{region}"
    return country


def _keys_and_months(
    trajectories: Iterable[Trajectory], config: WeightConfig, base_year: int
) -> Iterator[tuple[str, int | None]]:
    """Each trajectory's density key and collection month index (None when
    the month is unknown)."""
    for traj in trajectories:
        collected = traj.meta.collected
        month = None if collected is None else collected.month_index(base_year)
        yield density_key(traj.meta.country, traj.meta.region, config), month


def aggregate_densities(
    trajectories: Iterable[Trajectory],
    populations: Mapping[str, float],
    config: WeightConfig,
    base_year: int = 2019,
) -> dict[tuple[str, int], DensityRecord]:
    """Count sequences per (region key, collection month) and attach populations.

    Sequences lacking a collection month are skipped (they can never be
    weighted by recency anyway).
    """
    counts = Counter(
        (key, month)
        for key, month in _keys_and_months(trajectories, config, base_year)
        if month is not None
    )
    return {
        (key, month): DensityRecord(
            region_key=key,
            month=month,
            n=n,
            population=populations.get(key, DEFAULT_POPULATION),
        )
        for (key, month), n in counts.items()
    }


@dataclass(frozen=True, slots=True)
class SequenceWeight:
    region_key: str
    month: int | None  # collection month index; None when the month is unknown
    r: float  # persons represented
    p: float  # epoch sampling probability (may exceed 1)
    p_adjusted: float


def sequence_weights(
    trajectories: Sequence[Trajectory],
    populations: Mapping[str, float],
    config: WeightConfig,
    base_year: int = 2019,
) -> tuple[list[SequenceWeight], dict[tuple[str, int], DensityRecord]]:
    """The sequence-weight rule, applied to each trajectory in order, and the
    density records it read.

    r follows the density of the sequence's region key in its collection
    month, p follows r, and p_adjusted is p scaled for sample age, with ages
    below one month (the cutoff month or later) clamped to one. Without a
    collection month, r is r0 and p_adjusted is p. With
    ``representative_weighting`` off every r is r0; with
    ``temporal_weighting`` off every p_adjusted is p.
    """
    densities = aggregate_densities(trajectories, populations, config, base_year)
    weights = []
    for key, month in _keys_and_months(trajectories, config, base_year):
        r = config.r0
        if config.representative_weighting and month is not None:
            r = representative_weight(densities[(key, month)].density, config)
        p = p_adjusted = sampling_probability(r, config)
        if config.temporal_weighting and month is not None:
            p_adjusted = temporal_adjust(p, min(month, config.t0_month - 1), config)
        weights.append(SequenceWeight(key, month, r, p, p_adjusted))
    return weights, densities


def load_population_table(path: Path | str) -> dict[str, float]:
    columns = ("region_key", "population")
    return {
        row["region_key"]: parse_number(row["population"], path, row["region_key"], "population", positive=True)
        for row in read_csv(path, columns)
    }


def write_density_report(
    records: Mapping[tuple[str, int], DensityRecord],
    path: Path | str,
    config: WeightConfig = WeightConfig(),
) -> None:
    write_csv(
        path,
        ["region_key", "month", "n", "P", "d", "r"],
        (
            [key, month, rec.n, f"{rec.population:g}", f"{rec.density:.6g}",
             f"{representative_weight(rec.density, config):.6g}"]
            for (key, month), rec in sorted(records.items())
        ),
    )
