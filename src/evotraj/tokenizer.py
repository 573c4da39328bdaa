"""Fixed-vocabulary tokenizer for mutation trajectories.

Every (site, state) pair, location name, and sample-time component gets a
permanent integer id. Block layout within the id space, in order:

    mutations   genome_length x 5          (site-major, states A,T,C,G,-)
    locations   366                        (countries and regions, one namespace)
    time        7 years + 84 year-months + 31 days
    unknown     1                          (shared by location and time gaps)
    reserved    206                        (overflow for new locations)

With the default genome length of 29,903 the vocabulary totals 150,210 ids.
Ids never change once a layout is persisted; new locations may only be
appended, spilling into the reserved block after the location block fills.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from .genome import NT_STATES, NT_STATE_INDEX, NtMutation
from .pipeline import Refused, refuse_data_past, unpack_exact, write_atomic
from .tree import PartialDate, Trajectory

LAYOUT_HEADER = "evotraj-tokenizer-layout v1"
STREAM_MAGIC = b"EVTK"
STREAM_VERSION = 1

PREFIX_LENGTH = 5  # country, region, year, year-month, day


@dataclass(frozen=True)
class LayoutSpec:
    """The layout's sizes; ``layout.txt`` holds one line per field, in
    field order."""

    genome_length: int = 29_903
    base_year: int = 2019
    year_count: int = 7
    day_count: int = 31
    location_capacity: int = 366
    reserved_count: int = 206

    def __post_init__(self):
        if self.genome_length < 1:
            raise ValueError("genome_length must be positive")

    @property
    def month_count(self) -> int:
        """Every month of every year."""
        return self.year_count * 12


@dataclass(frozen=True, slots=True)
class TokenizedSample:
    prefix_tokens: tuple[int, ...]
    trajectory_tokens: tuple[int, ...]
    split_index: int  # number of variant-mutation tokens at the head of trajectory_tokens

    @property
    def tokens(self) -> tuple[int, ...]:
        return self.prefix_tokens + self.trajectory_tokens


@dataclass(frozen=True, slots=True)
class DetokenizedSample:
    country: str | None
    region: str | None
    date: PartialDate | None
    variant_mutations: tuple[NtMutation, ...]
    sequence_mutations: tuple[NtMutation, ...]


class Tokenizer:
    """Layout arithmetic plus the mutable location registry.

    Registry appends happen only during dataset build (single writer); all
    other operations are pure reads and safe to run concurrently.
    """

    def __init__(self, spec: LayoutSpec = LayoutSpec(), locations: Sequence[str] = ()):
        self.spec = spec
        mutation_count = spec.genome_length * len(NT_STATES)
        self.mutation_block = (0, mutation_count)
        self.location_block = (mutation_count, mutation_count + spec.location_capacity)
        t0 = self.location_block[1]
        self.year_block = (t0, t0 + spec.year_count)
        self.month_block = (self.year_block[1], self.year_block[1] + spec.month_count)
        self.day_block = (self.month_block[1], self.month_block[1] + spec.day_count)
        self.unknown_token = self.day_block[1]
        self.reserved_block = (self.unknown_token + 1, self.unknown_token + 1 + spec.reserved_count)
        self.vocab_size = self.reserved_block[1]

        self._locations: list[str] = []
        self._location_index: dict[str, int] = {}
        for name in locations:
            self.register_location(name)

    # -- locations ---------------------------------------------------------

    @property
    def locations(self) -> tuple[str, ...]:
        return tuple(self._locations)

    def register_location(self, name: str) -> int:
        """Assign the next free location id; spills into the reserved block
        once the location block is full."""
        if name in self._location_index:
            return self._location_token(self._location_index[name])
        idx = len(self._locations)
        if idx >= self.spec.location_capacity + self.spec.reserved_count:
            raise ValueError(
                f"location registry full ({idx} names, capacity "
                f"{self.spec.location_capacity}+{self.spec.reserved_count} reserve)"
            )
        self._locations.append(name)
        self._location_index[name] = idx
        return self._location_token(idx)

    def _location_token(self, idx: int) -> int:
        if idx < self.spec.location_capacity:
            return self.location_block[0] + idx
        return self.reserved_block[0] + (idx - self.spec.location_capacity)

    def location_tokens(self, country: str | None, region: str | None) -> tuple[int, int]:
        """Registered names map to their fixed ids; anything else is unknown."""
        return (self._lookup_location(country), self._lookup_location(region))

    def _lookup_location(self, name: str | None) -> int:
        if name is None or name not in self._location_index:
            return self.unknown_token
        return self._location_token(self._location_index[name])

    # -- mutations ---------------------------------------------------------

    def mutation_token(self, site: int, state: str) -> int:
        if not 1 <= site <= self.spec.genome_length:
            raise ValueError(
                f"site {site} out of range 1..{self.spec.genome_length}"
            )
        return (site - 1) * len(NT_STATES) + NT_STATE_INDEX[state]

    def mutation_of_token(self, token: int) -> NtMutation:
        if not self.mutation_block[0] <= token < self.mutation_block[1]:
            raise ValueError(f"token {token} is not in the mutation block")
        site, state_idx = divmod(token, len(NT_STATES))
        return NtMutation(site + 1, NT_STATES[state_idx])

    # -- time ----------------------------------------------------------------

    def time_tokens(self, date: PartialDate | None) -> tuple[int, int, int]:
        """(year, year-month, day) tokens; missing components become unknown."""
        if date is None:
            u = self.unknown_token
            return (u, u, u)
        year_off = date.year - self.spec.base_year
        if not 0 <= year_off < self.spec.year_count:
            raise ValueError(
                f"year {date.year} out of layout range "
                f"{self.spec.base_year}..{self.spec.base_year + self.spec.year_count - 1}"
            )
        year_tok = self.year_block[0] + year_off
        if date.month is None:
            return (year_tok, self.unknown_token, self.unknown_token)
        month_tok = self.month_block[0] + year_off * 12 + (date.month - 1)
        if date.day is None:
            return (year_tok, month_tok, self.unknown_token)
        return (year_tok, month_tok, self.day_block[0] + date.day - 1)

    # -- samples -------------------------------------------------------------

    def tokenize(self, trajectory: Trajectory) -> TokenizedSample:
        meta = trajectory.meta
        country_tok, region_tok = self.location_tokens(meta.country, meta.region)
        year_tok, month_tok, day_tok = self.time_tokens(meta.collected)
        prefix = (country_tok, region_tok, year_tok, month_tok, day_tok)
        traj = tuple(
            self.mutation_token(m.site, m.to) for m in trajectory.all_mutations
        )
        return TokenizedSample(
            prefix_tokens=prefix,
            trajectory_tokens=traj,
            split_index=len(trajectory.variant_mutations),
        )

    def detokenize(self, sample: TokenizedSample) -> DetokenizedSample:
        if len(sample.prefix_tokens) != PREFIX_LENGTH:
            raise ValueError(f"prefix must have {PREFIX_LENGTH} tokens")
        country = self._location_name(sample.prefix_tokens[0])
        region = self._location_name(sample.prefix_tokens[1])
        date = self._date_of_tokens(*sample.prefix_tokens[2:5])
        muts = tuple(self.mutation_of_token(t) for t in sample.trajectory_tokens)
        return DetokenizedSample(
            country=country,
            region=region,
            date=date,
            variant_mutations=muts[: sample.split_index],
            sequence_mutations=muts[sample.split_index :],
        )

    def _location_name(self, token: int) -> str | None:
        if token == self.unknown_token:
            return None
        if self.location_block[0] <= token < self.location_block[1]:
            idx = token - self.location_block[0]
        elif self.reserved_block[0] <= token < self.reserved_block[1]:
            idx = self.spec.location_capacity + (token - self.reserved_block[0])
        else:
            raise ValueError(f"token {token} is not a location or unknown token")
        if idx >= len(self._locations):
            raise ValueError(f"token {token} beyond registered locations")
        return self._locations[idx]

    def _date_of_tokens(self, year_tok: int, month_tok: int, day_tok: int) -> PartialDate | None:
        if year_tok == self.unknown_token:
            return None
        if not self.year_block[0] <= year_tok < self.year_block[1]:
            raise ValueError(f"token {year_tok} is not a year or unknown token")
        year = self.spec.base_year + (year_tok - self.year_block[0])
        if month_tok == self.unknown_token:
            return PartialDate(year)
        if not self.month_block[0] <= month_tok < self.month_block[1]:
            raise ValueError(f"token {month_tok} is not a year-month or unknown token")
        month = (month_tok - self.month_block[0]) % 12 + 1
        if day_tok == self.unknown_token:
            return PartialDate(year, month)
        if not self.day_block[0] <= day_tok < self.day_block[1]:
            raise ValueError(f"token {day_tok} is not a day or unknown token")
        return PartialDate(year, month, day_tok - self.day_block[0] + 1)

    # -- persistence -----------------------------------------------------------

    def save(self, path: Path | str) -> None:
        lines = [LAYOUT_HEADER]
        lines.extend(f"{f.name} {getattr(self.spec, f.name)}" for f in fields(LayoutSpec))
        lines.extend(f"location {name}" for name in self._locations)
        write_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: Path | str) -> "Tokenizer":
        """Refuses, naming the file, a layout that lacks a LayoutSpec field,
        has an unknown or repeated key or location, or a non-integer value."""
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0] != LAYOUT_HEADER:
            raise Refused(f"{path}: not a tokenizer layout file")
        names = [f.name for f in fields(LayoutSpec)]
        values: dict[str, int] = {}
        locations: list[str] = []
        for line in filter(None, lines[1:]):
            key, _, value = line.partition(" ")
            if key == "location":
                if value in locations:
                    raise Refused(f"{path}: location {value!r} is repeated")
                locations.append(value)
                continue
            if key not in names:
                raise Refused(f"{path}: unknown layout key {key!r}")
            if key in values:
                raise Refused(f"{path}: layout key {key} is repeated")
            try:
                values[key] = int(value)
            except ValueError:
                raise Refused(f"{path}: layout key {key} has non-integer value {value!r}") from None
        missing = [name for name in names if name not in values]
        if missing:
            raise Refused(f"{path}: layout key {missing[0]} is missing")
        return cls(LayoutSpec(**values), locations)


# -- token stream files ---------------------------------------------------------

def write_token_stream(samples: Iterable[TokenizedSample], path: Path | str) -> None:
    """Binary little-endian 32-bit id stream with a magic header."""
    samples = list(samples)
    chunks = [STREAM_MAGIC, struct.pack("<II", STREAM_VERSION, len(samples))]
    for s in samples:
        chunks.append(
            struct.pack("<III", len(s.prefix_tokens), s.split_index, len(s.trajectory_tokens))
        )
        chunks.append(struct.pack(f"<{len(s.tokens)}I", *s.tokens))
    write_atomic(path, b"".join(chunks))


def read_token_stream(path: Path | str) -> list[TokenizedSample]:
    """The samples of a token stream, read from the file in one read; a
    sample whose prefix is not PREFIX_LENGTH tokens, or whose split index
    is beyond its trajectory, is refused, naming the file and the sample
    index, and so is a file that goes on past its last sample."""
    data = Path(path).read_bytes()
    (magic,), at = unpack_exact("4s", data, 0, path)
    if magic != STREAM_MAGIC:
        raise Refused(f"{path}: bad magic {magic!r}")
    (version, n_samples), at = unpack_exact("<II", data, at, path)
    if version != STREAM_VERSION:
        raise Refused(f"{path}: unsupported stream version {version}")
    out = []
    for i in range(n_samples):
        (n_prefix, split_index, n_traj), at = unpack_exact("<III", data, at, path)
        if n_prefix != PREFIX_LENGTH:
            raise Refused(f"{path}: sample {i} has a prefix of {n_prefix} tokens, not {PREFIX_LENGTH}")
        if split_index > n_traj:
            raise Refused(f"{path}: sample {i} has split index {split_index}"
                          f" beyond its {n_traj} trajectory tokens")
        ids, at = unpack_exact(f"<{n_prefix + n_traj}I", data, at, path)
        out.append(
            TokenizedSample(
                prefix_tokens=ids[:n_prefix],
                trajectory_tokens=ids[n_prefix:],
                split_index=split_index,
            )
        )
    refuse_data_past(data, at, path)
    return out

