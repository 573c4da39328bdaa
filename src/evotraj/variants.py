"""Variant mutation-definition refinement from three sources.

Base definitions come from the tree (earliest tagged node), indels are merged
in from a second platform's definition file, and per-site disagreements are
settled against an observed-frequency table. Recombinant definitions are kept
in genome-position order instead of tree path order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .genome import NT_STATES, NtMutation
from .pipeline import parse_number, read_csv, write_json
from .tree import PhyloTree, _ParsedOnce


@dataclass(frozen=True, slots=True)
class IndelRecord:
    """Insertion/deletion metadata; insertions are never tokenized."""

    kind: str  # "ins" | "del"
    start: int
    end: int | None = None
    inserted: str | None = None


@dataclass
class VariantDefinition:
    name: str
    nt_mutations: list[NtMutation]
    indels: list[IndelRecord] = field(default_factory=list)
    is_recombinant: bool = False
    source_trace: dict[int, str] = field(default_factory=dict)  # site -> source

    def __post_init__(self):
        seen = set()
        for m in self.nt_mutations:
            key = (m.site, m.to)
            if key in seen:
                raise ValueError(f"{self.name}: duplicate entry {m.fmt()}")
            seen.add(key)


@dataclass(frozen=True, slots=True)
class NextstrainDefinition:
    name: str
    subs: tuple[NtMutation, ...] = ()
    dels: tuple[tuple[int, int], ...] = ()  # inclusive ranges
    ins: tuple[tuple[int, str], ...] = ()


class FrequencyTable:
    """Per (variant, site) state counts observed among a variant's sequences."""

    def __init__(self):
        self._counts: dict[tuple[str, int], dict[str, float]] = {}

    def set_counts(self, variant: str, site: int, counts: Mapping[str, float]) -> None:
        for state, n in counts.items():
            if state not in NT_STATES:
                raise ValueError(f"unknown state {state!r}")
            if n < 0:
                raise ValueError("counts must be non-negative")
        self._counts[(variant, site)] = dict(counts)

    def counts(self, variant: str, site: int) -> dict[str, float]:
        return dict(self._counts.get((variant, site), {}))

    @classmethod
    def load_csv(cls, path: Path | str) -> "FrequencyTable":
        """CSV with columns variant,site,A,T,C,G,Del (the deletion column may
        also be written as ``-``)."""
        table = cls()
        for row in read_csv(path, ("variant", "site")):
            key = f"{row['variant']},{row['site']}"
            columns = {"A": "A", "T": "T", "C": "C", "G": "G", "-": "Del" if "Del" in row else "-"}
            counts = {s: parse_number(row[c], path, key, c) for s, c in columns.items() if row.get(c)}
            table.set_counts(row["variant"], int(row["site"]), counts)
        return table


def base_definition(tree: PhyloTree, variant_name: str) -> list[NtMutation]:
    """Mutations along the root-to-earliest-tagged-node path, in path order.

    When several nodes carry the tag, the one closest to the root wins, and
    among those the first in node order.
    """
    best = tree.variant_roots.get(variant_name)
    if best is None:
        raise KeyError(f"variant {variant_name!r} not tagged anywhere in tree")
    return [m for node in tree.path_from_root(best) for m in node.branch_mutations]


def merge_indels(base: VariantDefinition, nextstrain: NextstrainDefinition) -> VariantDefinition:
    """Append the other platform's deletions as Del mutations; keep insertions as metadata."""
    muts = list(base.nt_mutations)
    indels = list(base.indels)
    trace = dict(base.source_trace)
    existing = {(m.site, m.to) for m in muts}
    for start, end in nextstrain.dels:
        indels.append(IndelRecord("del", start, end))
        for site in range(start, end + 1):
            if (site, "-") not in existing:
                muts.append(NtMutation(site, "-"))
                existing.add((site, "-"))
                trace[site] = "nextstrain"
    for pos, seq in nextstrain.ins:
        indels.append(IndelRecord("ins", pos, inserted=seq))
    return VariantDefinition(
        name=base.name,
        nt_mutations=muts,
        indels=indels,
        is_recombinant=base.is_recombinant,
        source_trace=trace,
    )


def resolve_disagreement(
    site: int,
    usher_state: str,
    nextclade_state: str,
    freq: Mapping[str, float],
) -> str:
    """Settle a per-site disagreement against observed state counts.

    A state wins iff it holds more than half of the total count and is at
    least 10x as frequent as every other state; otherwise the first source's
    state is kept. Sites with no coverage fall back the same way.
    """
    if usher_state not in NT_STATES or nextclade_state not in NT_STATES:
        raise ValueError("states must be one of A/T/C/G/-")
    total = sum(freq.get(s, 0.0) for s in NT_STATES)
    if total > 0:
        for state in NT_STATES:
            n = freq.get(state, 0.0)
            if n * 2 <= total:
                continue
            if all(n >= 10 * freq.get(other, 0.0) for other in NT_STATES if other != state):
                return state
    return usher_state


def order_recombinant(definition: VariantDefinition) -> VariantDefinition:
    """Sort a recombinant's mutations by site, stable for equal sites."""
    if not definition.is_recombinant:
        raise ValueError(f"{definition.name} is not a recombinant")
    return VariantDefinition(
        name=definition.name,
        nt_mutations=sorted(definition.nt_mutations, key=lambda m: m.site),
        indels=definition.indels,
        is_recombinant=True,
        source_trace=definition.source_trace,
    )


def refine_definition(
    tree: PhyloTree,
    variant_name: str,
    nextstrain: NextstrainDefinition | None = None,
    freq: FrequencyTable | None = None,
    is_recombinant: bool = False,
) -> VariantDefinition:
    """Full refinement schedule: tree base, indel merge, disagreement
    resolution, position ordering for recombinants."""
    base_muts = base_definition(tree, variant_name)
    definition = VariantDefinition(
        name=variant_name,
        nt_mutations=_dedup(base_muts),
        is_recombinant=is_recombinant,
        source_trace={m.site: "usher" for m in base_muts},
    )
    if nextstrain is not None:
        definition = merge_indels(definition, nextstrain)
        usher_by_site = {m.site: m for m in definition.nt_mutations}
        deleted = {m.site for m in definition.nt_mutations if m.to == "-"}
        for sub in nextstrain.subs:
            ours = usher_by_site.get(sub.site)
            if ours is None or ours.to == sub.to or sub.site in deleted:
                continue
            counts = freq.counts(variant_name, sub.site) if freq else {}
            chosen = resolve_disagreement(sub.site, ours.to, sub.to, counts)
            if chosen != ours.to:
                idx = definition.nt_mutations.index(ours)
                definition.nt_mutations[idx] = NtMutation(sub.site, chosen)
                definition.source_trace[sub.site] = "covspectrum-resolved"
    if is_recombinant:
        definition = order_recombinant(definition)
    return definition


def _dedup(muts: Iterable[NtMutation]) -> list[NtMutation]:
    out: list[NtMutation] = []
    seen = set()
    for m in muts:
        if (m.site, m.to) not in seen:
            out.append(m)
            seen.add((m.site, m.to))
    return out


def load_nextstrain_definitions(path: Path | str) -> dict[str, NextstrainDefinition]:
    """JSON file mapping variant name to {"subs": [...], "dels": ["start-end"], "ins": ["pos:SEQ"]}.
    A file that is not an object of objects whose entries are lists of
    such strings, or that holds a reversed deletion range, raises
    ValueError, naming the variant at fault."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("not a JSON object of variant definitions")
    parsers = {"subs": _ParsedOnce(NtMutation.parse).__getitem__, "dels": _deletion, "ins": _insertion}
    out = {}
    for name, spec in raw.items():
        if not isinstance(spec, dict):
            raise ValueError(f"variant {name!r}: not an object: {spec!r}")
        entries = {}
        for key, parse in parsers.items():
            items = spec.get(key, [])
            if not isinstance(items, list):
                raise ValueError(f"variant {name!r}: {key!r} is not a list: {items!r}")
            try:
                entries[key] = tuple(parse(item) for item in items)
            except (ValueError, TypeError) as e:
                raise ValueError(f"variant {name!r}: {e}") from None
        out[name] = NextstrainDefinition(name=name, **entries)
    return out


def _deletion(entry) -> tuple[int, int]:
    """A Nextstrain deletion, ``start-end`` or a single site, as an inclusive range."""
    start, _, end = str(entry).partition("-")
    try:
        first, last = int(start), int(end or start)
    except ValueError:
        raise ValueError(f"malformed deletion {entry!r}") from None
    if last < first:
        raise ValueError(f"deletion range {first}-{last} reversed")
    return first, last


def _insertion(entry) -> tuple[int, str]:
    """A Nextstrain insertion ``pos:SEQ`` as (pos, SEQ)."""
    pos, _, seq = str(entry).partition(":")
    try:
        site = int(pos)
    except ValueError:
        site = None
    if site is None or not seq:
        raise ValueError(f"malformed insertion {entry!r}")
    return site, seq


def save_definitions(definitions: Iterable[VariantDefinition], path: Path | str) -> None:
    obj = {
        d.name: {
            "muts": [m.fmt() for m in d.nt_mutations],
            "recombinant": d.is_recombinant,
            "indels": [
                {"kind": r.kind, "start": r.start, "end": r.end, "inserted": r.inserted}
                for r in d.indels
            ],
            "trace": {str(site): src for site, src in sorted(d.source_trace.items())},
        }
        for d in definitions
    }
    write_json(path, obj)


def load_definitions(path: Path | str) -> dict[str, list[NtMutation]]:
    """Each variant's mutations from a ``save_definitions`` file; each
    distinct mutation string is parsed once. A file that is not an object
    of objects with a ``muts`` list of mutation strings raises ValueError,
    naming the variant at fault."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("not a JSON object of variant definitions")
    mutations = _ParsedOnce(NtMutation.parse)
    out = {}
    for name, spec in raw.items():
        if not isinstance(spec, dict):
            raise ValueError(f"variant {name!r}: not an object: {spec!r}")
        if "muts" not in spec:
            raise ValueError(f"variant {name!r}: no 'muts' list")
        if not isinstance(spec["muts"], list):
            raise ValueError(f"variant {name!r}: 'muts' is not a list: {spec['muts']!r}")
        try:
            out[name] = [mutations[m] for m in spec["muts"]]
        except (ValueError, TypeError) as e:
            raise ValueError(f"variant {name!r}: {e}") from None
    return out
