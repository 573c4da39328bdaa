"""Mutation-annotated phylogenetic trees: JSONL parsing, trajectory extraction, date splits.

Tree files are line-oriented JSON, one node per line:

    {"id": "n1", "parent": null, "muts": ["C1000T", "241-"], "variant": "V1",
     "meta": {"name": "s1", "collected": "2025-03-05", "released": "2025-03-20",
              "country": "Germany", "region": null}}

Mutation strings may carry an origin base which is ignored on read. Dates are
ISO-8601 and may be truncated to year or year-month.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .genome import NtMutation


class TreeFormatError(ValueError):
    """Malformed tree file; message names the offending line."""


@dataclass(frozen=True, slots=True)
class PartialDate:
    """A calendar date that may be truncated to year or year-month."""

    year: int
    month: int | None = None
    day: int | None = None

    def __post_init__(self):
        if self.month is not None and not 1 <= self.month <= 12:
            raise ValueError(f"month {self.month} out of range")
        if self.day is not None:
            if self.month is None:
                raise ValueError("day given without month")
            datetime.date(self.year, self.month, self.day)  # validates

    @property
    def is_full(self) -> bool:
        return self.month is not None and self.day is not None

    def to_date(self) -> datetime.date:
        if not self.is_full:
            raise ValueError(f"partial date {self.fmt()} has no day resolution")
        return datetime.date(self.year, self.month, self.day)

    def month_index(self, base_year: int) -> int | None:
        """Whole months since January of base_year; None if month unknown."""
        if self.month is None:
            return None
        return (self.year - base_year) * 12 + (self.month - 1)

    def fmt(self) -> str:
        if self.month is None:
            return f"{self.year:04d}"
        if self.day is None:
            return f"{self.year:04d}-{self.month:02d}"
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"

    @classmethod
    def parse(cls, text: str) -> "PartialDate":
        parts = text.strip().split("-")
        if not 1 <= len(parts) <= 3 or not all(p.isdigit() for p in parts):
            raise ValueError(f"malformed date {text!r}")
        nums = [int(p) for p in parts]
        return cls(*nums)


@dataclass(frozen=True, slots=True)
class SequenceMeta:
    name: str
    collected: PartialDate | None = None
    released: PartialDate | None = None
    country: str | None = None
    region: str | None = None

    def __post_init__(self):
        if (
            self.collected is not None
            and self.released is not None
            and self.collected.is_full
            and self.released.is_full
            and (self.released.year, self.released.month, self.released.day)
            < (self.collected.year, self.collected.month, self.collected.day)
        ):
            raise ValueError(
                f"{self.name}: released {self.released.fmt()} precedes collected {self.collected.fmt()}"
            )


@dataclass(frozen=True, slots=True)
class TreeNode:
    node_id: str
    parent_id: str | None
    branch_mutations: tuple[NtMutation, ...] = ()
    variant_name: str | None = None
    leaf_meta: SequenceMeta | None = None


@dataclass(frozen=True, slots=True)
class Trajectory:
    """One sequence's evolutionary path: shared variant mutations plus private ones."""

    meta: SequenceMeta
    variant_name: str
    variant_mutations: tuple[NtMutation, ...]
    sequence_mutations: tuple[NtMutation, ...]

    @property
    def all_mutations(self) -> tuple[NtMutation, ...]:
        return self.variant_mutations + self.sequence_mutations


class PhyloTree:
    """Nodes by id, and one root-first walk over them: each node's children,
    the order the walk visits them in, and each node's depth. A node the
    walk cannot reach from the root is in neither the order nor the depths."""

    def __init__(self, nodes: dict[str, TreeNode], root_id: str):
        self.nodes = nodes
        self.root_id = root_id
        self._children: dict[str, list[str]] = {nid: [] for nid in nodes}
        for node in nodes.values():
            if node.parent_id is not None:
                self._children[node.parent_id].append(node.node_id)
        self._depth = {root_id: 0}
        self._order = [root_id]
        for nid in self._order:  # breadth first; the loop visits what it appends
            for child in self._children[nid]:
                self._depth[child] = self._depth[nid] + 1
                self._order.append(child)

    def __len__(self) -> int:
        return len(self.nodes)

    def leaves(self) -> Iterator[TreeNode]:
        for nid, node in self.nodes.items():
            if not self._children[nid]:
                yield node

    def path_from_root(self, node_id: str) -> list[TreeNode]:
        """Nodes from root to node_id inclusive."""
        path = []
        nid: str | None = node_id
        while nid is not None:
            node = self.nodes[nid]
            path.append(node)
            nid = node.parent_id
        path.reverse()
        return path

    @cached_property
    def variant_roots(self) -> dict[str, str]:
        """Each variant name's shallowest tagged node id; among equally
        shallow nodes the first in node order."""
        depth = self._depth
        roots: dict[str, str] = {}
        for nid, node in self.nodes.items():
            name = node.variant_name
            if name and (name not in roots or depth[nid] < depth[roots[name]]):
                roots[name] = nid
        return roots


class _ParsedOnce(dict):
    """Each distinct string's ``parse(string)``, parsed on its first lookup.
    Looking up a non-string raises ValueError, or TypeError if unhashable."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text):
        if not isinstance(text, str):
            raise ValueError(f"not a string: {text!r}")
        value = self[text] = self.parse(text)
        return value


def _str_or_none(key: str, value):
    """A node's text field: a string or None; anything else raises ValueError."""
    if value is None or isinstance(value, str):
        return value
    raise ValueError(f"{key!r} is not a string: {value!r}")


def _parse_meta(obj, dates: _ParsedOnce) -> SequenceMeta:
    if not isinstance(obj, dict):
        raise ValueError(f"not an object: {obj!r}")
    collected, released = obj.get("collected"), obj.get("released")
    return SequenceMeta(
        name=_str_or_none("name", obj.get("name", "")),
        collected=None if collected is None else dates[str(collected)],
        released=None if released is None else dates[str(released)],
        country=_str_or_none("country", obj.get("country")),
        region=_str_or_none("region", obj.get("region")),
    )


# json.loads(line) without its wrappers; a stripped line has no whitespace
# for them to skip, so only the trailing-data check is left to the caller
_decode_json = json.JSONDecoder().raw_decode


def parse_tree(source: Path | str | Iterable[str]) -> PhyloTree:
    """Parse a JSONL tree file, validating structure.

    Raises TreeFormatError naming the offending line for: lines that are not
    JSON objects, duplicate ids, multiple roots, dangling parents, cycles,
    malformed mutation strings, a variant, name, country or region that is
    neither a string nor null, and bad metadata. Each distinct mutation and
    date string is parsed once per call, and nodes share the result.
    """
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text().splitlines()
    else:
        lines = source

    nodes: dict[str, TreeNode] = {}
    line_of: dict[str, int] = {}
    root_id: str | None = None
    mutations = _ParsedOnce(NtMutation.parse)
    dates = _ParsedOnce(PartialDate.parse)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _decode_json(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except json.JSONDecodeError as e:
            raise TreeFormatError(f"line {lineno}: invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict):
            raise TreeFormatError(f"line {lineno}: node is not a JSON object")
        if "id" not in obj:
            raise TreeFormatError(f"line {lineno}: node missing 'id'")
        nid = str(obj["id"])
        if nid in nodes:
            raise TreeFormatError(f"line {lineno}: duplicate node id {nid!r}")
        parent = obj.get("parent")
        if parent is None:
            if root_id is not None:
                raise TreeFormatError(
                    f"line {lineno}: multiple roots ({root_id!r} and {nid!r})"
                )
            root_id = nid
        muts = obj.get("muts", [])
        if not isinstance(muts, list):
            raise TreeFormatError(f"line {lineno}: 'muts' is not a list: {muts!r}")
        branch = []
        for m in muts:
            try:
                branch.append(mutations[m])
            except (ValueError, TypeError):
                raise TreeFormatError(
                    f"line {lineno}: malformed mutation string {m!r}"
                ) from None
        try:
            variant = _str_or_none("variant", obj.get("variant"))
        except ValueError as e:
            raise TreeFormatError(f"line {lineno}: {e}") from None
        meta = None
        if obj.get("meta") is not None:
            try:
                meta = _parse_meta(obj["meta"], dates)
            except ValueError as e:
                raise TreeFormatError(f"line {lineno}: bad metadata: {e}") from None
        # positional: keywords make a frozen dataclass's __init__ slower
        nodes[nid] = TreeNode(
            nid, None if parent is None else str(parent), tuple(branch), variant, meta
        )
        line_of[nid] = lineno

    if root_id is None:
        raise TreeFormatError("no root node (every node has a parent)")
    for nid, node in nodes.items():
        if node.parent_id is not None and node.parent_id not in nodes:
            raise TreeFormatError(
                f"line {line_of[nid]}: node {nid!r} has dangling parent {node.parent_id!r}"
            )

    tree = PhyloTree(nodes, root_id)
    if len(tree._order) < len(nodes):
        # a node the walk from the root missed hangs from a cycle: climb from
        # the first one in file order to the node the climb meets twice
        nid = next(nid for nid in nodes if nid not in tree._depth)
        climbed = set()
        while nid not in climbed:
            climbed.add(nid)
            nid = nodes[nid].parent_id
        raise TreeFormatError(f"line {line_of[nid]}: cycle through node {nid!r}")
    return tree


def serialize_tree(tree: PhyloTree) -> str:
    """Canonical JSONL form; parse(serialize(t)) == t and the bytes round-trip."""
    out = []
    for node in tree.nodes.values():
        obj: dict = {"id": node.node_id, "parent": node.parent_id}
        if node.branch_mutations:
            obj["muts"] = [m.fmt() for m in node.branch_mutations]
        if node.variant_name is not None:
            obj["variant"] = node.variant_name
        if node.leaf_meta is not None:
            m = node.leaf_meta
            meta: dict = {"name": m.name}
            if m.collected is not None:
                meta["collected"] = m.collected.fmt()
            if m.released is not None:
                meta["released"] = m.released.fmt()
            if m.country is not None:
                meta["country"] = m.country
            if m.region is not None:
                meta["region"] = m.region
            obj["meta"] = meta
        out.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(out) + "\n"


# what a node passes down: the nearest variant tag at or above it (None
# below an untagged root path), the mutations from the root through that
# tagged node, and the mutations after it
_Carry = tuple[str | None, tuple[NtMutation, ...], tuple[NtMutation, ...]]
_ROOT_CARRY: _Carry = (None, (), ())


def _carry(above: _Carry, node: TreeNode) -> _Carry:
    """What ``node`` passes down, given what its parent passed: a tagged node
    starts a variant whose path is every mutation so far; an untagged one
    adds its mutations to the private ones."""
    name, variant_muts, private = above
    if node.variant_name is not None:
        return node.variant_name, variant_muts + private + node.branch_mutations, ()
    return name, variant_muts, private + node.branch_mutations


def _trajectory(
    carried: _Carry,
    leaf: TreeNode,
    variant_definitions: Mapping[str, Sequence[NtMutation]] | None,
) -> Trajectory:
    name, variant_muts, private = carried
    if name is None:
        name = "root"
    elif variant_definitions is not None and name in variant_definitions:
        variant_muts = tuple(variant_definitions[name])
    return Trajectory(
        meta=leaf.leaf_meta or SequenceMeta(name=leaf.node_id),
        variant_name=name,
        variant_mutations=variant_muts,
        sequence_mutations=private,
    )


def extract_all_trajectories(
    tree: PhyloTree,
    variant_definitions: Mapping[str, Sequence[NtMutation]] | None = None,
) -> list[Trajectory]:
    """Every leaf's trajectory, in leaf order: its root-to-leaf mutation path
    split at the nearest variant-tagged node at or above it.

    When a refined definition exists for that variant, it replaces the raw
    root-to-variant-node path. Mutations keep path order; back-mutations stay
    as separate entries. One top-down pass carries each node's split to its
    children.
    """
    carried = {tree.root_id: _carry(_ROOT_CARRY, tree.nodes[tree.root_id])}
    for nid in tree._order[1:]:  # root first, so a parent precedes its children
        node = tree.nodes[nid]
        carried[nid] = _carry(carried[node.parent_id], node)
    return [_trajectory(carried[leaf.node_id], leaf, variant_definitions) for leaf in tree.leaves()]


@dataclass
class SplitResult:
    train: list[Trajectory]
    eval: list[Trajectory]
    n_excluded_partial_dates: int = 0
    n_excluded_no_signal: int = 0


def split_train_eval(
    trajectories: Iterable[Trajectory],
    training_release_cutoff: datetime.date,
    eval_release_cutoff: datetime.date,
) -> SplitResult:
    """Date-disjoint training/evaluation split.

    Train: released on or before the training cutoff. Eval: collected after the
    training cutoff, released on or before the eval cutoff, and carrying at
    least one private mutation. Sequences without a full collection date are
    never placed in eval; their count is reported.
    """
    if not training_release_cutoff < eval_release_cutoff:
        raise ValueError("training cutoff must precede eval cutoff")

    result = SplitResult(train=[], eval=[])
    for traj in trajectories:
        released = traj.meta.released
        if released is not None and released.is_full and released.to_date() <= training_release_cutoff:
            result.train.append(traj)
            continue
        if released is None or not released.is_full or released.to_date() > eval_release_cutoff:
            continue
        collected = traj.meta.collected
        if collected is None or not collected.is_full:
            result.n_excluded_partial_dates += 1
            continue
        if collected.to_date() <= training_release_cutoff:
            continue
        if not traj.sequence_mutations:
            result.n_excluded_no_signal += 1
            continue
        result.eval.append(traj)
    return result
