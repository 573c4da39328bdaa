"""Output checks made apart from the program.

Every check here reads the pipeline's files with its own readers and
recomputes the expected content from the documented formats and the
paper's formulas. Nothing is imported from ``evotraj``: a fault in a
program module cannot hide itself by also being used to check its output.
A failed check raises ``CheckFailed`` naming the file and the first
disagreement.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import json
import math
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STATES = "ATCG-"
PREFIX = 5
BASE_YEAR = 2019
SUBNATIONAL = ("China", "India", "United States")
DEFAULT_POPULATION = 1e6
# weighting constants of the paper (program defaults; the benchmark never
# overrides them)
D0, D1, D2, M, R0 = 0.1, 10.0, 10_000.0, 10.0, 100.0

CODON_TABLE = {}
for _i, _aa in enumerate(
    "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
):
    CODON_TABLE["TCAG"[_i // 16] + "TCAG"[_i // 4 % 4] + "TCAG"[_i % 4]] = _aa


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- generic readers ------------------------------------------------------------


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def parse_mut(text: str) -> tuple[int, str]:
    s = text.strip()
    if s[0] in STATES and not s[0].isdigit():
        s = s[1:]
    return int(s[:-1]), s[-1]


def mut_token(site: int, state: str) -> int:
    return (site - 1) * 5 + STATES.index(state)


def parse_date(text: str | None) -> tuple[int, ...] | None:
    return None if text is None else tuple(int(p) for p in str(text).split("-"))


def as_date(parts: tuple[int, ...]) -> datetime.date:
    return datetime.date(*parts)


def month_index(parts: tuple[int, ...]) -> int | None:
    return None if len(parts) < 2 else (parts[0] - BASE_YEAR) * 12 + parts[1] - 1


# -- trees and trajectories ---------------------------------------------------------


@dataclass
class Node:
    parent: str | None
    muts: tuple[tuple[int, str], ...]
    variant: str | None
    meta: dict | None


def read_tree(path: Path) -> dict[str, Node]:
    nodes = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            obj = json.loads(line)
            nodes[str(obj["id"])] = Node(
                obj.get("parent"),
                tuple(parse_mut(m) for m in obj.get("muts", [])),
                obj.get("variant"),
                obj.get("meta"),
            )
    return nodes


def read_definitions(path: Path) -> dict[str, tuple[tuple[int, str], ...]]:
    raw = json.loads(Path(path).read_text())
    return {name: tuple(parse_mut(m) for m in spec["muts"]) for name, spec in raw.items()}


@dataclass
class Seq:
    name: str
    country: str | None
    region: str | None
    collected: tuple[int, ...] | None
    released: tuple[int, ...] | None
    variant: tuple[tuple[int, str], ...]
    private: tuple[tuple[int, str], ...]


def trajectories(nodes: dict[str, Node], definitions=None) -> list[Seq]:
    """Every leaf in file order, its root-to-leaf path split at the nearest
    variant-tagged node on it."""
    parents = {n.parent for n in nodes.values()}
    out = []
    for leaf_id, leaf in nodes.items():
        if leaf_id in parents:
            continue
        path = []
        nid = leaf_id
        while nid is not None:
            path.append(nodes[nid])
            nid = nodes[nid].parent
        path.reverse()
        cut = max((i for i, n in enumerate(path) if n.variant is not None), default=None)
        if cut is None:
            variant = ()
            private = tuple(m for n in path for m in n.muts)
        else:
            name = path[cut].variant
            if definitions is not None and name in definitions:
                variant = definitions[name]
            else:
                variant = tuple(m for n in path[: cut + 1] for m in n.muts)
            private = tuple(m for n in path[cut + 1 :] for m in n.muts)
        meta = leaf.meta or {"name": leaf_id}
        out.append(
            Seq(
                meta.get("name", ""),
                meta.get("country"),
                meta.get("region"),
                parse_date(meta.get("collected")),
                parse_date(meta.get("released")),
                variant,
                private,
            )
        )
    return out


def split(seqs: list[Seq], train_cutoff: datetime.date, eval_cutoff: datetime.date):
    """(train, eval candidates) by release and collection date."""
    train, candidates = [], []
    for s in seqs:
        rel = s.released
        if rel is not None and len(rel) == 3 and as_date(rel) <= train_cutoff:
            train.append(s)
            continue
        if rel is None or len(rel) != 3 or as_date(rel) > eval_cutoff:
            continue
        if s.collected is None or len(s.collected) != 3:
            continue
        if as_date(s.collected) > train_cutoff:
            candidates.append(s)
    return train, candidates


# -- layout and token streams -------------------------------------------------------


class Layout:
    def __init__(self, path: Path):
        fields, self.locations = {}, []
        for line in Path(path).read_text().splitlines()[1:]:
            key, _, value = line.partition(" ")
            if key == "location":
                self.locations.append(value)
            elif key:
                fields[key] = int(value)
        self.genome = fields["genome_length"]
        self.base_year = fields["base_year"]
        self.years = fields["year_count"]
        self.days = fields["day_count"]
        self.capacity = fields["location_capacity"]
        self.reserved = fields["reserved_count"]
        self.n_mut = self.genome * 5
        self.year0 = self.n_mut + self.capacity
        self.month0 = self.year0 + self.years
        self.day0 = self.month0 + 12 * self.years
        self.unknown = self.day0 + self.days
        self.vocab = self.unknown + 1 + self.reserved
        self.index = {name: i for i, name in enumerate(self.locations)}

    def location(self, name: str | None) -> int:
        if name not in self.index:
            return self.unknown
        i = self.index[name]
        return self.n_mut + i if i < self.capacity else self.unknown + 1 + i - self.capacity

    def prefix(self, s: Seq) -> tuple[int, ...]:
        u = self.unknown
        d = s.collected
        if d is None:
            time = (u, u, u)
        else:
            y = self.year0 + d[0] - self.base_year
            m = u if len(d) < 2 else self.month0 + (d[0] - self.base_year) * 12 + d[1] - 1
            day = u if len(d) < 3 else self.day0 + d[2] - 1
            time = (y, m, day)
        return (self.location(s.country), self.location(s.region)) + time

    def tokens(self, s: Seq) -> list[int]:
        return list(self.prefix(s)) + [mut_token(*m) for m in s.variant + s.private]


def read_token_stream(path: Path) -> list[tuple[int, int, np.ndarray]]:
    """(prefix length, split index, ids) per sample, from the documented
    format: b"EVTK", uint32 version 1 and count, then per sample three uint32
    lengths and the ids, little-endian."""
    data = Path(path).read_bytes()
    require(data[:4] == b"EVTK", f"{path}: bad magic")
    version, n = struct.unpack_from("<II", data, 4)
    require(version == 1, f"{path}: version {version}")
    out, off = [], 12
    for _ in range(n):
        n_prefix, split_index, n_traj = struct.unpack_from("<III", data, off)
        off += 12
        ids = np.frombuffer(data, dtype="<u4", count=n_prefix + n_traj, offset=off)
        off += 4 * (n_prefix + n_traj)
        out.append((n_prefix, split_index, ids))
    require(off == len(data), f"{path}: {len(data) - off} trailing bytes")
    return out


def read_plan(path: Path) -> list[list[tuple[int, int]]]:
    data = Path(path).read_bytes()
    require(data[:4] == b"EVPL", f"{path}: bad magic")
    version, n_workers = struct.unpack_from("<II", data, 4)
    require(version == 1, f"{path}: version {version}")
    off, workers = 12, []
    for _ in range(n_workers):
        (n,) = struct.unpack_from("<I", data, off)
        pairs = np.frombuffer(data, dtype="<u4", count=2 * n, offset=off + 4).reshape(n, 2)
        workers.append([(int(a), int(b)) for a, b in pairs])
        off += 4 + 8 * n
    require(off == len(data), f"{path}: {len(data) - off} trailing bytes")
    return workers


def flat_plan(plans_dir: Path) -> list[int]:
    out = []
    for path in sorted(Path(plans_dir).glob("epoch_*.plan")):
        for worker in read_plan(path):
            for seq_id, copies in worker:
                out.extend([seq_id] * copies)
    return out


def trained_target_tokens(dataset: Path, plans: Path, steps: int, batch: int) -> int:
    """Loss-bearing targets the train stage sees: each sample in a step's
    batch predicts every token after its prefix."""
    stream = read_token_stream(dataset / "tokens.bin")
    plan = flat_plan(plans)
    targets = [len(ids) - n_prefix if len(ids) >= 2 else 0 for n_prefix, _, ids in stream]
    return sum(targets[plan[(s * batch + i) % len(plan)]] for s in range(steps) for i in range(batch))


# -- weighting -------------------------------------------------------------------


def representative_weight(d: float) -> float:
    if d <= D0:
        per_million = 1.0 / math.sqrt(D0 * D1)
    elif d <= D1:
        per_million = 1.0 / math.sqrt(d * D1)
    elif d <= D2:
        per_million = 1.0 / d
    else:
        per_million = 1.0 / D2
    return 1e6 * per_million


def density_key(s: Seq) -> str:
    if s.country is None:
        return "unknown"
    if s.country in SUBNATIONAL and s.region:
        return f"{s.country}/{s.region}"
    return s.country


def eval_weights(seqs: list[Seq], populations: dict[str, float]) -> list[float]:
    counts: dict[tuple[str, int], int] = {}
    for s in seqs:
        key = (density_key(s), month_index(s.collected))
        counts[key] = counts.get(key, 0) + 1
    out = []
    for s in seqs:
        key = density_key(s)
        n = counts[(key, month_index(s.collected))]
        out.append(representative_weight(n / (populations.get(key, DEFAULT_POPULATION) / 1e6)))
    return out


def read_populations(path: Path) -> dict[str, float]:
    return {row["region_key"]: float(row["population"]) for row in read_csv(path)}


# -- the model's next-token distributions ----------------------------------------------


class Checkpoint:
    """The decoder's forward pass, rebuilt from the checkpoint's arrays."""

    def __init__(self, path: Path):
        with zipfile.ZipFile(path) as zf:
            self.meta = json.loads(zf.read("meta.json"))
            self.p = {
                name[len("param/") : -len(".npy")]: np.load(io.BytesIO(zf.read(name)))
                for name in zf.namelist()
                if name.startswith("param/")
            }
        cfg = self.meta["model_config"]
        self.layers, self.heads, self.max_seq = cfg["layers"], cfg["heads"], cfg["max_seq"]
        self.vocab = cfg["vocab_size"]

    @staticmethod
    def _norm(x, gain, shift):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * gain + shift

    def _attention(self, x, pre):
        p = self.p
        t, dim = x.shape
        hd = dim // self.heads

        def heads(w):
            y = x @ p[f"{pre}.{w}.weight"] + p[f"{pre}.{w}.bias"]
            return y.reshape(t, self.heads, hd).transpose(1, 0, 2)

        q, k, v = heads("wq"), heads("wk"), heads("wv")
        ang = np.arange(t)[:, None] * 10_000.0 ** (-np.arange(0, hd, 2) / hd)[None, :]
        cos, sin = np.cos(ang), np.sin(ang)

        def rotate(z):
            out = np.empty_like(z)
            out[..., 0::2] = z[..., 0::2] * cos - z[..., 1::2] * sin
            out[..., 1::2] = z[..., 0::2] * sin + z[..., 1::2] * cos
            return out

        scores = rotate(q) @ rotate(k).transpose(0, 2, 1) / math.sqrt(hd)
        scores[:, np.triu(np.ones((t, t), dtype=bool), 1)] = -np.inf
        scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
        scores /= scores.sum(axis=-1, keepdims=True)
        ctx = (scores @ v).transpose(1, 0, 2).reshape(t, dim)
        return ctx @ p[f"{pre}.wo.weight"] + p[f"{pre}.wo.bias"]

    def probs(self, ids, rows) -> np.ndarray:
        """Next-token distributions at the given positions of one sequence."""
        p = self.p
        x = p["embed.weight"][np.asarray(ids)]
        for i in range(self.layers):
            b = f"blocks.{i}"
            x = x + self._attention(self._norm(x, p[f"{b}.ln1.gain"], p[f"{b}.ln1.shift"]), f"{b}.attn")
            h = self._norm(x, p[f"{b}.ln2.gain"], p[f"{b}.ln2.shift"]) @ p[f"{b}.mlp.up.weight"]
            h += p[f"{b}.mlp.up.bias"]
            h = 0.5 * h * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (h + 0.044715 * h**3)))
            x = x + h @ p[f"{b}.mlp.down.weight"] + p[f"{b}.mlp.down.bias"]
        x = self._norm(x[np.asarray(rows)], p["ln_f.gain"], p["ln_f.shift"])
        logits = x @ p["head.weight"]
        logits = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return logits / logits.sum(axis=-1, keepdims=True)


def top_k(row: np.ndarray, exclude, k: int) -> list[int]:
    """Best k indices by value, best first, skipping excluded indices."""
    row = row.copy()
    row[list(exclude)] = -np.inf
    k = min(k, int(np.isfinite(row).sum()))
    best = np.argpartition(-row, k - 1)[:k]
    return [int(t) for t in best[np.argsort(-row[best], kind="stable")]]


# -- recall reports ------------------------------------------------------------------


def expected_report(task, ks, recalls, weights, months):
    """Report rows: per k over all sequences, then per collection month."""

    def agg(idx):
        w = sum(weights[i] for i in idx)
        return [
            (sum(recalls[k][i] for i in idx) / len(idx),
             sum(weights[i] * recalls[k][i] for i in idx) / w)
            for k in ks
        ]

    rows = []
    everyone = list(range(len(weights)))
    for k, (macro, weighted) in zip(ks, agg(everyone)):
        rows.append((task, k, "all", macro, weighted, len(everyone)))
    for month in sorted(set(months)):
        idx = [i for i in everyone if months[i] == month]
        for k, (macro, weighted) in zip(ks, agg(idx)):
            rows.append((task, k, f"month={month}", macro, weighted, len(idx)))
    return rows


def compare_report(path: Path, rows) -> None:
    got = read_csv(path)
    require(len(got) == len(rows), f"{path}: {len(got)} rows, expected {len(rows)}")
    for line, (g, (task, k, label, macro, weighted, n)) in enumerate(zip(got, rows), start=2):
        where = f"{path} line {line}"
        require((g["task"], int(g["k"]), g["slice"]) == (task, k, label), f"{where}: row key {g}")
        require(int(g["n_sequences"]) == n, f"{where}: n_sequences {g['n_sequences']}, expected {n}")
        for col, want in (("macro_recall", macro), ("weighted_recall", weighted)):
            # the report prints six decimals; beyond that rounding, agree to 1e-9
            require(abs(float(g[col]) - want) <= 5e-7 + 1e-9,
                    f"{where}: {col} {g[col]}, expected {want:.9f}")


def check_recall_properties(path: Path) -> dict[int, float]:
    """Recall within [0, 1] and never falling as k grows, per slice; returns
    the macro recall of the all-sequences slice by k."""
    by_slice: dict[str, list[tuple[int, float, float]]] = {}
    for row in read_csv(path):
        macro, weighted = float(row["macro_recall"]), float(row["weighted_recall"])
        require(0.0 <= macro <= 1.0 and 0.0 <= weighted <= 1.0, f"{path}: recall outside [0, 1]: {row}")
        by_slice.setdefault(row["slice"], []).append((int(row["k"]), macro, weighted))
    for label, entries in by_slice.items():
        entries.sort()
        for (k0, m0, w0), (k1, m1, w1) in zip(entries, entries[1:]):
            require(m1 >= m0 and w1 >= w0, f"{path}: {label} recall falls from k={k0} to k={k1}")
    return {k: m for k, m, _ in by_slice["all"]}


# -- the checks ----------------------------------------------------------------------


def check_manifest(stage_dir: Path) -> tuple[tuple[str, str], ...]:
    """Every output hash in the stage's manifest equals our own sha256;
    returns the (name, sha256) pairs."""
    manifest = json.loads((stage_dir / "manifest.json").read_text())
    require(manifest["outputs"], f"{stage_dir}: manifest lists no outputs")
    out = []
    for name, entry in sorted(manifest["outputs"].items()):
        path = stage_dir / entry["path"]
        require(sha256(path) == entry["sha256"], f"{path}: sha256 differs from manifest entry {name!r}")
        out.append((name, entry["sha256"]))
    return tuple(out)


def check_tokens(dataset: Path, train: list[Seq], sample: list[int], vocab: int | None = None) -> None:
    """Decode tokens.bin and re-derive the sampled training sequences."""
    layout = Layout(dataset / "layout.txt")
    stream = read_token_stream(dataset / "tokens.bin")
    stats = json.loads((dataset / "stats.json").read_text())
    require(len(stream) == len(train) == stats["n_train"],
            f"{dataset}: {len(stream)} samples, {len(train)} training leaves, n_train {stats['n_train']}")
    require(stats["vocab_size"] == layout.vocab, f"{dataset}: vocab_size {stats['vocab_size']} != {layout.vocab}")
    if vocab is not None:
        require(layout.vocab == vocab, f"{dataset}: vocabulary {layout.vocab}, expected {vocab}")
    for i in sample:
        n_prefix, split_index, ids = stream[i]
        s = train[i]
        want = layout.tokens(s)
        require(n_prefix == PREFIX and split_index == len(s.variant),
                f"{dataset}/tokens.bin sample {i}: header ({n_prefix}, {split_index})")
        require(ids.tolist() == want, f"{dataset}/tokens.bin sample {i} ({s.name}): ids differ from the tree")
        require(int(ids.max()) < layout.vocab, f"{dataset}/tokens.bin sample {i}: id beyond vocabulary")


def check_weights(dataset: Path, lam: float, train_cutoff: datetime.date) -> None:
    """Recompute r, p and p_adjusted from density.csv."""
    t0 = (train_cutoff.year - BASE_YEAR) * 12 + train_cutoff.month - 1
    stats = json.loads((dataset / "stats.json").read_text())
    require(stats["t0_month"] == t0, f"{dataset}: t0_month {stats['t0_month']}, expected {t0}")
    density = {(r["region_key"], int(r["month"])): (int(r["n"]), float(r["P"])) for r in read_csv(dataset / "density.csv")}
    for line, row in enumerate(read_csv(dataset / "weights.csv"), start=2):
        if row["month"] == "":
            r = R0
            p = (math.log(r / R0) + 1.0) / M
            p_adj = p
        else:
            month = int(row["month"])
            n, population = density[(row["region_key"], month)]
            r = representative_weight(n / (population / 1e6))
            p = (math.log(r / R0) + 1.0) / M
            p_adj = p * max(t0 - month, 1) ** lam
        for col, want in (("r", r), ("p", p), ("p_adjusted", p_adj)):
            got = float(row[col])
            require(abs(got - want) <= 1e-9 * abs(want),
                    f"{dataset}/weights.csv line {line}: {col} {got!r}, expected {want!r}")


def check_plans(plans: Path, probs: list[float], seed: int, epochs: int, workers: int) -> None:
    paths = sorted(plans.glob("epoch_*.plan"))
    require(len(paths) == epochs, f"{plans}: {len(paths)} plan files, expected {epochs}")
    n = len(probs)
    for epoch, path in enumerate(paths):
        shards = np.array_split(np.random.default_rng(seed + epoch).permutation(n), workers)
        got = read_plan(path)
        require(len(got) == workers, f"{path}: {len(got)} workers, expected {workers}")
        for w, (pairs, shard) in enumerate(zip(got, shards)):
            members = set(shard.tolist())
            for seq_id, copies in pairs:
                require(seq_id < n and copies >= 1, f"{path} worker {w}: entry ({seq_id}, {copies})")
                require(seq_id in members, f"{path} worker {w}: id {seq_id} outside its shard")
            total = 0.0
            for i in shard:
                total += probs[i]
            want = math.floor(total)
            got_copies = sum(c for _, c in pairs)
            require(got_copies == want, f"{path} worker {w}: {got_copies} copies, expected {want}")


def check_train_log(path: Path, vocab: int) -> None:
    losses = [float(r["loss"]) for r in read_csv(path)]
    require(losses and all(math.isfinite(x) for x in losses), f"{path}: missing or non-finite loss")
    tail = losses[-max(1, math.ceil(len(losses) / 10)) :]
    mean = sum(tail) / len(tail)
    require(mean < losses[0] and mean < math.log(vocab),
            f"{path}: final losses {mean:.4f} not below first {losses[0]:.4f} and ln(V) {math.log(vocab):.4f}")


@dataclass
class EvalSet:
    seqs: list[Seq]
    tokens: list[list[int]]
    weights: list[float]


def eval_set(layout: Layout, candidates: list[Seq], keep, populations, max_seq: int) -> EvalSet:
    """Candidates with a signal for the task, weighted over that set, then
    without those whose context exceeds the model's length."""
    seqs = [s for s in candidates if keep(s)]
    weights = eval_weights(seqs, populations)
    kept = [(s, layout.tokens(s), w) for s, w in zip(seqs, weights) if len(layout.tokens(s)) - 1 <= max_seq]
    return EvalSet([s for s, _, _ in kept], [t for _, t, _ in kept], [w for _, _, w in kept])


def model_recalls(ckpt: Checkpoint, layout: Layout, es: EvalSet, ks) -> dict[int, list[float]]:
    """Teacher-forced recall@k from the model's distributions, excluding
    mutation tokens already in the trajectory."""
    recalls = {k: [] for k in ks}
    for s, tokens in zip(es.seqs, es.tokens):
        base = PREFIX + len(s.variant)
        positions = [base + i - 1 for i in range(len(s.private))]
        probs = ckpt.probs(tokens[:-1], positions)[:, : layout.n_mut]
        hits = {k: 0 for k in ks}
        for row, pos in zip(probs, positions):
            ranked = top_k(row, set(tokens[PREFIX : pos + 1]), max(ks))
            target = tokens[pos + 1]
            for k in ks:
                hits[k] += target in ranked[:k]
        for k in ks:
            recalls[k].append(hits[k] / len(positions))
    return recalls


def static_recalls(ranked: list[int], es: EvalSet, ks) -> dict[int, list[float]]:
    recalls = {k: [] for k in ks}
    for s in es.seqs:
        targets = [mut_token(*m) for m in s.private]
        for k in ks:
            top = set(ranked[:k])
            recalls[k].append(sum(t in top for t in targets) / len(targets))
    return recalls


def check_report(path: Path, task: str, ks, es: EvalSet, recalls) -> None:
    months = [month_index(s.collected) for s in es.seqs]
    compare_report(path, expected_report(task, ks, recalls, es.weights, months))


def check_recall_gate(report: Path, genome: int, train: list[Seq], es: EvalSet) -> None:
    """Model recall@10 is at least ten times the random rate and beats a
    count table of the training private mutations."""
    model = check_recall_properties(report)[10]
    random_rate = 10 / (4 * genome)
    counts: dict[int, int] = {}
    for s in train:
        for m in s.private:
            t = mut_token(*m)
            counts[t] = counts.get(t, 0) + 1
    table = sorted(counts, key=lambda t: (-counts[t], t))
    count_recall = float(np.mean(static_recalls(table, es, [10])[10]))
    require(model >= 10 * random_rate, f"{report}: recall@10 {model:.4f} below 10x random {10 * random_rate:.4f}")
    require(model > count_recall, f"{report}: recall@10 {model:.4f} not above count table {count_recall:.4f}")


def check_predict(ranked_csv: Path, ckpt: Checkpoint, layout: Layout, context: list[int], k: int) -> None:
    rows = read_csv(ranked_csv)
    tokens = [int(r["token"]) for r in rows]
    scores = [float(r["score"]) for r in rows]
    require(len(tokens) == k and len(set(tokens)) == k, f"{ranked_csv}: {len(set(tokens))} distinct of {k}")
    require(not set(tokens) & set(context[PREFIX:]), f"{ranked_csv}: ranks a token of the context")
    require(all(a >= b for a, b in zip(scores, scores[1:])), f"{ranked_csv}: scores rise")
    row = ckpt.probs(context, [len(context) - 1])[0, : layout.n_mut]
    want = top_k(row, {t for t in context[PREFIX:] if t < layout.n_mut}, k)
    require(tokens == want, f"{ranked_csv}: ranking differs from the model's top {k}")
    for got, t in zip(scores, want):
        require(abs(got - row[t]) <= 1e-7 * row[t], f"{ranked_csv}: score {got} for token {t}, expected {row[t]}")


# -- spike ------------------------------------------------------------------------------


@dataclass
class Orf:
    start: int
    end: int
    reference: str


def read_orf(annotation: Path, fasta: Path) -> Orf:
    start = end = None
    for line in annotation.read_text().splitlines():
        parts = line.strip().split("\t")
        if parts[0] == "S":
            start, end = int(parts[1]), int(parts[2])
    seqs, name = {}, None
    for line in fasta.read_text().splitlines():
        if line.startswith(">"):
            name = line[1:].split()[0]
            seqs[name] = []
        elif line.strip():
            seqs[name].append(line.strip().upper())
    return Orf(start, end, "".join(seqs["S"]))


def has_spike_change(s: Seq, orf: Orf) -> bool:
    """Whether a private mutation changes a spike residue (a substitution to
    another amino acid or stop, or a whole-codon deletion), replayed after
    the variant mutations. The stop codon is not a residue."""
    bases = list(orf.reference)
    last_codon = (orf.end - orf.start + 1) // 3 - 1
    found = False
    for i, (site, state) in enumerate(s.variant + s.private):
        if not orf.start <= site <= orf.end:
            continue
        rel = site - orf.start
        codon = rel // 3
        before = "".join(bases[3 * codon : 3 * codon + 3])
        bases[rel] = state
        after = "".join(bases[3 * codon : 3 * codon + 3])
        if i < len(s.variant) or codon == last_codon or before == after:
            continue
        if after == "---":
            found = True
        elif "-" not in after and "-" not in before and CODON_TABLE[after] != CODON_TABLE[before]:
            found = True
    return found


def check_spike_report(path: Path, n_expected: int) -> None:
    check_recall_properties(path)
    for row in read_csv(path):
        if row["slice"] == "all":
            require(int(row["n_sequences"]) == n_expected,
                     f"{path}: n_sequences {row['n_sequences']}, expected {n_expected}")


# -- variants and estimator tables ----------------------------------------------------------


def check_definitions(path: Path, nodes: dict[str, Node]) -> None:
    """Each definition is the deduplicated root-to-node mutation list of the
    shallowest node carrying its tag."""
    depth: dict[str, int] = {}
    shallowest: dict[str, str] = {}
    for nid, node in nodes.items():  # parents precede children in the file
        depth[nid] = 0 if node.parent is None else depth[node.parent] + 1
        if node.variant is not None:
            best = shallowest.get(node.variant)
            if best is None or depth[nid] < depth[best]:
                shallowest[node.variant] = nid
    got = read_definitions(path)
    require(sorted(got) == sorted(shallowest), f"{path}: {len(got)} definitions for {len(shallowest)} tags")
    for name, nid in shallowest.items():
        path_muts = []
        while nid is not None:
            path_muts[:0] = nodes[nid].muts
            nid = nodes[nid].parent
        want = list(dict.fromkeys(path_muts))
        require(list(got[name]) == want, f"{path}: definition of {name} differs from the tree")


def table_ranking(table: Path, alpha: float, k: int) -> list[tuple[int, float]]:
    scored = []
    for row in read_csv(table):
        c, f = float(row["expected_count"]), float(row["fitness"])
        scored.append((mut_token(*parse_mut(row["mutation"])), c * math.exp(alpha * f)))
    scored.sort(key=lambda ts: (-ts[1], ts[0]))
    return scored[:k]


def check_baseline_ranked(ranked_csv: Path, table: Path, alpha: float, k: int) -> None:
    want = table_ranking(table, alpha, k)
    rows = read_csv(ranked_csv)
    require(len(rows) == len(want), f"{ranked_csv}: {len(rows)} rows, expected {len(want)}")
    for row, (token, score) in zip(rows, want):
        require(mut_token(*parse_mut(row["mutation"])) == token,
                f"{ranked_csv} rank {row['rank']}: {row['mutation']} out of order")
        require(abs(float(row["score"]) - score) <= 1e-7 * abs(score), f"{ranked_csv} rank {row['rank']}: score")
