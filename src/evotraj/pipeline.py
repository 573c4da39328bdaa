"""Run configuration, content hashing, and stage manifests.

Every pipeline stage writes its outputs atomically together with a config
snapshot and a manifest recording the sha256 of each input and output file.
Output paths are stored relative to the stage directory, so a moved or copied
stage directory is verified against its own files. Downstream stages refuse
to read a file an earlier stage wrote unless that stage's manifest lists it
with the hash it has on disk, naming the stale artifact.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

CONFIG_HEADER = "evotraj-config v1"
# the words a boolean config value may be, in any case
BOOLEAN_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
                 **dict.fromkeys(("0", "false", "no", "off"), False)}


class Refused(ValueError):
    """Input the pipeline refuses. The message names the file, flag or config
    key at fault; the CLI prints it as one ``error:`` line and exits 2."""


class StaleArtifactError(Refused):
    pass


@dataclass
class PipelineConfig:
    """Flat key-value run configuration; defaults mirror the production
    constants where they are fixed, desk-scale values elsewhere."""

    genome_length: int = 29_903
    base_year: int = 2019
    # weighting
    d0: float = 0.1
    d1: float = 10.0
    d2: float = 10_000.0
    m: float = 10.0
    r0: float = 100.0
    lam: float = 0.1
    temporal_weighting: bool = True
    representative_weighting: bool = True
    subnational: str = "China,India,United States"
    # date split (ISO dates)
    train_cutoff: str = "2025-02-12"
    eval_cutoff: str = "2025-07-16"
    # model (desk scale)
    layers: int = 2
    hidden: int = 64
    heads: int = 4
    max_seq: int = 256
    # training
    steps: int = 1000
    batch_size: int = 32
    lr_start: float = 1e-4
    lr_end: float = 1e-5
    schedule: str = "linear"
    # sampling
    workers: int = 1
    epochs: int = 8
    # evaluation
    ks: str = "1,10,100"
    task: str = "nucleotide"
    baseline_mode: str = "mixed"
    alpha: float = 1.0
    # synthetic data
    synth_depth: int = 6
    synth_variant_prob: float = 0.6
    synth_private_mut_rate: float = 2.0
    synth_month_advance: float = 0.4
    synth_collection_lag: float = 1.0
    synth_noise_rate: float = 0.0
    synth_shift_month: int = -1  # -1 disables the spectrum shift
    synth_ramp_months: int = 1
    seed: int = 0

    def set(self, key: str, value: str) -> None:
        field_map = {f.name: f for f in fields(self)}
        if key not in field_map:
            raise KeyError(f"unknown config key {key!r}")
        f = field_map[key]
        if f.type in ("int", int):
            parsed: object = int(value)
        elif f.type in ("float", float):
            parsed = float(value)
        elif f.type in ("bool", bool):
            if value.lower() not in BOOLEAN_WORDS:
                raise ValueError(f"expected one of {'/'.join(BOOLEAN_WORDS)}, got {value!r}")
            parsed = BOOLEAN_WORDS[value.lower()]
        else:
            parsed = value
        setattr(self, key, parsed)

    def to_text(self) -> str:
        lines = [CONFIG_HEADER]
        for f in fields(self):
            lines.append(f"{f.name} {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file(cls, path: Path | str) -> "PipelineConfig":
        """The config a file holds; a bad header, an unknown or repeated key
        or an unparsable value raises ValueError naming the file, and the
        line and the key."""
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0] != CONFIG_HEADER:
            raise ValueError(f"{path}: not a pipeline config file")
        config = cls()
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            try:
                if key in first_line:
                    raise ValueError(f"repeated, first set on line {first_line[key]}")
                first_line[key] = lineno
                config.set(key, value)
            except (KeyError, ValueError) as e:
                raise ValueError(f"{path}, line {lineno}, key {key!r}: {e.args[0]}") from None
        return config

    @property
    def k_list(self) -> tuple[int, ...]:
        """``ks`` as integers; ValueError unless it lists at least one k,
        each at least 1."""
        ks = tuple(int(k) for k in str(self.ks).split(",") if k)
        if not ks or min(ks) < 1:
            raise ValueError(f"expected comma-separated integers of at least 1, got {self.ks!r}")
        return ks

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def sha256_file(path: Path | str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_output(path: Path | str):
    """Yield a temp path in the same directory as ``path`` for a writer; on
    success it is renamed onto ``path``, on failure removed."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: Path | str, data: bytes | str) -> None:
    """Write via a temp file in the same directory plus rename."""
    with atomic_output(path) as tmp, open(tmp, "wb" if isinstance(data, bytes) else "w") as f:
        f.write(data)


def write_csv(path: Path | str, header: Sequence[object], rows: Iterable[Sequence[object]]) -> None:
    """Atomically write a header row and rows as CSV (excel dialect)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


def read_csv(path: Path | str, columns: Sequence[str]) -> list[dict[str, str]]:
    """The rows of a CSV file with a header row, a missing cell read as "".
    A header lacking any of ``columns`` is refused, naming the file."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f, restval="")
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise Refused(f"{path}: no {missing[0]!r} column")
        return list(reader)


def parse_number(text: str, path: Path | str, key: str, column: str, positive: bool = False) -> float:
    """A table cell as a float. Text that is not a number raises float's
    ValueError; a value that is not finite, or not above 0 when ``positive``,
    is refused, naming the file, the row's key and the column."""
    value = float(text)
    if not math.isfinite(value) or positive and not value > 0:
        expected = "a finite number above 0" if positive else "a finite number"
        raise Refused(f"{path}: row {key!r}, column {column!r}: expected {expected}, got {text!r}")
    return value


def write_json(path: Path | str, obj: object) -> None:
    """Atomically write ``obj`` as indented, key-sorted JSON plus a newline."""
    write_atomic(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def unpack_exact(fmt: str, data: bytes, offset: int, path: Path | str) -> tuple[tuple, int]:
    """``struct.unpack_from(fmt, data, offset)`` on ``data``, the whole file
    at ``path``, and the offset just past it. When fewer bytes remain than
    ``fmt`` takes, refuses the file, naming ``path`` and the byte offset,
    before unpacking: a corrupt length field cannot ask for more memory
    than the file holds."""
    n = struct.calcsize(fmt)
    if len(data) - offset < n:
        raise Refused(
            f"{path}: truncated: {n} bytes expected at byte offset {offset}, "
            f"file ends at byte {len(data)}"
        )
    return struct.unpack_from(fmt, data, offset), offset + n


def refuse_data_past(data: bytes, end: int, path: Path | str) -> None:
    """Refuse ``data``, the whole file at ``path``, if it goes on past byte
    offset ``end``, where its format's data ends."""
    if len(data) > end:
        raise Refused(
            f"{path}: {len(data) - end} bytes past the data, which ends at byte offset {end}"
        )


def write_manifest(
    out_dir: Path | str,
    stage: str,
    config: PipelineConfig,
    inputs: dict[str, dict[str, str]],
    outputs: dict[str, Path | str],
    extra: dict | None = None,
) -> Path:
    """Hash the outputs and record them, with the already hashed ``inputs``
    (name -> {"path", "sha256"}) and any ``extra`` top-level entries, next
    to a snapshot of the config.

    Output paths are recorded relative to ``out_dir`` as POSIX strings; an
    output outside ``out_dir`` raises ``ValueError``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = out_dir / "config.txt"
    write_atomic(snapshot, config.to_text())
    manifest = {
        "stage": stage,
        "config_hash": config.config_hash(),
        "inputs": inputs,
        "outputs": {
            name: {"path": _relative_to_stage(p, out_dir), "sha256": sha256_file(p)}
            for name, p in outputs.items()
        },
        **(extra or {}),
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path


def _relative_to_stage(path: Path | str, out_dir: Path) -> str:
    try:
        return Path(path).resolve().relative_to(out_dir.resolve()).as_posix()
    except ValueError:
        raise ValueError(f"output {path} is outside the stage directory {out_dir}") from None


def manifest_entries(
    out_dir: Path | str, only: str | None = None, required: bool = True
) -> dict[str, dict]:
    """The outputs the manifest in ``out_dir`` names, or only the one stored
    at file name ``only``, by name, without hashing them. Raises
    ``StaleArtifactError`` naming a malformed manifest or a listed file that
    is missing, and, when ``required``, a missing manifest or an unlisted
    ``only`` (otherwise those give no entries)."""
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        if not required:
            return {}
        raise StaleArtifactError(f"stage directory {out_dir} has no manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as e:
        raise StaleArtifactError(f"{manifest_path}: not a manifest: {e}") from None
    listed = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(listed, dict):
        raise StaleArtifactError(f"{manifest_path}: not a manifest: no 'outputs' object")
    for name, entry in listed.items():
        if not (isinstance(entry, dict) and all(isinstance(entry.get(f), str) for f in ("path", "sha256"))):
            raise StaleArtifactError(f"{manifest_path}: output {name!r} needs 'path' and 'sha256' strings")
    outputs = {n: e for n, e in listed.items() if only in (None, e["path"])}
    if only is not None and not outputs and required:
        raise StaleArtifactError(f"artifact {out_dir / only} is not listed in its manifest.json")
    for name, entry in outputs.items():
        path = out_dir / entry["path"]
        if not path.exists():
            raise StaleArtifactError(f"artifact {name!r} at {path} is missing")
    return outputs


def check_digest(name: str, path: Path | str, recorded: str, actual: str) -> None:
    """Raise ``StaleArtifactError`` naming artifact ``name`` at ``path``
    unless the sha256 its manifest records is the one it has."""
    if actual != recorded:
        raise StaleArtifactError(
            f"artifact {name!r} at {path} is stale: recorded {recorded[:12]}, found {actual[:12]}"
        )


def verify_against_manifest(
    out_dir: Path | str, only: str | None = None, required: bool = True
) -> dict[str, dict]:
    """``manifest_entries``, each re-hashed and checked against its
    recorded sha256."""
    outputs = manifest_entries(out_dir, only, required)
    for name, entry in outputs.items():
        path = Path(out_dir) / entry["path"]
        check_digest(name, path, entry["sha256"], sha256_file(path))
    return outputs
