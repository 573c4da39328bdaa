"""Adam training over sampled trajectory batches, and model checkpoints.

The batch schedule is a pure function of the epoch plans and the step index.
A checkpoint holds the trained parameters and their metadata, not the
optimizer's state.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import mmap
import struct
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..pipeline import Refused, atomic_output, write_atomic
from ..tokenizer import TokenizedSample
from .nn import DTYPE, Parameter
from .transformer import LossResult, ModelConfig, Transformer, batch_arrays, trajectory_loss

CHECKPOINT_MAGIC = "evotraj-checkpoint-v2"
ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)  # every checkpoint entry's timestamp
# a zip local file header: signature, versions, flags, method, time, date,
# CRC, sizes, then the lengths of the name and the extra field that follow
LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
NPY_PREAMBLE_MAX = 10 + 0xFFFF  # magic, version and length, then the longest 1.0 header


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    batch_size: int = 32
    lr_start: float = 1e-4
    lr_end: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    schedule: str = "linear"  # linear | cosine
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.lr_end >= self.lr_start:
            raise ValueError("lr_end must be below lr_start")
        if self.schedule not in ("linear", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")

    def lr_at(self, step: int) -> float:
        """Learning rate for a 0-based step; hits lr_start at step 0 and
        lr_end at the final step."""
        if self.steps <= 1:
            return self.lr_start
        frac = step / (self.steps - 1)
        if self.schedule == "linear":
            return self.lr_start + (self.lr_end - self.lr_start) * frac
        return self.lr_end + 0.5 * (self.lr_start - self.lr_end) * (1 + math.cos(math.pi * frac))


class Adam:
    """Adam with bias correction. Each update runs block by block through
    two reused scratch buffers, with the same operations in the same order
    as the textbook formula, so the results are the same to the bit; it
    allocates nothing of parameter size.

    A step has two parts. A parameter without a gradient array, the output
    head's, is updated during the loss: ``update_columns`` takes each block
    of its columns' gradient as the loss makes it (``masked_cross_entropy``).
    ``step`` then updates every other parameter from its gradient, and ends
    the step. The formula works element by element, so updating the head
    column block by column block gives every bit that one update of the
    whole head from its whole gradient would.

    A row-wise parameter (``Parameter.rows``) has its moments kept, and is
    updated, only on the rows that have ever had a gradient, in row order;
    the moments grow when new rows appear. Every other row has m = v = g = 0,
    so the formula would subtract lr * 0 / (0 + eps), which is 0: skipping it
    changes no bit, given eps > 0."""

    # elements per block: the six blocks one pass touches (parameter,
    # gradient, both moments, two scratch) take 1.5 MB, within a 2 MB L2
    BLOCK = 1 << 15

    def __init__(self, params: dict[str, Parameter], config: TrainConfig):
        self.params = params
        self.config = config
        self.step_count = 0  # steps ended
        # per row-wise parameter, the sorted rows that have had a gradient;
        # its m[k][i] and v[k][i] belong to row live[k][i]
        self.live = {k: np.empty(0, dtype=np.intp) for k, p in params.items() if p.rows is not None}
        # lazily zeroed pages, as for Parameter.grad
        shapes = {
            k: (0, *p.value.shape[1:]) if k in self.live else p.value.shape for k, p in params.items()
        }
        self.m = {k: np.zeros(shape, dtype=DTYPE) for k, shape in shapes.items()}
        self.v = {k: np.zeros(shape, dtype=DTYPE) for k, shape in shapes.items()}
        self._scratch = np.empty((2, self.BLOCK), dtype=DTYPE)

    def _live_rows(self, k: str, p: Parameter) -> tuple[np.ndarray, np.ndarray]:
        """The live rows of ``k`` after adding ``p.rows``, and ``p.grad``
        spread over them (zero on the rows without a gradient this step);
        the moments gain a zero row for each new row."""
        live = self.live[k]
        grown = np.union1d(live, p.rows)
        if len(grown) > len(live):
            kept = np.searchsorted(grown, live)
            for moments in (self.m, self.v):
                rows = np.zeros((len(grown), *p.value.shape[1:]), dtype=DTYPE)
                rows[kept] = moments[k]
                moments[k] = rows
            self.live[k] = live = grown
        grad = np.zeros((len(live), *p.value.shape[1:]), dtype=DTYPE)
        grad[np.searchsorted(live, p.rows)] = p.grad
        return live, grad

    def _update(self, w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, lr: float) -> None:
        """The formula, in place, on arrays of one shape and at most BLOCK
        elements, for the step in progress."""
        c = self.config
        t = self.step_count + 1
        bc1, bc2 = 1.0 - c.beta1**t, 1.0 - c.beta2**t
        a, b = (buf[: w.size].reshape(w.shape) for buf in self._scratch)
        # m = beta1 * m + (1 - beta1) * g
        m *= c.beta1
        m += np.multiply(g, 1 - c.beta1, out=a)
        # v = beta2 * v + (1 - beta2) * g**2
        v *= c.beta2
        np.square(g, out=a)
        v += np.multiply(a, 1 - c.beta2, out=a)
        # w -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.sqrt(np.divide(v, bc2, out=a), out=a)
        a += c.eps
        np.multiply(np.divide(m, bc1, out=b), lr, out=b)
        w -= np.divide(b, a, out=b)

    def update_columns(self, k: str, lo: int, grad: np.ndarray, lr: float) -> None:
        """Update the columns lo : lo + width of the 2-D parameter ``k`` in
        the step in progress, from ``grad``, their (rows, width) gradient:
        in chunks of whole rows, or of BLOCK columns of one row."""
        cols = slice(lo, lo + grad.shape[1])
        arrays = (self.params[k].value[:, cols], grad, self.m[k][:, cols], self.v[k][:, cols])
        rows = max(1, self.BLOCK // grad.shape[1])
        for r in range(0, grad.shape[0], rows):
            for c in range(0, grad.shape[1], self.BLOCK):
                self._update(*(a[r : r + rows, c : c + self.BLOCK] for a in arrays), lr)

    def step(self, lr: float) -> None:
        """Update every parameter that has a gradient array, and end the step."""
        for k, p in self.params.items():
            if p.grad is None:
                continue  # updated by update_columns
            if p.rows is None:
                arrays = [p.value, p.grad, self.m[k], self.v[k]]
            else:
                live, grad = self._live_rows(k, p)
                arrays = [p.value[live], grad, self.m[k], self.v[k]]
            flat = [a.reshape(-1, copy=False) for a in arrays]
            for lo in range(0, flat[0].size, self.BLOCK):
                self._update(*(a[lo : lo + self.BLOCK] for a in flat), lr)
            if p.rows is not None:
                p.value[live] = arrays[0]
        self.step_count += 1


def check_samples_fit(
    samples: Sequence[TokenizedSample], config: ModelConfig, path: Path | str
) -> None:
    """Refuse the first sample of a stream read from ``path`` that the model
    cannot take, naming ``path`` and the sample index: one holding a token
    id outside the vocabulary, or one whose context (all tokens but the
    last) is longer than max_seq."""
    for i, s in enumerate(samples):
        top = max(s.tokens, default=0)
        if top >= config.vocab_size:
            raise Refused(
                f"{path}: sample {i} has token id {top}, outside the vocabulary of {config.vocab_size}"
            )
        if len(s.tokens) - 1 > config.max_seq:
            raise Refused(
                f"{path}: sample {i} has {len(s.tokens)} tokens, a context longer than"
                f" max_seq {config.max_seq}"
            )


def plan_batch(flat_plan: Sequence[int], batch_size: int, step: int) -> list[int]:
    """Batch for a step, cycling through the flattened plan stream."""
    n = len(flat_plan)
    if n == 0:
        raise ValueError("plan is empty: no sequences to batch")
    start = step * batch_size
    return [flat_plan[(start + i) % n] for i in range(batch_size)]


@dataclass
class TrainState:
    model: Transformer
    config: TrainConfig
    log: list[tuple[int, float, float]] = field(default_factory=list)  # step, lr, loss

    @property
    def step(self) -> int:
        """Steps run so far."""
        return len(self.log)

    @property
    def final_loss(self) -> float:
        return self.log[-1][2] if self.log else float("nan")


def train_step(
    model: Transformer,
    opt: Adam,
    inputs: np.ndarray,
    targets: np.ndarray,
    target_mask: np.ndarray,
    lr: float,
) -> LossResult:
    """One training step on a batch (see ``batch_arrays``): the loss, whose
    second pass hands Adam the head's gradient block by block, then the
    backward, and Adam's step on every other parameter. A non-finite loss
    raises FloatingPointError before any parameter or moment changes."""

    def update_head(lo: int, grad: np.ndarray) -> None:
        opt.update_columns("head.weight", lo, grad, lr)

    result = trajectory_loss(model, inputs, targets, target_mask, update_head)
    model.backward(result.grad_hidden)
    opt.step(lr)
    return result


def train(
    samples: Sequence[TokenizedSample],
    flat_plan: Sequence[int],
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> TrainState:
    """Run training over the plan stream.

    samples are indexed by the plan's sequence ids. Aborts with diagnostics
    on a non-finite loss, before that step changes anything.
    """
    model = Transformer(model_config, seed=train_config.seed)
    opt = Adam(model.parameters(), train_config)
    state = TrainState(model=model, config=train_config)

    arrays = [
        (np.asarray(s.tokens, dtype=np.int64), len(s.prefix_tokens)) for s in samples
    ]
    for step in range(train_config.steps):
        batch_ids = plan_batch(flat_plan, train_config.batch_size, step)
        batch = [arrays[i] for i in batch_ids]
        inputs, targets, mask = batch_arrays(batch)
        lr = train_config.lr_at(step)
        try:
            result = train_step(model, opt, inputs, targets, mask, lr)
        except FloatingPointError as e:
            raise TrainingDiverged(
                f"{e} at step {step} (batch ids {batch_ids[:8]}..., {int(mask.sum())} targets)"
            ) from None
        state.log.append((step, lr, result.loss))
    return state


def write_training_log(state: TrainState, path: Path | str) -> None:
    lines = ["step,lr,loss"]
    lines.extend(f"{step},{lr:.10g},{loss:.10g}" for step, lr, loss in state.log)
    write_atomic(path, "\n".join(lines) + "\n")


# -- checkpoints -----------------------------------------------------------------


def save_checkpoint(
    state: TrainState,
    path: Path | str,
    layout_hash: str,
    config_hash: str,
) -> None:
    """Self-describing zip of ``meta.json`` plus one float64 ``param/<name>.npy``
    per parameter; entries carry a fixed timestamp, so equal states give
    identical bytes."""
    meta = {
        "format": CHECKPOINT_MAGIC,
        "model_config": asdict(state.model.config),
        "train_config": asdict(state.config),
        "step": state.step,
        "final_loss": state.final_loss,
        "layout_hash": layout_hash,
        "config_hash": config_hash,
    }
    with atomic_output(path) as tmp, zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED) as zf:
        meta_entry = zipfile.ZipInfo("meta.json", ZIP_EPOCH)
        zf.writestr(meta_entry, json.dumps(meta, sort_keys=True, indent=1))
        for name, p in state.model.parameters().items():
            entry = zipfile.ZipInfo(f"param/{name}.npy", ZIP_EPOCH)
            value = np.ascontiguousarray(p.value, dtype=DTYPE)
            with zf.open(entry, "w", force_zip64=True) as f:
                # np.save's bytes, written from the array itself: write_array
                # would copy a non-file stream through 16 MiB buffers
                np.lib.format.write_array_header_1_0(f, np.lib.format.header_data_from_array_1_0(value))
                f.write(memoryview(value).cast("B"))


class _NoDraw(np.random.Generator):
    """A generator whose draws are uninitialised arrays: it builds a model
    of the right shapes for a reader that then fills every parameter."""

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return np.empty(size, dtype=DTYPE)

    uniform = normal


@contextmanager
def _stored_entry(view: memoryview, info: zipfile.ZipInfo, where: str):
    """The stored bytes of an archive entry, as a view of the mapped file
    released on exit. The entry is refused, naming ``where``, unless its
    local header is sound, it is stored uncompressed, it lies within the
    file and its CRC-32 holds."""
    start = info.header_offset
    header = bytes(view[start : start + LOCAL_HEADER.size])
    if len(header) < LOCAL_HEADER.size:
        raise Refused(f"{where}: local header runs past the end of the file")
    magic, *_, name_len, extra_len = LOCAL_HEADER.unpack(header)
    if magic != zipfile.stringFileHeader:
        raise Refused(f"{where}: Bad magic number for file header")
    name = bytes(view[start + LOCAL_HEADER.size : start + LOCAL_HEADER.size + name_len])
    if name != info.orig_filename.encode("utf-8" if info.flag_bits & 0x800 else "cp437"):
        raise Refused(f"{where}: File name in directory {info.orig_filename!r} and header {name!r} differ.")
    if info.compress_type != zipfile.ZIP_STORED:
        raise Refused(f"{where} is compressed (method {info.compress_type}), expected stored")
    data = start + LOCAL_HEADER.size + name_len + extra_len
    if data + info.compress_size > len(view):
        raise Refused(f"{where} runs past the end of the file")
    with view[data : data + info.compress_size] as entry:
        if zlib.crc32(entry) != info.CRC:
            raise Refused(f"{where}: Bad CRC-32 for file {info.filename!r}")
        yield entry


def _fill_from_npy(entry: memoryview, dest: np.ndarray, where: str) -> None:
    """Fill ``dest`` from the ``.npy`` bytes of ``entry``. Its header must be
    a 1.0 one giving dest's shape, float64 and C order, and the data must be
    exactly dest's size, else the entry is refused, naming ``where``; the
    data is then copied straight into dest."""
    head = io.BytesIO(entry[:NPY_PREAMBLE_MAX])
    try:
        version = np.lib.format.read_magic(head)
        if version != (1, 0):
            raise ValueError(f"unsupported .npy version {version}")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(head)
    except ValueError as e:
        raise Refused(f"{where}: {e}") from None
    if shape != dest.shape:
        raise Refused(f"{where} has shape {shape}, expected {dest.shape}")
    if dtype != DTYPE:
        raise Refused(f"{where} has dtype {dtype}, expected {np.dtype(DTYPE)}")
    if fortran_order:
        raise Refused(f"{where} is in Fortran order, expected C order")
    offset = head.tell()
    if len(entry) - offset < dest.nbytes:
        raise Refused(f"{where} is truncated")
    if len(entry) - offset > dest.nbytes:
        raise Refused(f"{where} has data past its array")
    np.copyto(dest, np.frombuffer(entry, DTYPE, dest.size, offset).reshape(dest.shape))


def load_checkpoint(path: Path | str) -> tuple[Transformer, dict, str]:
    """The one checkpoint reader: returns (model, metadata, the file's sha256).

    The file is mapped once. One worker thread hashes the whole mapping
    while this one checks and reads the entries from it, so a stage checks
    the digest against its manifest without reading the file again.

    The archive must hold ``meta.json`` of this format and exactly one
    ``param/<name>.npy`` per parameter, each stored uncompressed with a
    CRC-32 that holds. Each entry's header must give the parameter's shape,
    float64 and C order; its data is then copied straight from the mapping
    into the parameter. Anything else, a damaged archive included,
    is refused, naming the file, and the entry where there is one.
    """
    return _load_checkpoint(path)


def _load_checkpoint(path: Path | str) -> tuple[Transformer, dict, str]:
    # load_checkpoint's body, which calls no traced function: a stage may
    # run it on a worker thread, and perfbench's tracer keeps one span stack
    # for every thread
    with open(path, "rb") as f:
        try:
            with zipfile.ZipFile(f) as zf:
                infos = {info.filename: info for info in zf.infolist()}
        except zipfile.BadZipFile as e:
            raise Refused(f"{path}: not a readable zip archive: {e}") from None
        # the worker is joined, and every view released, before the mapping closes
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mapped, \
                ThreadPoolExecutor(max_workers=1) as pool, memoryview(mapped) as view:
            digest = pool.submit(lambda: hashlib.sha256(mapped).hexdigest())
            model, meta = _read_entries(view, infos, path)
            return model, meta, digest.result()


def _checked_meta(raw: bytes, path: Path | str, where: str) -> tuple[dict, ModelConfig]:
    """``meta.json``'s metadata and the model configuration it records. A
    file of another format is not a checkpoint file; any other fault is
    refused, naming ``where``."""
    try:
        meta = json.loads(raw)
    except ValueError as e:
        raise Refused(f"{where}: not JSON: {e}") from None
    if not isinstance(meta, dict):
        raise Refused(f"{where}: not a JSON object")
    if meta.get("format") != CHECKPOINT_MAGIC:
        raise Refused(f"{path}: not a checkpoint file")
    config = meta.get("model_config")
    if not isinstance(config, dict) or not all(type(v) is int for v in config.values()):
        raise Refused(f"{where}: model_config is not an object of integers: {config!r}")
    if not isinstance(meta.get("layout_hash"), str):
        raise Refused(f"{where}: layout_hash is not a string: {meta.get('layout_hash')!r}")
    try:
        return meta, ModelConfig(**config)
    except (TypeError, ValueError) as e:
        raise Refused(f"{where}: model_config: {e}") from None


def _read_entries(view: memoryview, infos: dict[str, zipfile.ZipInfo], path: Path | str):
    if "meta.json" not in infos:
        raise Refused(f"{path}: not a checkpoint file")
    where = f"{path}: checkpoint entry meta.json"
    with _stored_entry(view, infos["meta.json"], where) as entry:
        meta, config = _checked_meta(bytes(entry), path, where)
    # every parameter is read below, so none is drawn
    model = Transformer(config, seed=_NoDraw(np.random.PCG64(0)))
    params = {f"param/{name}.npy": p.value for name, p in model.parameters().items()}
    missing, extra = sorted(params.keys() - infos.keys()), sorted(infos.keys() - params.keys() - {"meta.json"})
    if missing:
        raise Refused(f"{path}: checkpoint entry {missing[0]} is missing")
    if extra:
        raise Refused(f"{path}: unexpected checkpoint entry {extra[0]}")
    for name, dest in params.items():
        where = f"{path}: checkpoint entry {name}"
        with _stored_entry(view, infos[name], where) as entry:
            _fill_from_npy(entry, dest, where)
    return model, meta
