"""Adam training over sampled trajectory batches, and model checkpoints.

The batch schedule is a pure function of the epoch plans and the step index.
A checkpoint holds the trained parameters and their metadata, not the
optimizer's state.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..pipeline import atomic_output, write_atomic
from ..tokenizer import TokenizedSample
from .nn import DTYPE, Parameter
from .transformer import ModelConfig, Transformer, batch_arrays, trajectory_loss

CHECKPOINT_MAGIC = "evotraj-checkpoint-v2"
ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)  # every checkpoint entry's timestamp


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
    """Adam with bias correction. A step updates each parameter block by
    block through two reused scratch buffers, with the same operations in
    the same order as the textbook formula, so the results are the same to
    the bit; it allocates nothing of parameter size."""

    # elements per block: the six blocks one pass touches (parameter,
    # gradient, both moments, two scratch) take 1.5 MB, within a 2 MB L2
    BLOCK = 1 << 15

    def __init__(self, params: dict[str, Parameter], config: TrainConfig):
        self.params = params
        self.config = config
        self.step_count = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}
        self._scratch = np.empty((2, self.BLOCK), dtype=DTYPE)

    def step(self, lr: float) -> None:
        c = self.config
        self.step_count += 1
        bc1 = 1.0 - c.beta1**self.step_count
        bc2 = 1.0 - c.beta2**self.step_count
        for k, p in self.params.items():
            flat = [a.reshape(-1, copy=False) for a in (p.value, p.grad, self.m[k], self.v[k])]
            for lo in range(0, p.value.size, self.BLOCK):
                w, g, m, v = (a[lo : lo + self.BLOCK] for a in flat)
                a, b = (buf[: len(w)] for buf in self._scratch)
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


def check_samples_fit(
    samples: Sequence[TokenizedSample], config: ModelConfig, path: Path | str
) -> None:
    """Raise ValueError naming ``path`` and the sample index for the first
    sample of a stream read from ``path`` that the model cannot take: one
    holding a token id outside the vocabulary, or one whose context (all
    tokens but the last) is longer than max_seq."""
    for i, s in enumerate(samples):
        top = max(s.tokens, default=0)
        if top >= config.vocab_size:
            raise ValueError(
                f"{path}: sample {i} has token id {top}, outside the vocabulary of {config.vocab_size}"
            )
        if len(s.tokens) - 1 > config.max_seq:
            raise ValueError(
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


def train(
    samples: Sequence[TokenizedSample],
    flat_plan: Sequence[int],
    model_config: ModelConfig,
    train_config: TrainConfig,
    on_step: Callable[[int, float, float], None] | None = None,
) -> TrainState:
    """Run training over the plan stream.

    samples are indexed by the plan's sequence ids. Aborts with diagnostics
    on a non-finite loss.
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
        model.zero_grad()
        result = trajectory_loss(model, inputs, targets, mask)
        if not math.isfinite(result.loss):
            raise TrainingDiverged(
                f"non-finite loss {result.loss} at step {step} "
                f"(batch ids {batch_ids[:8]}..., {result.n_targets} targets)"
            )
        model.backward(result.grad_logits)
        lr = train_config.lr_at(step)
        opt.step(lr)
        state.log.append((step, lr, result.loss))
        if on_step is not None:
            on_step(step, lr, result.loss)
    return state


def write_training_log(state: TrainState, path: Path | str) -> None:
    lines = ["step,lr,loss"]
    lines.extend(f"{step},{lr:.10g},{loss:.10g}" for step, lr, loss in state.log)
    write_atomic(path, "\n".join(lines) + "\n")


# -- checkpoints -----------------------------------------------------------------


def save_checkpoint(
    state: TrainState,
    path: Path | str,
    layout_hash: str = "",
    config_hash: str = "",
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
            with zf.open(entry, "w", force_zip64=True) as f:
                np.lib.format.write_array(f, np.asarray(p.value, dtype=DTYPE))


class _NoDraw(np.random.Generator):
    """A generator whose draws are uninitialised arrays: it builds a model
    of the right shapes for a reader that then fills every parameter."""

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return np.empty(size, dtype=DTYPE)

    uniform = normal


def load_checkpoint(path: Path | str) -> tuple[Transformer, dict]:
    """The one checkpoint reader: returns (model, metadata).

    The archive must hold ``meta.json`` of this format and exactly one
    ``param/<name>.npy`` per parameter, each of the parameter's shape;
    anything else raises ValueError naming the file and the entry.
    """
    with zipfile.ZipFile(path) as zf:
        names = set(zf.namelist())
        if "meta.json" not in names:
            raise ValueError(f"{path}: not a checkpoint file")
        meta = json.loads(zf.read("meta.json"))
        if meta.get("format") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        # every parameter is read below, so none is drawn
        model = Transformer(ModelConfig(**meta["model_config"]), seed=_NoDraw(np.random.PCG64(0)))
        params = {f"param/{name}.npy": p.value for name, p in model.parameters().items()}
        missing, extra = sorted(params.keys() - names), sorted(names - params.keys() - {"meta.json"})
        if missing:
            raise ValueError(f"{path}: checkpoint entry {missing[0]} is missing")
        if extra:
            raise ValueError(f"{path}: unexpected checkpoint entry {extra[0]}")
        for entry, dest in params.items():
            with zf.open(entry) as f:
                arr = np.lib.format.read_array(f)
            if arr.shape != dest.shape:
                raise ValueError(
                    f"{path}: checkpoint entry {entry} has shape {arr.shape}, "
                    f"expected {dest.shape}"
                )
            dest[...] = arr
    return model, meta
