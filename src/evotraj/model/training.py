"""Adam training over sampled trajectory batches, with resumable checkpoints.

The batch schedule is a pure function of the epoch plans and the step index,
so resuming from a checkpoint replays the exact remaining stream.
"""

from __future__ import annotations

import io
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

CHECKPOINT_MAGIC = "evotraj-checkpoint-v1"


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
    def __init__(self, params: dict[str, Parameter], config: TrainConfig):
        self.params = params
        self.config = config
        self.step_count = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def step(self, lr: float) -> None:
        c = self.config
        self.step_count += 1
        bc1 = 1.0 - c.beta1**self.step_count
        bc2 = 1.0 - c.beta2**self.step_count
        for k, p in self.params.items():
            m, v = self.m[k], self.v[k]
            m *= c.beta1
            m += (1 - c.beta1) * p.grad
            v *= c.beta2
            v += (1 - c.beta2) * p.grad**2
            p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)


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
    optimizer: Adam
    step: int = 0
    log: list[tuple[int, float, float]] = field(default_factory=list)  # step, lr, loss

    @property
    def final_loss(self) -> float:
        return self.log[-1][2] if self.log else float("nan")


def train(
    samples: Sequence[TokenizedSample],
    flat_plan: Sequence[int],
    model_config: ModelConfig,
    train_config: TrainConfig,
    state: TrainState | None = None,
    stop_step: int | None = None,
    on_step: Callable[[int, float, float], None] | None = None,
) -> TrainState:
    """Run (or resume) training over the plan stream.

    samples are indexed by the plan's sequence ids. stop_step pauses the run
    early (e.g. to checkpoint) without changing the learning-rate schedule,
    which is pinned to train_config.steps. Aborts with diagnostics on a
    non-finite loss.
    """
    if state is None:
        model = Transformer(model_config, seed=train_config.seed)
        state = TrainState(model=model, optimizer=Adam(model.parameters(), train_config))
    model, opt = state.model, state.optimizer

    arrays = [
        (np.asarray(s.tokens, dtype=np.int64), len(s.prefix_tokens)) for s in samples
    ]
    last = train_config.steps if stop_step is None else min(stop_step, train_config.steps)
    for step in range(state.step, last):
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
        state.step = step + 1
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
    """Self-describing zip of float64 parameter/optimizer arrays plus metadata."""
    meta = {
        "format": CHECKPOINT_MAGIC,
        "model_config": asdict(state.model.config),
        "train_config": asdict(state.optimizer.config),
        "step": state.step,
        "adam_step_count": state.optimizer.step_count,
        "final_loss": state.final_loss,
        "layout_hash": layout_hash,
        "config_hash": config_hash,
    }
    with atomic_output(path) as tmp, zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr("meta.json", json.dumps(meta, sort_keys=True, indent=1))
        for kind, arrays in (
            ("param", {k: p.value for k, p in state.model.parameters().items()}),
            ("adam_m", state.optimizer.m),
            ("adam_v", state.optimizer.v),
        ):
            for name, arr in arrays.items():
                buf = io.BytesIO()
                np.save(buf, arr.astype(DTYPE))
                zf.writestr(f"{kind}/{name}.npy", buf.getvalue())


def _read_checkpoint(path: Path | str, optimizer: bool) -> tuple[dict, Transformer, Adam | None]:
    """The one checkpoint reader: metadata, the model and, when ``optimizer``
    is set, Adam with its moments; otherwise the moments are not read.

    The archive must hold exactly one array per parameter for each of
    param/, adam_m/ and adam_v/, each of the parameter's shape; anything
    else raises ValueError naming the file and the entry.
    """
    with zipfile.ZipFile(path) as zf:
        names = set(zf.namelist())
        if "meta.json" not in names:
            raise ValueError(f"{path}: not a checkpoint file")
        meta = json.loads(zf.read("meta.json"))
        if meta.get("format") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        model = Transformer(ModelConfig(**meta["model_config"]))
        params = {k: p.value for k, p in model.parameters().items()}
        expected = {"meta.json"} | {
            f"{kind}/{name}.npy" for kind in ("param", "adam_m", "adam_v") for name in params
        }
        missing, extra = sorted(expected - names), sorted(names - expected)
        if missing:
            raise ValueError(f"{path}: checkpoint entry {missing[0]} is missing")
        if extra:
            raise ValueError(f"{path}: unexpected checkpoint entry {extra[0]}")

        def read(kind: str, arrays: dict[str, np.ndarray]) -> None:
            for name, dest in arrays.items():
                entry = f"{kind}/{name}.npy"
                with zf.open(entry) as f:
                    arr = np.lib.format.read_array(f)
                if arr.shape != dest.shape:
                    raise ValueError(
                        f"{path}: checkpoint entry {entry} has shape {arr.shape}, "
                        f"expected {dest.shape}"
                    )
                dest[...] = arr

        read("param", params)
        opt = None
        if optimizer:
            tc = meta["train_config"]
            tc.setdefault("schedule", "linear")
            opt = Adam(model.parameters(), TrainConfig(**tc))
            read("adam_m", opt.m)
            read("adam_v", opt.v)
            opt.step_count = meta["adam_step_count"]
    return meta, model, opt


def load_checkpoint(path: Path | str) -> tuple[TrainState, dict]:
    """Restore model + optimizer for resuming; returns (state, metadata)."""
    meta, model, opt = _read_checkpoint(path, optimizer=True)
    return TrainState(model=model, optimizer=opt, step=meta["step"]), meta


def load_model(path: Path | str) -> tuple[Transformer, dict]:
    """Restore only the model, for inference; returns (model, metadata)."""
    meta, model, _ = _read_checkpoint(path, optimizer=False)
    return model, meta
