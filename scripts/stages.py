"""Helpers shared by the experiment scripts, which run every step as an
``evotraj`` stage call, each into its own directory under one output root."""

import csv
import math
from pathlib import Path

from evotraj.cli import main as cli

# config shared by the drift experiments: a 500-site genome, training data
# released by mid-August 2024, evaluation through January 2025, and no
# representative weighting, so every sequence's p is (log(r0 / r0) + 1) / m
# = 0.5 before any temporal tilt
DRIFT_SETTINGS = (
    "genome_length=500", "train_cutoff=2024-08-15", "eval_cutoff=2025-01-31",
    "lr_start=0.003", "lr_end=0.0003", "representative_weighting=false", "m=2",
)
BATCH_SIZE = 32  # the config default


def set_flags(*pairs: str) -> list[str]:
    """``--set`` flags for ``key=value`` pairs."""
    return [flag for pair in pairs for flag in ("--set", pair)]


def run_stages(stages, settings=()) -> int:
    """Run each stage's arguments, followed by ``settings``, through the
    ``evotraj`` CLI; stop at the first that fails and return its exit code.
    A stage given as a function is asked for its arguments just before it
    runs, so they can depend on what earlier stages wrote."""
    for argv in stages:
        code = cli([*(argv() if callable(argv) else argv), *settings])
        if code != 0:
            return code
    return 0


def plan_epochs(dataset: Path, selections: int) -> int:
    """Epochs enough for the plan stream of a ``dataset`` directory to hold
    ``selections`` entries. With one worker an epoch selects floor(sum of
    p_adjusted) sequences, less one at most for rounding."""
    with open(dataset / "weights.csv", newline="") as f:
        total = sum(float(row["p_adjusted"]) for row in csv.DictReader(f))
    return math.ceil(selections / max(math.floor(total) - 1, 1))


def drift_data(root: Path, sim: Path, steps: int, plan_seed: int, build=()) -> list:
    """The stages that build a dataset under ``root`` from the simulated tree
    in ``sim`` (``build`` adds build-dataset arguments) and sample a plan
    stream that ``steps`` batches never wrap around."""
    dataset = root / "dataset"
    return [
        ["build-dataset", "--tree", str(sim / "tree.jsonl"), *build, "--out", str(dataset)],
        lambda: [
            "sample-plan", "--dataset", str(dataset), "--seed", str(plan_seed),
            *set_flags(f"epochs={plan_epochs(dataset, steps * BATCH_SIZE)}"), "--out", str(root / "plans"),
        ],
    ]


def drift_model(root: Path, sim: Path, train_seed: int) -> list:
    """The stages that train on the ``drift_data`` under ``root`` and
    evaluate the model on the simulated tree in ``sim``."""
    dataset, train = root / "dataset", root / "train"
    return [
        ["train", "--dataset", str(dataset), "--plans", str(root / "plans"), "--seed", str(train_seed),
         "--out", str(train)],
        [
            "evaluate",
            "--tree", str(sim / "tree.jsonl"),
            "--layout", str(dataset / "layout.txt"),
            "--checkpoint", str(train / "checkpoint.ckpt"),
            "--population", str(sim / "population.csv"),
            "--out", str(root / "eval"),
        ],
    ]


def print_report(path: Path) -> None:
    """Print an ``evaluate`` report's macro recall and count per slice."""
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            print(f"{row['slice']:>12}  recall@{row['k']}={row['macro_recall']}  n={row['n_sequences']}")
