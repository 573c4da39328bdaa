#!/usr/bin/env python3
"""Drive the full pipeline on synthetic data via the CLI.

simulate -> ingest -> build-dataset -> sample-plan -> train -> evaluate,
writing every stage under an output root (default ./runs/e2e). Settings are
desk-scale; pass --steps / --depth to resize.
"""

import argparse
import sys
from pathlib import Path

from stages import run_stages


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/e2e")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--genome-length", type=int, default=500)
    args = parser.parse_args(argv)

    root = Path(args.out)
    settings = [
        "--seed", str(args.seed),
        "--set", f"genome_length={args.genome_length}",
        "--set", f"synth_depth={args.depth}",
        "--set", f"steps={args.steps}",
        "--set", "lr_start=0.003",
        "--set", "lr_end=0.0003",
        "--set", "lam=-0.1",
        "--set", "train_cutoff=2024-07-15",
        "--set", "eval_cutoff=2024-12-31",
        "--set", "ks=1,10,100",
    ]

    stages = [
        ["simulate", "--out", str(root / "sim")],
        ["ingest", "--tree", str(root / "sim/tree.jsonl"), "--out", str(root / "ingest")],
        [
            "build-dataset",
            "--tree", str(root / "ingest/tree.jsonl"),
            "--population", str(root / "sim/population.csv"),
            "--out", str(root / "dataset"),
        ],
        ["sample-plan", "--dataset", str(root / "dataset"), "--out", str(root / "plans")],
        [
            "train",
            "--dataset", str(root / "dataset"),
            "--plans", str(root / "plans"),
            "--out", str(root / "train"),
        ],
        [
            "evaluate",
            "--tree", str(root / "sim/tree.jsonl"),
            "--layout", str(root / "dataset/layout.txt"),
            "--checkpoint", str(root / "train/checkpoint.ckpt"),
            "--population", str(root / "sim/population.csv"),
            "--out", str(root / "eval"),
        ],
    ]
    code = run_stages(stages, settings)
    if code != 0:
        return code
    print(f"\ndone; report at {root / 'eval/report.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
