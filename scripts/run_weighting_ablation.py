#!/usr/bin/env python3
"""Temporal-weighting ablation on drifting synthetic data.

Plants a spectrum shift that ramps into the evaluation window, trains one
model with uniform sampling and one with recency-tilted sampling, and prints
recall@k per post-shift month for both. Every step is an ``evotraj`` stage
call, written under an output root (default ./runs/ablation).
"""

import argparse
import sys
from pathlib import Path

from stages import DRIFT_SETTINGS, drift_data, drift_model, print_report, run_stages, set_flags

ARMS = {"unweighted": "temporal_weighting=false", "temporal": "temporal_weighting=true"}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/ablation")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--depth", type=int, default=9)
    parser.add_argument("--steps", type=int, default=450)
    parser.add_argument("--lam", type=float, default=-2.0,
                        help="temporal exponent; negative favors recent samples")
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args(argv)

    root = Path(args.out)
    stages = [["simulate", "--seed", str(args.seed), "--out", str(root / "sim")]]
    # every arm's data comes first, so that a split an arm cannot sample
    # from is refused before any model trains
    for name, weighting in ARMS.items():
        stages += drift_data(root / name, root / "sim", args.steps, plan_seed=1000, build=set_flags(weighting))
    for name in ARMS:
        stages += drift_model(root / name, root / "sim", train_seed=5)
    settings = set_flags(
        *DRIFT_SETTINGS, f"synth_depth={args.depth}", "synth_shift_month=5", "synth_ramp_months=3",
        f"steps={args.steps}", f"ks={args.k}", f"lam={args.lam}",
    )
    code = run_stages(stages, settings)
    if code != 0:
        return code
    for name in ARMS:
        print(f"\n{name}:")
        print_report(root / name / "eval/report.csv")
    return 0


if __name__ == "__main__":
    sys.exit(run())
