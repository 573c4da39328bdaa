#!/usr/bin/env python3
"""Per-month recall decay on drifting synthetic data.

Training months precede the planted spectrum shift; the shift then ramps over
the evaluation months, so recall should fall month by month. Prints the
per-month recall table for a model trained on the pre-shift spectrum. Every
step is an ``evotraj`` stage call, written under an output root (default
./runs/decay).
"""

import argparse
import sys
from pathlib import Path

from stages import DRIFT_SETTINGS, drift_data, drift_model, print_report, run_stages, set_flags


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/decay")
    parser.add_argument("--seed", type=int, default=88)
    parser.add_argument("--depth", type=int, default=9)
    parser.add_argument("--steps", type=int, default=450)
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args(argv)

    root = Path(args.out)
    stages = [
        ["simulate", "--seed", str(args.seed), "--out", str(root / "sim")],
        *drift_data(root, root / "sim", args.steps, plan_seed=500),
        *drift_model(root, root / "sim", train_seed=9),
    ]
    settings = set_flags(
        *DRIFT_SETTINGS, f"synth_depth={args.depth}", "synth_shift_month=7", "synth_ramp_months=6",
        f"steps={args.steps}", f"ks={args.k}", "temporal_weighting=false",
    )
    code = run_stages(stages, settings)
    if code != 0:
        return code
    print()
    print_report(root / "eval/report.csv")
    return 0


if __name__ == "__main__":
    sys.exit(run())
