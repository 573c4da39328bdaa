#!/usr/bin/env python3
"""Temporal-weighting ablation on drifting synthetic data.

Plants a spectrum shift that ramps into the evaluation window, trains one
model with uniform sampling and one with recency-tilted sampling, and prints
recall@k per post-shift month for both.
"""

import argparse
import datetime
import sys

import numpy as np

from evotraj.evaluation import ModelPredictor, evaluate_sequences
from evotraj.model import ModelConfig, TrainConfig, train
from evotraj.sampler import run_epoch
from evotraj.synth import SynthConfig, generate, plant_temporal_shift
from evotraj.tokenizer import LayoutSpec, Tokenizer
from evotraj.tree import extract_all_trajectories, split_train_eval
from evotraj.weighting import WeightConfig, temporal_adjust


def build_plan(probs, n_needed, seed):
    """Concatenate epochs until the plan holds ``n_needed`` selections. An
    epoch selects floor(sum(probs)) sequences, since the accumulator starts
    at zero, so probabilities summing below 1 would never fill it."""
    total = float(sum(probs))
    if total < 1.0:
        raise ValueError(
            f"sampling probabilities sum to {total:.4g} < 1: an epoch selects nothing"
        )
    plan = []
    epoch = 0
    while len(plan) < n_needed:
        plan.extend(run_epoch(probs, seed=seed + epoch).flatten())
        epoch += 1
    return plan


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--depth", type=int, default=9)
    parser.add_argument("--steps", type=int, default=450)
    parser.add_argument("--lam", type=float, default=-2.0,
                        help="temporal exponent; negative favors recent samples")
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args(argv)

    cfg = plant_temporal_shift(
        SynthConfig(
            genome_length=500, depth=args.depth, month_advance=0.4,
            collection_lag_months=1.0, variant_prob=0.6, private_mut_rate=2.0,
            seed=args.seed,
        ),
        shift_month=5, ramp_months=3,
    )
    out = generate(cfg)
    trajs = extract_all_trajectories(out.tree)
    cutoff = datetime.date(2024, 8, 15)
    split = split_train_eval(trajs, cutoff, datetime.date(2025, 1, 31))
    print(f"{out.n_leaves} leaves; train {len(split.train)}, eval {len(split.eval)}")

    tok = Tokenizer(LayoutSpec(genome_length=cfg.genome_length))
    for t in split.train:
        if t.meta.country:
            tok.register_location(t.meta.country)
    samples = [tok.tokenize(t) for t in split.train]
    eval_samples = [tok.tokenize(t) for t in split.eval]

    t0 = (cutoff.year - 2019) * 12 + cutoff.month - 1
    wcfg = WeightConfig(lam=args.lam, t0_month=t0)
    uniform = [0.5] * len(samples)
    temporal = [
        temporal_adjust(0.5, min(t.meta.collected.month_index(2019), t0 - 1), wcfg)
        for t in split.train
    ]

    mcfg = ModelConfig(vocab_size=tok.vocab_size, layers=2, hidden=64, heads=4, max_seq=256)
    for name, probs in [("unweighted", uniform), ("temporal", temporal)]:
        plan = build_plan(probs, args.steps * 32, seed=1000)
        state = train(samples, plan, mcfg,
                      TrainConfig(steps=args.steps, batch_size=32,
                                  lr_start=3e-3, lr_end=3e-4, seed=5))
        predictor = ModelPredictor(state.model, tok)
        result = evaluate_sequences(split.eval, eval_samples, predictor, ks=(args.k,))
        print(f"\n{name}: final loss {state.final_loss:.3f}")
        for r in result.reports:
            print(f"  {r.slice_label:>10}  recall@{r.k}={r.macro_recall:.3f}  n={r.n_sequences}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
