"""Pipeline command-line interface.

Stages write into an output directory with a config snapshot and a hash
manifest; later stages verify the hashes of what they consume. Run
``evotraj <stage> --help`` for per-stage flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import baseline as baseline_mod
from . import evaluation, sampler, synth, variants, weighting
from .genome import NtMutation, SpikeMap, load_annotation, DEFAULT_ANNOTATION, DEFAULT_REFERENCE
from .model import (
    ModelConfig,
    TrainConfig,
    load_model,
    rank_next_mutations,
    rank_without_location,
    save_checkpoint,
    train,
    write_training_log,
)
from .pipeline import (
    PipelineConfig,
    StaleArtifactError,
    require_hash_match,
    sha256_file,
    verify_against_manifest,
    write_atomic,
    write_manifest,
)
from .tokenizer import LayoutSpec, Tokenizer, read_token_stream, write_token_stream
from .tree import PartialDate, extract_all_trajectories, parse_tree, serialize_tree, split_train_eval


def _load_config(args) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    for item in args.set or []:
        key, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        config.set(key, value)
    if args.seed is not None:
        config.seed = args.seed
    return config


def _weight_config(config: PipelineConfig, t0_month: int) -> weighting.WeightConfig:
    return weighting.WeightConfig(
        d0=config.d0,
        d1=config.d1,
        d2=config.d2,
        m=config.m,
        r0=config.r0,
        lam=config.lam,
        t0_month=t0_month,
        subnational_countries=tuple(s for s in config.subnational.split(",") if s),
    )


def _synth_config(config: PipelineConfig) -> synth.SynthConfig:
    cfg = synth.SynthConfig(
        genome_length=config.genome_length,
        depth=config.synth_depth,
        variant_prob=config.synth_variant_prob,
        private_mut_rate=config.synth_private_mut_rate,
        month_advance=config.synth_month_advance,
        collection_lag_months=config.synth_collection_lag,
        noise_rate=config.synth_noise_rate,
        seed=config.seed,
    )
    if config.synth_shift_month >= 0:
        cfg = synth.plant_temporal_shift(cfg, config.synth_shift_month, config.synth_ramp_months)
    return cfg


def _load_definitions(path: str | None):
    return variants.load_definitions(path) if path else None


def _parse_mut_list(text: str) -> list[NtMutation]:
    return [NtMutation.parse(m) for m in text.split(",") if m.strip()]


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = synth.generate(_synth_config(config))
    paths = synth.write_outputs(out, args.out)
    write_manifest(args.out, "simulate", config, inputs={}, outputs=paths)
    print(f"simulate: {out.n_leaves} leaves, {len(out.tree)} nodes -> {args.out}")
    return 0


def cmd_ingest(args) -> int:
    config = _load_config(args)
    tree = parse_tree(args.tree)
    n_leaves = sum(1 for _ in tree.leaves())
    variants_tagged = sorted(
        {n.variant_name for n in tree.nodes.values() if n.variant_name}
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tree_out = out_dir / "tree.jsonl"
    write_atomic(tree_out, serialize_tree(tree))
    stats = {
        "n_nodes": len(tree),
        "n_leaves": n_leaves,
        "n_variants": len(variants_tagged),
    }
    stats_out = out_dir / "stats.json"
    write_atomic(stats_out, json.dumps(stats, indent=1, sort_keys=True) + "\n")
    write_manifest(
        args.out, "ingest", config,
        inputs={"tree": args.tree},
        outputs={"tree": tree_out, "stats": stats_out},
    )
    print(f"ingest: {stats['n_nodes']} nodes, {stats['n_leaves']} leaves, "
          f"{stats['n_variants']} variants -> {args.out}")
    return 0


def cmd_refine_variants(args) -> int:
    config = _load_config(args)
    tree = parse_tree(args.tree)
    nextstrain = (
        variants.load_nextstrain_definitions(args.nextstrain) if args.nextstrain else {}
    )
    freq = variants.FrequencyTable.load_csv(args.freq) if args.freq else None
    recombinants = set((args.recombinants or "").split(",")) - {""}
    names = sorted({n.variant_name for n in tree.nodes.values() if n.variant_name})
    refined = [
        variants.refine_definition(
            tree, name, nextstrain.get(name), freq, is_recombinant=name in recombinants
        )
        for name in names
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    defs_out = out_dir / "definitions.json"
    variants.save_definitions(refined, defs_out)
    inputs = {"tree": args.tree}
    if args.nextstrain:
        inputs["nextstrain"] = args.nextstrain
    if args.freq:
        inputs["freq"] = args.freq
    write_manifest(args.out, "refine-variants", config, inputs, {"definitions": defs_out})
    print(f"refine-variants: {len(refined)} definitions -> {defs_out}")
    return 0


def cmd_build_dataset(args) -> int:
    config = _load_config(args)
    tree = parse_tree(args.tree)
    definitions = _load_definitions(args.definitions)
    trajectories = extract_all_trajectories(tree, definitions)
    train_cutoff = datetime.date.fromisoformat(config.train_cutoff)
    eval_cutoff = datetime.date.fromisoformat(config.eval_cutoff)
    split = split_train_eval(trajectories, train_cutoff, eval_cutoff)

    if args.layout:
        tok = Tokenizer.load(args.layout)
    else:
        tok = Tokenizer(LayoutSpec(genome_length=config.genome_length, base_year=config.base_year))
    for traj in split.train:
        if traj.meta.country:
            tok.register_location(traj.meta.country)
        if traj.meta.region:
            tok.register_location(traj.meta.region)

    t0_month = (train_cutoff.year - config.base_year) * 12 + train_cutoff.month - 1
    wcfg = _weight_config(config, t0_month)
    populations = weighting.load_population_table(args.population) if args.population else {}
    densities = weighting.aggregate_densities(split.train, populations, wcfg, config.base_year)

    samples = []
    rows = []
    for traj in split.train:
        sample = tok.tokenize(traj)
        samples.append(sample)
        month = traj.meta.collected.month_index(config.base_year) if traj.meta.collected else None
        key = weighting.density_key(traj.meta.country, traj.meta.region, wcfg)
        if config.representative_weighting and month is not None:
            d = densities[(key, month)].density
            r = weighting.representative_weight(d, wcfg)
        else:
            r = wcfg.r0
        p = weighting.sampling_probability(r, wcfg)
        if config.temporal_weighting and month is not None:
            # ages below one month clamp to one
            p_adj = weighting.temporal_adjust(p, min(month, t0_month - 1), wcfg)
        else:
            p_adj = p
        rows.append((traj.meta.name, key, month if month is not None else "", r, p, p_adj))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    layout_out = out_dir / "layout.txt"
    tok.save(layout_out)
    tokens_out = out_dir / "tokens.bin"
    write_token_stream(samples, tokens_out)
    weights_out = out_dir / "weights.csv"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "region_key", "month", "r", "p", "p_adjusted"])
    for row in rows:
        writer.writerow(row)
    write_atomic(weights_out, buf.getvalue())
    density_out = out_dir / "density.csv"
    weighting.write_density_report(densities, density_out, wcfg)
    stats_out = out_dir / "stats.json"
    write_atomic(
        stats_out,
        json.dumps(
            {
                "n_train": len(split.train),
                "n_eval_candidates": len(split.eval),
                "n_excluded_partial_dates": split.n_excluded_partial_dates,
                "vocab_size": tok.vocab_size,
                "t0_month": t0_month,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
    )
    inputs = {"tree": args.tree}
    if args.population:
        inputs["population"] = args.population
    if args.definitions:
        inputs["definitions"] = args.definitions
    write_manifest(
        args.out, "build-dataset", config, inputs,
        {
            "layout": layout_out,
            "tokens": tokens_out,
            "weights": weights_out,
            "density": density_out,
            "stats": stats_out,
        },
    )
    print(f"build-dataset: {len(split.train)} training sequences, vocab {tok.vocab_size} -> {args.out}")
    return 0


def _read_weights(path: Path) -> list[float]:
    with open(path, newline="") as f:
        return [float(row["p_adjusted"]) for row in csv.DictReader(f)]


def cmd_sample_plan(args) -> int:
    config = _load_config(args)
    dataset = Path(args.dataset)
    verify_against_manifest(dataset)
    probs = _read_weights(dataset / "weights.csv")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    total = 0
    for epoch in range(config.epochs):
        selection = sampler.run_epoch(probs, seed=config.seed + epoch, n_workers=config.workers)
        plan_path = out_dir / f"epoch_{epoch:03d}.plan"
        sampler.save_plan(selection, plan_path, config_hash=config.config_hash())
        outputs[f"epoch_{epoch:03d}"] = plan_path
        total += selection.total_copies
    write_manifest(
        args.out, "sample-plan", config,
        inputs={"weights": dataset / "weights.csv"},
        outputs=outputs,
    )
    print(f"sample-plan: {config.epochs} epochs, {total} total selections -> {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    dataset = Path(args.dataset)
    verify_against_manifest(dataset)
    samples = read_token_stream(dataset / "tokens.bin")
    tok = Tokenizer.load(dataset / "layout.txt")
    plans = Path(args.plans)
    # only the plan files the verified manifest names are read
    outputs = verify_against_manifest(plans)["outputs"]
    plan_paths = [
        plans / outputs[name]["path"] for name in sorted(outputs) if name.startswith("epoch_")
    ]
    if not plan_paths:
        raise SystemExit(f"no epoch_*.plan files under {args.plans}")
    plan: list[int] = []
    for path in plan_paths:
        plan.extend(sampler.load_plan(path).flatten())

    model_config = ModelConfig(
        vocab_size=tok.vocab_size,
        layers=config.layers,
        hidden=config.hidden,
        heads=config.heads,
        max_seq=config.max_seq,
    )
    train_config = TrainConfig(
        steps=config.steps,
        batch_size=config.batch_size,
        lr_start=config.lr_start,
        lr_end=config.lr_end,
        schedule=config.schedule,
        seed=config.seed,
    )
    state = train(samples, plan, model_config, train_config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_out = out_dir / "checkpoint.ckpt"
    save_checkpoint(
        state,
        ckpt_out,
        layout_hash=sha256_file(dataset / "layout.txt"),
        config_hash=config.config_hash(),
    )
    log_out = out_dir / "train_log.csv"
    write_training_log(state, log_out)
    write_manifest(
        args.out, "train", config,
        inputs={"tokens": dataset / "tokens.bin", "layout": dataset / "layout.txt"},
        outputs={"checkpoint": ckpt_out, "log": log_out},
    )
    print(f"train: {state.step} steps, final loss {state.final_loss:.4f} -> {ckpt_out}")
    return 0


def _context_tokens(tok: Tokenizer, args) -> list[int]:
    date = PartialDate.parse(args.date) if args.date else None
    country_tok, region_tok = tok.location_tokens(args.country, args.region)
    year_tok, month_tok, day_tok = tok.time_tokens(date)
    context = [country_tok, region_tok, year_tok, month_tok, day_tok]
    for m in _parse_mut_list(args.variant_muts or ""):
        context.append(tok.mutation_token(m.site, m.to))
    for m in _parse_mut_list(args.observed or ""):
        context.append(tok.mutation_token(m.site, m.to))
    return context


def cmd_predict(args) -> int:
    config = _load_config(args)
    model, meta = load_model(args.checkpoint)
    tok = Tokenizer.load(args.layout)
    require_hash_match("tokenizer layout", meta["layout_hash"], sha256_file(args.layout))
    context = _context_tokens(tok, args)
    rank_fn = rank_without_location if args.no_location else rank_next_mutations
    pred = rank_fn(model, tok, context, k=args.k)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ranked_out = out_dir / "ranked.csv"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["rank", "mutation", "token", "score"])
    for i, (token, score) in enumerate(zip(pred.tokens, pred.scores), start=1):
        writer.writerow([i, tok.mutation_of_token(token).fmt(), token, f"{score:.8g}"])
    write_atomic(ranked_out, buf.getvalue())
    write_manifest(
        args.out, "predict", config,
        inputs={"checkpoint": args.checkpoint, "layout": args.layout},
        outputs={"ranked": ranked_out},
    )
    print(f"predict: top {len(pred.tokens)} -> {ranked_out}")
    return 0


def cmd_baseline_rank(args) -> int:
    config = _load_config(args)
    table = baseline_mod.load_bloom_table(args.table)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ranked_out = out_dir / "ranked.csv"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["rank", "mutation", "score"])
    if table.kind == "nt":
        tok = Tokenizer(LayoutSpec(genome_length=config.genome_length, base_year=config.base_year))
        ranked = baseline_mod.rank_nt_table(table, config.baseline_mode, args.k, tok, config.alpha)
        for i, (token, score) in enumerate(ranked, start=1):
            writer.writerow([i, tok.mutation_of_token(token).fmt(), f"{score:.8g}"])
    else:
        ranked_aa = baseline_mod.rank_aa_table(table, config.baseline_mode, args.k, config.alpha)
        for i, (mut, score) in enumerate(ranked_aa, start=1):
            writer.writerow([i, mut.fmt(), f"{score:.8g}"])
    write_atomic(ranked_out, buf.getvalue())
    write_manifest(
        args.out, "baseline-rank", config,
        inputs={"table": args.table}, outputs={"ranked": ranked_out},
    )
    print(f"baseline-rank: {config.baseline_mode} top {args.k} -> {ranked_out}")
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    tok = Tokenizer.load(args.layout)
    tree = parse_tree(args.tree)
    definitions = _load_definitions(args.definitions)
    trajectories = extract_all_trajectories(tree, definitions)
    train_cutoff = datetime.date.fromisoformat(config.train_cutoff)
    eval_cutoff = datetime.date.fromisoformat(config.eval_cutoff)

    spike_map = None
    if config.task == "spike":
        annotation = load_annotation(
            args.annotation or DEFAULT_ANNOTATION, args.reference or DEFAULT_REFERENCE
        )
        spike_map = SpikeMap(annotation)
    split = split_train_eval(
        trajectories, train_cutoff, eval_cutoff, task=config.task, spike_map=spike_map
    )
    eval_trajs = split.eval
    if not eval_trajs:
        raise SystemExit("evaluation set is empty for the configured cutoffs")

    inputs = {"tree": args.tree, "layout": args.layout}
    if args.checkpoint:
        model, meta = load_model(args.checkpoint)
        require_hash_match("tokenizer layout", meta["layout_hash"], sha256_file(args.layout))
        predictor = evaluation.ModelPredictor(model, tok, use_location=not args.no_location)
        inputs["checkpoint"] = args.checkpoint
    elif args.baseline:
        table = baseline_mod.load_bloom_table(args.baseline)
        k_max = max(config.k_list)
        if table.kind == "nt":
            ranked = baseline_mod.rank_nt_table(table, config.baseline_mode, k_max, tok, config.alpha)
            predictor = evaluation.StaticPredictor([t for t, _ in ranked])
        else:
            ranked_aa = baseline_mod.rank_aa_table(table, config.baseline_mode, k_max, config.alpha)
            predictor = evaluation.StaticAaPredictor([m for m, _ in ranked_aa])
        inputs["baseline"] = args.baseline
    else:
        raise SystemExit("evaluate needs --checkpoint or --baseline")

    t0_month = (train_cutoff.year - config.base_year) * 12 + train_cutoff.month - 1
    wcfg = _weight_config(config, t0_month)
    populations = weighting.load_population_table(args.population) if args.population else {}
    densities = weighting.aggregate_densities(eval_trajs, populations, wcfg, config.base_year)
    weights = []
    for traj in eval_trajs:
        month = traj.meta.collected.month_index(config.base_year)
        key = weighting.density_key(traj.meta.country, traj.meta.region, wcfg)
        weights.append(weighting.representative_weight(densities[(key, month)].density, wcfg))

    samples = [tok.tokenize(t) for t in eval_trajs]
    result = evaluation.evaluate_sequences(
        eval_trajs,
        samples,
        predictor,
        ks=config.k_list,
        task=config.task,
        tokenizer=tok,
        spike_map=spike_map,
        weights=weights,
        base_year=config.base_year,
        max_context=config.max_seq,
    )
    reports = result.reports
    if args.no_location:
        reports = [
            evaluation.RecallReport(
                r.task, r.k, f"no-location:{r.slice_label}",
                r.macro_recall, r.weighted_recall, r.n_sequences,
            )
            for r in reports
        ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_out = out_dir / "report.csv"
    evaluation.write_report_csv(reports, report_out)
    stats_out = out_dir / "eval_stats.json"
    write_atomic(
        stats_out,
        json.dumps(
            {
                "n_evaluated": len(result.weights),
                "n_excluded_too_long": result.n_excluded_too_long,
                "n_excluded_partial_dates": split.n_excluded_partial_dates,
                "n_excluded_no_signal": split.n_excluded_no_signal,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
    )
    if args.population:
        inputs["population"] = args.population
    if args.definitions:
        inputs["definitions"] = args.definitions
    write_manifest(args.out, "evaluate", config, inputs, {"report": report_out, "stats": stats_out})
    for r in reports:
        if r.slice_label.endswith("all"):
            print(
                f"evaluate[{r.task} k={r.k}]: macro {r.macro_recall:.4f} "
                f"weighted {r.weighted_recall:.4f} over {r.n_sequences}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evotraj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="pipeline config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="generate a synthetic tree with a planted spectrum")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ingest", help="parse and validate a tree file")
    common(p)
    p.add_argument("--tree", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("refine-variants", help="cross-validate variant definitions")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--nextstrain")
    p.add_argument("--freq")
    p.add_argument("--recombinants", help="comma-separated recombinant variant names")
    p.set_defaults(fn=cmd_refine_variants)

    p = sub.add_parser("build-dataset", help="tokenize and weight the training split")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--population")
    p.add_argument("--definitions")
    p.add_argument("--layout", help="existing layout to extend")
    p.set_defaults(fn=cmd_build_dataset)

    p = sub.add_parser("sample-plan", help="deterministic weighted epoch plans")
    common(p)
    p.add_argument("--dataset", required=True)
    p.set_defaults(fn=cmd_sample_plan)

    p = sub.add_parser("train", help="train the model over the sampled plans")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--plans", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="rank next mutations for a context")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--country")
    p.add_argument("--region")
    p.add_argument("--date")
    p.add_argument("--variant-muts", help="comma-separated variant mutations")
    p.add_argument("--observed", help="comma-separated already-observed private mutations")
    p.add_argument("--no-location", action="store_true")
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("baseline-rank", help="rank mutations from an estimator table")
    common(p)
    p.add_argument("--table", required=True)
    p.add_argument("-k", type=int, default=100)
    p.set_defaults(fn=cmd_baseline_rank)

    p = sub.add_parser("evaluate", help="recall@k over an evaluation tree")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--baseline", help="estimator table to evaluate instead of a checkpoint")
    p.add_argument("--population")
    p.add_argument("--definitions")
    p.add_argument("--annotation")
    p.add_argument("--reference")
    p.add_argument("--no-location", action="store_true")
    p.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StaleArtifactError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
