"""Pipeline command-line interface.

Stages write into an output directory with a config snapshot and a hash
manifest; later stages check each file they read against the manifest beside
it whenever that manifest lists it, and a file an earlier stage wrote must be
listed there. Run ``evotraj <stage> --help`` for per-stage flags.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import resource
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from . import baseline as baseline_mod
from . import evaluation, sampler, synth, variants, weighting
from .genome import NtMutation, SpikeMap, load_annotation, DEFAULT_ANNOTATION, DEFAULT_REFERENCE
from .model import (
    ModelConfig,
    TrainConfig,
    Transformer,
    check_samples_fit,
    load_checkpoint,
    rank_next_mutations,
    save_checkpoint,
    train,
    write_training_log,
)
from .model.training import _load_checkpoint
from .pipeline import (
    PipelineConfig,
    Refused,
    StaleArtifactError,
    check_digest,
    manifest_entries,
    read_csv,
    sha256_file,
    verify_against_manifest,
    write_atomic,
    write_csv,
    write_json,
    write_manifest,
)
from .tokenizer import LayoutSpec, Tokenizer, read_token_stream, write_token_stream
from .tree import (
    PartialDate,
    SequenceMeta,
    Trajectory,
    extract_all_trajectories,
    parse_tree,
    serialize_tree,
    split_train_eval,
)


# inputs that earlier stages write; every other input comes from outside
UPSTREAM_INPUTS = ("tokens", "layout", "weights", "checkpoint", "definitions")


@contextmanager
def _refusing(name: str):
    """Turns a ValueError, KeyError or OSError raised on a flag, config key or
    file into a refusal naming it, or the file the OSError names; a refusal
    raised inside passes as it is."""
    try:
        yield
    except Refused:
        raise
    except OSError as e:
        raise Refused(f"{e.filename or name}: {e.strerror}") from None
    except (ValueError, KeyError) as e:
        raise Refused(f"{name}: {e.args[0] if isinstance(e, KeyError) else e}") from None


def _input_hash(key: str, path: Path) -> str:
    """The sha256 of an input, checked against the manifest of the directory
    holding it whenever that lists it. An upstream input must be listed
    there; an outside one that is not is only hashed. The checkpoint is not
    read here: this is the digest its manifest records, which
    ``_checked_model`` checks in the one pass that loads the file."""
    if key == "checkpoint":
        return manifest_entries(path.parent, only=path.name).popitem()[1]["sha256"]
    listed = verify_against_manifest(path.parent, only=path.name, required=key in UPSTREAM_INPUTS)
    with _refusing(str(path)):
        return listed.popitem()[1]["sha256"] if listed else sha256_file(path)


class _Stage:
    """One stage run: its config (``--config``, then ``--set`` and ``--seed``),
    refused if a float value is not finite, its input files (``None`` for one
    not given), each hashed once before any work but the checkpoint, hashed
    as it loads, the outputs named so far in the output directory (created
    on first use), and the manifest recording them all, with the stage's
    timing."""

    def __init__(self, args, name: str, **inputs: Path | str | None):
        self._started = time.perf_counter(), time.process_time()
        self.args = args
        self.name = name
        with _refusing("--config"):
            self.config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
        for item in args.set or []:
            key, _, value = item.partition("=")
            if not value:
                raise Refused(f"--set expects key=value, got {item!r}")
            with _refusing(f"--set {item!r}"):
                self.config.set(key, value)
        if args.seed is not None:
            self.config.seed = args.seed
        for f in fields(self.config):
            value = getattr(self.config, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise Refused(f"{f.name}: expected a finite number, got {value}")
        self.inputs = {
            key: {"path": str(path), "sha256": _input_hash(key, Path(path))}
            for key, path in inputs.items() if path
        }
        self.outputs: dict[str, Path] = {}

    def output(self, key: str, filename: str) -> Path:
        out_dir = Path(self.args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs[key] = out_dir / filename
        return self.outputs[key]

    def finish(self, **extra) -> None:
        """Write the manifest, with ``extra`` as further top-level entries and
        a ``timing`` one: the wall and CPU seconds since the stage began, and
        the peak RSS of the process so far, a running maximum over every
        stage that the process has run."""
        wall, cpu = self._started
        timing = {
            "wall_s": round(time.perf_counter() - wall, 6),
            "cpu_s": round(time.process_time() - cpu, 6),
            "process_peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        write_manifest(self.args.out, self.name, self.config, self.inputs, self.outputs, {**extra, "timing": timing})


def _from_config(cls, config: PipelineConfig, **overrides):
    """A ``cls`` whose fields named like PipelineConfig fields take the
    config's values; ``overrides`` set the rest. Values it rejects are refused."""
    shared = {f.name for f in fields(PipelineConfig)}
    values = {f.name: getattr(config, f.name) for f in fields(cls) if f.name in shared}
    with _refusing("config"):
        return cls(**{**values, **overrides})


def _weight_config(config: PipelineConfig, **overrides) -> weighting.WeightConfig:
    """Sample ages count to the month of the training cutoff."""
    return _from_config(
        weighting.WeightConfig,
        config,
        t0_month=PartialDate.parse(config.train_cutoff).month_index(config.base_year),
        subnational_countries=tuple(s for s in config.subnational.split(",") if s),
        **overrides,
    )


def _synth_config(config: PipelineConfig) -> synth.SynthConfig:
    with _refusing("config"):
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
        with _refusing("synth_ramp_months"):
            cfg = synth.plant_temporal_shift(cfg, config.synth_shift_month, config.synth_ramp_months)
    return cfg


def _read(path: str | None, reader, default=None):
    """``reader(path)``, or ``default`` without a path; a file it rejects is refused."""
    if not path:
        return default
    with _refusing(path):
        return reader(path)


def _split(args, config: PipelineConfig):
    """The trajectories of ``--tree``, with variants from ``--definitions``
    when given, split at the config's train and eval cutoffs, or refused."""
    definitions = _read(args.definitions, variants.load_definitions)
    trajectories = extract_all_trajectories(_read(args.tree, parse_tree), definitions)
    cutoffs = []
    for key in ("train_cutoff", "eval_cutoff"):
        with _refusing(key):
            cutoffs.append(datetime.date.fromisoformat(getattr(config, key)))
    with _refusing("config"):
        return split_train_eval(trajectories, *cutoffs)


def _check_sites(tree: str, trajectories: list[Trajectory], tok: Tokenizer) -> None:
    """Refuse the first of the ``--tree`` file's ``trajectories`` with a
    mutation at a site beyond the layout's genome, which has no token,
    naming the file, the sequence, the site and the layout's length."""
    length = tok.spec.genome_length
    for t in trajectories:
        for m in t.all_mutations:
            if m.site > length:
                raise Refused(
                    f"{tree}: sequence {t.meta.name!r} has a mutation at site {m.site},"
                    f" beyond the layout's genome of {length} sites"
                )


@contextmanager
def _loading(checkpoint: str | None):
    """The load of ``checkpoint``, begun at once on one worker thread, as a
    future for ``_checked_model``; ``None`` without a checkpoint. The worker
    is joined on exit, whatever the block raised, so its refusal surfaces
    only where ``_checked_model`` asks for the model."""
    if not checkpoint:
        yield None
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool.submit(_load_checkpoint, checkpoint)


def _checked_model(stage: _Stage, loading: Future | None = None) -> Transformer:
    """The ``checkpoint`` input's model, from ``loading`` when its load was
    begun earlier, refused unless the file's sha256, taken as it loads, is
    the one its manifest records, and unless it was trained on the
    ``layout`` input's tokenizer layout."""
    with _refusing(stage.args.checkpoint):
        model, meta, digest = loading.result() if loading else load_checkpoint(stage.args.checkpoint)
    check_digest("checkpoint", Path(stage.args.checkpoint), stage.inputs["checkpoint"]["sha256"], digest)
    expected, actual = meta["layout_hash"], stage.inputs["layout"]["sha256"]
    if expected != actual:
        raise StaleArtifactError(
            f"hash mismatch for tokenizer layout: expected {expected[:12]}, found {actual[:12]}"
        )
    return model


def _ranked_table(path: str, config: PipelineConfig, k: int, tok: Tokenizer) -> tuple[str, list]:
    """An estimator table's kind and its ``k`` best entries with their scores:
    token ids for a nucleotide table, amino-acid mutations otherwise, or refused.
    ``k`` and the mode are checked first, so a refusal of either names them."""
    if k < 1:
        raise Refused("-k: k must be at least 1")
    if config.baseline_mode not in baseline_mod.MODES:
        raise Refused(f"baseline_mode: unknown baseline mode {config.baseline_mode!r}")
    with _refusing(path):
        table = baseline_mod.load_bloom_table(path)
        if table.kind == "nt":
            return table.kind, baseline_mod.rank_nt_table(table, config.baseline_mode, k, tok, config.alpha)
        return table.kind, baseline_mod.rank_aa_table(table, config.baseline_mode, k, config.alpha)


def cmd_simulate(args) -> int:
    stage = _Stage(args, "simulate")
    out = synth.generate(_synth_config(stage.config))
    stage.outputs.update(synth.write_outputs(out, args.out))
    stage.finish()
    print(f"simulate: {out.n_leaves} leaves, {len(out.tree)} nodes -> {args.out}")
    return 0


def cmd_ingest(args) -> int:
    stage = _Stage(args, "ingest", tree=args.tree)
    tree = _read(args.tree, parse_tree)
    stats = {
        "n_nodes": len(tree),
        "n_leaves": sum(1 for _ in tree.leaves()),
        "n_variants": len(tree.variant_roots),
    }
    write_atomic(stage.output("tree", "tree.jsonl"), serialize_tree(tree))
    write_json(stage.output("stats", "stats.json"), stats)
    stage.finish()
    print(f"ingest: {stats['n_nodes']} nodes, {stats['n_leaves']} leaves, "
          f"{stats['n_variants']} variants -> {args.out}")
    return 0


def cmd_refine_variants(args) -> int:
    stage = _Stage(args, "refine-variants", tree=args.tree, nextstrain=args.nextstrain, freq=args.freq)
    tree = _read(args.tree, parse_tree)
    nextstrain = _read(args.nextstrain, variants.load_nextstrain_definitions, {})
    freq = _read(args.freq, variants.FrequencyTable.load_csv)
    recombinants = set((args.recombinants or "").split(",")) - {""}
    names = sorted(tree.variant_roots)
    refined = [
        variants.refine_definition(
            tree, name, nextstrain.get(name), freq, is_recombinant=name in recombinants
        )
        for name in names
    ]
    defs_out = stage.output("definitions", "definitions.json")
    variants.save_definitions(refined, defs_out)
    stage.finish()
    print(f"refine-variants: {len(refined)} definitions -> {defs_out}")
    return 0


def cmd_build_dataset(args) -> int:
    stage = _Stage(args, "build-dataset", tree=args.tree, population=args.population,
                   definitions=args.definitions, layout=args.layout)
    config = stage.config
    split = _split(args, config)
    if args.layout:
        tok = Tokenizer.load(args.layout)
    else:
        tok = Tokenizer(_from_config(LayoutSpec, config))
    for traj in split.train:
        for name in (traj.meta.country, traj.meta.region):
            if name:
                tok.register_location(name)
    _check_sites(args.tree, split.train, tok)
    samples = [tok.tokenize(traj) for traj in split.train]
    wcfg = _weight_config(config)
    populations = _read(args.population, weighting.load_population_table, {})
    weights, densities = weighting.sequence_weights(
        split.train, populations, wcfg, config.base_year
    )

    tok.save(stage.output("layout", "layout.txt"))
    write_token_stream(samples, stage.output("tokens", "tokens.bin"))
    write_csv(
        stage.output("weights", "weights.csv"),
        ["name", "region_key", "month", "r", "p", "p_adjusted"],
        (
            [traj.meta.name, w.region_key, "" if w.month is None else w.month,
             w.r, w.p, w.p_adjusted]
            for traj, w in zip(split.train, weights)
        ),
    )
    weighting.write_density_report(densities, stage.output("density", "density.csv"), wcfg)
    stats = {
        "n_train": len(split.train),
        "n_eval_candidates": len(split.eval),
        "n_excluded_partial_dates": split.n_excluded_partial_dates,
        "vocab_size": tok.vocab_size,
        "t0_month": wcfg.t0_month,
    }
    write_json(stage.output("stats", "stats.json"), stats)
    stage.finish()
    print(f"build-dataset: {len(split.train)} training sequences, vocab {tok.vocab_size} -> {args.out}")
    return 0


def cmd_sample_plan(args) -> int:
    weights = Path(args.dataset) / "weights.csv"
    stage = _Stage(args, "sample-plan", weights=weights)
    config = stage.config
    probs = [float(row["p_adjusted"]) for row in read_csv(weights, ["p_adjusted"])]
    # each worker's accumulator starts at zero, so an epoch selects at most
    # floor(sum) sequences
    p_sum = sum(probs)
    if p_sum < 1:
        raise Refused(
            f"sampling probabilities in {weights} sum to {p_sum:.4g} < 1: an epoch selects nothing"
        )
    # a sum of at least 1 can still leave every worker's shard below 1, so
    # every epoch is checked before any plan is written
    if config.epochs < 1:
        raise Refused("epochs: need at least one epoch")
    with _refusing("workers"):
        selections = [
            sampler.run_epoch(probs, seed=config.seed + epoch, n_workers=config.workers)
            for epoch in range(config.epochs)
        ]
    for epoch, selection in enumerate(selections):
        if not selection.total_copies:
            raise Refused(
                f"epoch {epoch} selects nothing from {weights} with {config.workers} workers:"
                " no worker's shard of the probabilities sums to 1"
            )
    for epoch, selection in enumerate(selections):
        name = f"epoch_{epoch:03d}"
        sampler.save_plan(selection, stage.output(name, f"{name}.plan"))
    total = sum(selection.total_copies for selection in selections)
    stage.finish()
    print(f"sample-plan: {config.epochs} epochs, {total} total selections -> {args.out}")
    return 0


def _blas_threads() -> int:
    """The thread count BLAS runs with: OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, else the cores this process may run on, OpenBLAS's
    default. A checkpoint's float64 sums, and so its bytes, depend on it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            return int(value)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _check_plans_drawn_from(plans: Path, dataset: Path) -> None:
    """Refuse plans that ``sample-plan`` drew from another dataset: a plan's
    ids index the samples of the dataset whose weights.csv it read. The
    digests compared are those the two manifests record."""
    try:
        drawn = json.loads((plans / "manifest.json").read_text())["inputs"]["weights"]["sha256"]
    except (KeyError, TypeError):
        drawn = None
    weights = manifest_entries(dataset, only="weights.csv").popitem()[1]["sha256"]
    if drawn != weights:
        raise Refused(
            f"plans under {plans} were not sampled from the dataset {dataset}: they record"
            f" weights.csv {str(drawn)[:12]}, the dataset's is {weights[:12]}"
        )


def cmd_train(args) -> int:
    dataset = Path(args.dataset)
    stage = _Stage(args, "train", tokens=dataset / "tokens.bin", layout=dataset / "layout.txt")
    config = stage.config
    tok = Tokenizer.load(dataset / "layout.txt")
    samples = read_token_stream(dataset / "tokens.bin")
    model_config = _from_config(ModelConfig, config, vocab_size=tok.vocab_size)
    check_samples_fit(samples, model_config, dataset / "tokens.bin")
    plans = Path(args.plans)
    # only the plan files the verified manifest names are read, and recorded
    outputs = verify_against_manifest(plans)
    _check_plans_drawn_from(plans, dataset)
    plan_inputs = {
        name: {"path": str(plans / outputs[name]["path"]), "sha256": outputs[name]["sha256"]}
        for name in sorted(outputs) if name.startswith("epoch_")
    }
    if not plan_inputs:
        raise Refused(f"no epoch_*.plan files under {args.plans}")
    stage.inputs.update(plan_inputs)
    plan: list[int] = []
    for entry in plan_inputs.values():
        plan.extend(sampler.load_plan(entry["path"]).flatten())

    state = train(samples, plan, model_config, _from_config(TrainConfig, config))
    ckpt_out = stage.output("checkpoint", "checkpoint.ckpt")
    save_checkpoint(
        state,
        ckpt_out,
        layout_hash=stage.inputs["layout"]["sha256"],
        config_hash=config.config_hash(),
    )
    write_training_log(state, stage.output("log", "train_log.csv"))
    stage.finish(blas_threads=_blas_threads())
    print(f"train: {state.step} steps, final loss {state.final_loss:.4f} -> {ckpt_out}")
    return 0


def cmd_predict(args) -> int:
    stage = _Stage(args, "predict", checkpoint=args.checkpoint, layout=args.layout)
    model = _checked_model(stage)
    tok = Tokenizer.load(args.layout)
    with _refusing("--date"):
        date = PartialDate.parse(args.date) if args.date else None
        tok.time_tokens(date)
    muts = {}
    for flag, text in (("--variant-muts", args.variant_muts), ("--observed", args.observed)):
        with _refusing(flag):
            muts[flag] = tuple(NtMutation.parse(m) for m in (text or "").split(",") if m.strip())
            for m in muts[flag]:
                tok.mutation_token(m.site, m.to)
    # without location, the prefix's location tokens are the unknown token
    location = {} if args.no_location else {"country": args.country, "region": args.region}
    meta = SequenceMeta("", collected=date, **location)
    context = Trajectory(meta, "", muts["--variant-muts"], muts["--observed"])
    tokens = list(tok.tokenize(context).tokens)
    if len(tokens) > model.config.max_seq:
        raise Refused(
            f"--variant-muts and --observed give a context of {len(tokens)} tokens,"
            f" more than the checkpoint's max_seq {model.config.max_seq}"
        )
    with _refusing("-k"):
        pred = rank_next_mutations(model, tok, tokens, k=args.k)
    ranked_out = stage.output("ranked", "ranked.csv")
    write_csv(
        ranked_out,
        ["rank", "mutation", "token", "score"],
        (
            [i, tok.mutation_of_token(token).fmt(), token, f"{score:.8g}"]
            for i, (token, score) in enumerate(zip(pred.tokens, pred.scores), start=1)
        ),
    )
    stage.finish()
    print(f"predict: top {len(pred.tokens)} -> {ranked_out}")
    return 0


def cmd_baseline_rank(args) -> int:
    stage = _Stage(args, "baseline-rank", table=args.table)
    config = stage.config
    tok = Tokenizer(_from_config(LayoutSpec, config))
    kind, ranked = _ranked_table(args.table, config, args.k, tok)
    if kind == "nt":
        ranked = [(tok.mutation_of_token(token), score) for token, score in ranked]
    ranked_out = stage.output("ranked", "ranked.csv")
    write_csv(
        ranked_out,
        ["rank", "mutation", "score"],
        ([i, mut.fmt(), f"{score:.8g}"] for i, (mut, score) in enumerate(ranked, start=1)),
    )
    stage.finish()
    print(f"baseline-rank: {config.baseline_mode} top {args.k} -> {ranked_out}")
    return 0


def cmd_evaluate(args) -> int:
    stage = _Stage(args, "evaluate", tree=args.tree, layout=args.layout, checkpoint=args.checkpoint,
                   baseline=args.baseline, population=args.population, definitions=args.definitions,
                   annotation=args.annotation, reference=args.reference)
    config = stage.config
    # the checkpoint loads while this thread reads the tree, and is checked
    # after it, so a bad tree is still refused first
    with _loading(args.checkpoint) as loading:
        with _refusing("ks"):
            ks = config.k_list
        if config.task not in evaluation.TASKS:
            raise Refused(f"config: unknown task {config.task!r}")
        tok = Tokenizer.load(args.layout)
        spike_map = None
        if config.task == "spike":
            annotation = args.annotation or DEFAULT_ANNOTATION
            with _refusing(annotation):
                spike_map = SpikeMap(load_annotation(annotation, args.reference or DEFAULT_REFERENCE))
            if spike_map.genome_length != tok.spec.genome_length:
                raise Refused(
                    f"{annotation}: annotates a genome of {spike_map.genome_length} sites,"
                    f" but the layout {args.layout} has {tok.spec.genome_length}"
                )
        split = _split(args, config)
        _check_sites(args.tree, split.eval, tok)
        # a sequence without a step for the task has no signal for it
        steps = evaluation.task_steps(config.task, split.eval, tok, spike_map)
        scored = [(t, s) for t, s in zip(split.eval, steps) if s]
        if not scored:
            raise Refused("evaluation set is empty for the configured cutoffs")
        eval_trajs, steps = zip(*scored)

        if args.checkpoint:
            model = _checked_model(stage, loading)
            predictor = evaluation.ModelPredictor(model, tok)
        else:
            kind, ranked = _ranked_table(args.baseline, config, max(ks), tok)
            if kind == "aa" and config.task != "spike":
                raise Refused(
                    f"{args.baseline} is an amino-acid table: it scores task=spike only,"
                    f" not task={config.task}"
                )
            predictor = evaluation.StaticPredictor([entry for entry, _ in ranked])

    # recall is weighted by each sequence's representativeness r alone,
    # whatever the training switches
    wcfg = _weight_config(config, representative_weighting=True, temporal_weighting=False)
    populations = _read(args.population, weighting.load_population_table, {})
    weights, _ = weighting.sequence_weights(eval_trajs, populations, wcfg, config.base_year)

    # without location, the prefix's location tokens are the unknown token;
    # weights and month slices still read the real metadata
    tokenized = eval_trajs
    if args.no_location:
        tokenized = [replace(t, meta=replace(t.meta, country=None, region=None)) for t in eval_trajs]
    samples = [tok.tokenize(t) for t in tokenized]
    result = evaluation.evaluate_sequences(
        eval_trajs,
        samples,
        steps,
        predictor,
        ks=ks,
        task=config.task,
        weights=[w.r for w in weights],
        base_year=config.base_year,
        max_context=config.max_seq,
    )
    if not result.weights:
        raise Refused(
            f"max_seq: all {result.n_excluded_too_long} evaluation sequences have a context"
            f" longer than {result.context_bound} tokens, so none is evaluated"
        )
    reports = result.reports
    if args.no_location:
        reports = [replace(r, slice_label=f"no-location:{r.slice_label}") for r in reports]
    evaluation.write_report_csv(reports, stage.output("report", "report.csv"))
    stats = {
        "n_evaluated": len(result.weights),
        "n_excluded_too_long": result.n_excluded_too_long,
        "n_excluded_partial_dates": split.n_excluded_partial_dates,
        "n_excluded_no_signal": split.n_excluded_no_signal + len(split.eval) - len(eval_trajs),
    }
    write_json(stage.output("stats", "eval_stats.json"), stats)
    stage.finish()
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--baseline", help="estimator table to evaluate instead of a checkpoint")
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
    except Refused as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
