"""Spans around the program's public functions and methods, and the
per-layer metrics computed from them.

``Tracer.install`` replaces each traced function, in every ``evotraj``
module that holds it, with a wrapper that records a span (name, start, end,
parent) in memory; methods are wrapped on their class. ``uninstall``
restores the originals. Self time is a span's duration less the durations
of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

# traced callables: (module under evotraj, function or Class.method); the
# attribute path is also the span name
FUNCTIONS = [
    ("synth", "generate"),
    ("tree", "parse_tree"),
    ("tree", "extract_all_trajectories"),
    ("tree", "split_train_eval"),
    ("variants", "refine_definition"),
    ("tokenizer", "Tokenizer.tokenize"),
    ("tokenizer", "write_token_stream"),
    ("tokenizer", "read_token_stream"),
    ("weighting", "aggregate_densities"),
    ("weighting", "representative_weight"),
    ("weighting", "sampling_probability"),
    ("weighting", "temporal_adjust"),
    ("sampler", "run_epoch"),
    ("sampler", "save_plan"),
    ("sampler", "load_plan"),
    ("model.transformer", "batch_arrays"),
    ("model.nn", "Embedding.forward"),
    ("model.nn", "Embedding.backward"),
    ("model.nn", "Linear.forward"),
    ("model.nn", "Linear.backward"),
    ("model.nn", "CausalSelfAttention.forward"),
    ("model.nn", "CausalSelfAttention.backward"),
    ("model.nn", "FeedForward.forward"),
    ("model.nn", "FeedForward.backward"),
    ("model.nn", "Gelu.forward"),
    ("model.nn", "Gelu.backward"),
    ("model.nn", "softmax"),
    ("model.transformer", "Transformer.logits"),
    ("model.transformer", "Transformer.forward"),
    ("model.transformer", "Transformer.backward"),
    ("model.transformer", "masked_cross_entropy"),
    ("model.training", "Adam.step"),
    ("model.training", "save_checkpoint"),
    ("model.training", "load_checkpoint"),
    ("model.ranking", "rank_next_mutations"),
    ("evaluation", "evaluate_sequences"),
    ("evaluation", "ModelPredictor.rank_at_positions"),
    ("evaluation", "StaticPredictor.rank_at_positions"),
    ("evaluation", "spike_recall_at_k"),
    ("genome", "SpikeMap.aa_mutation_of"),
    ("genome", "SpikeState.apply"),
    ("baseline", "load_bloom_table"),
    ("baseline", "rank_nt_table"),
    ("baseline", "rank_aa_table"),
    ("pipeline", "sha256_file"),
    ("pipeline", "write_atomic"),
    ("pipeline", "verify_against_manifest"),
]


def _size_mb(path) -> float:
    return os.path.getsize(path) / 1e6


# what a span records about its call, from (args, result)
ATTRS = {
    "generate": lambda a, r: {"leaves": r.n_leaves},
    "parse_tree": lambda a, r: {"nodes": len(r)},
    "write_token_stream": lambda a, r: {"mb": _size_mb(a[1])},
    "run_epoch": lambda a, r: {"selections": r.total_copies},
    "batch_arrays": lambda a, r: {"useful": int(r[2].sum()), "rows": int(r[2].size)},
    "Linear.forward": lambda a, r: {"rows": r.size // r.shape[-1], "din": a[1].shape[-1], "dout": r.shape[-1]},
    "Linear.backward": lambda a, r: {"rows": a[1].size // a[1].shape[-1], "din": r.shape[-1], "dout": a[1].shape[-1]},
    "save_checkpoint": lambda a, r: {"mb": _size_mb(a[1])},
    "evaluate_sequences": lambda a, r: {"sequences": len(r.weights) + r.n_excluded_too_long},
    "sha256_file": lambda a, r: {"mb": _size_mb(a[0])},
}

SELF_TIME = {
    "generate": "synth.generate_s",
    "parse_tree": "tree.parse_s",
    "extract_all_trajectories": "tree.extract_s",
    "split_train_eval": "tree.split_s",
    "refine_definition": "variants.refine_s",
    "Tokenizer.tokenize": "tokenizer.tokenize_s",
    "write_token_stream": "tokenizer.stream_write_s",
    "read_token_stream": "tokenizer.stream_read_s",
    "aggregate_densities": "weighting.density_s",
    "representative_weight": "weighting.weight_s",
    "sampling_probability": "weighting.weight_s",
    "temporal_adjust": "weighting.weight_s",
    "run_epoch": "sampler.epoch_s",
    "save_plan": "sampler.plan_io_s",
    "load_plan": "sampler.plan_io_s",
    "batch_arrays": "model.batch_s",
    "Embedding.forward": "model.embed.fwd_s",
    "Embedding.backward": "model.embed.bwd_s",
    "CausalSelfAttention.forward": "model.attn.fwd_s",
    "CausalSelfAttention.backward": "model.attn.bwd_s",
    "FeedForward.forward": "model.mlp.fwd_s",
    "FeedForward.backward": "model.mlp.bwd_s",
    "Gelu.forward": "model.gelu.fwd_s",
    "Gelu.backward": "model.gelu.bwd_s",
    "masked_cross_entropy": "model.loss_s",
    "Adam.step": "model.adam_s",
    "save_checkpoint": "model.checkpoint_save_s",
    "load_checkpoint": "model.checkpoint_load_s",
    "rank_next_mutations": "ranking.rank_s",
    "evaluate_sequences": "evaluation.sequences_s",
    "ModelPredictor.rank_at_positions": "evaluation.rank_self_s",
    "StaticPredictor.rank_at_positions": "evaluation.rank_self_s",
    "spike_recall_at_k": "evaluation.spike_match_s",
    "SpikeMap.aa_mutation_of": "genome.spike_s",
    "SpikeState.apply": "genome.spike_s",
    "load_bloom_table": "baseline.load_s",
    "rank_nt_table": "baseline.rank_s",
    "rank_aa_table": "baseline.rank_s",
    "sha256_file": "pipeline.hash_s",
    "write_atomic": "pipeline.write_s",
    "verify_against_manifest": "pipeline.verify_s",
}

# a Linear or softmax span counts toward the part that called it
PART_OF_PARENT = {
    "CausalSelfAttention.forward": "model.attn.fwd_s",
    "CausalSelfAttention.backward": "model.attn.bwd_s",
    "FeedForward.forward": "model.mlp.fwd_s",
    "FeedForward.backward": "model.mlp.bwd_s",
    "Transformer.logits": "model.head.fwd_s",
    "Transformer.backward": "model.head.bwd_s",
    "Transformer.forward": "model.softmax_s",
    "masked_cross_entropy": "model.softmax_s",
}

STAGES = (
    "ingest", "refine_variants", "build_dataset", "sample_plan", "train",
    "predict", "evaluate", "evaluate_spike", "baseline_rank", "evaluate_table",
)

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    [(f"cli.{s}_s", "s", "lower") for s in STAGES]
    + [
        ("synth.generate_s", "s", "lower"), ("synth.leaves", "count", "higher"),
        ("tree.parse_s", "s", "lower"), ("tree.extract_s", "s", "lower"),
        ("tree.split_s", "s", "lower"), ("tree.nodes", "count", "higher"),
        ("variants.refine_s", "s", "lower"), ("variants.definitions", "count", "higher"),
        ("tokenizer.tokenize_s", "s", "lower"), ("tokenizer.stream_write_s", "s", "lower"),
        ("tokenizer.stream_read_s", "s", "lower"), ("tokenizer.stream_mb", "MB", "lower"),
        ("weighting.density_s", "s", "lower"), ("weighting.weight_s", "s", "lower"),
        ("sampler.epoch_s", "s", "lower"), ("sampler.plan_io_s", "s", "lower"),
        ("sampler.selections", "count", "higher"),
        ("model.batch_s", "s", "lower"),
        ("model.embed.fwd_s", "s", "lower"), ("model.embed.bwd_s", "s", "lower"),
        ("model.attn.fwd_s", "s", "lower"), ("model.attn.bwd_s", "s", "lower"),
        ("model.mlp.fwd_s", "s", "lower"), ("model.mlp.bwd_s", "s", "lower"),
        ("model.gelu.fwd_s", "s", "lower"), ("model.gelu.bwd_s", "s", "lower"),
        ("model.head.fwd_s", "s", "lower"), ("model.head.bwd_s", "s", "lower"),
        ("model.loss_s", "s", "lower"), ("model.softmax_s", "s", "lower"),
        ("model.adam_s", "s", "lower"),
        ("model.train_steps", "count", "higher"), ("model.forwards", "count", "lower"),
        ("model.head.gflop", "GFLOP", "lower"), ("model.head.logit_mb", "MB", "lower"),
        ("model.useful_row_ratio", "ratio", "higher"), ("model.head_rows", "count", "lower"),
        ("model.step_peak_alloc_mb", "MB", "lower"),
        ("model.checkpoint_save_s", "s", "lower"), ("model.checkpoint_load_s", "s", "lower"),
        ("model.checkpoint_mb", "MB", "lower"),
        ("ranking.rank_s", "s", "lower"),
        ("evaluation.sequences_s", "s", "lower"), ("evaluation.rank_self_s", "s", "lower"),
        ("evaluation.forwards_per_seq", "count", "lower"), ("evaluation.spike_match_s", "s", "lower"),
        ("genome.spike_s", "s", "lower"), ("genome.spike_calls", "count", "lower"),
        ("baseline.load_s", "s", "lower"), ("baseline.rank_s", "s", "lower"),
        ("pipeline.hash_s", "s", "lower"), ("pipeline.hash_mb", "MB", "lower"),
        ("pipeline.write_s", "s", "lower"), ("pipeline.verify_s", "s", "lower"),
        ("trace.spans", "count", "lower"), ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._steps = 0
        self.step_peak_mb = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str):
        attrs = ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec[4] = attrs(args, result)
            finally:
                tracer._close(rec)
            return result

        return traced

    def _wrap_step_probe(self, fn, start: bool):
        """tracemalloc over the second training step: from its batch
        assembly to the end of its optimizer update."""
        tracer = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if start:
                tracer._steps += 1
                if tracer._steps == 2:
                    tracemalloc.start()
            result = fn(*args, **kwargs)
            if not start and tracemalloc.is_tracing():
                tracer.step_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            return result

        return probed

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "evotraj" or n.startswith("evotraj.")]
        for module_name, attr in FUNCTIONS:
            module = sys.modules[f"evotraj.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = self._wrap(vars(cls)[meth], attr)
                if attr == "Adam.step":
                    fn = self._wrap_step_probe(fn, start=False)
                self._patch(cls, meth, fn)
                continue
            original = getattr(module, attr)
            fn = self._wrap(original, attr)
            if attr == "batch_arrays":
                fn = self._wrap_step_probe(fn, start=True)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, fn)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}) + "\n")

    # -- per-layer metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name, _, _ in METRICS}

        def stage_of(i: int) -> str:
            while i >= 0 and not spans[i][0].startswith("cli."):
                i = spans[i][3]
            return spans[i][0] if i >= 0 else ""

        batch_useful = batch_rows = 0
        train_logit_mb = []
        eval_forwards = eval_sequences = 0
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            self_s = end - start - child[i]
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name.startswith("cli."):
                out[name + "_s"] += self_s + child[i]
            elif name in ("Linear.forward", "Linear.backward", "softmax"):
                part = PART_OF_PARENT.get(parent_name)
                if part is not None:
                    out[part] += self_s
                if name != "softmax" and part in ("model.head.fwd_s", "model.head.bwd_s"):
                    flop = 2 * attrs["rows"] * attrs["din"] * attrs["dout"]
                    out["model.head.gflop"] += (flop if name == "Linear.forward" else 2 * flop) / 1e9
                    if name == "Linear.forward" and stage_of(i) == "cli.train":
                        train_logit_mb.append(attrs["rows"] * attrs["dout"] * 8 / 1e6)
            elif name in SELF_TIME:
                out[SELF_TIME[name]] += self_s
            model_eval = stage_of(i) in ("cli.evaluate", "cli.evaluate_spike")
            if name == "Transformer.logits":
                out["model.forwards"] += 1
                eval_forwards += model_eval
            elif name == "generate":
                out["synth.leaves"] += attrs["leaves"]
            elif name == "parse_tree":
                out["tree.nodes"] += attrs["nodes"]
            elif name == "refine_definition":
                out["variants.definitions"] += 1
            elif name == "write_token_stream":
                out["tokenizer.stream_mb"] += attrs["mb"]
            elif name == "run_epoch":
                out["sampler.selections"] += attrs["selections"]
            elif name == "batch_arrays":
                batch_useful += attrs["useful"]
                batch_rows += attrs["rows"]
            elif name == "Adam.step":
                out["model.train_steps"] += 1
            elif name == "save_checkpoint":
                out["model.checkpoint_mb"] = attrs["mb"]
            elif name == "evaluate_sequences" and model_eval:
                eval_sequences += attrs["sequences"]
            elif name == "SpikeMap.aa_mutation_of":
                out["genome.spike_calls"] += 1
            elif name == "sha256_file":
                out["pipeline.hash_mb"] += attrs["mb"]
        out["model.head_rows"] = batch_rows
        out["model.useful_row_ratio"] = batch_useful / batch_rows if batch_rows else 0.0
        out["model.head.logit_mb"] = sum(train_logit_mb) / len(train_logit_mb) if train_logit_mb else 0.0
        out["evaluation.forwards_per_seq"] = eval_forwards / eval_sequences if eval_sequences else 0.0
        out["model.step_peak_alloc_mb"] = self.step_peak_mb
        out["trace.spans"] = len(spans)
        return out
