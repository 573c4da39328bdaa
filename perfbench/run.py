#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload desk-e2e --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. The workload's inputs are generated from ``--seed``; one round
calls every stage of the workload in this process, one after another, and
rounds repeat until ``--seconds`` of stage time have passed. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` an
untraced round, a traced set-up and round, and another untraced round run,
and the per-layer metrics and the tracing overhead are printed. Every
round's outputs are checked by ``checks.py``. Stage output goes to stderr.
"""

import time

START = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
# BLAS threads: one per available core, set before numpy loads
THREADS = str(len(os.sched_getaffinity(0)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS


class Caller:
    """Calls one ``evotraj`` stage in process, optionally inside a span;
    returns whether it exited 0."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer

    def __call__(self, argv, key) -> bool:
        span = self.tracer.span(f"cli.{key}") if self.tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(sys.stderr):
                return self.cli(argv) == 0
        except (Exception, SystemExit):
            # a failed stage is counted, not fatal
            print(f"perfbench: stage {argv[0]} failed", file=sys.stderr)
            traceback.print_exc()
            return False


@dataclass
class Round:
    timings: list  # (stage, ok, seconds)
    seconds: float
    counts: dict | None = None  # set when every stage succeeded
    correct: bool = False

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.timings)

    def stage_time(self, kind: str) -> float:
        return sum(t for st, _, t in self.timings if st.kind == kind)


def run_round(workload, inputs, out: Path, call: Caller) -> Round:
    from checks import CheckFailed

    shutil.rmtree(out, ignore_errors=True)
    stages = workload.stages(inputs, out)
    timings = []
    start = time.perf_counter()
    for st in stages:
        t = time.perf_counter()
        ok = call(st.argv, st.key)
        timings.append((st, ok, time.perf_counter() - t))
    rnd = Round(timings, time.perf_counter() - start)
    print("perfbench: round " + " ".join(f"{st.key}={t:.3f}" for st, _, t in timings)
          + f" total={rnd.seconds:.3f}", file=sys.stderr)
    if rnd.ok:
        try:
            rnd.counts = workload.counts(out)
            workload.check(inputs, out, stages)
            rnd.correct = True
        except CheckFailed as e:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
        except Exception:
            print("perfbench: check could not read the outputs", file=sys.stderr)
            traceback.print_exc()
    shutil.rmtree(out, ignore_errors=True)
    return rnd


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, tuple[float, str]]:
    """Medians over the rounds whose every stage succeeded."""
    good = [r for r in rounds if r.counts is not None]

    def rate(key: str, kind: str) -> float:
        return statistics.median(r.counts[key] / r.stage_time(kind) for r in good)

    return {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (statistics.median(r.seconds for r in good), "s"),
        "train_tokens_per_s": (rate("train_tokens", "train"), "tokens/s"),
        "eval_seqs_per_s": (rate("evaluated", "evaluate"), "seq/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evotraj").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'evotraj'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from evotraj.cli import main as cli
    import tracing
    from workloads import SPECS, Workload

    if args.workload not in SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(SPECS)}", file=sys.stderr)
        return 2
    workload = Workload(SPECS[args.workload], args.seed)
    import_s = time.perf_counter() - START

    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        call = Caller(cli)
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(run_dir / "inputs", ignore_errors=True)
            t = time.perf_counter()
            inputs = workload.setup(run_dir / "inputs")
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        rounds = [run_round(workload, inputs, run_dir / "round", call)]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                shutil.rmtree(run_dir / "inputs", ignore_errors=True)
                inputs = workload.setup(run_dir / "inputs")
                rounds.append(run_round(workload, inputs, run_dir / "round", Caller(cli, tracer)))
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            # a second untraced round: later rounds run faster than the first,
            # so the traced round is compared with the mean of its neighbours
            rounds.append(run_round(workload, inputs, run_dir / "round", call))
        else:
            while sum(r.seconds for r in rounds) < args.seconds:
                rounds.append(run_round(workload, inputs, run_dir / "round", call))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not any(r.counts for r in rounds):
        print("perfbench: no round completed; nothing to measure", file=sys.stderr)
        return 1
    if args.trace:
        layers = tracer.layer_metrics()
        before, traced, after = rounds
        untraced = 0.5 * (before.seconds + after.seconds)
        layers["trace.overhead_s"] = traced.seconds - untraced
        layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_s"] / untraced
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.METRICS}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end(rounds, setup_s).items()}
    result = {
        "correct": all(r.correct for r in rounds if r.ok),
        "attempted": sum(len(r.timings) for r in rounds),
        "failed": sum(not ok for r in rounds for _, ok, _ in r.timings),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
