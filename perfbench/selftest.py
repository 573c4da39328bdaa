#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one round of the desk-e2e workload at seed 0, with the estimator-table
stages of prod-vocab added, checks that every output check passes on the
real outputs, then corrupts one file at a time and checks that the check
reading it rejects the corrupted copy.
It also checks that BENCHMARK.json lists exactly the metrics the benchmark
prints. Exits 0 when everything holds.
"""

import dataclasses
import json
import os
import shutil
import struct
import sys
from pathlib import Path

import run  # sets the BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))
from evotraj.cli import main as cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import SPECS, Workload  # noqa: E402


def edit_csv(rel: str, *edits):
    """Replace cells of a CSV file; each edit is (line, column, fn), line 1
    being the header."""

    def corrupt(data: bytes) -> bytes:
        lines = data.decode().splitlines()
        header = lines[0].split(",")
        for line, column, fn in edits:
            cells = lines[line - 1].split(",")
            i = header.index(column)
            cells[i] = fn(cells[i])
            lines[line - 1] = ",".join(cells)
        return ("\n".join(lines) + "\n").encode()

    return rel, corrupt


def swap_lines(rel: str, a: int, b: int):
    def corrupt(data: bytes) -> bytes:
        lines = data.decode().splitlines()
        lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
        return ("\n".join(lines) + "\n").encode()

    return rel, corrupt


def flip_first_mutation_token(data: bytes) -> bytes:
    # header 12 bytes, sample header 12 bytes, 5 prefix ids, then the first
    # trajectory id
    off = 12 + 12 + 4 * 5
    (token,) = struct.unpack_from("<I", data, off)
    return data[:off] + struct.pack("<I", token ^ 1) + data[off + 4 :]


def add_plan_copy(data: bytes) -> bytes:
    # header 12 bytes, worker 0 entry count, first (id, copies) pair
    off = 12 + 4 + 4
    (copies,) = struct.unpack_from("<I", data, off)
    return data[:off] + struct.pack("<I", copies + 1) + data[off + 4 :]


def drop_definition_mutation(data: bytes) -> bytes:
    defs = json.loads(data)
    name = next(n for n, spec in defs.items() if spec["muts"])
    defs[name]["muts"].pop()
    return json.dumps(defs).encode()


def find_line(path: Path, **cells) -> int:
    for line, row in enumerate(checks.read_csv(path), start=2):
        if all(row[k] == v for k, v in cells.items()):
            return line
    raise LookupError(f"{path}: no row {cells}")


def cases(out: Path):
    """(check name, what is corrupted, (file, corrupt function)) per case."""
    report = out / "eval" / "report.csv"
    k10 = find_line(report, k="10", slice="all")
    k1 = find_line(report, k="1", slice="all")
    spike_all = find_line(out / "eval_spike" / "report.csv", k="1", slice="all")
    table_k100 = find_line(out / "eval_table" / "report.csv", k="100", slice="all")
    return [
        ("manifest", "one byte appended to stats.json", ("dataset/stats.json", lambda d: d + b"\n")),
        ("tokens", "one flipped token id", ("dataset/tokens.bin", flip_first_mutation_token)),
        ("weights", "one altered weight",
         edit_csv("dataset/weights.csv", (2, "p_adjusted", lambda v: repr(float(v) * (1 + 1e-6))))),
        ("plans", "one extra copy in a plan", ("plans/epoch_000.plan", add_plan_copy)),
        ("train_log", "a non-finite loss", edit_csv("train/train_log.csv", (3, "loss", lambda v: "nan"))),
        ("predict", "one swapped ranked pair", swap_lines("predict0/ranked.csv", 2, 3)),
        ("report", "one altered recall cell",
         edit_csv("eval/report.csv", (k10, "macro_recall", lambda v: f"{float(v) + 0.01:.6f}"))),
        ("recall_gate", "recall@1 and @10 set to 0.001",
         edit_csv("eval/report.csv", (k1, "macro_recall", lambda v: "0.001000"),
                  (k10, "macro_recall", lambda v: "0.001000"))),
        ("spike_report", "one altered sequence count",
         edit_csv("eval_spike/report.csv", (spike_all, "n_sequences", lambda v: str(int(v) + 1)))),
        ("definitions", "one mutation dropped from a definition",
         ("defs/definitions.json", drop_definition_mutation)),
        ("baseline_ranked", "one swapped ranked pair", swap_lines("ranked/ranked.csv", 2, 3)),
        ("table_report", "one altered recall cell",
         edit_csv("eval_table/report.csv", (table_k100, "weighted_recall", lambda v: f"{float(v) - 0.01:.6f}"))),
    ]


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layers != list(tracing.METRICS):
        errors.append("BENCHMARK.json per_layer differs from tracing.METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(SPECS):
        errors.append("BENCHMARK.json workloads differ from workloads.SPECS")
    return errors


def main() -> int:
    root = run.OUT / f"selftest-pid{os.getpid()}"
    call = run.Caller(cli)
    errors = check_benchmark_json()
    # the desk workload with the estimator-table stages, so that one round
    # feeds every check; every training sequence is compared, so any
    # flipped id is seen
    spec = dataclasses.replace(SPECS["desk-e2e"], tables=True, workers=4, token_sample=10**9)
    workload = Workload(spec, seed=0)
    try:
        inputs = workload.setup(root / "inputs")
        out = root / "round"
        stages = workload.stages(inputs, out)
        errors += [f"stage {st.key} failed" for st in stages if not call(st.argv, st.key)]
        if not errors:
            named = workload.checks(inputs, out, stages)
            for name, check in named.items():
                try:
                    check()
                    print(f"selftest: {name} passes on the real outputs")
                except checks.CheckFailed as e:
                    errors.append(f"{name} fails on the real outputs: {e}")
            for name, what, (rel, corrupt) in cases(out):
                path = out / rel
                original = path.read_bytes()
                path.write_bytes(corrupt(original))
                try:
                    named[name]()
                    errors.append(f"{name} accepts {what}")
                except checks.CheckFailed as e:
                    print(f"selftest: {name} rejects {what}: {e}")
                finally:
                    path.write_bytes(original)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for e in errors:
        print(f"selftest FAILED: {e}")
    print("selftest: " + ("FAILED" if errors else "all checks pass and reject their corruptions"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
