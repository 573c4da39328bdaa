import ast
import collections
import datetime
import hashlib
import importlib.util
import json
import os
import re
import resource
import shutil
import struct
import threading
import zipfile
from pathlib import Path

import pytest

from evotraj import cli, evaluation, pipeline
from evotraj.baseline import BloomRecord
from evotraj.cli import main
from evotraj.genome import DEFAULT_ANNOTATION, GENETIC_CODE, SpikeState
from evotraj.model import load_checkpoint
from evotraj.tokenizer import Tokenizer, read_token_stream
from evotraj.tree import extract_all_trajectories, parse_tree, split_train_eval
from evotraj.pipeline import (
    CONFIG_HEADER,
    PipelineConfig,
    StaleArtifactError,
    sha256_file,
    verify_against_manifest,
    write_atomic,
    write_manifest,
)
from test_baseline import write_bloom_table


class TestPipelineConfig:
    def test_defaults_mirror_fixed_constants(self):
        c = PipelineConfig()
        assert c.genome_length == 29_903
        assert (c.d0, c.d1, c.d2) == (0.1, 10.0, 10_000.0)
        assert (c.m, c.r0, c.lam) == (10.0, 100.0, 0.1)
        assert (c.lr_start, c.lr_end) == (1e-4, 1e-5)
        assert c.alpha == 1.0

    def test_file_roundtrip(self, tmp_path):
        c = PipelineConfig()
        c.set("steps", "77")
        c.set("temporal_weighting", "false")
        p = tmp_path / "run.cfg"
        p.write_text(c.to_text())
        loaded = PipelineConfig.from_file(p)
        assert loaded.steps == 77
        assert loaded.temporal_weighting is False
        assert loaded.to_text() == c.to_text()

    @pytest.mark.parametrize("value, parsed", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), ("NO", False), ("off", False),
    ])
    def test_boolean_words_in_any_case(self, value, parsed):
        c = PipelineConfig()
        c.set("temporal_weighting", value)
        assert c.temporal_weighting is parsed

    def test_key_repeated_in_a_file_rejected(self, tmp_path):
        # a later line must not silently override an earlier one
        p = tmp_path / "run.cfg"
        p.write_text(f"{CONFIG_HEADER}\nlam 0.1\n\nlam 0.5\n")
        with pytest.raises(ValueError) as err:
            PipelineConfig.from_file(p)
        assert str(err.value) == f"{p}, line 4, key 'lam': repeated, first set on line 2"

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            PipelineConfig().set("nonsense", "1")

    def test_k_list(self):
        c = PipelineConfig()
        c.set("ks", "1,10")
        assert c.k_list == (1, 10)

    def test_hash_changes_with_content(self):
        a, b = PipelineConfig(), PipelineConfig()
        b.set("steps", "2")
        assert a.config_hash() != b.config_hash()


def assert_refused(capsys, argv, out, message):
    """``main(argv)`` refuses: it exits 2, prints the one stderr line
    ``error: <message>``, and leaves ``out`` absent."""
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path(out).exists()


class TestSetFlag:
    @pytest.mark.parametrize("item, message", [
        ("steps=abc", "--set 'steps=abc': invalid literal for int() with base 10: 'abc'"),
        ("nokey=1", "--set 'nokey=1': unknown config key 'nokey'"),
    ], ids=["unparsable-value", "unknown-key"])
    def test_refused_before_any_output(self, tmp_path, capsys, item, message):
        out = tmp_path / "d"
        assert_refused(capsys, ["simulate", "--out", str(out), "--set", item], out, message)


class TestConfigFlag:
    @pytest.mark.parametrize("line, message", [
        ("steps abc", "key 'steps': invalid literal for int() with base 10: 'abc'"),
        ("nokey 1", "key 'nokey': unknown config key 'nokey'"),
    ], ids=["unparsable-value", "unknown-key"])
    def test_refused_before_any_output(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{CONFIG_HEADER}\n# a comment\n{line}\n")
        out = tmp_path / "d"
        assert_refused(capsys, ["simulate", "--config", str(cfg), "--out", str(out)], out,
                       f"--config: {cfg}, line 3, {message}")


class TestArtifacts:
    def test_write_atomic(self, tmp_path):
        p = tmp_path / "x.txt"
        write_atomic(p, "hello\n")
        assert p.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_manifest_verification_detects_staleness(self, tmp_path):
        out = tmp_path / "stage"
        out.mkdir()
        artifact = out / "data.txt"
        artifact.write_text("payload")
        write_manifest(out, "test", PipelineConfig(), {}, {"data": artifact})
        verify_against_manifest(out)
        artifact.write_text("tampered")
        with pytest.raises(StaleArtifactError, match="data"):
            verify_against_manifest(out)

    def test_manifest_records_paths_relative_to_stage(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = Path("stage")
        (out / "sub").mkdir(parents=True)
        (out / "sub" / "data.txt").write_text("payload")
        write_manifest(out, "test", PipelineConfig(), {}, {"data": out / "sub" / "data.txt"})
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]["data"]["path"] == "sub/data.txt"

    def test_manifest_rejects_output_outside_stage(self, tmp_path):
        out = tmp_path / "stage"
        outside = tmp_path / "elsewhere.txt"
        outside.write_text("payload")
        with pytest.raises(ValueError, match="outside the stage directory"):
            write_manifest(out, "test", PipelineConfig(), {}, {"data": outside})

    def test_relocated_stage_verifies_its_own_files(self, tmp_path):
        original = tmp_path / "stage"
        original.mkdir()
        (original / "data.txt").write_text("payload")
        write_manifest(original, "test", PipelineConfig(), {}, {"data": original / "data.txt"})
        copy = tmp_path / "moved" / "stage"
        shutil.copytree(original, copy)
        verify_against_manifest(copy)
        (copy / "data.txt").write_text("tampered")
        with pytest.raises(StaleArtifactError, match="'data'") as excinfo:
            verify_against_manifest(copy)
        assert str(copy / "data.txt") in str(excinfo.value)
        verify_against_manifest(original)
        (copy / "data.txt").unlink()
        with pytest.raises(StaleArtifactError, match="'data' .* is missing"):
            verify_against_manifest(copy)

    def test_missing_manifest_is_stale(self, tmp_path):
        with pytest.raises(StaleArtifactError, match="no manifest.json"):
            verify_against_manifest(tmp_path)


SMALL_SETTINGS = [
    "--set", "genome_length=200",
    "--set", "synth_depth=5",
    "--set", "train_cutoff=2024-07-15",
    "--set", "eval_cutoff=2024-12-31",
    "--set", "steps=15",
    "--set", "batch_size=8",
    "--set", "epochs=2",
    "--set", "ks=1,10",
    "--set", "layers=1",
    "--set", "hidden=32",
]


# sha256 of the data-stage files ``pipeline_run`` writes. These stages are
# pure Python plus seeded numpy, so the digests do not depend on the BLAS
# library; a refactor that changes any byte of them fails here.
DATA_STAGE_DIGESTS = {
    ("sim", "tree.jsonl"): "d1026b9e4e5c898aeb36e16b9aca70b9a02cbc4ce53f7f206f99f56b66431525",
    ("sim", "spectrum.json"): "df66927a50d49ee36099961e947b4c5cc9d4cb4186a26c4a0061c6a6b76ad8de",
    ("sim", "population.csv"): "dd2d3b745ca5cf42f8d369a4dfbc9ee4ca56adf633d023015436a9aed9664832",
    ("ingest", "tree.jsonl"): "d1026b9e4e5c898aeb36e16b9aca70b9a02cbc4ce53f7f206f99f56b66431525",
    ("dataset", "layout.txt"): "af3364dde7375f48577d8878b87648c9cdccfd7d2bfc113245f573ff3f70c1c5",
    ("dataset", "tokens.bin"): "c488f6bb73265eeacd317814689e7075b65bc7d3dc77ef62bd38db56242f4121",
    ("dataset", "weights.csv"): "1c0646bc9811f26f7c4407d26177e42085d2969524c5b690a77d6695dc33b5c7",
    ("dataset", "density.csv"): "99bf78cafc9523e80e773cc082a0cd15056907508968a74c8e0157b09b31a6b9",
    ("dataset", "stats.json"): "82e6ad358dcdf6730648e75ba201c70e1b41bf4f975cb47c93dcf5974aeb1342",
    ("plans", "epoch_000.plan"): "38d5ba8f82fbe4d0643347a4aee3213cdf66059a750514ba5ccbf4eb1fdd76c7",
    ("plans", "epoch_001.plan"): "2184f3a0cad1b797d2560a1e5ac53d453034ae59e5656ca8021e452b6c5136b6",
}

# sha256 of the train, predict and evaluate outputs ``pipeline_run`` writes.
# They come from float64 matrix products, yet read the same at one and two
# OpenBLAS threads; the checkpoint does not, so it is not pinned, but tested
# for the same bytes from two runs. ``ranked.csv`` holds model scores to 8
# digits.
MODEL_STAGE_DIGESTS = {
    ("train", "train_log.csv"): "d8d1de9e9e216e2f70db2d04c144dabd1e4735893fc3e219ba143ed37a8ae402",
    ("predict", "ranked.csv"): "c6e1e20e51797dc0c44ffa59a1b6275f609e6d28d7ebc2f2be6e65e3c85aeca8",
    ("eval", "report.csv"): "9c46739566353c43e35ed5743d0fa975c432ac7574fde7399b4aea4d61a26c12",
    ("eval", "eval_stats.json"): "20d3e3d304f42a3accd55e32a2926a7a3747d8ac3237b4e36554f1f03b4e2044",
    ("eval_spike", "report.csv"): "4df9ea8721c79b4c0c1f9d9a1bcb9d39cee06c8c77bce79d6d4a81706128d08a",
    ("eval_spike", "eval_stats.json"): "22e887783b035d38509fd47452c704e2109690d748f9c0a085f2dc32472e16d2",
    ("eval_table", "report.csv"): "71a90ca5ce3845d1734bd66865b5d1a72c1fb8e5da208264019e4d5dcdbafaf6",
    ("eval_table", "eval_stats.json"): "20d3e3d304f42a3accd55e32a2926a7a3747d8ac3237b4e36554f1f03b4e2044",
}


# mutations that the evaluation sequences of ``pipeline_run`` carry, with a
# count each, so the table's nucleotide recall is above 0 at k=1
NT_TABLE = [("178G", 5.0), ("171G", 4.0), ("9T", 3.0), ("25C", 2.0), ("33A", 1.5), ("146C", 1.0)]


def write_spike_orf(root: Path) -> tuple[Path, Path]:
    """An annotation and reference for a spike ORF on sites 11..199 of the
    200-site synthetic genome: 62 sense codons, then a stop."""
    sense = sorted(codon for codon, aa in GENETIC_CODE.items() if aa != "*")
    seq = "".join(sense[7 * i % len(sense)] for i in range(62)) + "TAA"
    annotation, reference = root / "orf_annotation.tsv", root / "reference_orfs.fasta"
    annotation.write_text(f"genome\t1\t200\nS\t11\t{10 + len(seq)}\n")
    reference.write_text(f">S\n{seq}\n")
    return annotation, reference


def window_candidates(tree: Path) -> list:
    """The trajectories of ``tree`` that SMALL_SETTINGS' cutoffs put in the
    evaluation window, each carrying a private mutation."""
    trajectories = extract_all_trajectories(parse_tree(tree))
    return split_train_eval(trajectories, datetime.date(2024, 7, 15), datetime.date(2024, 12, 31)).eval


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full simulate -> ... -> evaluate chain shared by the CLI tests:
    a prediction for one context, and evaluation on the nucleotide task and,
    at k up to 100, the spike task; and a nucleotide table evaluated on the
    nucleotide task."""
    root = tmp_path_factory.mktemp("pipe")
    dirs = {name: root / name for name in
            ("sim", "ingest", "dataset", "plans", "train", "predict", "eval", "eval_spike", "eval_table")}
    assert main(["simulate", "--out", str(dirs["sim"]), *SMALL_SETTINGS]) == 0
    assert main([
        "ingest", "--tree", str(dirs["sim"] / "tree.jsonl"),
        "--out", str(dirs["ingest"]), *SMALL_SETTINGS,
    ]) == 0
    assert main([
        "build-dataset",
        "--tree", str(dirs["ingest"] / "tree.jsonl"),
        "--population", str(dirs["sim"] / "population.csv"),
        "--out", str(dirs["dataset"]), *SMALL_SETTINGS,
    ]) == 0
    assert main([
        "sample-plan", "--dataset", str(dirs["dataset"]),
        "--out", str(dirs["plans"]), *SMALL_SETTINGS,
    ]) == 0
    assert main([
        "train", "--dataset", str(dirs["dataset"]), "--plans", str(dirs["plans"]),
        "--out", str(dirs["train"]), *SMALL_SETTINGS,
    ]) == 0
    assert main([
        "predict", "--checkpoint", str(dirs["train"] / "checkpoint.ckpt"),
        "--layout", str(dirs["dataset"] / "layout.txt"), "--date", "2024-06-05",
        "--variant-muts", "C10T,G50A", "-k", "20", "--out", str(dirs["predict"]), *SMALL_SETTINGS,
    ]) == 0
    evaluate = [
        "evaluate",
        "--tree", str(dirs["sim"] / "tree.jsonl"),
        "--layout", str(dirs["dataset"] / "layout.txt"),
        "--population", str(dirs["sim"] / "population.csv"),
    ]
    checkpoint = ["--checkpoint", str(dirs["train"] / "checkpoint.ckpt")]
    assert main([*evaluate, *checkpoint, "--out", str(dirs["eval"]), *SMALL_SETTINGS]) == 0
    annotation, reference = write_spike_orf(root)
    assert main([
        *evaluate, *checkpoint, "--annotation", str(annotation), "--reference", str(reference),
        "--out", str(dirs["eval_spike"]), *SMALL_SETTINGS, "--set", "task=spike", "--set", "ks=1,10,100",
    ]) == 0
    table = root / "nt_table.csv"
    write_bloom_table([BloomRecord(m, count, 0.0) for m, count in NT_TABLE], table)
    assert main([*evaluate, "--baseline", str(table), "--out", str(dirs["eval_table"]), *SMALL_SETTINGS]) == 0
    return dirs


class TestEndToEnd:
    def test_all_stages_emit_manifests(self, pipeline_run):
        for name, d in pipeline_run.items():
            manifest = json.loads((d / "manifest.json").read_text())
            assert manifest["outputs"], name
            assert (d / "config.txt").exists()

    def test_report_exists_with_rows(self, pipeline_run):
        report = (pipeline_run["eval"] / "report.csv").read_text().splitlines()
        assert report[0] == "task,k,slice,macro_recall,weighted_recall,n_sequences"
        assert any(",all," in line for line in report[1:])

    def test_table_report_pins_a_nonzero_nucleotide_recall(self, pipeline_run):
        # the model's nucleotide report reads 0 at these few steps; the
        # table's ranks carried mutations, so its pin covers hit ranks
        rows = (pipeline_run["eval_table"] / "report.csv").read_text().splitlines()[1:]
        assert all(row.startswith("nucleotide,") for row in rows)
        assert float(rows[0].split(",")[3]) > 0 and rows[0].startswith("nucleotide,1,all,")

    def test_manifests_verify(self, pipeline_run):
        for d in pipeline_run.values():
            verify_against_manifest(d)

    def test_train_log_has_lr_endpoints(self, pipeline_run):
        lines = (pipeline_run["train"] / "train_log.csv").read_text().splitlines()
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == pytest.approx(1e-4)
        assert float(last[1]) == pytest.approx(1e-5)

    def test_data_stage_bytes_are_pinned(self, pipeline_run):
        plans = sorted(p.name for p in pipeline_run["plans"].glob("epoch_*.plan"))
        assert plans == [name for stage, name in DATA_STAGE_DIGESTS if stage == "plans"]
        for (stage, name), digest in DATA_STAGE_DIGESTS.items():
            assert sha256_file(pipeline_run[stage] / name) == digest, f"{stage}/{name}"

    def test_model_stage_bytes_are_pinned(self, pipeline_run):
        for (stage, name), digest in MODEL_STAGE_DIGESTS.items():
            assert sha256_file(pipeline_run[stage] / name) == digest, f"{stage}/{name}"

    def test_two_train_runs_write_the_same_checkpoint(self, pipeline_run, tmp_path):
        assert main([
            "train", "--dataset", str(pipeline_run["dataset"]), "--plans", str(pipeline_run["plans"]),
            "--out", str(tmp_path / "train"), *SMALL_SETTINGS,
        ]) == 0
        for name in ("checkpoint.ckpt", "train_log.csv"):
            assert (tmp_path / "train" / name).read_bytes() == (pipeline_run["train"] / name).read_bytes(), name

    def test_every_stage_records_its_timing(self, pipeline_run, tmp_path):
        # the two stages the chain leaves out run here, after it, in this
        # process; ru_maxrss is in KiB
        more = {"refine": tmp_path / "refine", "rank": tmp_path / "rank"}
        tree, table = pipeline_run["ingest"] / "tree.jsonl", pipeline_run["sim"].parent / "nt_table.csv"
        assert main(["refine-variants", "--tree", str(tree), "--out", str(more["refine"]), *SMALL_SETTINGS]) == 0
        assert main(["baseline-rank", "--table", str(table), "--out", str(more["rank"]), *SMALL_SETTINGS]) == 0
        manifests = [json.loads((d / "manifest.json").read_text()) for d in {**pipeline_run, **more}.values()]
        assert {m["stage"] for m in manifests} == {
            name[len("cmd_"):].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
        peaks = []
        for m in manifests:
            timing = m["timing"]
            assert set(timing) == {"wall_s", "cpu_s", "process_peak_rss_mb"}, m["stage"]
            assert timing["wall_s"] > 0 and timing["cpu_s"] > 0, m["stage"]
            peaks.append(timing["process_peak_rss_mb"])
        # one process ran every stage, in this order: its peak only grows
        assert 0 < peaks[0] and peaks == sorted(peaks)
        assert peaks[-1] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 0.05

    def test_train_records_its_blas_threads(self, pipeline_run):
        manifest = json.loads((pipeline_run["train"] / "manifest.json").read_text())
        assert manifest["blas_threads"] == cli._blas_threads()

    @pytest.mark.parametrize("openblas, omp, threads", [
        ("3", "5", 3), (None, "5", 5), (" 4 ", None, 4), ("0", "2", 2), ("many", None, None), (None, None, None),
    ], ids=["openblas-first", "omp", "spaces", "zero-ignored", "not-a-count", "unset"])
    def test_blas_threads_from_the_environment(self, monkeypatch, openblas, omp, threads):
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        # without a count in force, OpenBLAS runs one thread per core it may use
        assert cli._blas_threads() == (threads or len(os.sched_getaffinity(0)))

    def test_train_records_the_plans_it_read(self, pipeline_run):
        plans = json.loads((pipeline_run["plans"] / "manifest.json").read_text())["outputs"]
        inputs = json.loads((pipeline_run["train"] / "manifest.json").read_text())["inputs"]
        recorded = {name: entry for name, entry in inputs.items() if name.startswith("epoch_")}
        assert sorted(recorded) == sorted(plans) == ["epoch_000", "epoch_001"]
        for name, entry in recorded.items():
            assert entry["sha256"] == plans[name]["sha256"], name
            assert Path(entry["path"]) == pipeline_run["plans"] / plans[name]["path"]

    def test_build_dataset_is_deterministic(self, pipeline_run, tmp_path):
        out2 = tmp_path / "dataset2"
        assert main([
            "build-dataset",
            "--tree", str(pipeline_run["ingest"] / "tree.jsonl"),
            "--population", str(pipeline_run["sim"] / "population.csv"),
            "--out", str(out2), *SMALL_SETTINGS,
        ]) == 0
        for name in ("tokens.bin", "layout.txt", "weights.csv"):
            assert sha256_file(out2 / name) == sha256_file(pipeline_run["dataset"] / name), name

    def test_evaluate_rejects_foreign_layout(self, pipeline_run, tmp_path, capsys):
        foreign = tmp_path / "foreign"
        assert main([
            "build-dataset",
            "--tree", str(pipeline_run["ingest"] / "tree.jsonl"),
            "--population", str(pipeline_run["sim"] / "population.csv"),
            "--out", str(foreign), *SMALL_SETTINGS,
            "--set", "genome_length=250",
        ]) == 0
        code = main([
            "evaluate",
            "--tree", str(pipeline_run["sim"] / "tree.jsonl"),
            "--layout", str(foreign / "layout.txt"),
            "--checkpoint", str(pipeline_run["train"] / "checkpoint.ckpt"),
            "--out", str(tmp_path / "evalx"), *SMALL_SETTINGS,
        ])
        assert code == 2
        assert "hash mismatch" in capsys.readouterr().err

    def test_evaluate_bounds_contexts_by_the_checkpoint(self, pipeline_run, tmp_path):
        # trained at max_seq=23, scored at the default config's 256: contexts
        # the model cannot take are counted as too long, not passed to it
        train_dir, eval_dir = tmp_path / "train", tmp_path / "eval"
        assert main([
            "train", "--dataset", str(pipeline_run["dataset"]), "--plans", str(pipeline_run["plans"]),
            "--out", str(train_dir), *SMALL_SETTINGS, "--set", "max_seq=23",
        ]) == 0
        assert main([
            "evaluate",
            "--tree", str(pipeline_run["sim"] / "tree.jsonl"),
            "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            "--checkpoint", str(train_dir / "checkpoint.ckpt"),
            "--population", str(pipeline_run["sim"] / "population.csv"),
            "--out", str(eval_dir), *SMALL_SETTINGS,
        ]) == 0
        bounded = json.loads((eval_dir / "eval_stats.json").read_text())
        full = json.loads((pipeline_run["eval"] / "eval_stats.json").read_text())
        assert bounded["n_excluded_too_long"] > full["n_excluded_too_long"]
        assert (bounded["n_evaluated"] + bounded["n_excluded_too_long"]
                == full["n_evaluated"] + full["n_excluded_too_long"])

    def test_evaluate_refuses_an_amino_acid_table_on_the_nucleotide_task(self, pipeline_run, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("mutation,expected_count,fitness\nS:D2G,5,0\n")
        out = tmp_path / "eval"
        assert_refused(capsys, [
            "evaluate",
            "--tree", str(pipeline_run["sim"] / "tree.jsonl"),
            "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            "--baseline", str(table),
            "--out", str(out), *SMALL_SETTINGS,
        ], out, f"{table} is an amino-acid table: it scores task=spike only, not task=nucleotide")

    def test_spike_evaluate_replays_each_sequence_once(self, pipeline_run, tmp_path, monkeypatch):
        # one replay of each window candidate finds its spike steps, and
        # whether it has any: one effect_of call per private mutation
        calls = []
        effect_of = SpikeState.effect_of
        monkeypatch.setattr(SpikeState, "effect_of", lambda state, m: calls.append(m) or effect_of(state, m))
        annotation, reference = write_spike_orf(tmp_path)
        tree = pipeline_run["sim"] / "tree.jsonl"
        out = tmp_path / "eval_spike"
        assert main([
            "evaluate", "--tree", str(tree), "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            "--population", str(pipeline_run["sim"] / "population.csv"),
            "--checkpoint", str(pipeline_run["train"] / "checkpoint.ckpt"),
            "--annotation", str(annotation), "--reference", str(reference),
            "--out", str(out), *SMALL_SETTINGS, "--set", "task=spike", "--set", "ks=1,10,100",
        ]) == 0
        assert (out / "report.csv").read_bytes() == (pipeline_run["eval_spike"] / "report.csv").read_bytes()
        assert len(calls) == sum(len(t.sequence_mutations) for t in window_candidates(tree)) == 76

    @pytest.mark.parametrize("no_location", [False, True], ids=["located", "no-location"])
    @pytest.mark.parametrize("source", ["checkpoint", "baseline"])
    def test_evaluate_ranks_through_rank_at_positions(self, pipeline_run, tmp_path, monkeypatch,
                                                      source, no_location):
        # the benchmark's evaluation.rank_self_s times rank_at_positions, so
        # the stage must rank through it; without location, every context's
        # location tokens are the unknown token
        cls = evaluation.ModelPredictor if source == "checkpoint" else evaluation.StaticPredictor
        rank = vars(cls)["rank_at_positions"]
        calls = []

        def spy(self, contexts, positions, k):
            calls.append(contexts)
            return rank(self, contexts, positions, k)

        monkeypatch.setattr(cls, "rank_at_positions", spy)
        table = tmp_path / "table.csv"
        table.write_text("mutation,expected_count,fitness\nC10T,5,0\n")
        sources = {"checkpoint": pipeline_run["train"] / "checkpoint.ckpt", "baseline": table}
        assert main([
            "evaluate",
            "--tree", str(pipeline_run["sim"] / "tree.jsonl"),
            "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            f"--{source}", str(sources[source]),
            *(["--no-location"] if no_location else []),
            "--out", str(tmp_path / "eval"), *SMALL_SETTINGS,
        ]) == 0
        assert calls
        unknown = Tokenizer.load(pipeline_run["dataset"] / "layout.txt").unknown_token
        locations = {tuple(c[:2]) for contexts in calls for c in contexts}
        assert (locations == {(unknown, unknown)}) == no_location

    def test_predict_command(self, pipeline_run, tmp_path):
        out = tmp_path / "pred"
        assert main([
            "predict",
            "--checkpoint", str(pipeline_run["train"] / "checkpoint.ckpt"),
            "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            "--country", "Alandia",
            "--date", "2024-06-05",
            "--variant-muts", "10T,20G",
            "--observed", "30C",
            "-k", "5",
            "--out", str(out), *SMALL_SETTINGS,
        ]) == 0
        rows = (out / "ranked.csv").read_text().splitlines()
        assert rows[0] == "rank,mutation,token,score"
        assert len(rows) == 6

    def test_predict_no_location_matches_unknown_prefix(self, pipeline_run, tmp_path):
        args_common = [
            "--checkpoint", str(pipeline_run["train"] / "checkpoint.ckpt"),
            "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            "--date", "2024-06-05", "--variant-muts", "10T", "-k", "5",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["predict", *args_common, "--country", "Alandia", "--no-location",
                     "--out", str(a), *SMALL_SETTINGS]) == 0
        assert main(["predict", *args_common, "--out", str(b), *SMALL_SETTINGS]) == 0
        assert (a / "ranked.csv").read_text() == (b / "ranked.csv").read_text()

    @pytest.mark.parametrize("flags, message", [
        (["--variant-muts", "10T,zz"], "--variant-muts: malformed mutation string 'zz'"),
        (["--observed", "999T"], "--observed: site 999 out of range 1..200"),
        (["--date", "2024-13-01"], "--date: month 13 out of range"),
        (["--date", "2031-01-01"], "--date: year 2031 out of layout range 2019..2025"),
        # 5 prefix tokens and 252 mutations against the checkpoint's 256
        (["--variant-muts", ",".join(f"{site}{to}" for site in range(1, 127) for to in "AT")],
         "--variant-muts and --observed give a context of 257 tokens,"
         " more than the checkpoint's max_seq 256"),
    ], ids=["malformed-mutation", "site-outside-layout", "malformed-date", "date-outside-layout",
            "context-too-long"])
    def test_predict_refuses_a_flag_it_cannot_use(self, pipeline_run, tmp_path, capsys, flags, message):
        out = tmp_path / "pred"
        assert_refused(capsys, [
            "predict",
            "--checkpoint", str(pipeline_run["train"] / "checkpoint.ckpt"),
            "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            *flags, "--out", str(out), *SMALL_SETTINGS,
        ], out, message)


class TestMalformedTree:
    @pytest.mark.parametrize("stage", ["ingest", "refine-variants", "build-dataset"])
    def test_reports_the_file_and_line(self, tmp_path, capsys, stage):
        tree = tmp_path / "tree.jsonl"
        tree.write_text('{"id":"root","parent":null}\n{"id":"x","parent":"ghost"}\n')
        out = tmp_path / "out"
        assert main([stage, "--tree", str(tree), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tree}: line 2: node 'x' has dangling parent 'ghost'\n"
        assert not out.exists()

    def test_refine_variants_refuses_a_non_string_variant(self, tmp_path, capsys):
        tree = tmp_path / "tree.jsonl"
        tree.write_text('{"id":"root","parent":null,"variant":"V1"}\n'
                        '{"id":"x","parent":"root","variant":5}\n')
        out = tmp_path / "out"
        assert main(["refine-variants", "--tree", str(tree), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tree}: line 2: 'variant' is not a string: 5\n"
        assert not out.exists()


# (stage arguments, the bad file's name and text, or None for no file, and
# the refusal after "<file>: "); {file} is the bad file, and the other
# placeholders are ``pipeline_run`` paths
MODEL = ["--layout", "{layout}", "--checkpoint", "{checkpoint}"]
OUTSIDE_FILE_CASES = {
    "population-without-region-key": (
        ["build-dataset", "--tree", "{tree}", "--population", "{file}"],
        "pop.csv", "country,population\nAlandia,1000\n", "no 'region_key' column"),
    "population-not-above-zero": (
        ["build-dataset", "--tree", "{tree}", "--population", "{file}"],
        "pop.csv", "region_key,population\nAlandia,0\n",
        "row 'Alandia', column 'population': expected a finite number above 0, got '0'"),
    "empty-table": (
        ["baseline-rank", "--table", "{file}"],
        "table.csv", "mutation,expected_count,fitness\n", "empty baseline table"),
    "non-numeric-count": (
        ["baseline-rank", "--table", "{file}"],
        "table.csv", "mutation,expected_count,fitness\nC10T,abc,0\n", "could not convert string to float: 'abc'"),
    "non-numeric-baseline-fitness": (
        ["evaluate", "--tree", "{tree}", "--layout", "{layout}", "--baseline", "{file}"],
        "table.csv", "mutation,expected_count,fitness\nC10T,1,x\n", "could not convert string to float: 'x'"),
    "non-finite-count": (
        ["baseline-rank", "--table", "{file}"],
        "table.csv", "mutation,expected_count,fitness\nC10T,inf,0\n",
        "row 'C10T', column 'expected_count': expected a finite number, got 'inf'"),
    "nextstrain-not-json": (
        ["refine-variants", "--tree", "{tree}", "--nextstrain", "{file}"],
        "ns.json", "V: 150-152\n", "Expecting value: line 1 column 1 (char 0)"),
    "nextstrain-not-an-object": (
        ["refine-variants", "--tree", "{tree}", "--nextstrain", "{file}"],
        "ns.json", '["V"]\n', "not a JSON object of variant definitions"),
    "freq-non-integer-site": (
        ["refine-variants", "--tree", "{tree}", "--freq", "{file}"],
        "freq.csv", "variant,site,A,T,C,G,Del\nV,ten,1,0,0,0,0\n", "invalid literal for int() with base 10: 'ten'"),
    "freq-non-finite-count": (
        ["refine-variants", "--tree", "{tree}", "--freq", "{file}"],
        "freq.csv", "variant,site,A,T,C,G,Del\nV,10,nan,0,0,0,0\n",
        "row 'V,10', column 'A': expected a finite number, got 'nan'"),
    "annotation-without-genome-row": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--annotation", "{file}", "--set", "task=spike"],
        "orfs.tsv", "S\t21563\t25384\n", "annotation missing the 'genome' length row"),
    "annotation-genome-row-repeated": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--annotation", "{file}", "--set", "task=spike"],
        "orfs.tsv", "genome\t1\t200\ngenome\t1\t500\n", "line 2: row 'genome' repeated, first on line 1"),
    "annotation-orf-row-repeated": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--annotation", "{file}", "--set", "task=spike"],
        "orfs.tsv", "genome\t1\t29903\nS\t21563\t25384\n\nS\t21560\t25384\n",
        "line 4: row 'S' repeated, first on line 2"),
    "annotation-row-of-two-fields": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--annotation", "{file}", "--set", "task=spike"],
        "orfs.tsv", "genome\t29903\n", "line 1: expected name, start and end separated by tabs, got 2 fields"),
    "annotation-non-integer-coordinate": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--annotation", "{file}", "--set", "task=spike"],
        "orfs.tsv", "genome\t1\t29903\nS\t21563\tend\n",
        "line 2: start and end must be integers, got '21563' and 'end'"),
    "reference-record-repeated": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--reference", "{file}", "--set", "task=spike"],
        "ref.fasta", ">S\nATG\n>S second\nATGTAA\n", "line 3: record 'S' repeated, first on line 1"),
    "missing-tree": (
        ["ingest", "--tree", "{file}"], "absent.jsonl", None, "No such file or directory"),
    "missing-reference": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--reference", "{file}", "--set", "task=spike"],
        "absent.fasta", None, "No such file or directory"),
}

# (the text of a definitions file its manifest lists, and the refusal after
# "<file>: ")
DEFINITIONS_CASES = {
    "not-an-object": ("[1, 2]", "not a JSON object of variant definitions"),
    "variant-not-an-object": ('{"V1": 3}', "variant 'V1': not an object: 3"),
    "mutation-not-a-string": ('{"V1": {"muts": [5]}}', "variant 'V1': not a string: 5"),
    "malformed-mutation": ('{"V1": {"muts": ["11439T", "zz"]}}', "variant 'V1': malformed mutation string 'zz'"),
    "muts-not-a-list": ('{"V1": {"muts": "11439T"}}', "variant 'V1': 'muts' is not a list: '11439T'"),
    "no-muts": ('{"V1": {"recombinant": false}}', "variant 'V1': no 'muts' list"),
}

# (stage arguments, then the refusal); the config cases' --set flags come
# after SMALL_SETTINGS, so they override it
# (the text of a --nextstrain file, and the refusal after "<file>: ")
NEXTSTRAIN_CASES = {
    "variant-not-an-object": ('{"V": 3}', "variant 'V': not an object: 3"),
    "sub-not-a-string": ('{"V": {"subs": [5]}}', "variant 'V': not a string: 5"),
    "subs-not-a-list": ('{"V": {"subs": "100T"}}', "variant 'V': 'subs' is not a list: '100T'"),
    "malformed-deletion": ('{"V": {"dels": ["a-b"]}}', "variant 'V': malformed deletion 'a-b'"),
    "reversed-deletion": ('{"V": {"dels": ["152-150"]}}', "variant 'V': deletion range 152-150 reversed"),
    "malformed-insertion": ('{"V": {"ins": ["x:GAG"]}}', "variant 'V': malformed insertion 'x:GAG'"),
}

CONFIG_CASES = {
    "unknown-task": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--set", "task=foo"], "config: unknown task 'foo'"),
    "unknown-schedule": (
        ["train", "--dataset", "{dataset}", "--plans", "{plans}", "--set", "schedule=foo"],
        "config: unknown schedule 'foo'"),
    "lr-end-above-lr-start": (
        ["train", "--dataset", "{dataset}", "--plans", "{plans}", "--set", "lr_end=0.1"],
        "config: lr_end must be below lr_start"),
    "no-k": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--set", "ks=,"],
        "ks: expected comma-separated integers of at least 1, got ','"),
    "k-below-one": (
        ["evaluate", "--tree", "{tree}", *MODEL, "--set", "ks=0,10"],
        "ks: expected comma-separated integers of at least 1, got '0,10'"),
    "train-cutoff-not-a-date": (
        ["build-dataset", "--tree", "{tree}", "--set", "train_cutoff=soon"],
        "train_cutoff: Invalid isoformat string: 'soon'"),
    "cutoffs-out-of-order": (
        ["build-dataset", "--tree", "{tree}", "--set", "train_cutoff=2025-01-01"],
        "config: training cutoff must precede eval cutoff"),
    "no-workers": (
        ["sample-plan", "--dataset", "{dataset}", "--set", "workers=0"], "workers: need at least one worker"),
    "predict-k-zero": (
        ["predict", *MODEL, "-k", "0"], "-k: k must be at least 1"),
    "genome-shorter-than-buckets": (
        ["simulate", "--set", "genome_length=5"], "config: genome_length must be at least n_buckets"),
    "ramp-below-one": (
        ["simulate", "--set", "synth_shift_month=2", "--set", "synth_ramp_months=0"],
        "synth_ramp_months: ramp_months must be at least 1"),
    "misspelt-boolean": (
        ["build-dataset", "--tree", "{tree}", "--set", "temporal_weighting=ture"],
        "--set 'temporal_weighting=ture': expected one of 1/true/yes/on/0/false/no/off, got 'ture'"),
    "no-heads": (
        ["train", "--dataset", "{dataset}", "--plans", "{plans}", "--set", "heads=0"],
        "config: heads must be at least 1"),
    "no-batch": (
        ["train", "--dataset", "{dataset}", "--plans", "{plans}", "--set", "batch_size=0"],
        "config: batch_size must be at least 1"),
    "no-steps": (
        ["train", "--dataset", "{dataset}", "--plans", "{plans}", "--set", "steps=0"],
        "config: steps must be at least 1"),
    "no-epochs": (
        ["sample-plan", "--dataset", "{dataset}", "--set", "epochs=0"], "epochs: need at least one epoch"),
    "lam-nan": (
        ["build-dataset", "--tree", "{tree}", "--set", "lam=nan"], "lam: expected a finite number, got nan"),
    "d2-infinite": (
        ["build-dataset", "--tree", "{tree}", "--set", "d2=inf"], "d2: expected a finite number, got inf"),
    "negative-private-rate": (
        ["simulate", "--set", "synth_private_mut_rate=-1"], "config: private_mut_rate must not be negative"),
    "negative-depth": (
        ["simulate", "--set", "synth_depth=-1"], "config: depth must not be negative"),
    "variant-prob-above-one": (
        ["simulate", "--set", "synth_variant_prob=2"], "config: variant_prob must be in [0, 1]"),
}


class TestRefusals:
    """Input a stage cannot use is refused through one path: one
    ``error:`` line on stderr naming the file, flag or config key, exit
    status 2, and no --out directory."""

    @staticmethod
    def paths(pipeline_run, **extra) -> dict[str, str]:
        return {
            "tree": str(pipeline_run["ingest"] / "tree.jsonl"),
            "layout": str(pipeline_run["dataset"] / "layout.txt"),
            "checkpoint": str(pipeline_run["train"] / "checkpoint.ckpt"),
            "dataset": str(pipeline_run["dataset"]),
            "plans": str(pipeline_run["plans"]),
            **extra,
        }

    @pytest.mark.parametrize("case", OUTSIDE_FILE_CASES)
    def test_outside_file_refused_by_name(self, pipeline_run, tmp_path, capsys, case):
        argv, name, text, message = OUTSIDE_FILE_CASES[case]
        bad = tmp_path / name
        if text is not None:
            bad.write_text(text)
        paths = self.paths(pipeline_run, file=str(bad))
        out = tmp_path / "out"
        assert_refused(capsys, [*(a.format(**paths) for a in argv), *SMALL_SETTINGS, "--out", str(out)],
                       out, f"{bad}: {message}")

    @pytest.mark.parametrize("case", DEFINITIONS_CASES)
    def test_malformed_definitions_refused_by_variant(self, pipeline_run, tmp_path, capsys, case):
        text, message = DEFINITIONS_CASES[case]
        defs = tmp_path / "defs" / "definitions.json"
        defs.parent.mkdir()
        defs.write_text(text)
        write_manifest(defs.parent, "refine-variants", PipelineConfig(), {}, {"definitions": defs})
        table = tmp_path / "table.csv"
        table.write_text("mutation,expected_count,fitness\nC10T,5,0\n")
        paths = self.paths(pipeline_run)
        out = tmp_path / "out"
        assert_refused(capsys, [
            "evaluate", "--tree", paths["tree"], "--layout", paths["layout"], "--baseline", str(table),
            "--definitions", str(defs), *SMALL_SETTINGS, "--out", str(out),
        ], out, f"{defs}: {message}")

    @pytest.mark.parametrize("case", NEXTSTRAIN_CASES)
    def test_malformed_nextstrain_refused_by_variant(self, pipeline_run, tmp_path, capsys, case):
        text, message = NEXTSTRAIN_CASES[case]
        ns = tmp_path / "ns.json"
        ns.write_text(text)
        out = tmp_path / "out"
        assert_refused(capsys, [
            "refine-variants", "--tree", self.paths(pipeline_run)["tree"], "--nextstrain", str(ns),
            *SMALL_SETTINGS, "--out", str(out),
        ], out, f"{ns}: {message}")

    @pytest.mark.parametrize("case", CONFIG_CASES)
    def test_config_value_refused_by_name(self, pipeline_run, tmp_path, capsys, case):
        argv, message = CONFIG_CASES[case]
        paths = self.paths(pipeline_run)
        out = tmp_path / "out"
        stage, *flags = (a.format(**paths) for a in argv)
        assert_refused(capsys, [stage, *SMALL_SETTINGS, *flags, "--out", str(out)], out, message)

    def test_non_finite_value_in_a_config_file_refused_by_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{CONFIG_HEADER}\nlr_start -inf\n")
        out = tmp_path / "out"
        assert_refused(capsys, ["simulate", "--config", str(cfg), "--out", str(out)], out,
                       "lr_start: expected a finite number, got -inf")

    def test_evaluate_refuses_when_every_sequence_is_too_long(self, pipeline_run, tmp_path, capsys):
        stats = json.loads((pipeline_run["eval"] / "eval_stats.json").read_text())
        n = stats["n_evaluated"] + stats["n_excluded_too_long"]
        paths = self.paths(pipeline_run)
        out = tmp_path / "out"
        assert_refused(capsys, [
            "evaluate", "--tree", paths["tree"], "--layout", paths["layout"],
            "--checkpoint", paths["checkpoint"], *SMALL_SETTINGS, "--set", "max_seq=0", "--out", str(out),
        ], out, f"max_seq: all {n} evaluation sequences have a context longer than 0 tokens,"
                " so none is evaluated")

    @pytest.mark.parametrize("task", ["nucleotide", "spike"])
    def test_evaluate_refuses_an_empty_evaluation_set(self, pipeline_run, tmp_path, capsys, task):
        paths = self.paths(pipeline_run)
        if task == "nucleotide":
            # no sequence collected after the training cutoff is released by the next day
            flags = ["--set", "eval_cutoff=2024-07-16"]
        else:
            # a one-codon ORF and its stop on sites 47-52, which no window
            # candidate's private mutation touches: none has a spike step
            annotation, reference = tmp_path / "orf.tsv", tmp_path / "orf.fasta"
            annotation.write_text("genome\t1\t200\nS\t47\t52\n")
            reference.write_text(">S\nATGTAA\n")
            window = window_candidates(Path(paths["tree"]))
            assert window and not any(47 <= m.site <= 52 for t in window for m in t.sequence_mutations)
            flags = ["--annotation", str(annotation), "--reference", str(reference), "--set", "task=spike"]
        out = tmp_path / "out"
        assert_refused(capsys, [
            "evaluate", "--tree", paths["tree"], "--layout", paths["layout"], "--checkpoint", paths["checkpoint"],
            *SMALL_SETTINGS, *flags, "--out", str(out),
        ], out, "evaluation set is empty for the configured cutoffs")

    @pytest.mark.parametrize("genome", [29903, 500])
    def test_evaluate_refuses_an_annotation_for_another_genome(self, pipeline_run, tmp_path, capsys, genome):
        # the bundled annotation's genome, or the 200-site ORF's file on a
        # 500-site genome, against the 200-site layout
        flags, annotation = [], DEFAULT_ANNOTATION
        if genome == 500:
            annotation, reference = write_spike_orf(tmp_path)
            annotation.write_text(annotation.read_text().replace("genome\t1\t200", "genome\t1\t500"))
            flags = ["--annotation", str(annotation), "--reference", str(reference)]
        paths = self.paths(pipeline_run)
        out = tmp_path / "out"
        assert_refused(capsys, [
            "evaluate", "--tree", paths["tree"], "--layout", paths["layout"], "--checkpoint", paths["checkpoint"],
            *SMALL_SETTINGS, *flags, "--set", "task=spike", "--out", str(out),
        ], out, f"{annotation}: annotates a genome of {genome} sites, but the layout {paths['layout']} has 200")

    @pytest.mark.parametrize("stage", ["build-dataset", "evaluate"])
    def test_tree_site_beyond_the_layout_refused_by_tree(self, pipeline_run, tmp_path, capsys, stage):
        # a 500-site tree against a 200-site layout: the sequence named has
        # a mutation at the site named, and the site has no token
        assert main(["simulate", "--set", "genome_length=500", "--set", "synth_depth=5",
                     "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        tree, table = tmp_path / "sim" / "tree.jsonl", tmp_path / "table.csv"
        table.write_text("mutation,expected_count,fitness\nC10T,5,0\n")
        argv = {
            "build-dataset": ["build-dataset", *SMALL_SETTINGS],
            "evaluate": ["evaluate", "--layout", self.paths(pipeline_run)["layout"], "--baseline", str(table),
                         *SMALL_SETTINGS, "--set", "train_cutoff=2024-03-01", "--set", "eval_cutoff=2030-01-01"],
        }[stage]
        out = tmp_path / "out"
        assert main([*argv, "--tree", str(tree), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        found = re.fullmatch(rf"error: {re.escape(str(tree))}: sequence '(\S+)' has a mutation at site (\d+),"
                             r" beyond the layout's genome of 200 sites\n", err)
        assert found, err
        name, site = found[1], int(found[2])
        [trajectory] = [t for t in extract_all_trajectories(parse_tree(tree)) if t.meta.name == name]
        assert site > 200 and site in {m.site for m in trajectory.all_mutations}
        assert not out.exists()

    def test_unknown_task_refused_before_the_tree_is_read(self, pipeline_run, tmp_path, capsys):
        tree = tmp_path / "tree.jsonl"
        tree.write_text('{"id":"root","parent":null}\n{"id":"x","parent":"ghost"}\n')
        paths = self.paths(pipeline_run)
        out = tmp_path / "out"
        assert_refused(capsys, [
            "evaluate", "--tree", str(tree), "--layout", paths["layout"], "--checkpoint", paths["checkpoint"],
            *SMALL_SETTINGS, "--set", "task=foo", "--out", str(out),
        ], out, "config: unknown task 'foo'")

    @pytest.mark.parametrize("stage", ["predict", "evaluate"])
    def test_checkpoint_changed_since_train_refused_as_stale(self, pipeline_run, tmp_path, capsys, stage):
        train = tmp_path / "train"
        shutil.copytree(pipeline_run["train"], train)
        ckpt = train / "checkpoint.ckpt"
        flip_head_weight_byte(pipeline_run["train"] / "checkpoint.ckpt", ckpt)
        recorded = sha256_file(pipeline_run["train"] / "checkpoint.ckpt")
        paths = self.paths(pipeline_run, checkpoint=str(ckpt))
        argv = {"predict": ["predict", "--date", "2024-06-05"], "evaluate": ["evaluate", "--tree", paths["tree"]]}
        out = tmp_path / "out"
        assert_refused(capsys, [
            *argv[stage], "--checkpoint", str(ckpt), "--layout", paths["layout"],
            *SMALL_SETTINGS, "--out", str(out),
        ], out, f"artifact 'checkpoint' at {ckpt} is stale:"
                f" recorded {recorded[:12]}, found {sha256_file(ckpt)[:12]}")

    @pytest.mark.parametrize("damage", ["empty", "half", "flipped-data-byte"])
    def test_damaged_checkpoint_refused_by_name(self, pipeline_run, tmp_path, capsys, damage):
        shutil.copytree(pipeline_run["train"], tmp_path / "train")
        ckpt = damage_checkpoint(tmp_path / "train", damage)
        entry = "param/head.weight.npy"
        if damage == "flipped-data-byte":
            message = f"checkpoint entry {entry}: Bad CRC-32 for file {entry!r}"
        else:
            message = "not a readable zip archive: File is not a zip file"
        paths = self.paths(pipeline_run)
        out = tmp_path / "out"
        assert_refused(capsys, [
            "predict", "--checkpoint", str(ckpt), "--layout", paths["layout"], "--date", "2024-06-05",
            *SMALL_SETTINGS, "--out", str(out),
        ], out, f"{ckpt}: {message}")

    def test_checkpoint_meta_without_layout_hash_refused_by_name(self, pipeline_run, tmp_path, capsys):
        # the train manifest is rewritten to match, so the loader must refuse it
        train = tmp_path / "train"
        shutil.copytree(pipeline_run["train"], train)
        ckpt = train / "checkpoint.ckpt"
        with zipfile.ZipFile(pipeline_run["train"] / "checkpoint.ckpt") as zin, \
                zipfile.ZipFile(ckpt, "w") as zout:
            for info in zin.infolist():
                data = zin.read(info)
                if info.filename == "meta.json":
                    meta = json.loads(data)
                    del meta["layout_hash"]
                    data = json.dumps(meta).encode()
                zout.writestr(info, data)
        manifest = json.loads((train / "manifest.json").read_text())
        manifest["outputs"]["checkpoint"]["sha256"] = sha256_file(ckpt)
        (train / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert_refused(capsys, [
            "predict", "--checkpoint", str(ckpt), "--layout", self.paths(pipeline_run)["layout"],
            "--date", "2024-06-05", *SMALL_SETTINGS, "--out", str(out),
        ], out, f"{ckpt}: checkpoint entry meta.json: layout_hash is not a string: None")

    def test_unreadable_manifest_refused_by_name(self, tmp_path, capsys):
        tree = tmp_path / "tree.jsonl"
        tree.write_text('{"id":"root","parent":null}\n')
        manifest = tmp_path / "manifest.json"
        manifest.write_text("not json\n")
        out = tmp_path / "out"
        assert_refused(capsys, ["ingest", "--tree", str(tree), "--out", str(out)], out,
                       f"{manifest}: not a manifest: Expecting value: line 1 column 1 (char 0)")

    @pytest.mark.parametrize("manifest, message", [
        ({}, "not a manifest: no 'outputs' object"),
        ({"outputs": []}, "not a manifest: no 'outputs' object"),
        ({"outputs": {"tree": {"sha256": "0" * 64}}}, "output 'tree' needs 'path' and 'sha256' strings"),
        ({"outputs": {"tree": {"path": "tree.jsonl"}}}, "output 'tree' needs 'path' and 'sha256' strings"),
    ], ids=["no-outputs", "outputs-not-an-object", "entry-without-path", "entry-without-sha256"])
    def test_malformed_manifest_refused_by_name(self, tmp_path, capsys, manifest, message):
        tree = tmp_path / "tree.jsonl"
        tree.write_text('{"id":"root","parent":null}\n')
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert_refused(capsys, ["ingest", "--tree", str(tree), "--out", str(out)], out,
                       f"{tmp_path / 'manifest.json'}: {message}")

    @pytest.mark.parametrize("argv, message", [
        (["baseline-rank", "--table", "{table}", "-k", "0"], "-k: k must be at least 1"),
        (["baseline-rank", "--table", "{table}", "--set", "baseline_mode=foo"],
         "baseline_mode: unknown baseline mode 'foo'"),
        (["evaluate", "--tree", "{tree}", "--layout", "{layout}", "--baseline", "{table}",
          "--set", "baseline_mode=foo"], "baseline_mode: unknown baseline mode 'foo'"),
    ], ids=["baseline-rank-k-zero", "baseline-rank-mode", "evaluate-baseline-mode"])
    def test_ranking_flag_refused_by_name_not_the_table(self, pipeline_run, tmp_path, capsys, argv, message):
        table = tmp_path / "table.csv"
        table.write_text("mutation,expected_count,fitness\nC10T,5,0\n")
        paths = self.paths(pipeline_run, table=str(table))
        out = tmp_path / "out"
        stage, *flags = (a.format(**paths) for a in argv)
        assert_refused(capsys, [stage, *SMALL_SETTINGS, *flags, "--out", str(out)], out, message)

    def test_missing_config_file_refused_by_name(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert_refused(capsys, ["simulate", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)],
                       out, f"{tmp_path / 'absent.cfg'}: No such file or directory")

    def test_cli_has_one_refusal_path(self):
        # a refusal is a Refused raised anywhere and caught once, in main
        src = Path(cli.__file__).parent
        assert [p.name for p in src.rglob("*.py") if "SystemExit" in p.read_text()] == []
        module = ast.parse(Path(cli.__file__).read_text())
        [main_def] = [n for n in module.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
        handlers = [h for n in ast.walk(main_def) if isinstance(n, ast.Try) for h in n.handlers]
        assert [ast.unparse(h.type) for h in handlers] == ["Refused"]

    def test_every_public_definition_is_reached_outside_the_tests(self):
        # a top-level def or class that only tests call is a second path to
        # keep: the package must name it, a script or the benchmark must,
        # or the acceptance tests must import it
        root = Path(__file__).resolve().parents[1]
        modules = {p: ast.parse(p.read_text()) for p in sorted(Path(cli.__file__).parent.rglob("*.py"))}
        field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
        named = {
            getattr(n, field[type(n)])
            for module in modules.values() for n in ast.walk(module) if type(n) in field
        }
        outside = "\n".join(p.read_text() for d in ("scripts", "perfbench") for p in sorted((root / d).rglob("*.py")))
        acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text())
        imported = {a.name for n in ast.walk(acceptance) if isinstance(n, ast.ImportFrom) for a in n.names}
        unreached = [
            f"{p.name}:{n.name}"
            for p, module in modules.items() for n in module.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
            and n.name not in named | imported and not re.search(rf"\b{n.name}\b", outside)
        ]
        assert unreached == []

    def test_every_defaulted_parameter_is_passed_somewhere(self):
        # a default that no call overrides is a knob without a caller: a
        # constant, or nothing. Calls are matched by name; cls(...) in a
        # classmethod calls its class, and *args or **kwargs may pass anything
        root = Path(__file__).resolve().parents[1]
        package = sorted(Path(cli.__file__).parent.rglob("*.py"))
        callers = package + [p for d in ("scripts", "perfbench", "tests") for p in sorted((root / d).rglob("*.py"))]
        defaulted = []  # (callee, parameter, positional index or None)
        for path in package:
            for node in ast.parse(path.read_text()).body:
                skip = 0
                if isinstance(node, ast.ClassDef):
                    init = [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
                    if not init:
                        continue
                    name, args, skip = node.name, init[0].args, 1
                elif isinstance(node, ast.FunctionDef):
                    name, args = node.name, node.args
                else:
                    continue
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                defaulted += [(name, a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
                defaulted += [(name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        passed = collections.defaultdict(set)  # callee -> keywords, positional indexes, "*" or "**"
        for path in callers:
            tree = ast.parse(path.read_text())
            owner = {}
            for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and any(
                            isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list):
                        owner.update({id(n): cls.name for n in ast.walk(fn)})
            for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                if callee == "cls":
                    callee = owner.get(id(call), callee)
                passed[callee] |= {"*" if isinstance(a, ast.Starred) else i for i, a in enumerate(call.args)}
                passed[callee] |= {"**" if k.arg is None else k.arg for k in call.keywords}
        uncalled = [
            f"{name}({param}=)" for name, param, index in defaulted
            if not passed[name] & {param, index, "*", "**"}
        ]
        assert uncalled == []


class TestBaselineRank:
    def test_nt_table(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(
            "mutation,expected_count,fitness\nC10T,5,0\nC20G,1,2\nC30A,3,0.5\n"
        )
        out = tmp_path / "rank"
        assert main([
            "baseline-rank", "--table", str(table), "-k", "3",
            "--out", str(out), "--set", "genome_length=200",
        ]) == 0
        rows = (out / "ranked.csv").read_text().splitlines()
        assert rows[0] == "rank,mutation,score"
        assert rows[1].startswith("1,20G")  # 1*e^2 = 7.39 beats 5


class TestRefineVariantsCommand:
    def test_refine(self, tmp_path):
        tree = tmp_path / "tree.jsonl"
        tree.write_text(
            '{"id":"root","parent":null}\n'
            '{"id":"a","parent":"root","muts":["100T"],"variant":"V"}\n'
            '{"id":"leaf","parent":"a","muts":["200G"]}\n'
        )
        ns = tmp_path / "ns.json"
        ns.write_text('{"V":{"dels":["150-152"]}}')
        out = tmp_path / "defs"
        assert main([
            "refine-variants", "--tree", str(tree), "--nextstrain", str(ns),
            "--out", str(out),
        ]) == 0
        defs = json.loads((out / "definitions.json").read_text())
        assert defs["V"]["muts"] == ["100T", "150-", "151-", "152-"]


def flip_head_weight_byte(src: Path, dst: Path) -> None:
    """Re-zip a checkpoint with the last byte of ``param/head.weight.npy``
    flipped: the copy is still a well-formed checkpoint."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            data = zin.read(info)
            if info.filename == "param/head.weight.npy":
                data = data[:-1] + bytes([data[-1] ^ 0x01])
            zout.writestr(info, data)


def damage_checkpoint(train: Path, damage: str) -> Path:
    """Damage the checkpoint in the ``train`` stage directory: ``empty`` or
    ``half`` of it, or ``flipped-data-byte``, the last data byte of
    ``param/head.weight.npy`` flipped. The manifest is rewritten to match,
    so only the loader can refuse it. Returns the checkpoint's path."""
    ckpt = train / "checkpoint.ckpt"
    raw = bytearray(ckpt.read_bytes())
    if damage == "flipped-data-byte":
        with zipfile.ZipFile(ckpt) as zf:
            data = zf.read("param/head.weight.npy")
        raw[bytes(raw).index(data) + len(data) - 1] ^= 0x01
    else:
        raw = raw[: len(raw) // 2 if damage == "half" else 0]
    ckpt.write_bytes(bytes(raw))
    manifest = json.loads((train / "manifest.json").read_text())
    manifest["outputs"]["checkpoint"]["sha256"] = sha256_file(ckpt)
    (train / "manifest.json").write_text(json.dumps(manifest))
    return ckpt


class TestUpstreamVerification:
    @pytest.mark.parametrize("stage", ["predict", "evaluate"])
    def test_refuses_checkpoint_with_a_flipped_byte(self, pipeline_run, tmp_path, capsys, stage):
        train = tmp_path / "train"
        shutil.copytree(pipeline_run["train"], train)
        ckpt = train / "checkpoint.ckpt"
        flip_head_weight_byte(pipeline_run["train"] / "checkpoint.ckpt", ckpt)
        load_checkpoint(ckpt)  # well formed: only the train manifest can tell
        argv = {
            "predict": ["predict", "--date", "2024-06-05"],
            "evaluate": ["evaluate", "--tree", str(pipeline_run["sim"] / "tree.jsonl")],
        }[stage]
        out = tmp_path / "out"
        code = main([
            *argv, "--checkpoint", str(ckpt),
            "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            "--out", str(out), *SMALL_SETTINGS,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "artifact 'checkpoint'" in err and str(ckpt) in err
        assert not (out / "ranked.csv").exists() and not (out / "report.csv").exists()

    def test_build_dataset_refuses_stale_definitions(self, pipeline_run, tmp_path, capsys):
        defs = tmp_path / "defs"
        assert main([
            "refine-variants", "--tree", str(pipeline_run["ingest"] / "tree.jsonl"),
            "--out", str(defs), *SMALL_SETTINGS,
        ]) == 0
        path = defs / "definitions.json"
        path.write_text(path.read_text() + "\n")
        out = tmp_path / "ds"
        code = main([
            "build-dataset", "--tree", str(pipeline_run["ingest"] / "tree.jsonl"),
            "--definitions", str(path), "--out", str(out), *SMALL_SETTINGS,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "artifact 'definitions'" in err and str(path) in err and "stale" in err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["build-dataset", "evaluate"])
    def test_refuses_tree_edited_after_ingest(self, pipeline_run, tmp_path, capsys, stage):
        ingest = tmp_path / "ingest"
        shutil.copytree(pipeline_run["ingest"], ingest)
        tree = ingest / "tree.jsonl"
        # drop the last node: still a well-formed tree, so only the ingest
        # manifest can tell
        lines = tree.read_text().splitlines(keepends=True)
        tree.write_text("".join(lines[:-1]))
        model = [
            "--checkpoint", str(pipeline_run["train"] / "checkpoint.ckpt"),
            "--layout", str(pipeline_run["dataset"] / "layout.txt"),
        ]
        out = tmp_path / "out"
        code = main([
            stage, "--tree", str(tree), *(model if stage == "evaluate" else []),
            "--out", str(out), *SMALL_SETTINGS,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "artifact 'tree'" in err and str(tree) in err and "stale" in err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["predict", "build-dataset"])
    def test_refuses_layout_its_manifest_does_not_list(self, pipeline_run, tmp_path, capsys, stage):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline_run["dataset"], ds)
        layout = ds / "layout_copy.txt"
        shutil.copy(ds / "layout.txt", layout)
        argv = {
            "predict": ["predict", "--checkpoint", str(pipeline_run["train"] / "checkpoint.ckpt")],
            "build-dataset": ["build-dataset", "--tree", str(pipeline_run["ingest"] / "tree.jsonl")],
        }[stage]
        out = tmp_path / "out"
        code = main([*argv, "--layout", str(layout), "--out", str(out), *SMALL_SETTINGS])
        assert code == 2
        err = capsys.readouterr().err
        assert str(layout) in err and "not listed" in err
        assert not out.exists()

    def test_train_refuses_tampered_dataset(self, pipeline_run, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline_run["dataset"], ds)
        (ds / "tokens.bin").write_bytes(b"EVTK" + b"\0" * 8)
        code = main([
            "train", "--dataset", str(ds),
            "--plans", str(pipeline_run["plans"]),
            "--out", str(tmp_path / "t"), *SMALL_SETTINGS,
        ])
        assert code == 2
        assert "artifact 'tokens'" in capsys.readouterr().err
        assert not (tmp_path / "t" / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("stage", ["sample-plan", "train"])
    def test_refuses_dataset_without_manifest(self, pipeline_run, tmp_path, capsys, stage):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline_run["dataset"], ds)
        (ds / "manifest.json").unlink()
        plans = ["--plans", str(pipeline_run["plans"])] if stage == "train" else []
        code = main([
            stage, "--dataset", str(ds), *plans,
            "--out", str(tmp_path / "out"), *SMALL_SETTINGS,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(ds) in err and "no manifest.json" in err
        assert not (tmp_path / "out").exists()

    def test_sample_plan_refuses_a_dataset_that_selects_nothing(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        ds.mkdir()
        weights = ds / "weights.csv"
        weights.write_text("name,region_key,month,r,p,p_adjusted\n")
        write_manifest(ds, "build-dataset", PipelineConfig(), {}, {"weights": weights})
        out = tmp_path / "plans"
        assert_refused(capsys, ["sample-plan", "--dataset", str(ds), "--out", str(out)], out,
                       f"sampling probabilities in {weights} sum to 0 < 1: an epoch selects nothing")

    def test_sample_plan_refuses_an_epoch_no_worker_fills(self, tmp_path, capsys):
        # the probabilities sum to 1.5, but four shards of at most two
        # sequences each sum below 1
        ds = tmp_path / "ds"
        ds.mkdir()
        weights = ds / "weights.csv"
        weights.write_text("name,region_key,month,r,p,p_adjusted\n"
                           + "".join(f"s{i},X,0,1,0.3,0.3\n" for i in range(5)))
        write_manifest(ds, "build-dataset", PipelineConfig(), {}, {"weights": weights})
        out = tmp_path / "plans"
        assert_refused(capsys, ["sample-plan", "--dataset", str(ds), "--out", str(out),
                                "--set", "workers=4", "--set", "epochs=2"], out,
                       f"epoch 0 selects nothing from {weights} with 4 workers:"
                       " no worker's shard of the probabilities sums to 1")

    def test_train_refuses_tampered_plans(self, pipeline_run, tmp_path, capsys):
        plans = tmp_path / "plans"
        shutil.copytree(pipeline_run["plans"], plans)
        plan = plans / "epoch_001.plan"
        data = bytearray(plan.read_bytes())
        data[-1] ^= 0x01
        plan.write_bytes(bytes(data))
        code = main([
            "train", "--dataset", str(pipeline_run["dataset"]), "--plans", str(plans),
            "--out", str(tmp_path / "t"), *SMALL_SETTINGS,
        ])
        assert code == 2
        assert "artifact 'epoch_001'" in capsys.readouterr().err
        assert not (tmp_path / "t" / "checkpoint.ckpt").exists()

    def test_train_rejects_token_id_outside_vocabulary(self, pipeline_run, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline_run["dataset"], ds)
        vocab_size = int(json.loads((ds / "stats.json").read_text())["vocab_size"])
        data = bytearray((ds / "tokens.bin").read_bytes())
        # walk the stream to sample 2 and give its first token an id one
        # past the vocabulary; the manifest is rewritten to match, so only
        # the id check can catch it
        offset = 12
        for _ in range(2):
            n_prefix, _, n_traj = struct.unpack_from("<III", data, offset)
            offset += 12 + 4 * (n_prefix + n_traj)
        struct.pack_into("<I", data, offset + 12, vocab_size)
        (ds / "tokens.bin").write_bytes(bytes(data))
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["outputs"]["tokens"]["sha256"] = sha256_file(ds / "tokens.bin")
        (ds / "manifest.json").write_text(json.dumps(manifest))
        verify_against_manifest(ds)
        out = tmp_path / "t"
        assert_refused(capsys, [
            "train", "--dataset", str(ds), "--plans", str(pipeline_run["plans"]),
            "--out", str(out), *SMALL_SETTINGS,
        ], out, f"{ds / 'tokens.bin'}: sample 2 has token id {vocab_size},"
                f" outside the vocabulary of {vocab_size}")

    def test_train_refuses_a_sample_longer_than_the_context(self, pipeline_run, tmp_path, capsys):
        tokens = pipeline_run["dataset"] / "tokens.bin"
        i, n = next((i, len(s.tokens)) for i, s in enumerate(read_token_stream(tokens))
                    if len(s.tokens) - 1 > 10)
        out = tmp_path / "t"
        assert_refused(capsys, [
            "train", "--dataset", str(pipeline_run["dataset"]), "--plans", str(pipeline_run["plans"]),
            "--out", str(out), *SMALL_SETTINGS, "--set", "max_seq=10",
        ], out, f"{tokens}: sample {i} has {n} tokens, a context longer than max_seq 10")

    @pytest.fixture(scope="class")
    def smaller_run(self, pipeline_run, tmp_path_factory):
        """A dataset of fewer samples than ``pipeline_run``'s, from an earlier
        training cutoff, and the plans sampled from it."""
        root = tmp_path_factory.mktemp("smaller")
        dirs = {"dataset": root / "dataset", "plans": root / "plans"}
        settings = [*SMALL_SETTINGS, "--set", "train_cutoff=2024-05-01"]
        assert main([
            "build-dataset", "--tree", str(pipeline_run["ingest"] / "tree.jsonl"),
            "--out", str(dirs["dataset"]), *settings,
        ]) == 0
        assert main(["sample-plan", "--dataset", str(dirs["dataset"]), "--out", str(dirs["plans"]), *settings]) == 0
        small, full = (len(read_token_stream(d / "tokens.bin")) for d in (dirs["dataset"], pipeline_run["dataset"]))
        assert 0 < small < full
        return dirs

    @pytest.mark.parametrize("plans_of, dataset_of", [("full", "smaller"), ("smaller", "full")])
    def test_train_refuses_plans_sampled_from_another_dataset(self, pipeline_run, smaller_run, tmp_path,
                                                              capsys, plans_of, dataset_of):
        # plans from the full dataset index past the smaller one's samples;
        # plans from the smaller one would train on the wrong samples
        runs = {"full": pipeline_run, "smaller": smaller_run}
        plans, dataset = runs[plans_of]["plans"], runs[dataset_of]["dataset"]
        drawn, weights = (
            json.loads((d / "manifest.json").read_text())[field]["weights"]["sha256"][:12]
            for d, field in ((plans, "inputs"), (dataset, "outputs"))
        )
        out = tmp_path / "t"
        assert_refused(capsys, [
            "train", "--dataset", str(dataset), "--plans", str(plans), "--out", str(out), *SMALL_SETTINGS,
        ], out, f"plans under {plans} were not sampled from the dataset {dataset}: they record"
                f" weights.csv {drawn}, the dataset's is {weights}")

    def test_train_reads_only_plans_named_by_the_manifest(self, pipeline_run, tmp_path):
        plans = tmp_path / "plans"
        shutil.copytree(pipeline_run["plans"], plans)
        # a stray plan file the manifest does not name is not trained on
        (plans / "epoch_999.plan").write_bytes(b"not a plan")
        assert main([
            "train", "--dataset", str(pipeline_run["dataset"]), "--plans", str(plans),
            "--out", str(tmp_path / "t"), *SMALL_SETTINGS,
        ]) == 0
        expected = (pipeline_run["train"] / "train_log.csv").read_text()
        assert (tmp_path / "t" / "train_log.csv").read_text() == expected


def count_hashes(monkeypatch) -> tuple[collections.Counter, collections.Counter]:
    """Counters of the files ``sha256_file`` hashes, by resolved path, and of
    the digests of the buffers ``hashlib.sha256`` is given whole, as the
    checkpoint loader gives it the mapped file."""
    paths: collections.Counter = collections.Counter()
    digests: collections.Counter = collections.Counter()
    real_file, real_sha256 = pipeline.sha256_file, hashlib.sha256

    def counting_file(path):
        paths[Path(path).resolve()] += 1
        return real_file(path)

    def counting_sha256(*args, **kwargs):
        h = real_sha256(*args, **kwargs)
        if args:
            digests[h.hexdigest()] += 1
        return h

    monkeypatch.setattr(pipeline, "sha256_file", counting_file)
    monkeypatch.setattr(cli, "sha256_file", counting_file)
    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    return paths, digests


class TestOneHashPerInput:
    def test_no_file_is_hashed_twice_within_a_stage(self, tmp_path, monkeypatch):
        counts, digests = count_hashes(monkeypatch)
        d = {name: tmp_path / name for name in
             ("sim", "ingest", "defs", "dataset", "plans", "train", "pred", "eval")}
        tree = str(d["ingest"] / "tree.jsonl")
        population = ["--population", str(d["sim"] / "population.csv")]
        definitions = ["--definitions", str(d["defs"] / "definitions.json")]
        model = ["--checkpoint", str(d["train"] / "checkpoint.ckpt"),
                 "--layout", str(d["dataset"] / "layout.txt")]
        stages = [
            ["simulate"],
            ["ingest", "--tree", str(d["sim"] / "tree.jsonl")],
            ["refine-variants", "--tree", tree],
            ["build-dataset", "--tree", tree, *population, *definitions],
            ["sample-plan", "--dataset", str(d["dataset"])],
            ["train", "--dataset", str(d["dataset"]), "--plans", str(d["plans"])],
            ["predict", *model, "--date", "2024-06-05"],
            ["evaluate", "--tree", tree, *model, *population, *definitions],
        ]
        for argv, out in zip(stages, d.values()):
            counts.clear()
            digests.clear()
            assert main([*argv, "--out", str(out), *SMALL_SETTINGS]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            for name, entry in manifest["inputs"].items():
                hashed = counts[Path(entry["path"]).resolve()] + digests[entry["sha256"]]
                assert hashed == 1, (argv[0], name)
            path, n = counts.most_common(1)[0]
            assert n == 1, (argv[0], path, n)

    @pytest.mark.parametrize("stage", ["predict", "evaluate"])
    def test_checkpoint_is_hashed_in_the_pass_that_loads_it(self, pipeline_run, tmp_path, monkeypatch, stage):
        ckpt = pipeline_run["train"] / "checkpoint.ckpt"
        digest = sha256_file(ckpt)
        counts, digests = count_hashes(monkeypatch)
        argv = {
            "predict": ["predict", "--date", "2024-06-05"],
            "evaluate": ["evaluate", "--tree", str(pipeline_run["ingest"] / "tree.jsonl")],
        }[stage]
        out = tmp_path / "out"
        assert main([
            *argv, "--checkpoint", str(ckpt), "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            "--out", str(out), *SMALL_SETTINGS,
        ]) == 0
        assert counts[ckpt.resolve()] == 0
        assert digests[digest] == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"]["checkpoint"] == {"path": str(ckpt), "sha256": digest}


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class TestCheckpointLoadBehindTheTree:
    """evaluate loads its checkpoint on a worker thread while it reads the
    tree, and joins the worker before it returns or refuses."""

    @staticmethod
    def argv(pipeline_run, out: Path, tree=None, checkpoint=None) -> list[str]:
        return [
            "evaluate",
            "--tree", str(tree or pipeline_run["sim"] / "tree.jsonl"),
            "--layout", str(pipeline_run["dataset"] / "layout.txt"),
            "--checkpoint", str(checkpoint or pipeline_run["train"] / "checkpoint.ckpt"),
            "--population", str(pipeline_run["sim"] / "population.csv"),
            "--out", str(out), *SMALL_SETTINGS,
        ]

    def test_traced_spans_are_well_nested(self, pipeline_run, tmp_path):
        # the tracer keeps one span stack for every thread, so every traced
        # function must run on this one: one run on the worker would, once
        # the load outlasts a span it overlaps, leave spans outside their
        # parents
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        opened_on = []
        tracer_open = tracer._open
        tracer._open = lambda name: opened_on.append((name, threading.get_ident())) or tracer_open(name)
        try:
            tracer.install()
            with tracer.span("cli.evaluate"):
                assert main(self.argv(pipeline_run, tmp_path / "eval")) == 0
        finally:
            tracer.uninstall()
        assert [name for name, thread in opened_on if thread != threading.get_ident()] == []
        spans = tracer.spans
        assert {"parse_tree", "Transformer.logits"} <= {name for name, *_ in spans}
        assert [name for name, _, _, parent, _ in spans if parent < 0] == ["cli.evaluate"]
        for name, start, end, parent, _ in spans[1:]:
            assert spans[parent][1] <= start <= end <= spans[parent][2], (name, spans[parent][0])
        assert (tmp_path / "eval" / "report.csv").read_bytes() == (pipeline_run["eval"] / "report.csv").read_bytes()

    @pytest.mark.parametrize("fault", ["none", "tree", "checkpoint", "tree-and-checkpoint"])
    def test_no_thread_outlives_the_stage(self, pipeline_run, tmp_path, capsys, fault):
        # with both bad, the tree is refused, as when the load followed its read
        tree = ckpt = None
        if "tree" in fault:
            tree = tmp_path / "tree.jsonl"
            tree.write_text('{"id":"root","parent":null}\n{"id":"x","parent":"ghost"}\n')
        if "checkpoint" in fault:
            shutil.copytree(pipeline_run["train"], tmp_path / "train")
            ckpt = damage_checkpoint(tmp_path / "train", "flipped-data-byte")
        entry = "param/head.weight.npy"
        refusal = {
            "none": "",
            "tree": f"error: {tree}: line 2: node 'x' has dangling parent 'ghost'\n",
            "checkpoint": f"error: {ckpt}: checkpoint entry {entry}: Bad CRC-32 for file {entry!r}\n",
        }
        refusal["tree-and-checkpoint"] = refusal["tree"]
        before = threading.active_count()
        code = main(self.argv(pipeline_run, tmp_path / "out", tree, ckpt))
        assert threading.active_count() == before
        assert code == (0 if fault == "none" else 2)
        assert capsys.readouterr().err == refusal[fault]
