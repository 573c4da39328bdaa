"""Each experiment script's ``run()`` at a tiny size."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str, monkeypatch):
    # the scripts import their shared stage helpers from their own directory
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_end_to_end(tmp_path, capsys, monkeypatch):
    script = load_script("run_end_to_end", monkeypatch)
    out = tmp_path / "e2e"
    assert script.run(["--out", str(out), "--depth", "4", "--steps", "1"]) == 0
    report = (out / "eval" / "report.csv").read_text().splitlines()
    assert report[0] == "task,k,slice,macro_recall,weighted_recall,n_sequences"
    assert "evaluate[nucleotide k=100]" in capsys.readouterr().out


# Each model's final loss and the per-slice macro recall@10 and n at depth 5
# (the smallest tree whose evaluation window is not empty) and 3 steps. The
# values are those of the earlier in-process implementation of the scripts,
# read at full precision, so the stage calls must reproduce its data, plans,
# seeds and training bit for bit.
PINNED = {
    "run_weighting_ablation": (
        ["7.6182", "7.5966"],
        """
unweighted:
         all  recall@10=0.103175  n=3
    month=67  recall@10=0.154762  n=2
    month=69  recall@10=0.000000  n=1

temporal:
         all  recall@10=0.055556  n=3
    month=67  recall@10=0.083333  n=2
    month=69  recall@10=0.000000  n=1
""",
    ),
    "run_temporal_decay": (
        ["7.7753"],
        """
         all  recall@10=0.182540  n=2
    month=68  recall@10=0.182540  n=2
""",
    ),
}


@pytest.mark.parametrize("name", ["run_weighting_ablation", "run_temporal_decay"])
def test_drift_scripts(name, tmp_path, capsys, monkeypatch):
    script = load_script(name, monkeypatch)
    assert script.run(["--out", str(tmp_path), "--depth", "5", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    losses, report = PINNED[name]
    trained = [line.split("final loss ")[1].split()[0] for line in out.splitlines() if line.startswith("train:")]
    assert trained == losses
    assert out.endswith(report)


def test_ablation_rejects_a_split_that_selects_nothing(tmp_path, capsys, monkeypatch):
    # at depth 3 the temporally adjusted probabilities sum below 1, so no
    # epoch selects a sequence; sample-plan must say so
    script = load_script("run_weighting_ablation", monkeypatch)
    assert script.run(["--out", str(tmp_path), "--depth", "3", "--steps", "1"]) == 2
    weights = tmp_path / "temporal" / "dataset" / "weights.csv"
    with open(weights, newline="") as f:
        p_sum = sum(float(row["p_adjusted"]) for row in csv.DictReader(f))
    assert p_sum < 1
    assert capsys.readouterr().err == (
        f"error: sampling probabilities in {weights} sum to {p_sum:.4g} < 1: an epoch selects nothing\n"
    )
    assert not (tmp_path / "temporal" / "plans").exists()
