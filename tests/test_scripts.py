"""Smoke tests: each experiment script's ``run()`` finishes at a tiny size."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_end_to_end(tmp_path, capsys):
    script = load_script("run_end_to_end")
    out = tmp_path / "e2e"
    assert script.run(["--out", str(out), "--depth", "4", "--steps", "1"]) == 0
    report = (out / "eval" / "report.csv").read_text().splitlines()
    assert report[0] == "task,k,slice,macro_recall,weighted_recall,n_sequences"
    assert "evaluate[nucleotide k=100]" in capsys.readouterr().out


# depth 5 is the smallest tree whose evaluation window is not empty
@pytest.mark.parametrize("name", ["run_weighting_ablation", "run_temporal_decay"])
def test_drift_scripts(name, capsys):
    assert load_script(name).run(["--depth", "5", "--steps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split()[:1] == ["all"] for line in lines)


def test_ablation_rejects_a_split_that_selects_nothing():
    # at depth 3 the temporally adjusted probabilities sum below 1, so no
    # epoch selects a sequence; the plan builder must say so, not loop
    script = load_script("run_weighting_ablation")
    with pytest.raises(ValueError, match=r"sum to 0\.\d+ < 1"):
        script.run(["--depth", "3", "--steps", "1"])
    with pytest.raises(ValueError, match="sum to 0 < 1"):
        script.build_plan([], 32, seed=0)
