"""The benchmark's tracer against the program it wraps."""

import importlib.util
from pathlib import Path

import evotraj.cli  # noqa: F401  (loads every module the tracer patches)
from evotraj import evaluation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_traced_callable():
    # install() looks each traced name up on its own module or class, so a
    # function that is deleted, renamed or inherited from a base class fails
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = vars(evaluation.StaticPredictor)["rank_at_positions"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert vars(evaluation.StaticPredictor)["rank_at_positions"] is not original
    finally:
        tracer.uninstall()
    assert vars(evaluation.StaticPredictor)["rank_at_positions"] is original
