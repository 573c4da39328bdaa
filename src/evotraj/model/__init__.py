from .transformer import (
    ModelConfig,
    Transformer,
    batch_arrays,
    masked_cross_entropy,
    trajectory_loss,
)
from .training import (
    Adam,
    TrainConfig,
    TrainState,
    TrainingDiverged,
    check_samples_fit,
    load_checkpoint,
    load_model,
    save_checkpoint,
    train,
    write_training_log,
)
from .ranking import RankedPrediction, rank_next_mutations, rank_without_location, strip_location

__all__ = [
    "Adam",
    "ModelConfig",
    "RankedPrediction",
    "TrainConfig",
    "TrainState",
    "TrainingDiverged",
    "Transformer",
    "batch_arrays",
    "check_samples_fit",
    "load_checkpoint",
    "load_model",
    "masked_cross_entropy",
    "rank_next_mutations",
    "rank_without_location",
    "save_checkpoint",
    "strip_location",
    "train",
    "trajectory_loss",
    "write_training_log",
]
