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
    TrainingDiverged,
    check_samples_fit,
    load_checkpoint,
    save_checkpoint,
    train,
    write_training_log,
)
from .ranking import rank_next_mutations

__all__ = [
    "Adam",
    "ModelConfig",
    "TrainConfig",
    "TrainingDiverged",
    "Transformer",
    "batch_arrays",
    "check_samples_fit",
    "load_checkpoint",
    "masked_cross_entropy",
    "rank_next_mutations",
    "save_checkpoint",
    "train",
    "trajectory_loss",
    "write_training_log",
]
