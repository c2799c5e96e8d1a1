"""Hierarchical macro-goal / micro-action policy networks for court
trajectory imitation, with a self-contained training and evaluation
pipeline over ingested or synthetic tracking data."""

from .court import CourtSpec
from .data import Possession, RawTrack, SynthConfig, TrainingSequence
from .labels import LabeledSequence, SegmentationConfig, WeakLabels
from .model import ArchitectureConfig, HPNModel, Variant
from .rollout import RolloutConfig, RolloutResult
from .train import Stage, TrainConfig, TrainReport

__all__ = [
    "CourtSpec",
    "RawTrack", "Possession", "TrainingSequence", "SynthConfig",
    "WeakLabels", "SegmentationConfig",
    "ArchitectureConfig", "HPNModel", "Variant",
    "TrainConfig", "TrainReport", "LabeledSequence", "Stage",
    "RolloutConfig", "RolloutResult",
]

__version__ = "0.1.0"
