"""Simulator-pretrained tabular Q-learning control for a four-segment pneumatic arm.

The package root re-exports what a script needs to build an arm, pretrain a
table, run episodes and evaluate. Everything else (config loading, goal
banks, file-format errors, report types) is imported from its submodule.
"""

from .episode import NominalPlant, PerturbedPlant, PerturbedPlantConfig, RewardSpec, run_episode
from .evalrun import evaluate
from .kinematics import (
    ArmParams,
    PressureRangeError,
    SegmentConfig,
    actuation_to_config,
    arm_forward_kinematics,
    segment_transform,
    tip_batch,
    validate_pressures,
)
from .pretrain import pretrain
from .qtable import ActionSpec, HyperParams, QTable, augment, load, save
from .state import BinningSpec, GoalPose, StateEncoder, rest_tip_origin

__all__ = [
    "ArmParams",
    "PressureRangeError",
    "SegmentConfig",
    "actuation_to_config",
    "arm_forward_kinematics",
    "segment_transform",
    "tip_batch",
    "validate_pressures",
    "BinningSpec",
    "GoalPose",
    "StateEncoder",
    "rest_tip_origin",
    "ActionSpec",
    "HyperParams",
    "QTable",
    "augment",
    "load",
    "save",
    "NominalPlant",
    "PerturbedPlant",
    "PerturbedPlantConfig",
    "RewardSpec",
    "run_episode",
    "pretrain",
    "evaluate",
]

__version__ = "0.1.0"
