"""Run configuration: one YAML file covering arm, controller, and harness knobs.

Every section mirrors a parameter dataclass field for field, with units spelled
out in the names (kPa, mm, rad). Unknown sections or fields are hard errors so
a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np
import yaml

from .episode import PerturbedPlantConfig, RewardSpec
from .kinematics import ArmParams, arm_forward_kinematics
from .qtable import ActionSpec, HyperParams, check_integers
from .state import BinningSpec, GoalPose


class ConfigError(ValueError):
    """A config file could not be parsed or failed validation."""


@dataclass(frozen=True)
class GoalSpec:
    """A goal pose as written in a config file; direction is normalized."""

    position_mm: tuple[float, float, float]
    direction: tuple[float, float, float]

    def __post_init__(self):
        pos = tuple(float(v) for v in self.position_mm)
        dirn = tuple(float(v) for v in self.direction)
        if len(pos) != 3 or len(dirn) != 3:
            raise ValueError("goal position and direction need 3 components each")
        if not all(np.isfinite(pos)) or not all(np.isfinite(dirn)):
            raise ValueError("goal position and direction must be finite")
        if np.linalg.norm(dirn) < 1e-9:
            raise ValueError("goal direction must be nonzero")
        object.__setattr__(self, "position_mm", pos)
        object.__setattr__(self, "direction", dirn)

    def to_goal(self) -> GoalPose:
        dirn = np.asarray(self.direction, dtype=float)
        return GoalPose(
            position=np.asarray(self.position_mm, dtype=float),
            direction=dirn / np.linalg.norm(dirn),
        )


@dataclass(frozen=True)
class PretrainConfig:
    quota: int = 10
    budget: int | None = None  # None: pretrain.default_sample_budget(quota)
    seed: int = 0
    max_steps: int = 200
    augment_radius: int = 1
    allow_large_run: bool = False

    def __post_init__(self):
        check_integers(quota=self.quota, seed=self.seed, max_steps=self.max_steps,
                       augment_radius=self.augment_radius)
        if not isinstance(self.allow_large_run, bool):
            raise ValueError(f"allow_large_run must be a boolean, not {self.allow_large_run!r}")
        if self.quota < 1:
            raise ValueError("quota must be >= 1")
        if self.budget is not None:
            check_integers(budget=self.budget)
            if self.budget < 1:
                raise ValueError("budget must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.augment_radius < 1:
            raise ValueError("augment_radius must be >= 1")


@dataclass(frozen=True)
class EvalConfig:
    repetitions: int = 3
    max_steps: int = 200
    seed: int = 0
    goals: tuple[GoalSpec, ...] | None = None  # None selects the default suite

    def __post_init__(self):
        check_integers(repetitions=self.repetitions, max_steps=self.max_steps, seed=self.seed)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.goals is not None and len(self.goals) == 0:
            raise ValueError("goal list, when given, must not be empty")


@dataclass(frozen=True)
class OutputConfig:
    table_path: str = "qtable.hpnq"
    eval_dir: str = "eval"
    goal_bank_path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    arm: ArmParams = field(default_factory=ArmParams)
    binning: BinningSpec = field(default_factory=BinningSpec)
    hyper: HyperParams = field(default_factory=HyperParams)
    action: ActionSpec = field(default_factory=ActionSpec)
    reward: RewardSpec = field(default_factory=RewardSpec)
    perturbed: PerturbedPlantConfig = field(default_factory=PerturbedPlantConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def eval_goals(self) -> tuple[GoalPose, ...]:
        if self.eval.goals is None:
            return default_eval_goals(self.arm)
        return tuple(g.to_goal() for g in self.eval.goals)


_SECTION_TYPES = {
    "arm": ArmParams,
    "binning": BinningSpec,
    "hyper": HyperParams,
    "action": ActionSpec,
    "reward": RewardSpec,
    "perturbed": PerturbedPlantConfig,
    "pretrain": PretrainConfig,
    "eval": EvalConfig,
    "output": OutputConfig,
}


def _convert_value(name: str, value: Any, where: str) -> Any:
    if name == "goals":
        if value is None:
            return None
        if not isinstance(value, list):
            raise ConfigError(f"{where}.goals: expected a list of goal entries")
        return tuple(
            _build_section(GoalSpec, item, f"{where}.goals[{i}]")
            for i, item in enumerate(value)
        )
    if isinstance(value, list):
        return tuple(value)
    return value


def _build_section(cls, raw: Any, where: str):
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where}: expected a mapping of fields")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {unknown}")
    kwargs = {k: _convert_value(k, v, where) for k, v in raw.items()}
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_mapping(data: Mapping[str, Any]) -> RunConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config root must be a mapping of sections")
    unknown = sorted(set(data) - set(_SECTION_TYPES))
    if unknown:
        raise ConfigError(f"unknown config section(s) {unknown}")
    sections = {
        name: _build_section(cls, data[name], name)
        for name, cls in _SECTION_TYPES.items()
        if name in data
    }
    return RunConfig(**sections)


def load_config(path) -> RunConfig:
    """Parse a YAML run config; missing sections keep their defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if data is None:
        data = {}
    return config_from_mapping(data)


def default_eval_goals(params: ArmParams) -> tuple[GoalPose, ...]:
    """Four-goal evaluation suite: two elongation poses, two mirrored bends.

    Each goal is the forward-kinematics image of a fixed pressure pattern, so
    the suite is reachable by construction and tracks the arm parameters.
    """
    lo, hi = params.p_max_kpa / 6.0, 5.0 * params.p_max_kpa / 6.0
    mid = params.p_max_kpa / 2.0
    bend = params.p_max_kpa / 12.0
    patterns = [
        np.full(16, hi),  # long straight reach
        np.full(16, lo),  # short straight reach
        np.tile([mid + bend, mid, mid - bend, mid], 4),  # bend one way
        np.tile([mid - bend, mid, mid + bend, mid], 4),  # mirror image bend
    ]
    goals = []
    for pressures in patterns:
        pose = arm_forward_kinematics(pressures, params)
        goals.append(GoalPose(position=pose[:3, 3].copy(), direction=pose[:3, 2].copy()))
    return tuple(goals)
