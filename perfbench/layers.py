"""The hpnarm package of this checkout, the benchmark's run plans, and the calls
the workloads share.

Every call into the package goes through a module attribute at call time
(``mods["qtable"].load(...)``), never through a name bound at import, so a
traced region sees it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("config", "kinematics", "state", "qtable", "episode", "pretrain", "evalrun")
PLANTS = ("nominal", "perturbed")
REACH_MM = 30.0


class SetupError(RuntimeError):
    """This directory holds no hpnarm source tree to benchmark."""


def import_layers() -> dict:
    """Import each layer module of ``src/hpnarm`` in this checkout, by import path.

    The package re-exports a function named ``pretrain``, which shadows the
    ``hpnarm.pretrain`` submodule as a package attribute, so modules are
    resolved with ``importlib.import_module`` and never as attributes.
    """
    if not (SRC / "hpnarm" / "__init__.py").is_file():
        raise SetupError(f"no hpnarm package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"hpnarm.{name}") for name in LAYERS}
    for name, module in mods.items():
        if SRC not in Path(module.__file__).resolve().parents:
            raise SetupError(f"hpnarm.{name} was imported from {module.__file__}, not {SRC}")
    return mods


@dataclass(frozen=True)
class Plan:
    """What one benchmark run does, apart from its seed and run length."""

    smoke: bool
    cfg: object                # hpnarm.config.RunConfig
    sampled_goals: int         # eval goals drawn on top of the default suite
    cold_setups: int           # fresh-process cold starts in pretrain_default's set-up
    min_reps: int              # timed repetitions at least, however long they take


def make_plan(mods, smoke: bool) -> Plan:
    """The measured plan (RunConfig defaults) or the tiny smoke plan."""
    cfg = mods["config"].RunConfig()
    if not smoke:
        return Plan(False, cfg, sampled_goals=60, cold_setups=5, min_reps=3)
    cfg = dataclasses.replace(
        cfg,
        pretrain=dataclasses.replace(cfg.pretrain, quota=1, budget=20_000, max_steps=10),
        eval=dataclasses.replace(cfg.eval, repetitions=1, max_steps=10),
    )
    return Plan(True, cfg, sampled_goals=2, cold_setups=1, min_reps=1)


def build_table(mods, cfg, seed: int, path: Path):
    """The product path: pretrain() on one worker, saving the table to `path`."""
    p = cfg.pretrain
    return mods["pretrain"].pretrain(
        cfg.arm, cfg.hyper, cfg.action, cfg.reward, cfg.binning,
        quota=p.quota, seed=seed, workers=1, budget=p.budget,
        max_steps=p.max_steps, augment_radius=p.augment_radius, out_path=path,
    )


def eval_goals(mods, plan: Plan, seed: int) -> list:
    """The default four-goal suite plus goals sampled from the benchmark seed."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4)))
    cfg = plan.cfg
    return list(cfg.eval_goals()) + mods["evalrun"].sample_goals(cfg.arm, plan.sampled_goals, rng)


def evaluate_both(mods, cfg, table, goals) -> dict:
    """Greedy evaluation of `table` on each plant, keyed by plant kind.

    The perturbed plant's gain scales and noise come from the config's eval
    seed, so every benchmark seed is scored against the same plant.
    """
    return {
        plant: mods["evalrun"].evaluate(
            table, goals,
            params=cfg.arm, hp=cfg.hyper, action_spec=cfg.action,
            reward_spec=cfg.reward, binning=cfg.binning,
            plant_kind=plant, perturbed_cfg=cfg.perturbed,
            repetitions=cfg.eval.repetitions, max_steps=cfg.eval.max_steps,
            seed=cfg.eval.seed,
        )
        for plant in PLANTS
    }


def quality(reports) -> dict[str, float]:
    """Controller quality per plant, from evaluation reports."""
    out = {}
    for plant, report in reports.items():
        best = [r.mean_pos_series().min() for r in report.results]
        out[f"{plant}.median_final_pos_mm"] = report.median_final_pos_mm()
        out[f"{plant}.median_best_pos_mm"] = float(np.median(best))
        out[f"{plant}.goals_within_30mm"] = report.goals_reaching(REACH_MM)
    return out


def table_digest(table, flag: int = 0) -> str:
    """sha256 over a table's sorted entries, values compared bit for bit.

    With `flag`, only entries carrying that flag bit are digested.
    """
    arrays = table.record_arrays()
    if flag:
        keep = (arrays[2] & flag) != 0
        arrays = tuple(a[keep] for a in arrays)
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
