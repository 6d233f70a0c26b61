"""Command-line driver: fk, pretrain, augment, eval, inspect.

Exit codes: 0 success, 1 runtime failure (I/O, bad table files), 2 usage or
config errors. Every command is deterministic for a fixed --seed.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from .config import ConfigError, RunConfig, load_config
from .evalrun import evaluate, write_report_csvs
from .kinematics import PressureRangeError, arm_forward_kinematics
from .pretrain import GoalBankError
from .pretrain import pretrain as pretrain_pipeline
from .qtable import FLAG_TRAINED, N_ACTIONS, QTableIOError
from .qtable import augment as augment_table
from .qtable import load, save
from .state import N_TIP_STATES


def _fail(exc, code: int) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _load_cfg(path) -> RunConfig:
    return RunConfig() if path is None else load_config(path)


_CONFIG_OPT = click.option(
    "--config", "config_path", type=click.Path(), default=None,
    help="YAML run config; defaults apply when omitted.",
)
# The .hpnb goal bank header stores the seed as a u64.
_SEED_OPT = click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
                         help="Override the config seed.")


@click.group()
def main():
    """Simulated pneumatic arm: kinematics, tabular control, evaluation."""


@main.command()
@click.argument("pressures", nargs=16, type=float)
@_CONFIG_OPT
def fk(pressures, config_path):
    """Print the tip pose for 16 chamber pressures (kPa, 4 per segment)."""
    try:
        cfg = _load_cfg(config_path)
    except ConfigError as exc:
        _fail(exc, 2)
    try:
        pose = arm_forward_kinematics(np.asarray(pressures, dtype=float), cfg.arm)
    except PressureRangeError as exc:
        _fail(exc, 2)
    click.echo("position_mm: " + " ".join(f"{v:.6f}" for v in pose[:3, 3]))
    click.echo("direction: " + " ".join(f"{v:.6f}" for v in pose[:3, 2]))


@main.command()
@_CONFIG_OPT
@_SEED_OPT
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Override the output table path.")
@click.option("--allow-large-run", is_flag=True, default=False,
              help="Permit runs beyond the episode-count guard.")
def pretrain(config_path, seed, out_path, allow_large_run):
    """Pretrain a Q-table in simulation and write it to disk."""
    try:
        cfg = _load_cfg(config_path)
    except ConfigError as exc:
        _fail(exc, 2)
    pc = cfg.pretrain
    try:
        _, summary = pretrain_pipeline(
            cfg.arm, cfg.hyper, cfg.action, cfg.reward, cfg.binning,
            quota=pc.quota,
            seed=pc.seed if seed is None else seed,
            budget=pc.budget,
            max_steps=pc.max_steps,
            augment_radius=pc.augment_radius,
            out_path=out_path if out_path is not None else cfg.output.table_path,
            bank_path=cfg.output.goal_bank_path,
            allow_large_run=pc.allow_large_run or allow_large_run,
        )
    except ValueError as exc:
        _fail(exc, 2)
    except (GoalBankError, QTableIOError, OSError) as exc:
        _fail(exc, 1)
    click.echo(summary.format())


@main.command()
@click.argument("src", type=click.Path())
@click.argument("dst", type=click.Path())
@click.option("--radius", type=int, default=1,
              help="Neighborhood size, in per-dimension bin steps.")
def augment(src, dst, radius):
    """Fill untrained entries of SRC with neighbor means, write to DST."""
    try:
        table = load(src)
    except (QTableIOError, OSError) as exc:
        _fail(exc, 1)
    try:
        out = augment_table(table, radius=radius)
    except ValueError as exc:
        _fail(exc, 2)
    try:
        save(out, dst)
    except OSError as exc:
        _fail(exc, 1)
    click.echo(f"trained entries: {out.trained_count()}")
    click.echo(f"augmented entries: {out.augmented_count()}")
    click.echo(f"entries filled: {out.entry_count() - table.entry_count()}")


@main.command("eval")
@_CONFIG_OPT
@click.option("--table", "table_path", type=click.Path(), default=None,
              help="Q-table file to evaluate.")
@click.option("--zero-init", is_flag=True, default=False,
              help="Evaluate an untrained table instead of a file.")
@click.option("--plant", type=click.Choice(["nominal", "perturbed"]),
              default="nominal", show_default=True)
@_SEED_OPT
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Override the CSV output directory.")
def eval_cmd(config_path, table_path, zero_init, plant, seed, out_dir):
    """Run the configured goals greedily and write error-curve CSVs."""
    if (table_path is None) == (not zero_init):
        raise click.UsageError("pass exactly one of --table or --zero-init")
    try:
        cfg = _load_cfg(config_path)
    except ConfigError as exc:
        _fail(exc, 2)
    if zero_init:
        table, label = None, "zero-init"
    else:
        try:
            table = load(table_path)
        except (QTableIOError, OSError) as exc:
            _fail(exc, 1)
        label = str(table_path)
    try:
        report = evaluate(
            table, cfg.eval_goals(),
            params=cfg.arm, action_spec=cfg.action,
            reward_spec=cfg.reward, binning=cfg.binning,
            plant_kind=plant, perturbed_cfg=cfg.perturbed,
            repetitions=cfg.eval.repetitions, max_steps=cfg.eval.max_steps,
            seed=cfg.eval.seed if seed is None else seed, label=label,
        )
    except ValueError as exc:  # a table that does not fit the config
        _fail(exc, 1)
    target = out_dir if out_dir is not None else cfg.output.eval_dir
    try:
        paths = write_report_csvs(report, target)
    except OSError as exc:
        _fail(exc, 1)
    click.echo(report.summary())
    click.echo(f"wrote {len(paths)} csv files under {target}")


@main.command()
@click.argument("table_path", type=click.Path())
def inspect(table_path):
    """Print size and content statistics for a Q-table file."""
    try:
        table = load(table_path)
    except (QTableIOError, OSError) as exc:
        _fail(exc, 1)
    states, _, flags, values = table.record_arrays()
    click.echo(f"file: {table_path}")
    click.echo(f"action count: {N_ACTIONS}")
    click.echo(f"entries: {table.entry_count()}")
    click.echo(f"trained entries: {table.trained_count()}")
    click.echo(f"augmented entries: {table.augmented_count()}")
    click.echo(f"states touched: {table.state_count()}")
    click.echo(f"rows held: {table.row_count()} ({table.nbytes} bytes in memory)")
    if states.size:
        bins = states // N_TIP_STATES
        trained_bins = np.unique(bins[(flags & FLAG_TRAINED) != 0]).size
        click.echo(f"goal bins touched: {np.unique(bins).size} ({trained_bins} trained)")
        click.echo(
            "value range: "
            f"{values.min():.6f} .. {values.max():.6f} (mean {values.mean():.6f})"
        )


if __name__ == "__main__":
    main()
