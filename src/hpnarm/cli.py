"""Command-line driver: fk, pretrain, augment, eval, inspect.

Exit codes: 0 success; 1 runtime failure, a QTableIOError (unreadable or
corrupt table file), GoalBankError or OSError; 2 usage or config error, any
other ValueError (ConfigError, PressureRangeError, a bad argument). The
command group holds this rule, so it covers every subcommand. Every command is
deterministic for a fixed --seed.
"""

from __future__ import annotations

import click
import numpy as np

from .config import RunConfig, load_config
from .evalrun import evaluate, write_report_csvs
from .kinematics import arm_forward_kinematics
from .pretrain import GoalBankError
from .pretrain import pretrain as pretrain_pipeline
from .qtable import FLAG_TRAINED, N_ACTIONS, SEED_LIMIT, QTableIOError
from .qtable import augment as augment_table
from .qtable import load, save
from .state import N_TIP_STATES

_RUNTIME_ERRORS = (QTableIOError, GoalBankError, OSError)


class _Group(click.Group):
    """Maps a subcommand's failure to its exit code, printing ``error: <message>``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's main exits 1 quietly when stdout closes early
        except (*_RUNTIME_ERRORS, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1 if isinstance(exc, _RUNTIME_ERRORS) else 2)


def _load_cfg(path) -> RunConfig:
    return RunConfig() if path is None else load_config(path)


_CONFIG_OPT = click.option(
    "--config", "config_path", type=click.Path(), default=None,
    help="YAML run config; defaults apply when omitted.",
)
_SEED_OPT = click.option("--seed", type=click.IntRange(0, SEED_LIMIT - 1), default=None,
                         help="Override the config seed.")


@click.group(cls=_Group)
def main():
    """Simulated pneumatic arm: kinematics, tabular control, evaluation."""


@main.command()
@click.argument("pressures", nargs=16, type=float)
@_CONFIG_OPT
def fk(pressures, config_path):
    """Print the tip pose for 16 chamber pressures (kPa, 4 per segment)."""
    cfg = _load_cfg(config_path)
    pose = arm_forward_kinematics(np.asarray(pressures, dtype=float), cfg.arm)
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
    cfg = _load_cfg(config_path)
    pc = cfg.pretrain
    _, summary = pretrain_pipeline(
        cfg.arm, cfg.hyper, cfg.action, cfg.reward, cfg.binning,
        quota=pc.quota,
        seed=pc.seed if seed is None else seed,
        budget=pc.budget,
        max_steps=pc.max_steps,
        augment_radius=pc.augment_radius,
        out_path=out_path if out_path is not None else cfg.output.table_path,
        allow_large_run=pc.allow_large_run or allow_large_run,
    )
    click.echo(summary.format())


@main.command()
@click.argument("src", type=click.Path())
@click.argument("dst", type=click.Path())
@click.option("--radius", type=int, default=1,
              help="Neighborhood size, in per-dimension bin steps.")
def augment(src, dst, radius):
    """Fill untrained entries of SRC with neighbor means, write to DST."""
    table = load(src)
    out = augment_table(table, radius=radius)
    save(out, dst)
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
    cfg = _load_cfg(config_path)
    if zero_init:
        table, label = None, "zero-init"
    else:
        table, label = load(table_path), str(table_path)
    report = evaluate(
        table, cfg.eval_goals(),
        params=cfg.arm, action_spec=cfg.action,
        reward_spec=cfg.reward, binning=cfg.binning,
        plant_kind=plant, perturbed_cfg=cfg.perturbed,
        repetitions=cfg.eval.repetitions, max_steps=cfg.eval.max_steps,
        seed=cfg.eval.seed if seed is None else seed, label=label,
    )
    target = out_dir if out_dir is not None else cfg.output.eval_dir
    paths = write_report_csvs(report, target)
    click.echo(report.summary())
    click.echo(f"wrote {len(paths)} csv files under {target}")


@main.command()
@click.argument("table_path", type=click.Path())
def inspect(table_path):
    """Print size and content statistics for a Q-table file."""
    table = load(table_path)
    states, _, flags, values = table.record_arrays()
    click.echo(f"file: {table_path}")
    click.echo(f"action count: {N_ACTIONS}")
    click.echo(f"entries: {table.entry_count()}")
    click.echo(f"trained entries: {table.trained_count()}")
    click.echo(f"augmented entries: {table.augmented_count()}")
    click.echo(f"states touched: {table.state_count()}")
    click.echo(f"entries held: {table.entry_count()} ({table.nbytes} bytes in memory)")
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
