"""The product never runs the scalar reference engine.

The scalar chain (segment_transform, actuation_to_config, run_episode and
the names it steps through) stays in the package as the bit-exact reference
the tests compare against and the benchmark tracer wraps. Every product path,
CLI fk, pretrain, load, augment, evaluation and its CSVs, runs the batch
kernels instead. This rebinds each scalar name to raise, in every loaded
hpnarm module that binds it and on its class for a method (the way
perfbench/spans.py rebinds traced names), then runs those paths.
"""

import importlib
import sys

import pytest
from click.testing import CliRunner

from hpnarm.cli import main
from hpnarm.config import RunConfig
from hpnarm.evalrun import evaluate, write_report_csvs
from hpnarm.pretrain import pretrain
from hpnarm.qtable import augment, load

SCALAR_ENGINE = (
    ("kinematics", "segment_transform"),
    ("kinematics", "actuation_to_config"),
    ("episode", "run_episode"),
    ("episode", "pose_errors"),
    ("episode", "compute_reward"),
    ("qtable", "select_action"),
    ("state", "encode_goal_prefix"),
    ("state", "bin_and_pack"),
    ("episode", "NominalPlant.apply"),
    ("episode", "PerturbedPlant.apply"),
    ("state", "StateEncoder.__init__"),
    ("state", "StateEncoder.encode_tip_index"),
    ("qtable", "QTable.update"),
    ("qtable", "ActionSpec.apply"),
)


@pytest.fixture
def scalar_engine_refused(monkeypatch):
    package = [m for n, m in sorted(sys.modules.items())
               if n == "hpnarm" or n.startswith("hpnarm.")]
    for layer, attr in SCALAR_ENGINE:
        module = importlib.import_module(f"hpnarm.{layer}")

        def refuse(*args, _name=f"{layer}.{attr}", **kwargs):
            raise AssertionError(f"a product path called the scalar {_name}")

        if "." in attr:
            cls_name, method = attr.split(".")
            monkeypatch.setattr(getattr(module, cls_name), method, refuse)
            continue
        fn = getattr(module, attr)
        for owner in package:
            for key, value in list(vars(owner).items()):
                if value is fn:
                    monkeypatch.setattr(owner, key, refuse)


def test_product_paths_never_call_the_scalar_engine(scalar_engine_refused, tmp_path):
    result = CliRunner().invoke(main, ["fk", *["20"] * 16])
    assert result.exit_code == 0, repr(result.exception)

    cfg = RunConfig()
    table_path = tmp_path / "q.hpnq"
    pretrain(cfg.arm, cfg.hyper, cfg.action, cfg.reward, cfg.binning, quota=1, seed=3,
             budget=20_000, max_steps=20, out_path=table_path)
    table = augment(load(table_path), 2)
    assert table.trained_count() > 0
    for plant_kind in ("nominal", "perturbed"):
        report = evaluate(
            table, cfg.eval_goals(), params=cfg.arm, action_spec=cfg.action,
            reward_spec=cfg.reward, binning=cfg.binning, plant_kind=plant_kind,
            perturbed_cfg=cfg.perturbed, repetitions=2, max_steps=20,
        )
        assert write_report_csvs(report, tmp_path / plant_kind)
