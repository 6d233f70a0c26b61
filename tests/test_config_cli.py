import dataclasses
import struct
import zlib

import numpy as np
import pytest
from click.testing import CliRunner

from hpnarm import ArmParams, BinningSpec, arm_forward_kinematics
from hpnarm.cli import main
from hpnarm.config import (
    ConfigError,
    RunConfig,
    config_from_mapping,
    default_eval_goals,
    load_config,
)
from hpnarm.pretrain import config_fingerprint
from hpnarm.qtable import FLAG_AUGMENTED, FLAG_TRAINED, MAGIC, QTable, load, save
from hpnarm.state import N_GOAL_BINS
from oracles import write_goal_bank

MID = 30.0  # p_max/2, the pressure every episode starts from


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL_PRETRAIN = """\
pretrain:
  quota: 1
  budget: 20000
  max_steps: 30
  seed: 3
output:
  table_path: {table}
eval:
  repetitions: 2
  max_steps: 25
"""


# One non-finite value per case, as (section, field, YAML value); YAML reads .nan and .inf.
NON_FINITE_VALUES = (
    ("reward", "w_p_per_mm", ".nan"),
    ("reward", "w_r_per_deg", ".inf"),
    ("reward", "goal_bonus", ".inf"),
    ("reward", "step_penalty", ".nan"),
    ("reward", "success_pos_mm", ".nan"),
    ("reward", "success_rot_deg", ".inf"),
    ("arm", "l0_mm", ".inf"),
    ("arm", "p_max_kpa", ".inf"),
    ("arm", "k_eps", ".inf"),
    ("action", "delta_p_kpa", ".inf"),
    ("perturbed", "a_scale", ".inf"),
    ("perturbed", "b_scale", ".inf"),
    ("perturbed", "scale_spread", ".nan"),
    ("perturbed", "tip_noise_sigma_mm", ".nan"),
    ("perturbed", "droop_gain", ".nan"),
)

# One integer setting per case given a float or a boolean, as (section, field, YAML value).
NON_INTEGER_VALUES = (
    ("pretrain", "quota", "2.5"),
    ("pretrain", "quota", "true"),
    ("pretrain", "budget", "20000.5"),
    ("pretrain", "seed", "1.5"),
    ("pretrain", "max_steps", "10.5"),
    ("pretrain", "augment_radius", "1.5"),
    ("eval", "repetitions", "1.5"),
    ("eval", "max_steps", "2.5"),
    ("eval", "seed", "0.5"),
)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.pretrain.quota == 10
        assert cfg.pretrain.budget is None  # pretrain.default_sample_budget(quota)
        assert cfg.eval.repetitions == 3
        assert cfg.eval.max_steps == 200
        assert cfg.arm == ArmParams()

    def test_units_are_spelled_out_in_field_names(self):
        assert "delta_p_kpa" in {f.name for f in dataclasses.fields(type(RunConfig().action))}
        assert "d_max_mm" in {f.name for f in dataclasses.fields(type(RunConfig().binning))}

    def test_empty_file_gives_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", "")
        assert load_config(path) == RunConfig()

    def test_sections_override_defaults(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml",
            "arm:\n  l0_mm: 120.0\nhyper:\n  epsilon: 0.25\npretrain:\n  quota: 4\n",
        )
        cfg = load_config(path)
        assert cfg.arm.l0_mm == 120.0
        assert cfg.hyper.epsilon == 0.25
        assert cfg.pretrain.quota == 4
        assert cfg.reward == RunConfig().reward

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            config_from_mapping({"turbo": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="arm.*unknown field"):
            config_from_mapping({"arm": {"a_gain": 0.001, "bogus": 1}})

    def test_invalid_value_names_its_section(self):
        with pytest.raises(ConfigError, match="pretrain"):
            config_from_mapping({"pretrain": {"quota": 0}})

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"arm": [1, 2, 3]})

    def test_edge_tuples_parse_from_lists(self):
        cfg = config_from_mapping({"binning": {"d_tip_edges_mm": [4.0, 20.0, 50.0]}})
        assert cfg.binning.d_tip_edges_mm == (4.0, 20.0, 50.0)

    @pytest.mark.parametrize("section, name, value", NON_FINITE_VALUES,
                             ids=[f"{s}.{n}" for s, n, _ in NON_FINITE_VALUES])
    def test_non_finite_value_rejected(self, tmp_path, section, name, value):
        path = write_config(tmp_path / "c.yaml", f"{section}:\n  {name}: {value}\n")
        with pytest.raises(ConfigError, match=f"{section}: .*{name}.*finite"):
            load_config(path)

    def test_cannot_read_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")


class TestGoalConfiguration:
    def test_goals_parse_and_normalize(self):
        cfg = config_from_mapping(
            {"eval": {"goals": [
                {"position_mm": [10.0, 0.0, 500.0], "direction": [0.0, 0.0, 2.0]},
            ]}}
        )
        (goal,) = cfg.eval_goals()
        assert np.allclose(goal.position, (10.0, 0.0, 500.0))
        assert np.allclose(goal.direction, (0.0, 0.0, 1.0))

    def test_goal_validation(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"eval": {"goals": [{"position_mm": [0, 0], "direction": [0, 0, 1]}]}})
        with pytest.raises(ConfigError):
            config_from_mapping({"eval": {"goals": [{"position_mm": [0, 0, 1], "direction": [0, 0, 0]}]}})
        with pytest.raises(ConfigError):
            config_from_mapping({"eval": {"goals": []}})
        with pytest.raises(ConfigError):
            config_from_mapping({"eval": {"goals": {"position_mm": [0, 0, 1]}}})

    def test_default_suite_has_two_straight_and_two_mirrored_goals(self):
        params = ArmParams()
        long, short, left, right = default_eval_goals(params)
        for straight in (long, short):
            assert abs(straight.position[0]) < 1e-9
            assert abs(straight.position[1]) < 1e-9
            assert np.allclose(straight.direction, (0.0, 0.0, 1.0))
        assert long.position[2] > short.position[2] > 4 * params.l0_mm
        assert np.allclose(left.position[:2], -right.position[:2])
        assert left.position[2] == pytest.approx(right.position[2])

    def test_default_suite_tracks_arm_parameters(self):
        stubby = dataclasses.replace(ArmParams(), l0_mm=100.0)
        goals = default_eval_goals(stubby)
        assert goals[1].position[2] < default_eval_goals(ArmParams())[1].position[2]


class TestFkCommand:
    def test_rest_pose(self, runner):
        result = runner.invoke(main, ["fk"] + ["0"] * 16)
        assert result.exit_code == 0
        assert "position_mm: 0.000000 0.000000 600.000000" in result.output
        assert "direction: 0.000000 0.000000 1.000000" in result.output

    def test_matches_library(self, runner):
        rng = np.random.default_rng(8)
        pressures = rng.uniform(0.0, 60.0, 16)
        result = runner.invoke(main, ["fk"] + [f"{p:.9f}" for p in pressures])
        assert result.exit_code == 0
        pose = arm_forward_kinematics(np.round(pressures, 9), ArmParams())
        printed = [float(v) for v in result.output.split("position_mm:")[1].split("\n")[0].split()]
        assert np.allclose(printed, pose[:3, 3], atol=5e-7)

    def test_out_of_range_exits_2_naming_the_chamber(self, runner):
        args = ["fk"] + ["0"] * 16
        args[1 + 6] = "99"
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "segment 1 chamber 2" in result.output

    def test_wrong_arity_exits_2(self, runner):
        assert runner.invoke(main, ["fk", "1", "2"]).exit_code == 2

    def test_non_numeric_exits_2(self, runner):
        assert runner.invoke(main, ["fk"] + ["x"] * 16).exit_code == 2


class TestPretrainCommand:
    def test_writes_loadable_table_and_reruns_identically(self, runner, tmp_path):
        table = tmp_path / "t.qt"
        cfg = write_config(tmp_path / "c.yaml", SMALL_PRETRAIN.format(table=table))
        first = runner.invoke(main, ["pretrain", "--config", cfg])
        assert first.exit_code == 0, first.output
        assert "trained entries" in first.output
        assert "goal bank samples: 20000" in first.output.splitlines()
        blob = table.read_bytes()
        assert load(table).trained_count() > 0
        second = runner.invoke(main, ["pretrain", "--config", cfg])
        assert second.exit_code == 0
        assert table.read_bytes() == blob

    def test_seed_flag_changes_the_output(self, runner, tmp_path):
        table = tmp_path / "t.qt"
        cfg = write_config(tmp_path / "c.yaml", SMALL_PRETRAIN.format(table=table))
        runner.invoke(main, ["pretrain", "--config", cfg])
        blob = table.read_bytes()
        result = runner.invoke(main, ["pretrain", "--config", cfg, "--seed", "4"])
        assert result.exit_code == 0
        assert table.read_bytes() != blob

    def test_out_flag_overrides_config(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", SMALL_PRETRAIN.format(table=tmp_path / "a.qt"))
        other = tmp_path / "b.qt"
        result = runner.invoke(main, ["pretrain", "--config", cfg, "--out", str(other)])
        assert result.exit_code == 0
        assert other.exists()

    def test_negative_seed_flag_is_a_usage_error(self, runner, tmp_path):
        table, bank = tmp_path / "t.qt", tmp_path / "bank.hpnb"
        text = SMALL_PRETRAIN.format(table=f"{table}\n  goal_bank_path: {bank}")
        cfg = write_config(tmp_path / "c.yaml", text)
        # The .hpnb header holds the seed as a u64, so 2**64 is refused up front too.
        for seed in ("-1", str(2**64)):
            result = runner.invoke(main, ["pretrain", "--config", cfg, "--seed", seed])
            assert result.exit_code == 2
            assert "--seed" in result.output
            assert not table.exists() and not bank.exists()

    def test_invalid_config_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", "pretrain:\n  quota: 0\n")
        assert runner.invoke(main, ["pretrain", "--config", cfg]).exit_code == 2
        for field in ("turbo: 1", "workers: 2"):
            cfg2 = write_config(tmp_path / "c2.yaml", f"pretrain:\n  {field}\n")
            assert runner.invoke(main, ["pretrain", "--config", cfg2]).exit_code == 2
        for section, name, value in NON_FINITE_VALUES:
            cfg3 = write_config(tmp_path / "c3.yaml", f"{section}:\n  {name}: {value}\n")
            assert runner.invoke(main, ["pretrain", "--config", cfg3]).exit_code == 2, name
        table, csv_dir = tmp_path / "t.qt", tmp_path / "ev"
        for section, name, value in NON_INTEGER_VALUES:
            cfg4 = write_config(tmp_path / "c4.yaml", f"{section}:\n  {name}: {value}\n"
                                f"output:\n  table_path: {table}\n  eval_dir: {csv_dir}\n")
            for command in (["pretrain"], ["eval", "--zero-init"]):
                result = runner.invoke(main, command + ["--config", cfg4])
                assert result.exit_code == 2, (command, name, value, result.output)
                assert f"{section}: {name} must be an integer" in result.output
            assert not table.exists() and not csv_dir.exists()
        # "no" quoted is a string, and truthy: it must not lift the large-run guard.
        # (The one-sample budget fails fast, with exit 1, if the guard is lifted.)
        cfg5 = write_config(tmp_path / "c5.yaml", 'pretrain:\n  allow_large_run: "no"\n'
                            f"  quota: 600\n  budget: 1\noutput:\n  table_path: {table}\n")
        result = runner.invoke(main, ["pretrain", "--config", cfg5])
        assert result.exit_code == 2, result.output
        assert "pretrain: allow_large_run must be a boolean" in result.output
        assert not table.exists()

    @pytest.mark.parametrize("bad", ["bin", "direction", "goal-outside-its-bin"])
    def test_malformed_cached_goal_bank_exits_1(self, runner, tmp_path, bad):
        table, bank = tmp_path / "t.qt", tmp_path / "bank.hpnb"
        text = SMALL_PRETRAIN.format(table=f"{table}\n  goal_bank_path: {bank}")
        cfg = write_config(tmp_path / "c.yaml", text)
        fp = config_fingerprint(ArmParams(), BinningSpec())
        row = [0.0, 0.0, 700.0, 0.0, 0.0, 1.0]
        if bad == "bin":
            bins, rows = [N_GOAL_BINS], [row]
        elif bad == "direction":
            bins, rows = [5], [row[:3] + [0.0, 0.0, 2.0]]
        else:  # a valid goal filed under bin 5, which it does not encode to
            bins, rows = [5], [row]
        write_goal_bank(bank, bins, rows, seed=3, quota=1, budget=20000, fingerprint=fp)
        result = runner.invoke(main, ["pretrain", "--config", cfg])
        assert result.exit_code == 1, result.output
        assert "error:" in result.output and not table.exists()
        if bad == "goal-outside-its-bin":
            assert "goal 0 of bin 5 encodes to goal bin" in result.output

    def test_cached_bank_from_another_budget_exits_1(self, runner, tmp_path):
        # A bank cached under the old 1e6 default is refused, never silently reused.
        table, bank = tmp_path / "t.qt", tmp_path / "bank.hpnb"
        cfg = write_config(
            tmp_path / "c.yaml",
            f"pretrain:\n  quota: 1\n  seed: 3\noutput:\n  table_path: {table}\n"
            f"  goal_bank_path: {bank}\n",
        )
        fp = config_fingerprint(ArmParams(), BinningSpec())
        write_goal_bank(bank, [5], [[0.0, 0.0, 700.0, 0.0, 0.0, 1.0]], seed=3, quota=1,
                        budget=1_000_000, fingerprint=fp)
        result = runner.invoke(main, ["pretrain", "--config", cfg])
        assert result.exit_code == 1, result.output
        assert "sampled with budget=1000000, this run wants 400000" in result.output
        assert not table.exists()


class TestEvalCommand:
    @pytest.fixture()
    def eval_setup(self, runner, tmp_path):
        table = tmp_path / "t.qt"
        cfg = write_config(tmp_path / "c.yaml", SMALL_PRETRAIN.format(table=table))
        assert runner.invoke(main, ["pretrain", "--config", cfg]).exit_code == 0
        return cfg, table

    def test_csv_row_count_is_max_steps_plus_one(self, runner, tmp_path, eval_setup):
        cfg, table = eval_setup
        out = tmp_path / "ev"
        result = runner.invoke(
            main, ["eval", "--config", cfg, "--table", str(table), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        files = sorted(p.name for p in out.iterdir())
        assert files == ["aggregate.csv", "goal_00.csv", "goal_01.csv",
                         "goal_02.csv", "goal_03.csv"]
        for f in out.iterdir():
            lines = f.read_text().strip().split("\n")
            assert lines[0] == "step,time_s,pos_error_mm,rot_error_deg"
            assert len(lines) == 1 + 25 + 1  # header + max_steps+1 rows

    def test_fixture_run_is_byte_identical(self, runner, tmp_path, eval_setup):
        cfg, table = eval_setup
        blobs = []
        for d in ("e1", "e2"):
            out = tmp_path / d
            assert runner.invoke(
                main, ["eval", "--config", cfg, "--table", str(table),
                       "--plant", "perturbed", "--out", str(out)],
            ).exit_code == 0
            blobs.append(b"".join(p.read_bytes() for p in sorted(out.iterdir())))
        assert blobs[0] == blobs[1]

    def test_table_file_never_mutated(self, runner, tmp_path, eval_setup):
        cfg, table = eval_setup
        blob = table.read_bytes()
        runner.invoke(main, ["eval", "--config", cfg, "--table", str(table),
                             "--out", str(tmp_path / "e")])
        assert table.read_bytes() == blob

    def test_goal_at_start_pose_gives_flat_zero_series(self, runner, tmp_path):
        pose = arm_forward_kinematics(np.full(16, MID), ArmParams())
        pos = ", ".join(repr(float(v)) for v in pose[:3, 3])
        dirn = ", ".join(repr(float(v)) for v in pose[:3, 2])
        cfg = write_config(
            tmp_path / "c.yaml",
            "eval:\n  repetitions: 1\n  max_steps: 10\n"
            f"  goals:\n    - position_mm: [{pos}]\n      direction: [{dirn}]\n",
        )
        out = tmp_path / "ev"
        result = runner.invoke(
            main, ["eval", "--config", cfg, "--zero-init", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = (out / "goal_00.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 11
        assert all(float(r.split(",")[2]) < 1e-6 for r in rows)

    def test_requires_exactly_one_source(self, runner, tmp_path, eval_setup):
        cfg, table = eval_setup
        both = runner.invoke(main, ["eval", "--config", cfg, "--table", str(table),
                                    "--zero-init"])
        neither = runner.invoke(main, ["eval", "--config", cfg])
        assert both.exit_code == 2
        assert neither.exit_code == 2

    @pytest.mark.parametrize("action_count", [16, 40])
    def test_table_with_wrong_action_count_exits_1(self, runner, tmp_path, action_count):
        q = QTable(action_count)
        q.set_entry(5, action_count - 1, 1.0, FLAG_TRAINED)
        path = tmp_path / "wrong.qt"
        save(q, path)
        out = tmp_path / "ev"
        result = runner.invoke(main, ["eval", "--table", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert f"error: table has {action_count} actions" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("plant", ["nominal", "perturbed"])
    def test_negative_seed_flag_is_a_usage_error(self, runner, tmp_path, plant):
        out = tmp_path / "ev"
        result = runner.invoke(main, ["eval", "--zero-init", "--plant", plant,
                                      "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert not out.exists()

    def test_unreadable_table_exits_1(self, runner, tmp_path):
        missing = runner.invoke(main, ["eval", "--table", str(tmp_path / "no.qt")])
        assert missing.exit_code == 1
        bad = tmp_path / "bad.qt"
        bad.write_bytes(b"not a table at all")
        assert runner.invoke(main, ["eval", "--table", str(bad)]).exit_code == 1


class TestAugmentCommand:
    @pytest.fixture()
    def table_file(self, tmp_path):
        q = QTable()
        q.set_entry(0, 0, 4.0, FLAG_TRAINED)
        q.set_entry(2, 0, 8.0, FLAG_TRAINED)
        path = tmp_path / "in.qt"
        save(q, path)
        return path

    def test_fills_and_reports(self, runner, tmp_path, table_file):
        out = tmp_path / "out.qt"
        result = runner.invoke(main, ["augment", str(table_file), str(out)])
        assert result.exit_code == 0
        assert "trained entries: 2" in result.output
        aug = load(out)
        assert aug.get(1, 0) == pytest.approx(6.0)  # mean of states 0 and 2

    def test_second_pass_fills_nothing(self, runner, tmp_path, table_file):
        mid = tmp_path / "mid.qt"
        end = tmp_path / "end.qt"
        runner.invoke(main, ["augment", str(table_file), str(mid)])
        result = runner.invoke(main, ["augment", str(mid), str(end)])
        assert result.exit_code == 0
        assert "entries filled: 0" in result.output
        assert load(end) == load(mid)

    def test_bad_input_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.qt"
        bad.write_bytes(b"HPNQ????")
        assert runner.invoke(main, ["augment", str(bad), str(tmp_path / "o.qt")]).exit_code == 1

    def test_bad_radius_exits_2(self, runner, tmp_path, table_file):
        result = runner.invoke(
            main, ["augment", str(table_file), str(tmp_path / "o.qt"), "--radius", "0"]
        )
        assert result.exit_code == 2


class TestInspectCommand:
    def test_reports_table_statistics(self, runner, tmp_path):
        q = QTable()
        q.set_entry(5, 1, 2.5, FLAG_TRAINED)
        q.set_entry(2048, 3, -1.0, FLAG_TRAINED)
        path = tmp_path / "t.qt"
        save(q, path)
        result = runner.invoke(main, ["inspect", str(path)])
        assert result.exit_code == 0
        assert "entries: 2" in result.output
        assert "trained entries: 2" in result.output
        assert "goal bins touched: 2 (2 trained)" in result.output

    def test_counts_goal_bins_holding_trained_entries(self, runner, tmp_path):
        q = QTable()
        q.set_entry(5, 1, 2.5, FLAG_TRAINED)
        q.set_entry(2048, 3, -1.0, FLAG_AUGMENTED)
        q.set_entry(7 * 1024 + 9, 0, 0.5, FLAG_AUGMENTED)
        path = tmp_path / "t.qt"
        save(q, path)
        result = runner.invoke(main, ["inspect", str(path)])
        assert result.exit_code == 0
        assert "goal bins touched: 3 (1 trained)" in result.output

    def test_missing_file_exits_1(self, runner, tmp_path):
        assert runner.invoke(main, ["inspect", str(tmp_path / "no.qt")]).exit_code == 1

    def test_header_action_count_beyond_the_table_range_exits_1(self, runner, tmp_path):
        body = MAGIC + struct.pack("<IIQ", 1, 70_000, 0)  # valid CRC, no records
        path = tmp_path / "t.qt"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        result = runner.invoke(main, ["inspect", str(path)])
        assert result.exit_code == 1
        assert "error: " in result.output
        assert "action count 70000 outside [1, 65535]" in result.output
