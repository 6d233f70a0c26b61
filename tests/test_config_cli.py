import dataclasses
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from hpnarm import ArmParams, arm_forward_kinematics
from hpnarm.cli import main
from hpnarm.config import (
    ConfigError,
    EvalConfig,
    GoalSpec,
    RunConfig,
    config_from_mapping,
    default_eval_goals,
    load_config,
)
from hpnarm.pretrain import GoalBankError
from hpnarm.qtable import FLAG_AUGMENTED, FLAG_TRAINED, MAGIC, QTable, QTableIOError, load, save
from hpnarm.state import check_goal_rows

MID = 30.0  # p_max/2, the pressure every episode starts from
GOAL_SPEC = GoalSpec(position_mm=(0.0, 0.0, 500.0), direction=(0.0, 0.0, 1.0))


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
    ("arm", "a_gain", ".nan"),
    ("arm", "b_gain", ".inf"),
    ("arm", "l0_mm", ".inf"),
    ("arm", "p_max_kpa", ".inf"),
    ("arm", "k_eps", ".inf"),
    ("binning", "d_max_mm", ".inf"),
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

# One YAML boolean per section in a field not declared bool, as (section, field, YAML
# value); each once ran as 1 (or True). pretrain's fields are integers, refused above.
BOOLEAN_VALUES = (
    ("arm", "a_gain", "yes"),
    ("binning", "d_max_mm", "yes"),
    ("binning", "d_tip_edges_mm", "[true, 20.0, 50.0]"),
    ("hyper", "alpha", "yes"),
    ("action", "delta_p_kpa", "true"),
    ("reward", "goal_bonus", "yes"),
    ("perturbed", "droop_gain", "yes"),
    ("eval", "goals", "[{position_mm: [0.0, 0.0, true], direction: [0.0, 0.0, 1.0]}]"),
    ("output", "table_path", "yes"),
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

    @pytest.mark.parametrize("section, name, value", BOOLEAN_VALUES,
                             ids=[f"{s}.{n}" for s, n, _ in BOOLEAN_VALUES])
    def test_boolean_outside_a_bool_field_rejected(self, tmp_path, section, name, value):
        path = write_config(tmp_path / "c.yaml", f"{section}:\n  {name}: {value}\n")
        where = "position_mm" if name == "goals" else name
        with pytest.raises(ConfigError, match=f"{section}.*: {where} must not be a boolean"):
            load_config(path)

    def test_boolean_in_the_bool_field_accepted(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", "pretrain:\n  allow_large_run: yes\n")
        assert load_config(path).pretrain.allow_large_run is True

    def test_cannot_read_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    @pytest.mark.parametrize("text, match", [
        ("arm: [1, 2\n", "cannot parse config"),
        ("- arm\n- hyper\n", "config root must be a mapping of sections"),
    ], ids=["unparsable", "list-root"])
    def test_yaml_that_is_not_a_mapping_of_sections_rejected(self, tmp_path, text, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path / "c.yaml", text))

    def test_importing_the_config_module_leaves_yaml_unloaded(self, tmp_path):
        # yaml was imported with the module, on every cold start of the package.
        good = write_config(tmp_path / "good.yaml", "hyper:\n  epsilon: 0.25\n")
        bad = write_config(tmp_path / "bad.yaml", "arm: [1, 2\n")
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from hpnarm.config import ConfigError, load_config\n"
            "print('yaml' in sys.modules)\n"
            "print(load_config(sys.argv[2]).hyper.epsilon)\n"
            "try:\n"
            "    load_config(sys.argv[3])\n"
            "except ConfigError as exc:\n"
            "    print(str(exc).split(':')[0])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", script, src, good, bad],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:3] == ["False", "0.25", f"cannot parse config {bad}"]


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
        with pytest.raises(ConfigError, match=r"eval\.goals\[0\]: goal directions are not unit"):
            config_from_mapping({"eval": {"goals": [{"position_mm": [0, 0, 1], "direction": [0, 0, 0]}]}})
        with pytest.raises(ConfigError):
            config_from_mapping({"eval": {"goals": []}})
        with pytest.raises(ConfigError):
            config_from_mapping({"eval": {"goals": {"position_mm": [0, 0, 1]}}})

    def test_goal_with_a_non_finite_position_rejected(self):
        goal = {"position_mm": [float("nan"), 0.0, 500.0], "direction": [0.0, 0.0, 1.0]}
        with pytest.raises(ConfigError, match="eval.*goal position and direction must be finite"):
            config_from_mapping({"eval": {"goals": [goal]}})

    def test_short_direction_is_normalized(self):
        goal = {"position_mm": [0.0, 0.0, 500.0], "direction": [0.0, 3e-12, 4e-12]}
        (spec,) = config_from_mapping({"eval": {"goals": [goal]}}).eval.goals
        assert np.allclose(spec.direction, (0.0, 0.6, 0.8), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("direction, unit", [
        ([1e-300, 0.0, 0.0], (1.0, 0.0, 0.0)),  # the squares underflow to 0
        ([0.0, 3e-170, -4e-170], (0.0, 0.6, -0.8)),  # to subnormals
        ([5e-324, 5e-324, 0.0], (0.5**0.5, 0.5**0.5, 0.0)),
        ([1e308, 1e308, 0.0], (0.5**0.5, 0.5**0.5, 0.0)),  # overflow, norm 1.41e308
        ([-1.7e308, 0.0, 0.0], (-1.0, 0.0, 0.0)),
    ])
    def test_direction_whose_squares_leave_float64_is_normalized(self, direction, unit):
        # Each was refused as "goal directions are not unit vectors".
        goal = {"position_mm": [0.0, 0.0, 500.0], "direction": direction}
        (spec,) = config_from_mapping({"eval": {"goals": [goal]}}).eval.goals
        assert np.allclose(spec.direction, unit, rtol=0.0, atol=1e-15)
        assert abs(np.linalg.norm(spec.direction) - 1.0) <= 1e-15

    @pytest.mark.parametrize("direction, match", [
        ([0.0, 0.0, 0.0], "not unit vectors"),
        ([float("inf"), 0.0, 0.0], "must be finite"),
        ([float("nan"), 0.0, 1.0], "must be finite"),
        ([1e308, float("-inf"), 0.0], "must be finite"),
    ])
    def test_zero_and_non_finite_directions_refused(self, direction, match):
        with pytest.raises(ValueError, match=match):
            GoalSpec(position_mm=(0.0, 0.0, 500.0), direction=direction)

    @given(direction=st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                              min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_directions_normalized_before_keep_their_bits(self, direction):
        # The plain division: every direction it brings to unit length keeps its bits.
        dirn = np.array(direction)
        with np.errstate(all="ignore"):
            plain = dirn / (np.linalg.norm(dirn) or 1.0)
        try:
            check_goal_rows(np.concatenate([[0.0, 0.0, 500.0], plain])[None, None], 1)
        except ValueError:
            return
        spec = GoalSpec(position_mm=(0.0, 0.0, 500.0), direction=direction)
        assert np.array(spec.direction).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("kwargs, match", [
        ({"position_mm": ("1", 0, 300)}, "position_mm must be a real number, not '1'"),
        ({"direction": (0, "0", 1)}, "direction must be a real number"),
        ({"position_mm": (0, 0, True)}, "position_mm must not be a boolean"),
        ({"direction": (0, 0, np.True_)}, "direction must not be a boolean"),
        ({"position_mm": 5.0}, "position_mm must be a sequence of 3 numbers"),
        ({"direction": "001"}, "direction must be a sequence of 3 numbers"),
        ({"position_mm": b"\x00\x00\x01"}, "position_mm must be a sequence of 3 numbers"),
        ({"direction": None}, "direction must be a sequence of 3 numbers"),
        ({"position_mm": (0, 0)}, "need 3 components each"),
    ])
    def test_goal_spec_refuses_what_is_not_three_reals(self, kwargs, match):
        # "1" was read as 1.0; 5.0 and None raised TypeError.
        fields = {"position_mm": (0.0, 0.0, 500.0), "direction": (0.0, 0.0, 1.0), **kwargs}
        with pytest.raises(ValueError, match=match):
            GoalSpec(**fields)

    def test_goal_spec_takes_numpy_components(self):
        spec = GoalSpec(position_mm=np.array([1.0, 2.0, 3.0]),
                        direction=(np.float32(0.0), np.int64(0), 2))
        assert spec.position_mm == (1.0, 2.0, 3.0) and spec.direction == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("goals", [5, "goals", [{"position_mm": [0, 0, 1]}], {GOAL_SPEC}],
                             ids=["int", "str", "mapping", "set"])
    def test_eval_config_refuses_goals_that_are_not_a_sequence_of_goal_specs(self, goals):
        # EvalConfig(goals=5) raised TypeError.
        with pytest.raises(ValueError, match="goals must be a sequence of GoalSpec"):
            EvalConfig(goals=goals)

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

    def test_unparsable_config_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", "arm: [1, 2\n")
        result = runner.invoke(main, ["fk", "--config", cfg] + ["0"] * 16)
        assert result.exit_code == 2
        assert "error: cannot parse config" in result.output


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
        table = tmp_path / "t.qt"
        cfg = write_config(tmp_path / "c.yaml", SMALL_PRETRAIN.format(table=table))
        # A seed is a u64, as pretrain() takes it, so 2**64 is refused up front too.
        for seed in ("-1", str(2**64)):
            result = runner.invoke(main, ["pretrain", "--config", cfg, "--seed", seed])
            assert result.exit_code == 2
            assert "--seed" in result.output
            assert not table.exists()

    @pytest.mark.parametrize("section", ["pretrain", "eval"])
    def test_a_config_seed_past_a_u64_is_refused(self, runner, tmp_path, section):
        # The config took 2**64, which the --seed flag refuses.
        with pytest.raises(ConfigError, match=rf"^{section}: seed must be < 2\*\*64"):
            config_from_mapping({section: {"seed": 2**64}})
        table, csv_dir = tmp_path / "t.qt", tmp_path / "ev"
        cfg = write_config(tmp_path / "c.yaml", f"{section}:\n  seed: {2**64}\n"
                           f"output:\n  table_path: {table}\n  eval_dir: {csv_dir}\n")
        for command in (["pretrain"], ["eval", "--zero-init"]):
            result = runner.invoke(main, command + ["--config", cfg])
            assert result.exit_code == 2, (command, result.output)
            assert f"{section}: seed must be < 2**64" in result.output
        assert not table.exists() and not csv_dir.exists()

    def test_goal_bank_path_is_an_unknown_field(self, runner, tmp_path):
        # The goal bank is sampled on every run; the field that named its cache is gone.
        with pytest.raises(ConfigError, match=r"^output: unknown field\(s\) \['goal_bank_path'\]"):
            config_from_mapping({"output": {"goal_bank_path": "bank.hpnb"}})
        table, bank = tmp_path / "t.qt", tmp_path / "bank.hpnb"
        text = SMALL_PRETRAIN.format(table=f"{table}\n  goal_bank_path: {bank}")
        result = runner.invoke(main, ["pretrain", "--config", write_config(tmp_path / "c.yaml",
                                                                           text)])
        assert result.exit_code == 2, result.output
        assert "unknown field(s) ['goal_bank_path']" in result.output
        assert not table.exists() and not bank.exists()

    def test_top_seed_is_accepted(self, runner, tmp_path):
        table = tmp_path / "t.qt"
        cfg = write_config(tmp_path / "c.yaml", SMALL_PRETRAIN.format(table=table))
        result = runner.invoke(main, ["pretrain", "--config", cfg, "--seed", str(2**64 - 1)])
        assert result.exit_code == 0, result.output
        assert load(table).trained_count() > 0

    def test_goal_bank_that_reaches_no_quota_exits_1(self, runner, tmp_path):
        # The bank is sampled on every run, so GoalBankError still reaches the CLI.
        table = tmp_path / "t.qt"
        cfg = write_config(tmp_path / "c.yaml",
                           f"pretrain:\n  quota: 2\n  budget: 1\noutput:\n  table_path: {table}\n")
        result = runner.invoke(main, ["pretrain", "--config", cfg])
        assert result.exit_code == 1, result.output
        assert "error: no goal bin reached quota 2 within 1 samples" in result.output
        assert not table.exists()

    def test_invalid_config_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", "pretrain:\n  quota: 0\n")
        assert runner.invoke(main, ["pretrain", "--config", cfg]).exit_code == 2
        for field in ("turbo: 1", "workers: 2"):
            cfg2 = write_config(tmp_path / "c2.yaml", f"pretrain:\n  {field}\n")
            assert runner.invoke(main, ["pretrain", "--config", cfg2]).exit_code == 2
        for section, name, value in NON_FINITE_VALUES + BOOLEAN_VALUES:
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
        # An integer path reached open() as a file descriptor (table_path) or a TypeError
        # traceback (eval_dir).
        paths = {"table_path": table, "eval_dir": csv_dir}
        for name in paths:
            fields = "".join(f"  {n}: {7 if n == name else p}\n" for n, p in paths.items())
            cfg6 = write_config(tmp_path / "c6.yaml", f"output:\n{fields}")
            for command in (["pretrain"], ["eval", "--zero-init"]):
                result = runner.invoke(main, command + ["--config", cfg6])
                assert result.exit_code == 2, (command, name, result.output)
                assert f"output: {name} must be a string, not 7" in result.output
            assert not any(p.exists() for p in paths.values())
        # "no" quoted is a string, and truthy: it must not lift the large-run guard.
        # (The one-sample budget fails fast, with exit 1, if the guard is lifted.)
        cfg5 = write_config(tmp_path / "c5.yaml", 'pretrain:\n  allow_large_run: "no"\n'
                            f"  quota: 600\n  budget: 1\noutput:\n  table_path: {table}\n")
        result = runner.invoke(main, ["pretrain", "--config", cfg5])
        assert result.exit_code == 2, result.output
        assert "pretrain: allow_large_run must be a boolean" in result.output
        assert not table.exists()

    def test_run_past_the_large_run_guard_exits_2(self, runner, tmp_path):
        # A one-sample budget fails fast, with exit 1, should the guard let the run through.
        table = tmp_path / "t.qt"
        cfg = write_config(tmp_path / "c.yaml", "pretrain:\n  quota: 600\n  budget: 1\n"
                           f"output:\n  table_path: {table}\n")
        result = runner.invoke(main, ["pretrain", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "quota 600 plans up to 614400 episodes" in result.output
        assert "need allow_large_run=True" in result.output
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

    @pytest.mark.parametrize("plant", ["nominal", "perturbed"])
    def test_negative_seed_flag_is_a_usage_error(self, runner, tmp_path, plant):
        out = tmp_path / "ev"
        result = runner.invoke(main, ["eval", "--zero-init", "--plant", plant,
                                      "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("plant", ["nominal", "perturbed"])
    def test_top_seed_is_accepted(self, runner, tmp_path, plant):
        # --seed takes the u64 range on every command, eval's included.
        cfg = write_config(tmp_path / "c.yaml", "eval:\n  repetitions: 1\n  max_steps: 5\n")
        out = tmp_path / "ev"
        result = runner.invoke(main, ["eval", "--config", cfg, "--zero-init", "--plant", plant,
                                      "--seed", str(2**64 - 1), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "goal_00.csv").exists()

    def test_output_directory_that_is_a_file_exits_1(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", "eval:\n  repetitions: 1\n  max_steps: 5\n")
        out = tmp_path / "taken"
        out.write_text("not a directory")
        result = runner.invoke(main, ["eval", "--config", cfg, "--zero-init", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "error:" in result.output
        assert out.read_text() == "not a directory"

    def test_goal_direction_whose_norm_overflows_runs_and_a_zero_one_exits_2(self, runner,
                                                                             tmp_path):
        # The overflowing direction was refused as not a unit vector.
        for direction, code in (("[1.0e+308, 1.0e+308, 0.0]", 0), ("[0.0, 0.0, 0.0]", 2)):
            cfg = write_config(
                tmp_path / "c.yaml",
                "eval:\n  repetitions: 1\n  max_steps: 5\n  goals:\n"
                f"    - position_mm: [0.0, 0.0, 500.0]\n      direction: {direction}\n",
            )
            out = tmp_path / f"ev{code}"
            result = runner.invoke(main, ["eval", "--config", cfg, "--zero-init",
                                          "--out", str(out)])
            assert result.exit_code == code, result.output
            if code:
                assert "error: eval.goals[0]: goal directions are not unit vectors" in (
                    result.output)
            assert out.exists() == (code == 0)

    def test_unreadable_table_exits_1(self, runner, tmp_path):
        missing = runner.invoke(main, ["eval", "--table", str(tmp_path / "no.qt")])
        assert missing.exit_code == 1
        bad = tmp_path / "bad.qt"
        bad.write_bytes(b"not a table at all")
        assert runner.invoke(main, ["eval", "--table", str(bad)]).exit_code == 1


class TestAugmentCommand:
    @pytest.fixture()
    def table_file(self, tmp_path):
        q = QTable.from_records([0, 2], [0, 0], [FLAG_TRAINED] * 2, [4.0, 8.0])
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

    def test_destination_in_a_missing_directory_exits_1(self, runner, tmp_path, table_file):
        out = tmp_path / "missing" / "o.qt"
        result = runner.invoke(main, ["augment", str(table_file), str(out)])
        assert result.exit_code == 1
        assert "error:" in result.output and not out.parent.exists()

    def test_bad_radius_exits_2(self, runner, tmp_path, table_file):
        result = runner.invoke(
            main, ["augment", str(table_file), str(tmp_path / "o.qt"), "--radius", "0"]
        )
        assert result.exit_code == 2


class TestInspectCommand:
    def test_reports_table_statistics(self, runner, tmp_path):
        q = QTable.from_records([5, 2048], [1, 3], [FLAG_TRAINED] * 2, [2.5, -1.0])
        path = tmp_path / "t.qt"
        save(q, path)
        result = runner.invoke(main, ["inspect", str(path)])
        assert result.exit_code == 0
        assert "entries: 2" in result.output
        assert "trained entries: 2" in result.output
        assert "goal bins touched: 2 (2 trained)" in result.output

    def test_counts_goal_bins_holding_trained_entries(self, runner, tmp_path):
        q = QTable.from_records([5, 2048, 7 * 1024 + 9], [1, 3, 0],
                                [FLAG_TRAINED, FLAG_AUGMENTED, FLAG_AUGMENTED], [2.5, -1.0, 0.5])
        path = tmp_path / "t.qt"
        save(q, path)
        result = runner.invoke(main, ["inspect", str(path)])
        assert result.exit_code == 0
        assert "goal bins touched: 3 (1 trained)" in result.output

    def test_prints_the_rows_held_and_their_bytes(self, runner, tmp_path):
        q = QTable.from_records([5, 5, 2048], [1, 4, 3],
                                [FLAG_TRAINED, FLAG_AUGMENTED, FLAG_TRAINED], [2.5, 1.0, -1.0])
        path = tmp_path / "t.qt"
        save(q, path)
        result = runner.invoke(main, ["inspect", str(path)])
        assert result.exit_code == 0
        # Three entries, each a uint32 key, a float32 value and a uint8 flag word.
        assert f"entries held: 3 ({3 * (4 + 4 + 1)} bytes in memory)" in result.output

    def test_missing_file_exits_1(self, runner, tmp_path):
        assert runner.invoke(main, ["inspect", str(tmp_path / "no.qt")]).exit_code == 1


@pytest.mark.parametrize("command", [["fk", *["0"] * 16], ["eval", "--zero-init"]],
                         ids=["fk", "eval"])
def test_goal_bank_path_is_refused_by_every_config_reader(runner, tmp_path, command):
    # pretrain's own case is in TestPretrainCommand; fk and eval read the same config.
    out = tmp_path / "ev"
    cfg = write_config(tmp_path / "c.yaml",
                       f"output:\n  eval_dir: {out}\n  goal_bank_path: {tmp_path / 'b.hpnb'}\n")
    result = runner.invoke(main, [*command, "--config", cfg])
    assert result.exit_code == 2, result.output
    assert "unknown field(s) ['goal_bank_path']" in result.output
    assert "position_mm" not in result.output and not out.exists()


@pytest.mark.parametrize("width", [16, 40])
@pytest.mark.parametrize("command", ["eval", "inspect", "augment"])
def test_table_of_another_width_exits_1_before_any_work(runner, tmp_path, command, width):
    # One trained record at the declared width's last action, valid CRC.
    body = (MAGIC + struct.pack("<IIQ", 1, width, 1)
            + struct.pack("<IHHf", 5, width - 1, FLAG_TRAINED, 1.0))
    path = tmp_path / "wide.hpnq"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    out = tmp_path / "out"
    args = {"eval": ["eval", "--table", str(path), "--out", str(out)],
            "inspect": ["inspect", str(path)],
            "augment": ["augment", str(path), str(out)]}[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert f"error: {path}: action count {width}, expected 32" in result.output
    assert "file:" not in result.output and not out.exists()


@pytest.mark.parametrize("error, code", [
    (ValueError("bad value"), 2),
    (ConfigError("bad config"), 2),
    (OSError("no such file"), 1),
    (QTableIOError("corrupt table"), 1),
    (GoalBankError("no goal bin reached quota 1"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_the_group_gives_every_command_the_exit_code_rule(runner, monkeypatch, error, code):
    @click.command()
    def throwaway():
        raise error

    monkeypatch.setitem(main.commands, "throwaway", throwaway)
    result = runner.invoke(main, ["throwaway"])
    assert result.exit_code == code, result.output
    assert result.output == f"error: {error}\n"


def test_the_group_leaves_other_failures_and_broken_pipes_to_click(runner, monkeypatch):
    failures = iter([TypeError("a bug"), BrokenPipeError(32, "Broken pipe")])

    @click.command()
    def throwaway():
        raise next(failures)

    monkeypatch.setitem(main.commands, "throwaway", throwaway)
    bug = runner.invoke(main, ["throwaway"])
    assert isinstance(bug.exception, TypeError) and "error:" not in bug.output
    pipe = runner.invoke(main, ["throwaway"])
    assert pipe.exit_code == 1 and pipe.output == ""
