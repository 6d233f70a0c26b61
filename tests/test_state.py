import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpnarm import (
    ArmParams,
    BinningSpec,
    GoalPose,
    StateEncoder,
    arm_forward_kinematics,
    continuous_state,
    encode,
    encode_goal_prefix,
    goal_bin,
    rest_tip_origin,
    spherical_of,
)
from hpnarm.state import (
    DIM_NAMES,
    N_GOAL_BINS,
    N_STATES,
    N_TIP_STATES,
    ContinuousState,
    DiscreteState,
    _spherical_batch,
    encode_goal_prefix_batch,
    encode_tip_suffix_batch,
    goal_frame,
    pack_bins,
    pack_bins_array,
    unpack_index,
    unpack_index_array,
)
from oracles import oracle_continuous_dims, oracle_state_index

bin_tuples = st.tuples(*[st.integers(0, 3) for _ in range(10)])

# Neutral mid-bin values, one per dimension; tests overwrite single dims.
_NEUTRAL = (150.0, 0.3, 1.0, 0.3, 0.5, 10.0, 0.3, 1.0, 0.3, 1.0)


def state_with(dim, value):
    values = list(_NEUTRAL)
    values[dim] = value
    return ContinuousState(*values)


def random_goal_tip(rng, params):
    origin = rest_tip_origin(params.l0_mm)
    goal_pos = origin + rng.uniform(-300.0, 300.0, 3)
    goal_dir = rng.normal(size=3)
    goal_dir /= np.linalg.norm(goal_dir)
    tip = arm_forward_kinematics(rng.uniform(0.0, params.p_max_kpa, 16), params)
    return GoalPose(position=goal_pos, direction=goal_dir), tip, origin


class TestSphericalOf:
    def test_up_vector(self):
        assert spherical_of((0.0, 0.0, 1.0)) == (1.0, 0.0, 0.0)

    def test_x_vector(self):
        r, theta, phi = spherical_of((1.0, 0.0, 0.0))
        assert (r, theta) == (1.0, 0.0)
        assert phi == pytest.approx(math.pi / 2)

    def test_diagonal_vector(self):
        r, theta, phi = spherical_of((1.0, 1.0, math.sqrt(2.0)))
        assert r == pytest.approx(2.0)
        assert theta == pytest.approx(math.pi / 4)
        assert phi == pytest.approx(math.pi / 4)

    def test_zero_vector_canonical_angles(self):
        assert spherical_of((0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_negative_x_azimuth_folds_into_range(self):
        _, theta, _ = spherical_of((-1.0, 0.0, 0.0))
        assert theta == -math.pi

    def test_batch_is_bit_identical_to_scalar(self, rng):
        v = rng.normal(0.0, 200.0, (500, 3))
        v[0] = 0.0
        v[1] = (-1.0, 0.0, 0.0)  # azimuth pi, folded to -pi
        v[2] = (0.0, 0.0, -3.0)
        v[3] = (1e-13, 0.0, 0.0)  # below the zero-radius cutoff
        batch = np.column_stack(_spherical_batch(v[:, 0], v[:, 1], v[:, 2]))
        for row, got in zip(v, batch.tolist()):
            assert tuple(got) == spherical_of(row)

    @given(
        v=st.tuples(
            st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)
        )
    )
    def test_ranges(self, v):
        r, theta, phi = spherical_of(v)
        assert r >= 0.0
        assert -math.pi <= theta < math.pi
        assert 0.0 <= phi <= math.pi


class TestContinuousState:
    def test_tip_on_goal_with_matching_direction(self, params, binning):
        origin = rest_tip_origin(params.l0_mm)
        tip = arm_forward_kinematics(np.full(16, 20.0), params)
        goal = GoalPose(position=tip[:3, 3].copy(), direction=tip[:3, 2].copy())
        cs = continuous_state(goal, tip, origin)
        assert cs.d_tip == pytest.approx(0.0, abs=1e-9)
        assert cs.theta_etip == pytest.approx(0.0, abs=1e-9)
        assert cs.phi_etip == pytest.approx(0.0, abs=1e-6)

    def test_goal_straight_above_origin(self, params):
        origin = rest_tip_origin(params.l0_mm)
        goal = GoalPose(position=origin + (0.0, 0.0, 100.0), direction=np.array([0.0, 0.0, 1.0]))
        cs = continuous_state(goal, np.eye(4), origin)
        assert cs.d_goal == pytest.approx(100.0)
        assert cs.phi_dgoal == pytest.approx(0.0)
        assert cs.phi_egoal == pytest.approx(0.0)

    def test_matches_scratch_construction(self, params, rng):
        for _ in range(200):
            goal, tip, origin = random_goal_tip(rng, params)
            cs = continuous_state(goal, tip, origin)
            expected = oracle_continuous_dims(
                goal.position, goal.direction, tip[:3, 3], tip[:3, 2], origin
            )
            assert cs.as_tuple() == pytest.approx(expected, abs=1e-9)

    def test_goal_direction_along_world_x_uses_fallback_frame(self, params):
        origin = rest_tip_origin(params.l0_mm)
        goal = GoalPose(position=origin + (50.0, 0.0, 0.0), direction=np.array([1.0, 0.0, 0.0]))
        tip = np.eye(4)
        cs = continuous_state(goal, tip, origin)
        assert math.isfinite(cs.theta_etip)
        assert math.isfinite(cs.phi_etip)
        expected = oracle_continuous_dims(
            goal.position, goal.direction, tip[:3, 3], tip[:3, 2], origin
        )
        assert cs.as_tuple() == pytest.approx(expected, abs=1e-9)


class TestEncode:
    def test_zero_tip_distance_in_innermost_bin(self, binning):
        assert encode(state_with(5, 0.0), binning).bins[5] == 0

    def test_mid_tip_distance_bin(self, binning):
        assert encode(state_with(5, 45.0), binning).bins[5] == 2

    def test_all_minimum_values_give_index_zero(self, binning):
        cs = ContinuousState(0.0, -math.pi, 0.0, -math.pi, 0.0, 0.0, -math.pi, 0.0, -math.pi, 0.0)
        assert encode(cs, binning).index == 0

    @pytest.mark.parametrize("dim", range(10), ids=DIM_NAMES)
    def test_interior_edges_belong_to_upper_bin(self, binning, dim):
        for upper_bin, edge in enumerate(binning.all_edges()[dim], start=1):
            assert encode(state_with(dim, edge), binning).bins[dim] == upper_bin
            below = math.nextafter(edge, -math.inf)
            assert encode(state_with(dim, below), binning).bins[dim] == upper_bin - 1

    def test_goal_distance_clamps_beyond_ceiling(self, binning):
        assert encode(state_with(0, binning.d_max_mm + 50.0), binning).bins[0] == 3
        assert encode(state_with(5, 1e6), binning).bins[5] == 3

    def test_elevation_endpoint_lands_in_last_bin(self, binning):
        assert encode(state_with(2, math.pi), binning).bins[2] == 3

    @given(d1=st.floats(0.0, 500.0), d2=st.floats(0.0, 500.0))
    def test_tip_distance_binning_is_monotone(self, binning, d1, d2):
        lo, hi = sorted((d1, d2))
        assert (
            encode(state_with(5, lo), binning).bins[5]
            <= encode(state_with(5, hi), binning).bins[5]
        )

    def test_matches_digitize_oracle(self, params, binning, rng):
        for _ in range(200):
            goal, tip, origin = random_goal_tip(rng, params)
            ds = encode(continuous_state(goal, tip, origin), binning)
            expected = oracle_state_index(
                goal.position, goal.direction, tip[:3, 3], tip[:3, 2], origin,
                binning.d_tip_edges_mm, binning.phi_egoal_edges_rad, binning.d_max_mm,
            )
            assert ds.index == expected


class TestPacking:
    @given(bins=bin_tuples)
    def test_pack_unpack_round_trip(self, bins):
        assert unpack_index(pack_bins(bins)) == bins

    @given(index=st.integers(0, N_STATES - 1))
    def test_unpack_pack_round_trip(self, index):
        assert pack_bins(unpack_index(index)) == index

    def test_vectorized_matches_scalar(self, rng):
        idx = rng.integers(0, N_STATES, 512)
        bins = unpack_index_array(idx)
        for i in range(512):
            assert tuple(bins[i]) == unpack_index(int(idx[i]))
        assert (pack_bins_array(bins) == idx).all()

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            unpack_index(N_STATES)
        with pytest.raises(ValueError):
            unpack_index(-1)

    def test_discrete_state_consistency_enforced(self):
        with pytest.raises(ValueError):
            DiscreteState(bins=(0,) * 10, index=5)
        with pytest.raises(ValueError):
            DiscreteState.from_bins((4,) + (0,) * 9)


class TestGoalBin:
    def test_index_zero(self):
        assert goal_bin(DiscreteState.from_index(0)) == 0

    def test_leading_bin_weight(self):
        ds = DiscreteState.from_bins((1, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        assert goal_bin(ds) == 256

    def test_max_prefix(self):
        for suffix in (0, 1, N_TIP_STATES - 1):
            ds = DiscreteState.from_index((N_GOAL_BINS - 1) * N_TIP_STATES + suffix)
            assert goal_bin(ds) == N_GOAL_BINS - 1

    @given(prefix=st.tuples(*[st.integers(0, 3) for _ in range(5)]),
           suffix_a=st.tuples(*[st.integers(0, 3) for _ in range(5)]),
           suffix_b=st.tuples(*[st.integers(0, 3) for _ in range(5)]))
    def test_invariant_under_tip_dims(self, prefix, suffix_a, suffix_b):
        a = DiscreteState.from_bins(prefix + suffix_a)
        b = DiscreteState.from_bins(prefix + suffix_b)
        assert goal_bin(a) == goal_bin(b)

    def test_prefix_encoder_agrees_with_full_encode(self, params, binning, rng):
        origin = rest_tip_origin(params.l0_mm)
        for _ in range(100):
            goal, tip, origin = random_goal_tip(rng, params)
            ds = encode(continuous_state(goal, tip, origin), binning)
            assert encode_goal_prefix(goal.position, goal.direction, origin, binning) == goal_bin(ds)

    def test_batch_prefix_encoder_agrees_with_scalar(self, params, binning, rng):
        origin = rest_tip_origin(params.l0_mm)
        pos = origin + rng.uniform(-300.0, 300.0, (256, 3))
        dirs = rng.normal(size=(256, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        batch = encode_goal_prefix_batch(pos, dirs, origin, binning)
        for i in range(256):
            assert batch[i] == encode_goal_prefix(pos[i], dirs[i], origin, binning)


class TestStateEncoder:
    def test_matches_direct_construction(self, params, binning, rng):
        for _ in range(50):
            goal, tip, origin = random_goal_tip(rng, params)
            enc = StateEncoder(goal, origin, binning)
            direct = encode(continuous_state(goal, tip, origin), binning)
            assert enc.encode_tip(tip[:3, 3], tip[:3, 2]) == direct
            assert enc.goal_bin == goal_bin(direct)


    def test_suffix_batch_matches_per_goal_encoders(self, params, binning, rng):
        pairs = [random_goal_tip(rng, params)[:2] for _ in range(300)]
        # a tip sitting exactly on its goal takes the zero-radius branch
        tip = pairs[0][1]
        pairs.append((GoalPose(position=tip[:3, 3], direction=tip[:3, 2]), tip))
        goals = [g for g, _ in pairs]
        tips = np.array([t for _, t in pairs])
        suffix = encode_tip_suffix_batch(
            tips[:, :3, 3], tips[:, :3, 2],
            np.array([g.position for g in goals]),
            np.array([goal_frame(g.direction).T for g in goals]),
            binning,
        )
        origin = rest_tip_origin(params.l0_mm)
        for goal, tip, s in zip(goals, tips, suffix.tolist()):
            index = StateEncoder(goal, origin, binning).encode_tip_index(tip[:3, 3], tip[:3, 2])
            assert index % N_TIP_STATES == s

class TestValidation:
    def test_goal_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            GoalPose(position=np.zeros(3), direction=np.array([0.0, 0.0, 2.0]))

    def test_goal_pose_must_be_finite(self):
        with pytest.raises(ValueError):
            GoalPose(position=np.array([math.nan, 0.0, 0.0]), direction=np.array([0.0, 0.0, 1.0]))

    def test_binning_edges_must_increase(self):
        with pytest.raises(ValueError):
            BinningSpec(d_tip_edges_mm=(30.0, 5.0, 60.0))

    def test_binning_ceiling_must_be_positive(self):
        with pytest.raises(ValueError):
            BinningSpec(d_max_mm=0.0)
