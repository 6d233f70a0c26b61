import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpnarm import (
    ActionSpec,
    ArmParams,
    BinningSpec,
    GoalPose,
    HyperParams,
    PerturbedPlantConfig,
    RewardSpec,
    StateEncoder,
    arm_forward_kinematics,
    rest_tip_origin,
    tip_batch,
)
from hpnarm.kinematics import tip_screen
from hpnarm.state import (
    GOAL_DIMS,
    N_BINS_PER_DIM,
    N_GOAL_BINS,
    N_STATES,
    N_TIP_STATES,
    _ELEVATION_GUARDS,
    _direction_bins,
    bin_and_pack,
    encode_goal_prefix,
    encode_goal_prefix_batch,
    encode_tip_stack,
    goal_frame,
    screen_goal_prefix_batch,
    spherical_of,
)
from oracles import (
    DIM_NAMES,
    oracle_bin_index,
    oracle_state_index,
    pack_bins,
    pack_bins_array,
    unpack_index,
    unpack_index_array,
)

bin_tuples = st.tuples(*[st.integers(0, 3) for _ in range(10)])
goal_digits = st.tuples(*[st.integers(0, 3) for _ in range(GOAL_DIMS)])

# Neutral mid-bin values, one per dimension; tests overwrite single dims.
_NEUTRAL = (150.0, 0.3, 1.0, 0.3, 0.5, 10.0, 0.3, 1.0, 0.3, 1.0)
_ELEVATION_DIMS = (2, 4, 7, 9)


def values_with(dim, value):
    values = list(_NEUTRAL)
    values[dim] = value
    return values


def bins_of(values, binning):
    """Bin digits of ten raw values from the scalar packer."""
    return unpack_index(bin_and_pack(values, binning.all_edges()))


def values_for_digits(digits, edges):
    """A raw value per dim that lands in the given bin: an edge, or just below the first."""
    return [e[d - 1] if d else math.nextafter(e[0], -math.inf) for d, e in zip(digits, edges)]


def random_goal_tip(rng, params):
    origin = rest_tip_origin(params.l0_mm)
    goal_pos = origin + rng.uniform(-300.0, 300.0, 3)
    goal_dir = rng.normal(size=3)
    goal_dir /= np.linalg.norm(goal_dir)
    tip = arm_forward_kinematics(rng.uniform(0.0, params.p_max_kpa, 16), params)
    return GoalPose(position=goal_pos, direction=goal_dir), tip, origin


def check_against_oracle(goal, tip, origin, binning, enc=None):
    """encode_tip_index, goal_bin and encode_goal_prefix agree with the scratch oracle."""
    expected = oracle_state_index(
        goal.position, goal.direction, tip[:3, 3], tip[:3, 2], origin,
        binning.d_tip_edges_mm, binning.phi_egoal_edges_rad, binning.d_max_mm,
    )
    if enc is None:
        enc = StateEncoder(goal, origin, binning)
    assert enc.encode_tip_index(tip[:3, 3], tip[:3, 2]) == expected
    assert enc.goal_bin == expected // N_TIP_STATES
    assert encode_goal_prefix(goal.position, goal.direction, origin, binning) == enc.goal_bin
    return expected


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

    def test_batch_bins_match_the_scalar_angles(self, binning, rng):
        # Angles on and one ulp either side of every edge and the pi fold,
        # where a last-bit difference between numpy and math changes a bin.
        angles = np.array([-math.pi, -math.pi / 2, 0.0, math.pi / 4, math.pi / 2,
                           3 * math.pi / 4, math.pi, *binning.phi_egoal_edges_rad])
        angles = np.concatenate([angles, np.nextafter(angles, 4.0), np.nextafter(angles, -4.0)])
        c, s = np.cos(angles), np.sin(angles)
        zeros = np.zeros_like(angles)
        v = np.concatenate([
            rng.normal(0.0, 200.0, (500, 3)),
            np.column_stack([c, s, zeros]),   # azimuth near an edge
            np.column_stack([s, zeros, c]),   # elevation near an edge
            np.column_stack([-s, -zeros, c]),
            [(0.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (-1.0, -0.0, 0.0), (0.0, 0.0, -3.0),
             (1e-13, 0.0, 0.0)],              # zero radius, the fold, the elevation pi
        ])
        edges = binning.all_edges()
        # The tip elevations' guards, then the goal direction's phi_egoal guards.
        for phi_dim, guards in ((7, _ELEVATION_GUARDS), (4, binning.phi_egoal_guards)):
            r, angles = _direction_bins(v, edges[phi_dim], guards)
            for row, got in zip(v, zip(r.tolist(), angles.tolist())):
                r_s, theta_s, phi_s = spherical_of(row)
                assert got == (r_s, bin_and_pack([theta_s, phi_s],
                                                 (edges[6], edges[phi_dim])))

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
    """The ten raw coordinates as the production encoders bin them, against the oracle."""

    def test_tip_on_goal_with_matching_direction(self, params, binning):
        origin = rest_tip_origin(params.l0_mm)
        tip = arm_forward_kinematics(np.full(16, 20.0), params)
        goal = GoalPose(position=tip[:3, 3].copy(), direction=tip[:3, 2].copy())
        bins = unpack_index(check_against_oracle(goal, tip, origin, binning))
        # zero tip distance: innermost bin, canonical angles 0 (theta on an edge, so bin 2)
        assert bins[5:8] == (0, 2, 0)
        assert bins[9] == 0  # tip points along the goal direction

    def test_goal_straight_above_origin(self, params, binning):
        origin = rest_tip_origin(params.l0_mm)
        goal = GoalPose(position=origin + (0.0, 0.0, 100.0), direction=np.array([0.0, 0.0, 1.0]))
        index = check_against_oracle(goal, np.eye(4), origin, binning)
        # d_goal 100 sits on the first edge; both azimuths are the canonical 0, an edge too
        assert unpack_index(index)[:GOAL_DIMS] == (1, 2, 0, 2, 0)

    def test_matches_scratch_construction(self, params, binning, rng):
        for _ in range(200):
            check_against_oracle(*random_goal_tip(rng, params), binning)

    def test_goal_direction_along_world_x_uses_fallback_frame(self, params, binning, rng):
        origin = rest_tip_origin(params.l0_mm)
        goal = GoalPose(position=origin + (50.0, 0.0, 0.0), direction=np.array([1.0, 0.0, 0.0]))
        # the tip direction +z maps to +y of the world-y-seeded frame: theta pi/2, phi pi/2
        assert unpack_index(check_against_oracle(goal, np.eye(4), origin, binning))[8:] == (3, 2)
        for _ in range(20):
            tip = random_goal_tip(rng, params)[1]
            check_against_oracle(goal, tip, origin, binning)


class TestEncode:
    """Edge semantics of the scalar bin-and-pack routine."""

    def test_zero_tip_distance_in_innermost_bin(self, binning):
        assert bins_of(values_with(5, 0.0), binning)[5] == 0

    def test_mid_tip_distance_bin(self, binning):
        assert bins_of(values_with(5, 45.0), binning)[5] == 2

    def test_all_minimum_values_give_index_zero(self, binning):
        values = (0.0, -math.pi, 0.0, -math.pi, 0.0, 0.0, -math.pi, 0.0, -math.pi, 0.0)
        assert bins_of(values, binning) == (0,) * 10

    @pytest.mark.parametrize("dim", range(10), ids=DIM_NAMES)
    def test_interior_edges_belong_to_upper_bin(self, binning, dim):
        for upper_bin, edge in enumerate(binning.all_edges()[dim], start=1):
            assert bins_of(values_with(dim, edge), binning)[dim] == upper_bin
            below = math.nextafter(edge, -math.inf)
            assert bins_of(values_with(dim, below), binning)[dim] == upper_bin - 1

    @pytest.mark.parametrize("dim", range(10), ids=DIM_NAMES)
    def test_values_past_the_last_edge_clamp_to_bin_3(self, binning, dim):
        last = binning.all_edges()[dim][-1]
        for value in (math.nextafter(last, math.inf), last + 1.0, 1e6):
            assert bins_of(values_with(dim, value), binning)[dim] == 3

    def test_goal_distance_clamps_beyond_ceiling(self, binning):
        assert bins_of(values_with(0, binning.d_max_mm + 50.0), binning)[0] == 3
        assert bins_of(values_with(5, 1e6), binning)[5] == 3

    def test_elevation_endpoint_lands_in_last_bin(self, binning):
        for dim in _ELEVATION_DIMS:
            assert bins_of(values_with(dim, math.pi), binning)[dim] == 3

    @given(d1=st.floats(0.0, 500.0), d2=st.floats(0.0, 500.0))
    def test_tip_distance_binning_is_monotone(self, binning, d1, d2):
        lo, hi = sorted((d1, d2))
        assert bins_of(values_with(5, lo), binning)[5] <= bins_of(values_with(5, hi), binning)[5]

    def test_matches_digitize_oracle(self, binning, rng):
        edges = binning.all_edges()
        on_edges = [[e[i % 3] for e in edges] for i in range(3)]
        spread = [rng.uniform(-0.5, 1.5, 10) * np.array([e[2] - e[0] for e in edges])
                  + np.array([e[0] for e in edges]) for _ in range(300)]
        for values in on_edges + [v.tolist() for v in spread]:
            expected = oracle_bin_index(values, binning.d_tip_edges_mm,
                                        binning.phi_egoal_edges_rad, binning.d_max_mm)
            assert bin_and_pack(values, edges) == expected


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


class TestGoalBin:
    """The goal bin is the packed goal prefix, and the tip dims pack on below it."""

    def test_index_zero(self, binning):
        edges = binning.all_edges()
        values = values_for_digits((0,) * 10, edges)
        assert bin_and_pack(values[:GOAL_DIMS], edges[:GOAL_DIMS]) == 0
        assert bin_and_pack(values, edges) == 0

    def test_leading_bin_weight(self, binning):
        edges = binning.all_edges()[:GOAL_DIMS]
        assert bin_and_pack(values_for_digits((1, 0, 0, 0, 0), edges), edges) == 256

    def test_max_prefix(self, binning):
        edges = binning.all_edges()
        prefix = bin_and_pack(values_for_digits((3,) * GOAL_DIMS, edges), edges[:GOAL_DIMS])
        assert prefix == N_GOAL_BINS - 1
        for suffix in (0, 1, N_TIP_STATES - 1):
            tip_values = values_for_digits(unpack_index(suffix)[GOAL_DIMS:], edges[GOAL_DIMS:])
            index = bin_and_pack(tip_values, edges[GOAL_DIMS:], prefix)
            assert index == prefix * N_TIP_STATES + suffix
            assert index // N_TIP_STATES == N_GOAL_BINS - 1

    @given(prefix=goal_digits, suffix_a=goal_digits, suffix_b=goal_digits)
    def test_invariant_under_tip_dims(self, binning, prefix, suffix_a, suffix_b):
        edges = binning.all_edges()
        goal = bin_and_pack(values_for_digits(prefix, edges), edges[:GOAL_DIMS])
        for suffix in (suffix_a, suffix_b):
            tip_values = values_for_digits(suffix, edges[GOAL_DIMS:])
            index = bin_and_pack(tip_values, edges[GOAL_DIMS:], goal)
            assert index // N_TIP_STATES == goal
            assert index == pack_bins(prefix + suffix)

    def test_prefix_encoder_agrees_with_full_encode(self, params, binning, rng):
        for _ in range(100):
            goal, tip, origin = random_goal_tip(rng, params)
            enc = StateEncoder(goal, origin, binning)
            prefix = encode_goal_prefix(goal.position, goal.direction, origin, binning)
            assert prefix == enc.goal_bin
            assert enc.encode_tip_index(tip[:3, 3], tip[:3, 2]) // N_TIP_STATES == prefix

    def test_batch_prefix_encoder_agrees_with_scalar(self, params, binning, rng):
        origin = rest_tip_origin(params.l0_mm)
        pos = origin + rng.uniform(-300.0, 300.0, (256, 3))
        dirs = rng.normal(size=(256, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        batch = encode_goal_prefix_batch(pos, dirs, origin, binning)
        for i in range(256):
            assert batch[i] == encode_goal_prefix(pos[i], dirs[i], origin, binning)

    @pytest.mark.parametrize("binning", [
        BinningSpec(),
        BinningSpec(phi_egoal_edges_rad=(0.3, 1.2, 2.5), d_max_mm=250.0),
    ], ids=["default", "other-edges"])
    def test_batch_prefix_encoder_matches_scalar_on_every_goal_edge(self, params, binning):
        # Goal vectors on and one ulp either side of every goal-dim edge.
        def around(values):
            values = np.array(values, dtype=float)
            return np.unique(np.concatenate(
                [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]))

        d = binning.d_max_mm
        radii = around([0.0, d / 4, d / 2, 3 * d / 4])
        azimuths = around([-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi])
        elevations = around([math.pi / 4, math.pi / 2, 3 * math.pi / 4,
                             *binning.phi_egoal_edges_rad, 0.0, math.pi])
        theta, phi = (a.reshape(-1) for a in np.meshgrid(azimuths, elevations))
        units = np.column_stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                                 np.cos(phi)])
        # Axis-aligned offsets put the radius exactly on its edges.
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        offsets = radii[:, None, None] * np.concatenate([units, axes])[None]
        offsets = offsets.reshape(-1, 3)
        directions = units[np.arange(len(offsets)) % len(units)]
        for origin in (np.zeros(3), rest_tip_origin(params.l0_mm)):
            positions = origin + offsets
            batch = encode_goal_prefix_batch(positions, directions, origin, binning)
            scalar = [encode_goal_prefix(p, u, origin, binning)
                      for p, u in zip(positions, directions)]
            assert batch.tolist() == scalar


class TestStateEncoder:
    def test_matches_direct_construction(self, params, binning, rng):
        # one encoder per goal, fed a run of tips, as an episode uses it
        for _ in range(10):
            goal, _, origin = random_goal_tip(rng, params)
            enc = StateEncoder(goal, origin, binning)
            for _ in range(20):
                tip = arm_forward_kinematics(rng.uniform(0.0, params.p_max_kpa, 16), params)
                check_against_oracle(goal, tip, origin, binning, enc)

    def test_suffix_batch_matches_per_goal_encoders(self, params, binning, rng):
        pairs = [random_goal_tip(rng, params)[:2] for _ in range(300)]
        # a tip sitting exactly on its goal takes the zero-radius branch
        tip = pairs[0][1]
        pairs.append((GoalPose(position=tip[:3, 3], direction=tip[:3, 2]), tip))
        goals = [g for g, _ in pairs]
        tips = np.array([t for _, t in pairs])
        frames = np.array([goal_frame(g.direction).T for g in goals])
        terms = frames * tips[:, None, :3, 2]  # summed in encode_tip_index's order
        v = np.concatenate([tips[:, :3, 3] - np.array([g.position for g in goals]),
                            terms[:, :, 0] + terms[:, :, 1] + terms[:, :, 2]])
        radius, suffix = encode_tip_stack(v, binning)
        origin = rest_tip_origin(params.l0_mm)
        for goal, tip, r, s in zip(goals, tips, radius.tolist(), suffix.tolist()):
            index = StateEncoder(goal, origin, binning).encode_tip_index(tip[:3, 3], tip[:3, 2])
            assert index % N_TIP_STATES == s
            assert r == spherical_of(tip[:3, 3] - goal.position)[0]


class TestValidation:
    def test_goal_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            GoalPose(position=np.zeros(3), direction=np.array([0.0, 0.0, 2.0]))

    def test_goal_pose_must_be_finite(self):
        with pytest.raises(ValueError):
            GoalPose(position=np.array([math.nan, 0.0, 0.0]), direction=np.array([0.0, 0.0, 1.0]))

    def test_goal_direction_whose_norm_overflows_is_not_unit(self):
        with pytest.raises(ValueError, match="not unit vectors"):
            GoalPose(position=np.zeros(3), direction=np.array([1e308, 1e308, 0.0]))

    def test_binning_edges_must_increase(self):
        with pytest.raises(ValueError):
            BinningSpec(d_tip_edges_mm=(30.0, 5.0, 60.0))

    def test_binning_needs_three_edges(self):
        with pytest.raises(ValueError, match="d_tip_edges_mm needs three finite interior edges"):
            BinningSpec(d_tip_edges_mm=(5.0, 30.0))

    # Each raised TypeError: 'float' object is not iterable (or 'NoneType').
    @pytest.mark.parametrize("name", ["d_tip_edges_mm", "phi_egoal_edges_rad"])
    @pytest.mark.parametrize("edges", [5.0, 1, np.float64(0.5), np.array(0.5), None],
                             ids=["float", "int", "float64", "0-d-array", "None"])
    def test_binning_edges_that_are_not_a_sequence_rejected(self, name, edges):
        with pytest.raises(ValueError, match=f"{name} needs three finite interior edges"):
            BinningSpec(**{name: edges})

    def test_goal_elevation_edges_must_clear_their_guards(self):
        with pytest.raises(ValueError, match="2e-9 rad apart"):
            BinningSpec(phi_egoal_edges_rad=(0.1, 0.1 + 1e-9, 1.0))

    def test_binning_ceiling_must_be_positive(self):
        with pytest.raises(ValueError):
            BinningSpec(d_max_mm=0.0)

    # Each spec accepted the first seven (a bool ran as 1 or 0, a numeric string
    # edge as its float); a string delta_p_kpa raised TypeError.
    @pytest.mark.parametrize("spec, kwargs, message", [
        pytest.param(ArmParams, {"p_max_kpa": True}, "p_max_kpa must not be a boolean, got True",
                     id="arm-bool"),
        pytest.param(ActionSpec, {"delta_p_kpa": True},
                     "delta_p_kpa must not be a boolean, got True", id="action-bool"),
        pytest.param(RewardSpec, {"goal_bonus": True}, "goal_bonus must not be a boolean, got True",
                     id="reward-bool"),
        pytest.param(PerturbedPlantConfig, {"tip_noise_sigma_mm": True},
                     "tip_noise_sigma_mm must not be a boolean, got True", id="noise-bool"),
        pytest.param(HyperParams, {"epsilon": True}, "epsilon must not be a boolean, got True",
                     id="hyper-bool"),
        pytest.param(PerturbedPlantConfig, {"scale_spread": False},
                     "scale_spread must not be a boolean, got False", id="spread-bool"),
        pytest.param(BinningSpec, {"d_tip_edges_mm": ("5", "30", "60")},
                     "d_tip_edges_mm must be a real number, not '5'", id="edges-str"),
        pytest.param(ActionSpec, {"delta_p_kpa": "5"},
                     "delta_p_kpa must be a real number, not '5'", id="action-str"),
        pytest.param(HyperParams, {"alpha": "0.2"}, "alpha must be a real number, not '0.2'",
                     id="hyper-str"),
        pytest.param(BinningSpec, {"phi_egoal_edges_rad": (0.1, np.True_, 1.0)},
                     "phi_egoal_edges_rad must not be a boolean", id="edges-numpy-bool"),
        pytest.param(ArmParams, {"a_gain": None}, "a_gain must be a real number, not None",
                     id="arm-none"),
    ])
    def test_real_fields_refuse_booleans_and_non_numbers(self, spec, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            spec(**kwargs)

    def test_real_fields_take_ints_and_numpy_reals(self):
        assert ArmParams(p_max_kpa=np.float32(60.0), l0_mm=150).p_max_kpa == 60.0
        assert HyperParams(epsilon=np.float64(0.5), alpha=1).epsilon == 0.5
        spec = BinningSpec(d_tip_edges_mm=np.array([5, 30, 60], dtype=np.int16))
        assert spec.d_tip_edges_mm == (5.0, 30.0, 60.0)


def screened_and_exact_bins(pressures, params, binning):
    """screen_goal_prefix_batch's bins and sure rows over tip_screen, and the exact bins."""
    origin = rest_tip_origin(params.l0_mm)
    positions, directions, sure, guards = tip_screen(pressures, params)
    bins, sure = screen_goal_prefix_batch(positions, directions, sure, guards, origin, binning)
    exact = encode_goal_prefix_batch(*tip_batch(pressures, params), origin, binning)
    return bins, sure, exact


class TestGoalPrefixScreen:
    @given(
        a_gain=st.floats(-5.0, -1.3).map(lambda e: 10.0**e),
        l0_mm=st.floats(1.0, 3.3).map(lambda e: 10.0**e),
        k_eps=st.floats(-9.0, -1.5).map(lambda e: 10.0**e),
        d_max_mm=st.floats(0.0, 3.0).map(lambda e: 10.0**e),
        phi_first=st.floats(1e-3, 3.0),
        phi_gap=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_a_sure_row_has_the_exact_bin(self, a_gain, l0_mm, k_eps, d_max_mm, phi_first,
                                          phi_gap, seed):
        params = ArmParams(a_gain=a_gain, l0_mm=l0_mm, k_eps=k_eps)
        binning = BinningSpec(d_max_mm=d_max_mm, phi_egoal_edges_rad=(
            phi_first, phi_first + phi_gap, phi_first + 2.0 * phi_gap))
        rng = np.random.default_rng(seed)
        for _ in range(13):  # 106,496 rows, in batches the size of the goal bank's
            pressures = rng.random((8192, 16)) * params.p_max_kpa
            bins, sure, exact = screened_and_exact_bins(pressures, params, binning)
            assert (bins[sure] == exact[sure]).all()

    def test_nearly_every_default_row_is_sure(self, params, binning):
        pressures = np.random.default_rng(8).random((8192, 16)) * params.p_max_kpa
        bins, sure, exact = screened_and_exact_bins(pressures, params, binning)
        assert sure.mean() > 0.95 and (bins[sure] == exact[sure]).all()

    def test_a_straight_arm_on_the_axis_goes_exact(self, params, binning):
        # At rest the tip sits on the goal origin (zero radius); pressurized
        # evenly it rises along the axis, on the azimuth edges and the fold,
        # and so does its direction.
        pressures = np.array([np.zeros(16), np.full(16, 30.0)])
        assert not screened_and_exact_bins(pressures, params, binning)[1].any()
        # The bin screen alone finds them in the exact tips, as sure as the FK screen may be.
        positions, directions = tip_batch(pressures, params)
        assert (positions[:, :2] == 0.0).all() and (directions == (0.0, 0.0, 1.0)).all()
        guards = tip_screen(pressures, params)[3]
        _, sure = screen_goal_prefix_batch(positions, directions, np.ones(2, dtype=bool), guards,
                                           rest_tip_origin(params.l0_mm), binning)
        assert not sure.any()

    def test_a_tip_on_a_d_goal_edge_goes_exact(self, params):
        pressures = np.random.default_rng(6).random((2, 16)) * params.p_max_kpa
        positions, _ = tip_batch(pressures, params)
        rel = positions[0] - rest_tip_origin(params.l0_mm)
        radius = math.sqrt(rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2])
        binning = BinningSpec(d_max_mm=4.0 * radius)  # the first edge is the radius itself
        assert binning.edge_arrays[0][0] == radius
        bins, sure, exact = screened_and_exact_bins(pressures, params, binning)
        assert exact[0] // N_BINS_PER_DIM**4 == 1
        assert sure.tolist() == [False, True] and bins[1] == exact[1]
