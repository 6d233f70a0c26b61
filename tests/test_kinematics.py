import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpnarm import (
    ArmParams,
    PressureRangeError,
    SegmentConfig,
    actuation_to_config,
    arm_forward_kinematics,
    segment_transform,
    tip_batch,
    validate_pressures,
)
from hpnarm import config, kinematics
from hpnarm.config import default_eval_goals
from hpnarm.kinematics import segment_transform_batch, tip_screen
from oracles import oracle_arm_pose, oracle_tip_batch

configs = st.builds(
    SegmentConfig,
    k=st.floats(0.0, 0.2),
    phi=st.floats(-math.pi, math.pi, exclude_max=True),
    l=st.floats(50.0, 250.0),
)

pressure_vectors = st.lists(
    st.floats(0.0, 60.0, allow_nan=False), min_size=16, max_size=16
)


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    out = np.eye(4)
    out[0, 0] = c
    out[0, 1] = -s
    out[1, 0] = s
    out[1, 1] = c
    return out


class TestActuationToConfig:
    def test_symmetric_pressures_are_straight(self, params):
        q = 37.5
        cfg = actuation_to_config((q, q, q, q), params)
        assert cfg.k == 0.0
        assert cfg.phi == 0.0
        assert cfg.l == pytest.approx(4 * params.b_gain * q + params.l0_mm)

    def test_single_chamber_bends_along_first_pair_axis(self):
        params = ArmParams(a_gain=0.001)
        q = 40.0
        cfg = actuation_to_config((q, 0.0, 0.0, 0.0), params)
        assert cfg.k == pytest.approx(0.001 * q, rel=1e-12)
        assert cfg.phi == pytest.approx(-math.pi / 4, abs=1e-12)

    def test_equal_pair_pressures_bend_along_x(self, params):
        q = 25.0
        cfg = actuation_to_config((q, q, 0.0, 0.0), params)
        assert cfg.phi == pytest.approx(0.0, abs=1e-12)
        assert cfg.k == pytest.approx(params.a_gain * math.sqrt(2) * q, rel=1e-12)

    def test_elongation_is_monotone_in_pressure_sum(self, params):
        base = actuation_to_config((10.0, 10.0, 10.0, 10.0), params)
        more = actuation_to_config((11.0, 10.0, 10.0, 10.0), params)
        assert more.l > base.l

    @pytest.mark.parametrize("scale", [0.25, 0.5, 2.0])
    def test_curvature_scales_linearly_with_antagonistic_difference(self, params, scale):
        p1, p3 = 40.0, 10.0
        p2, p4 = 35.0, 15.0
        mid13, mid24 = (p1 + p3) / 2, (p2 + p4) / 2
        half13, half24 = scale * (p1 - p3) / 2, scale * (p2 - p4) / 2
        cfg = actuation_to_config((p1, p2, p3, p4), params)
        scaled = actuation_to_config(
            (mid13 + half13, mid24 + half24, mid13 - half13, mid24 - half24), params
        )
        assert scaled.k == pytest.approx(scale * cfg.k, rel=1e-12)

    @given(pressures=st.lists(st.floats(0.0, 60.0), min_size=4, max_size=4))
    def test_phi_range_and_straight_canonicalization(self, pressures):
        cfg = actuation_to_config(pressures, ArmParams())
        assert cfg.k >= 0.0
        assert -math.pi <= cfg.phi < math.pi
        if cfg.k < 1e-9:
            assert cfg.phi == 0.0


class TestSegmentTransform:
    def test_straight_segment_is_pure_translation(self, params):
        t = segment_transform(SegmentConfig(k=0.0, phi=0.0, l=params.l0_mm))
        assert np.allclose(t[:3, :3], np.eye(3))
        assert np.allclose(t[:3, 3], (0.0, 0.0, params.l0_mm))

    def test_quarter_circle_translation(self):
        k = 0.01
        t = segment_transform(SegmentConfig(k=k, phi=0.0, l=(math.pi / 2) / k))
        assert np.allclose(t[:3, 3], (1 / k, 0.0, 1 / k), atol=1e-9)

    def test_below_threshold_equals_exact_zero_curvature(self):
        straight = segment_transform(SegmentConfig(k=0.0, phi=0.0, l=180.0))
        tiny = segment_transform(SegmentConfig(k=5e-10, phi=0.0, l=180.0))
        assert np.max(np.abs(straight - tiny)) < 1e-6

    @pytest.mark.parametrize(
        "k,tol", [(1e-4, 1e-3), (1e-6, 1e-5), (1e-8, 1e-7)]
    )
    def test_continuity_ladder_at_unit_length(self, k, tol):
        bent = segment_transform(SegmentConfig(k=k, phi=0.7, l=1.0))
        straight = segment_transform(SegmentConfig(k=0.0, phi=0.0, l=1.0))
        assert np.max(np.abs(bent - straight)) < tol

    @pytest.mark.parametrize("k", [1e-4, 1e-6, 1e-8])
    def test_continuity_scales_with_squared_length(self, k):
        l = 150.0
        bent = segment_transform(SegmentConfig(k=k, phi=-2.1, l=l))
        straight = segment_transform(SegmentConfig(k=0.0, phi=0.0, l=l))
        assert np.max(np.abs(bent - straight)) < 0.6 * k * l * l

    @given(cfg=configs)
    def test_rigid_transform_invariants(self, cfg):
        t = segment_transform(cfg)
        r = t[:3, :3]
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9
        assert tuple(t[3]) == (0.0, 0.0, 0.0, 1.0)

    @given(cfg=configs, delta=st.floats(-math.pi, math.pi))
    @settings(max_examples=50)
    def test_bending_plane_rotation_equivariance(self, cfg, delta):
        if cfg.k < 1e-9:
            return
        phi2 = math.atan2(math.sin(cfg.phi + delta), math.cos(cfg.phi + delta))
        if phi2 >= math.pi:
            phi2 = -math.pi
        rotated = segment_transform(SegmentConfig(k=cfg.k, phi=phi2, l=cfg.l))
        conjugated = rot_z(delta) @ segment_transform(cfg) @ rot_z(-delta)
        assert np.max(np.abs(rotated - conjugated)) < 1e-9


    def test_batch_is_bit_identical_to_scalar(self, params, rng):
        p = rng.uniform(0.0, params.p_max_kpa, (3000, 4))
        p[:100] = np.round(p[:100] / 5.0) * 5.0  # the pressure lattice training visits
        p[100:110, 2:] = p[100:110, :2]  # equal antagonistic pairs: straight
        p[110:120] = (10.0, 10.0, 20.0, 20.0)  # atan2 gives pi, folded to -pi
        p[120] = 0.0
        p[121] = params.p_max_kpa
        batch = segment_transform_batch(p, params)
        for row, t in zip(p, batch):
            expected = segment_transform(actuation_to_config(row, params), params.k_eps)
            assert t.tobytes() == expected.tobytes()

class TestArmForwardKinematics:
    def test_rest_arm_stacks_four_segments(self, params):
        pose = arm_forward_kinematics(np.zeros(16), params)
        assert np.allclose(pose[:3, :3], np.eye(3))
        assert np.allclose(pose[:3, 3], (0.0, 0.0, 4 * params.l0_mm))

    def test_straight_tail_is_a_translation(self, params):
        p = np.zeros((4, 4))
        p[0] = (50.0, 20.0, 5.0, 30.0)
        pose = arm_forward_kinematics(p, params)
        seg1 = segment_transform(actuation_to_config(p[0], params), params.k_eps)
        tail = np.eye(4)
        tail[2, 3] = 3 * params.l0_mm
        assert np.allclose(pose, seg1 @ tail, atol=1e-9)

    def test_matches_arc_integration_oracle(self, params, rng):
        worst_pos = worst_dir = 0.0
        for _ in range(100):
            p = rng.uniform(0.0, params.p_max_kpa, 16)
            pose = arm_forward_kinematics(p, params)
            rot, pos = oracle_arm_pose(p, params.a_gain, params.b_gain, params.l0_mm)
            worst_pos = max(worst_pos, float(np.max(np.abs(pose[:3, 3] - pos))))
            cosang = float(np.clip(np.dot(pose[:3, 2], rot[:, 2]), -1.0, 1.0))
            worst_dir = max(worst_dir, math.acos(cosang))
        assert worst_pos < 1e-3
        assert worst_dir < 1e-6

    @given(pressures=pressure_vectors)
    @settings(max_examples=50)
    def test_pose_invariants_hold_for_any_pressures(self, pressures):
        pose = arm_forward_kinematics(pressures, ArmParams())
        r = pose[:3, :3]
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9
        assert tuple(pose[3]) == (0.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("family", ["uniform", "lattice", "near_planar", "equal_pairs",
                                        "bounds"])
    def test_bit_identical_to_the_scalar_chain(self, params, family):
        for p in _chain_cases(family, np.random.default_rng(7), params.p_max_kpa):
            pose = arm_forward_kinematics(p, params)
            assert pose.tobytes() == _scalar_chain_pose(p, params).tobytes()

    def test_default_eval_goals_are_scalar_chain_images(self, params, monkeypatch):
        got = default_eval_goals(params)
        monkeypatch.setattr(config, "arm_forward_kinematics", _scalar_chain_pose)
        want = default_eval_goals(params)
        for g, w in zip(got, want, strict=True):
            assert g.position.tobytes() == w.position.tobytes()
            assert g.direction.tobytes() == w.direction.tobytes()

    def test_batch_path_matches_scalar_path(self, params, rng):
        ps = rng.uniform(0.0, params.p_max_kpa, (64, 16))
        ps[7] = 12.0  # a fully symmetric, straight arm inside the batch
        positions, directions = tip_batch(ps, params)
        for i in range(64):
            pose = arm_forward_kinematics(ps[i], params)
            assert np.allclose(positions[i], pose[:3, 3], atol=1e-9)
            assert np.allclose(directions[i], pose[:3, 2], atol=1e-12)


def _scalar_chain_pose(pressures, params):
    """The arm pose as the product of the scalar reference segment transforms."""
    pose = np.eye(4)
    for p_seg in validate_pressures(pressures, params):
        pose = pose @ segment_transform(actuation_to_config(p_seg, params), params.k_eps)
    return pose


def _chain_cases(family, rng, p_max):
    """(4, 4) pressure arrays of one family of arm_forward_kinematics inputs."""
    if family == "uniform":
        return rng.uniform(0.0, p_max, (2000, 4, 4))
    if family == "lattice":  # every 5 kPa value the training lattice visits
        return np.round(rng.uniform(0.0, p_max, (2000, 4, 4)) / 5.0) * 5.0
    if family == "near_planar":  # d24 - d13 at or near 0: bends near the x axis
        p = rng.uniform(0.0, p_max / 2.0, (2000, 4, 4))
        gap = rng.choice([0.0, 1e-12, -1e-12, 1e-6, -1e-9], size=(2000, 4))
        p[..., 1] = p[..., 3] + (p[..., 0] - p[..., 2]) + gap
        return np.clip(p, 0.0, p_max)
    if family == "equal_pairs":  # straight segments, alone and mixed with bent ones
        p = rng.uniform(0.0, p_max, (2000, 4, 4))
        straight = rng.random((2000, 4)) < 0.5
        p[straight, 2:] = p[straight, :2]
        return p
    values = [0.0, p_max, p_max / 2.0]  # "bounds": chambers at 0, p_max and between
    p = rng.choice(values, size=(500, 4, 4))
    return np.concatenate([p, np.zeros((1, 4, 4)), np.full((1, 4, 4), p_max)])


def _pressure_rows(kind, rng, p_max, n=4096):
    """(n, 16) pressures: uniform, with straight segments, or at 0 and p_max."""
    p = rng.uniform(0.0, p_max, (n, 16))
    if kind == "straight":  # equal antagonistic pairs in about half the segments
        segs = p.reshape(n, 4, 4)
        flat = rng.random((n, 4)) < 0.5
        segs[flat, 2] = segs[flat, 0]
        segs[flat, 3] = segs[flat, 1]
        segs[:3] = 7.5  # whole arms straight, one at a uniform pressure
    elif kind == "boundary":
        p = rng.choice([0.0, p_max], size=(n, 16))
        p[0], p[1] = 0.0, p_max
    elif kind == "mixed":
        p[rng.random(p.shape) < 0.3] = 0.0
        p[rng.random(p.shape) < 0.2] = p_max
    return p


class TestTipBatchMatchesFirstFormula:
    """tip_batch is bit-identical to the full four-product formula it replaced."""

    @pytest.mark.parametrize("kind", ["uniform", "straight", "boundary", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical(self, params, kind, seed):
        ps = _pressure_rows(kind, np.random.default_rng(seed), params.p_max_kpa)
        got = tip_batch(ps, params)
        want = oracle_tip_batch(ps, params.a_gain, params.b_gain, params.l0_mm, params.k_eps)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (len(ps), 3)
            assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()

    @pytest.mark.parametrize("straight", [(2,), (0, 1, 2, 3), ()])
    def test_straight_segments_in_any_position(self, params, straight):
        # The straight-segment branch runs once for the whole block, across all
        # four segments; every second row here has the given segments straight.
        ps = np.random.default_rng(5).uniform(0.0, params.p_max_kpa, (2048, 16))
        segs = ps.reshape(-1, 4, 4)
        for seg in straight:
            segs[::2, seg, 2:] = segs[::2, seg, :2]
        got = tip_batch(ps, params)
        want = oracle_tip_batch(ps, params.a_gain, params.b_gain, params.l0_mm, params.k_eps)
        for g, w in zip(got, want):
            assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()
        if len(straight) == 4:  # a straight arm points up, its length above the base
            positions, directions = got
            length = params.b_gain * segs[::2].sum(axis=2) + params.l0_mm
            assert (positions[::2, :2] == 0.0).all()
            assert np.allclose(positions[::2, 2], length.sum(axis=1))
            assert (directions[::2] == (0.0, 0.0, 1.0)).all()

    def test_rows_do_not_depend_on_the_batch(self, params):
        ps = _pressure_rows("mixed", np.random.default_rng(2), params.p_max_kpa, n=3000)
        whole = tip_batch(ps, params)
        parts = [tip_batch(ps[i:i + 1024], params) for i in range(0, 3000, 1024)]
        for k in range(2):
            joined = np.concatenate([part[k] for part in parts])
            assert joined.tobytes() == np.ascontiguousarray(whole[k]).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf, -1e-300, 60.000001])
    def test_one_bad_value_rejects_the_batch(self, params, bad):
        ps = np.full((5, 16), 30.0)
        ps[3, 9] = bad
        with pytest.raises(PressureRangeError):
            tip_batch(ps, params)


def screen_errors(pressures, params):
    """Euclidean distance of each tip_screen position and direction from tip_batch's."""
    positions, directions, sure, guards = tip_screen(pressures, params)
    exact = tip_batch(pressures, params)
    return (np.linalg.norm(exact[0] - positions, axis=1),
            np.linalg.norm(exact[1] - directions, axis=1), sure, guards)


class TestTipScreen:
    def test_a_million_default_rows_err_by_under_a_tenth_of_the_guards(self, params):
        rng = np.random.default_rng(2718)
        worst = np.zeros(2)
        for _ in range(100):
            pos_err, dir_err, sure, guards = screen_errors(
                rng.random((10_000, 16)) * params.p_max_kpa, params)
            assert sure.all()
            worst = np.maximum(worst, (pos_err.max(), dir_err.max()))
        assert (worst < np.array(guards) / 10.0).all(), (worst, guards)

    @given(
        a_gain=st.floats(-5.0, -1.0).map(lambda e: 10.0**e),
        b_gain=st.floats(0.0, 1.0),
        l0_mm=st.floats(1.0, 3.5).map(lambda e: 10.0**e),
        p_max_kpa=st.floats(1.0, 300.0),
        k_eps=st.floats(-9.0, -1.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_sure_rows_lie_within_the_guards_on_any_arm(self, a_gain, b_gain, l0_mm,
                                                        p_max_kpa, k_eps, seed):
        params = ArmParams(a_gain=a_gain, b_gain=b_gain, l0_mm=l0_mm, p_max_kpa=p_max_kpa,
                           k_eps=k_eps)
        ps = _pressure_rows("mixed", np.random.default_rng(seed), p_max_kpa, n=4096)
        pos_err, dir_err, sure, (pos_guard, dir_guard) = screen_errors(ps, params)
        assert (pos_err[sure] < pos_guard).all() and (dir_err[sure] < dir_guard).all()

    def test_segments_near_or_below_k_eps_are_unsure(self, params):
        ps = np.random.default_rng(4).uniform(0.0, params.p_max_kpa, (3, 16))
        ps[1, 4:8] = 30.0  # segment 1 straight: k = 0
        ps[2, 8:12] = (30.0, 20.0, 29.99, 20.0)  # segment 2 bent at exactly k_eps below
        vx, vy, _ = kinematics._bending_terms(ps[2].reshape(4, 4), params)
        k = params.a_gain * np.hypot(vx, vy)[2]
        assert k > 0.0
        for arm in (params, ArmParams(k_eps=k)):
            sure = tip_screen(ps, arm)[2]
            assert sure.tolist() == [True, False, arm is params]

    @pytest.mark.parametrize("field, value", [
        ("l0_mm", 1e-12), ("p_max_kpa", 1e12), ("a_gain", 1e-13), ("b_gain", 1e30)])
    def test_arms_beyond_float32_scales_screen_nothing(self, field, value):
        params = ArmParams(**{field: value})
        ps = np.random.default_rng(0).uniform(0.0, params.p_max_kpa, (64, 16))
        positions, directions, sure, _ = tip_screen(ps, params)
        assert positions.shape == directions.shape == (64, 3) and not sure.any()


class TestValidation:
    def test_out_of_range_pressure_names_the_chamber(self, params):
        p = np.zeros((4, 4))
        p[2, 1] = 75.0
        with pytest.raises(PressureRangeError, match="segment 2 chamber 1"):
            validate_pressures(p, params)

    def test_negative_pressure_rejected(self, params):
        p = np.zeros(16)
        p[5] = -0.5
        with pytest.raises(PressureRangeError):
            validate_pressures(p, params)

    def test_nan_pressure_rejected(self, params):
        p = np.zeros(16)
        p[0] = math.nan
        with pytest.raises(PressureRangeError):
            arm_forward_kinematics(p, params)

    def test_batch_rejects_out_of_range(self, params):
        ps = np.zeros((3, 16))
        ps[1, 4] = 1000.0
        with pytest.raises(PressureRangeError):
            tip_batch(ps, params)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a_gain": 0.0},
            {"a_gain": -1.0},
            {"b_gain": -0.1},
            {"l0_mm": 0.0},
            {"p_max_kpa": -5.0},
            {"k_eps": 0.0},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ArmParams(**kwargs)


class TestPoseDirection:
    """The tip's pointing direction is the z column of a pose's rotation block."""

    def test_identity_pose_points_up(self):
        assert np.allclose(np.eye(4)[:3, 2], (0.0, 0.0, 1.0))

    def test_quarter_bend_points_along_x(self):
        k = 0.02
        pose = segment_transform(SegmentConfig(k=k, phi=0.0, l=(math.pi / 2) / k))
        assert np.allclose(pose[:3, 2], (1.0, 0.0, 0.0), atol=1e-9)

    def test_direction_matches_oracle_frame(self, params, rng):
        p = rng.uniform(0.0, params.p_max_kpa, 16)
        pose = arm_forward_kinematics(p, params)
        rot, _ = oracle_arm_pose(p, params.a_gain, params.b_gain, params.l0_mm)
        assert np.allclose(pose[:3, 2], rot[:, 2], atol=1e-6)

    @given(cfg=configs)
    @settings(max_examples=50)
    def test_direction_is_unit(self, cfg):
        d = segment_transform(cfg)[:3, 2]
        assert abs(np.linalg.norm(d) - 1.0) < 1e-9
