"""Constant-curvature forward kinematics of a four-segment pneumatic arm.

Each segment is driven by four chamber pressures. The two antagonistic
chamber pairs set the bending plane and curvature, the pressure sum sets
the arc length, and the segment tip pose follows the closed-form
constant-curvature transform. The arm pose is the base-to-tip product of
the per-segment transforms. All lengths are in mm, angles in radians,
pressures in kPa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_SEGMENTS = 4
N_CHAMBERS = 4

# Bending axes of the two antagonistic chamber pairs, 45 deg either side of +x.
_HALF_SQRT2 = math.sqrt(2.0) / 2.0
E1 = np.array([_HALF_SQRT2, -_HALF_SQRT2])
E2 = np.array([_HALF_SQRT2, _HALF_SQRT2])


class PressureRangeError(ValueError):
    """A commanded chamber pressure is non-finite or outside [0, p_max]."""


@dataclass(frozen=True)
class ArmParams:
    """Calibration of the pressure-to-configuration map.

    All four gains are empirical config values, not physical ground truth.
    ``a_gain`` converts the antagonistic pressure difference to curvature,
    ``b_gain`` converts the pressure sum to elongation.
    """

    a_gain: float = 0.002    # curvature per kPa of antagonistic difference, 1/(mm*kPa)
    b_gain: float = 0.25     # elongation per kPa of summed pressure, mm/kPa
    l0_mm: float = 150.0     # segment rest length, mm
    p_max_kpa: float = 60.0  # chamber pressure ceiling, kPa
    k_eps: float = 1e-9      # below this curvature a segment is treated as straight, 1/mm

    def __post_init__(self):
        if not (self.a_gain > 0.0 and math.isfinite(self.a_gain)):
            raise ValueError(f"a_gain must be positive, got {self.a_gain}")
        if not (self.b_gain >= 0.0 and math.isfinite(self.b_gain)):
            raise ValueError(f"b_gain must be non-negative, got {self.b_gain}")
        for name in ("l0_mm", "p_max_kpa", "k_eps"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class SegmentConfig:
    """One segment in configuration space: curvature, bending plane, arc length."""

    k: float    # curvature, 1/mm, >= 0
    phi: float  # bending-plane azimuth, rad in [-pi, pi); 0 when straight
    l: float    # arc length, mm, > 0


def validate_pressures(pressures, params: ArmParams) -> np.ndarray:
    """Return pressures as a (4, 4) float array, or raise PressureRangeError.

    Accepts any array-like with 16 entries; rows are segments (base first),
    columns are chambers.
    """
    if isinstance(pressures, np.ndarray) and pressures.shape == (N_SEGMENTS, N_CHAMBERS):
        p = pressures if pressures.dtype == np.float64 else pressures.astype(float)
    else:
        p = np.asarray(pressures, dtype=float).reshape(N_SEGMENTS, N_CHAMBERS)
    # NaN fails both comparisons, so this single check also catches non-finites.
    if not ((p >= 0.0) & (p <= params.p_max_kpa)).all():
        bad = ~np.isfinite(p) | (p < 0.0) | (p > params.p_max_kpa)
        seg, cham = np.argwhere(bad)[0]
        raise PressureRangeError(
            f"pressure {float(p[seg, cham])} at segment {seg} chamber {cham} "
            f"outside [0, {params.p_max_kpa}] kPa"
        )
    return p


def actuation_to_config(p_seg, params: ArmParams) -> SegmentConfig:
    """Map one segment's four chamber pressures to (k, phi, l).

    The bending vector is the antagonistic-difference combination
    (p1-p3)*E1 + (p2-p4)*E2; curvature is a_gain times its norm, the
    bending azimuth is its polar angle, and the arc length grows linearly
    with the pressure sum.
    """
    p1, p2, p3, p4 = (float(x) for x in p_seg)
    d13 = p1 - p3
    d24 = p2 - p4
    vx = d13 * E1[0] + d24 * E2[0]
    vy = d13 * E1[1] + d24 * E2[1]
    k = params.a_gain * math.hypot(vx, vy)
    l = params.b_gain * (p1 + p2 + p3 + p4) + params.l0_mm
    if k < params.k_eps:
        phi = 0.0
    else:
        phi = math.atan2(vy, vx)
        if phi >= math.pi:  # atan2 yields (-pi, pi]; the codomain here is [-pi, pi)
            phi = -math.pi
    return SegmentConfig(k=k, phi=phi, l=l)


def segment_transform(cfg: SegmentConfig, k_eps: float = 1e-9) -> np.ndarray:
    """Homogeneous transform from a segment's base to its tip.

    Closed-form constant-curvature arc transform; below ``k_eps`` the
    1/k terms are replaced by their straight-segment limit (identity
    rotation, translation (0, 0, l)).
    """
    k, phi, l = cfg.k, cfg.phi, cfg.l
    if k < k_eps:
        t = np.eye(4)
        t[2, 3] = l
        return t
    th = k * l
    c, s = math.cos(th), math.sin(th)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array([
        [cp * cp * (c - 1.0) + 1.0, sp * cp * (c - 1.0),       cp * s, cp * (1.0 - c) / k],
        [sp * cp * (c - 1.0),       cp * cp * (1.0 - c) + c,   sp * s, sp * (1.0 - c) / k],
        [-cp * s,                   -sp * s,                   c,      s / k],
        [0.0,                       0.0,                       0.0,    1.0],
    ])


def segment_transform_batch(p_seg: np.ndarray, params: ArmParams) -> np.ndarray:
    """Segment transforms for a stack of (n, 4) chamber pressures, shape (n, 4, 4).

    Row for row bit-identical to ``segment_transform(actuation_to_config(p,
    params), params.k_eps)``: the same formulas in the same operation order,
    with ``hypot`` and ``atan2`` taken from ``math`` one row at a time, since
    numpy's vectorized versions can differ from them in the last bit.
    """
    p1, p2, p3, p4 = p_seg[:, 0], p_seg[:, 1], p_seg[:, 2], p_seg[:, 3]
    d13 = p1 - p3
    d24 = p2 - p4
    vx = d13 * E1[0] + d24 * E2[0]
    vy = d13 * E1[1] + d24 * E2[1]
    n = len(p_seg)
    vx_list, vy_list = vx.tolist(), vy.tolist()
    k = params.a_gain * np.fromiter(map(math.hypot, vx_list, vy_list), float, n)
    l = params.b_gain * (p1 + p2 + p3 + p4) + params.l0_mm
    straight = k < params.k_eps
    phi = np.fromiter(map(math.atan2, vy_list, vx_list), float, n)
    phi[phi >= math.pi] = -math.pi
    k_safe = np.where(straight, 1.0, k)
    th = k * l
    c, s = np.cos(th), np.sin(th)
    cp, sp = np.cos(phi), np.sin(phi)
    t = np.zeros((n, 4, 4))
    t[:, 0, 0] = cp * cp * (c - 1.0) + 1.0
    t[:, 0, 1] = sp * cp * (c - 1.0)
    t[:, 0, 2] = cp * s
    t[:, 0, 3] = cp * (1.0 - c) / k_safe
    t[:, 1, 0] = sp * cp * (c - 1.0)
    t[:, 1, 1] = cp * cp * (1.0 - c) + c
    t[:, 1, 2] = sp * s
    t[:, 1, 3] = sp * (1.0 - c) / k_safe
    t[:, 2, 0] = -cp * s
    t[:, 2, 1] = -sp * s
    t[:, 2, 2] = c
    t[:, 2, 3] = s / k_safe
    t[:, 3, 3] = 1.0
    if straight.any():
        t[straight] = np.eye(4)
        t[straight, 2, 3] = l[straight]
    return t


def arm_forward_kinematics(pressures, params: ArmParams) -> np.ndarray:
    """Tip pose of the whole arm: product of the four segment transforms, base to tip."""
    p = validate_pressures(pressures, params)
    pose = np.eye(4)
    for seg in range(N_SEGMENTS):
        pose = pose @ segment_transform(actuation_to_config(p[seg], params), params.k_eps)
    return pose


def pose_position(pose: np.ndarray) -> np.ndarray:
    """Translation part of a pose, mm."""
    return pose[:3, 3].copy()


def pose_to_direction(pose: np.ndarray) -> np.ndarray:
    """Pointing direction of a pose: the z column of its rotation block (unit norm)."""
    return pose[:3, 2].copy()


def tip_batch(pressures, params: ArmParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized tip positions and directions for a stack of pressure vectors.

    ``pressures`` has shape (n, 16) or (n, 4, 4). Returns (positions (n, 3),
    directions (n, 3)). Equivalent to calling arm_forward_kinematics per row;
    used for bulk workspace sampling. Only the columns the tip needs are
    taken from the last segment product; each row's result does not depend
    on the other rows of the batch.
    """
    p = np.asarray(pressures, dtype=float).reshape(-1, N_SEGMENTS, N_CHAMBERS)
    # NaN fails both comparisons, so this single check also catches non-finites.
    if not ((p >= 0.0) & (p <= params.p_max_kpa)).all():
        raise PressureRangeError("batch contains a pressure outside range")
    t = np.zeros((p.shape[0], 4, 4))
    t[:, 3, 3] = 1.0
    for seg in range(N_SEGMENTS):
        p1, p2, p3, p4 = p[:, seg, 0], p[:, seg, 1], p[:, seg, 2], p[:, seg, 3]
        d13 = p1 - p3
        d24 = p2 - p4
        vx = d13 * E1[0] + d24 * E2[0]
        vy = d13 * E1[1] + d24 * E2[1]
        nv = np.hypot(vx, vy)
        k = params.a_gain * nv
        # Added left to right, the order in which sum(axis=1) adds four values.
        l = params.b_gain * (p1 + p2 + p3 + p4) + params.l0_mm
        straight = k < params.k_eps
        any_straight = straight.any()
        if any_straight:
            nv_safe = np.where(straight, 1.0, nv)
            cp = np.where(straight, 1.0, vx / nv_safe)
            sp = np.where(straight, 0.0, vy / nv_safe)
            th = np.where(straight, 0.0, k * l)
            k = np.where(straight, 1.0, k)
        else:
            cp, sp, th = vx / nv, vy / nv, k * l
        c, s = np.cos(th), np.sin(th)
        c_m1, one_mc = c - 1.0, 1.0 - c
        cp_cp, cp_s, sp_s = cp * cp, cp * s, sp * s
        t[:, 0, 0] = cp_cp * c_m1 + 1.0
        t[:, 0, 1] = t[:, 1, 0] = sp * cp * c_m1
        t[:, 0, 2] = cp_s
        t[:, 0, 3] = cp * one_mc / k
        t[:, 1, 1] = cp_cp * one_mc + c
        t[:, 1, 2] = sp_s
        t[:, 1, 3] = sp * one_mc / k
        t[:, 2, 0] = -cp_s
        t[:, 2, 1] = -sp_s
        t[:, 2, 2] = c
        t[:, 2, 3] = s / k
        if any_straight:  # the rows above already read 0 for the other translations
            t[straight, 2, 3] = l[straight]
        if seg == 0:
            pose = t.copy()
        elif seg < N_SEGMENTS - 1:
            pose = pose @ t
    tip = pose[:, :3] @ t[:, :, 2:]
    return tip[:, :, 1], tip[:, :, 0]
