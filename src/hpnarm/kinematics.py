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

from .state import check_reals

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
        check_reals(True, a_gain=self.a_gain, l0_mm=self.l0_mm, p_max_kpa=self.p_max_kpa,
                    k_eps=self.k_eps)
        check_reals(False, b_gain=self.b_gain)


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
    _check_range(p, params)
    return p


def _check_range(p: np.ndarray, params: ArmParams) -> None:
    """Raise PressureRangeError at the first out-of-range pressure of (4, 4) or (n, 4, 4) ``p``."""
    # NaN fails both comparisons, so this single check also catches non-finites.
    in_range = (p >= 0.0) & (p <= params.p_max_kpa)
    if not in_range.all():
        *row, seg, cham = np.argwhere(~in_range)[0]
        where = f"row {row[0]} " if row else ""
        raise PressureRangeError(
            f"pressure {float(p[(*row, seg, cham)])} at {where}segment {seg} chamber {cham} "
            f"outside [0, {params.p_max_kpa}] kPa"
        )


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
    with ``hypot`` and ``atan2`` from ``math`` one row at a time, as numpy's can
    differ in the last bit. Via the step's segment lattice the table digests pin them.
    """
    vx, vy, l = _bending_terms(p_seg, params)
    n = len(p_seg)
    vx_list, vy_list = vx.tolist(), vy.tolist()
    k = params.a_gain * np.fromiter(map(math.hypot, vx_list, vy_list), float, n)
    straight = k < params.k_eps
    phi = np.fromiter(map(math.atan2, vy_list, vx_list), float, n)
    phi[phi >= math.pi] = -math.pi
    th = k * l
    t = _arc_transforms(np.cos(th), np.sin(th), np.cos(phi), np.sin(phi),
                        np.where(straight, 1.0, k))
    if straight.any():
        t[straight] = np.eye(4)
        t[straight, 2, 3] = l[straight]
    return t


def arm_forward_kinematics(pressures, params: ArmParams) -> np.ndarray:
    """Tip pose of the whole arm: product of the four segment transforms, base to tip."""
    pose = np.eye(4)
    for t in segment_transform_batch(validate_pressures(pressures, params), params):
        pose = pose @ t
    return pose


def _bending_terms(p: np.ndarray, params: ArmParams):
    """The bending vector (vx, vy) and arc length l of actuation_to_config, chambers last."""
    p1, p2, p3, p4 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    d13 = p1 - p3
    d24 = p2 - p4
    vx = d13 * E1[0] + d24 * E2[0]
    vy = d13 * E1[1] + d24 * E2[1]
    # Added left to right, the order in which sum(axis=1) adds four values.
    l = params.b_gain * (p1 + p2 + p3 + p4) + params.l0_mm
    return vx, vy, l


def _arc_transforms(c, s, cp, sp, k) -> np.ndarray:
    """segment_transform's arcs from cos, sin of k * l and of phi, and k != 0: shape + (4, 4)."""
    c_m1, one_mc = c - 1.0, 1.0 - c
    cp_cp, cp_s, sp_s = cp * cp, cp * s, sp * s
    t = np.empty(c.shape + (4, 4))
    t[..., 0, 0] = cp_cp * c_m1 + 1.0
    t[..., 0, 1] = t[..., 1, 0] = sp * cp * c_m1
    t[..., 0, 2] = cp_s
    t[..., 0, 3] = cp * one_mc / k
    t[..., 1, 1] = cp_cp * one_mc + c
    t[..., 1, 2] = sp_s
    t[..., 1, 3] = sp * one_mc / k
    t[..., 2, 0] = -cp_s
    t[..., 2, 1] = -sp_s
    t[..., 2, 2] = c
    t[..., 2, 3] = s / k
    t[..., 3, :3] = 0.0
    t[..., 3, 3] = 1.0
    return t


def _segment_terms(p: np.ndarray, params: ArmParams):
    """cos(th), sin(th), cos(phi), sin(phi), k and l of (n, 4, 4) pressures, each (n, 4).

    np.hypot and (vx, vy) / norm, whose bits the goal-bank digests pin. A
    straight segment (k below k_eps) takes the limit the transform formulas
    need: th 0, phi 0, k 1; its arc length is ``l``. The mask comes last.
    """
    vx, vy, l = _bending_terms(p, params)
    nv = np.hypot(vx, vy)
    k = params.a_gain * nv
    straight = k < params.k_eps
    if straight.any():
        nv_safe = np.where(straight, 1.0, nv)
        cp = np.where(straight, 1.0, vx / nv_safe)
        sp = np.where(straight, 0.0, vy / nv_safe)
        th = np.where(straight, 0.0, k * l)
        k = np.where(straight, 1.0, k)
    else:
        cp, sp, th = vx / nv, vy / nv, k * l
    return np.cos(th), np.sin(th), cp, sp, k, l, straight


def _segment_stack(p: np.ndarray, params: ArmParams) -> np.ndarray:
    """Segment transforms of (n, 4, 4) pressures as one (n, 4, 4, 4) stack, segment on axis 1.

    The terms' temporaries end with _segment_terms and with this call, before
    tip_batch multiplies, which keeps a goal-bank task's peak heap small: with
    every temporary alive at once, glibc handed each 2048-row task's pages
    back and faulted them in again, about 100k page faults per default bank
    against about 800.
    """
    c, s, cp, sp, k, l, straight = _segment_terms(p, params)
    t = _arc_transforms(c, s, cp, sp, k)
    t[straight, 2, 3] = l[straight]  # the rows above already read 0 for the rest
    return t


def tip_of(t0: np.ndarray, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> np.ndarray:
    """Rows 0-2 of columns 2-3 (direction, position) of ((t0 @ t1) @ t2) @ t3: (n, 3, 2)."""
    return (((t0 @ t1) @ t2) @ t3)[:, :3, 2:]


def tip_batch(pressures, params: ArmParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized tip positions and directions for a stack of pressure vectors.

    ``pressures`` has shape (n, 16) or (n, 4, 4). Returns (positions (n, 3),
    directions (n, 3)); used for bulk workspace sampling. Equal within rounding
    to arm_forward_kinematics per row, by a recipe whose bits the goal-bank
    digests pin: one pass computes every segment's terms into one (n, 4, 4, 4)
    stack, and tip_of its segments is the tip. Rows do not depend on each other.
    """
    p = np.asarray(pressures, dtype=float).reshape(-1, N_SEGMENTS, N_CHAMBERS)
    _check_range(p, params)
    t = _segment_stack(p, params)
    tip = tip_of(t[:, 0], t[:, 1], t[:, 2], t[:, 3])
    return tip[:, :, 1], tip[:, :, 0]
