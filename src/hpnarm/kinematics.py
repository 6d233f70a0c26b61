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
    tip_batch multiplies, which keeps the peak heap of a call small: with
    every temporary alive at once, glibc handed each call's pages back and
    faulted them in again on the next, about 100k page faults per goal bank
    of 2048-row calls against about 800.
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


# float32's unit roundoff: one rounded operation errs by at most this share of its result.
_U32 = 2.0**-24


def tip_screen(pressures: np.ndarray, params: ArmParams):
    """Approximate tips of (n, 16) in-range pressures in float32, with their error bounds.

    Returns (positions (n, 3), directions (n, 3), sure (n,), (position
    guard in mm, direction guard)). The arcs are tip_batch's, with the
    half-angle forms (1 - cos th) / k = 2 sin^2(th/2) / k and sin th / k =
    2 sin(th/2) cos(th/2) / k, which keep their relative accuracy as k
    shrinks, and each rotation is applied to the vectors below it element by
    element: no matrix product. The caller checks the pressure range.

    Guard rule: where ``sure`` is set, tip_batch's position and direction
    of the row lie within the position and direction guard, in Euclidean
    norm, of the ones returned here. ``sure`` is unset for a row with a
    segment whose float32 curvature is at most k_eps + 32 u a P, which
    tip_batch may take as straight, and for every row when P, l0, L or a P
    lies outside [2^-30, 2^30], where a float32 value may lose its normal
    precision. With u = 2^-24, P = p_max_kpa, a = a_gain, L = l0 + 4 b P
    the longest arc and Theta = sqrt(2) a P L the largest bend angle (the
    bending vector v is no longer than sqrt(2) P), the guards are

        position guard = u L (1024 + 256 Theta),  direction guard = u (512 + 128 Theta).

    Derivation, to first order in u, with float32 arithmetic and sqrt
    correctly rounded and numpy's float32 sin and cos within 4 ulp (8 u of
    the result):
    - Rounding the pressures and forming v and l leaves |dv| <= 12 u P and
      |dl| <= 8 u L. The curvature k = a |v| then errs by at most 18 u a P,
      inside the band around k_eps.
    - A bent segment is the rotation R by the vector w = a l (-v_y, v_x, 0)
      and the arc t = l * integral over s in [0, 1] of R(s w) e_z. Two
      rotations differ by at most the distance of their vectors. The input
      errors move w by a (|dl| |v| + l |dv|) <= 17 u Theta and rounding
      th = k l moves it by 5 u Theta more, so R errs by at most 22 u Theta
      and t by at most 13 u L + 11 u L Theta.
    - The other roundings scale with the vectors, not with Theta: cos th - 1,
      sin th and the bending direction come within 36 u, 17 u and 3 u, so
      applying a rotation to a vector of length W errs by at most 101 u W,
      and each arc by at most 24 u L.
    - The code rotates t4 by R3, adds t3, and so on up to R1 and t1, and
      rotates R4 e_z likewise: the positions rotated are no longer than L,
      2 L and 3 L, the directions 1. The position errs by at most
      4 (13 + 24) u L + 101 u (1 + 2 + 3) L + 21 u L from the arcs, the
      rotations and the additions, and 4 * 11 u L Theta + 22 u (1 + 2 + 3)
      L Theta from the bend: under u L (775 + 176 Theta). The direction errs
      by at most 43 u + 3 * 101 u + 4 * 22 u Theta, under u (346 + 88 Theta).
    The guards round these up. Binning the screened tips in float64 adds
    rounding far below the slack that leaves.
    """
    a, b, l0, p_max = params.a_gain, params.b_gain, params.l0_mm, params.p_max_kpa
    longest = l0 + 4.0 * b * p_max
    bend = math.sqrt(2.0) * a * p_max * longest
    guards = (_U32 * longest * (1024.0 + 256.0 * bend), _U32 * (512.0 + 128.0 * bend))
    n = len(pressures)
    if not all(2.0**-30 <= x <= 2.0**30 for x in (p_max, l0, longest, a * p_max)):
        return (np.zeros((n, 3), np.float32), np.zeros((n, 3), np.float32),
                np.zeros(n, dtype=bool), guards)
    f32 = np.float32
    # Chamber c of segment j at row 4 * j + c, samples along the rows.
    p = np.empty((N_SEGMENTS * N_CHAMBERS, n), dtype=f32)
    np.copyto(p, pressures.T, casting="same_kind")
    p = p.reshape(N_SEGMENTS, N_CHAMBERS, n)
    d13 = p[:, 0] - p[:, 2]
    d24 = p[:, 1] - p[:, 3]
    l = p[:, 0] + p[:, 1]
    l += p[:, 2]
    l += p[:, 3]
    l *= f32(b)
    l += f32(l0)
    half = f32(_HALF_SQRT2)
    vx = d13 + d24
    vx *= half
    vy = d24
    vy -= d13
    vy *= half
    norm = vx * vx
    norm += vy * vy
    np.sqrt(norm, out=norm)
    k = norm * f32(a)
    sure = (k > np.float64(params.k_eps + 32.0 * _U32 * a * p_max)).all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows of k = 0 are unsure
        cp = np.divide(vx, norm, out=vx)
        sp = np.divide(vy, norm, out=vy)
        th2 = k * l
        th2 *= f32(0.5)
        sh = np.sin(th2)
        ch = np.cos(th2, out=th2)
        sh2 = sh + sh            # 2 sin(th/2)
        q = sh2 / k              # 2 sin(th/2) / k
    m = np.negative(sh * sh2)  # cos th - 1
    c = m + f32(1.0)           # cos th
    s = np.multiply(sh2, ch, out=sh2)   # sin th
    tr = np.multiply(sh, q, out=sh)     # (1 - cos th) / k, in the bending plane
    tx, ty = cp * tr, sp * tr
    tz = np.multiply(ch, q, out=q)      # sin th / k, along the segment's base axis
    # tip[i, 0] and tip[i, 1]: coordinate i of the position and of the direction
    # below segment j, from segment 3's own arc and axis up to the base.
    tip = np.stack([tx[3], cp[3] * s[3], ty[3], sp[3] * s[3], tz[3], c[3]]).reshape(3, 2, n)
    x, y, z = tip
    for j in (2, 1, 0):
        # R_j (x, y, z) = (x + cp turn, y + sp turn, c z - s along), where
        # along = cp x + sp y lies in the bending plane and turn = m along + s z.
        cj, sj, c_j, s_j = cp[j], sp[j], c[j], s[j]
        along = cj * x
        along += sj * y
        turn = m[j] * along
        turn += s_j * z
        x += cj * turn
        y += sj * turn
        z *= c_j
        z -= s_j * along
        x[0] += tx[j]
        y[0] += ty[j]
        z[0] += tz[j]
    return tip[:, 0].T, tip[:, 1].T, sure, guards
