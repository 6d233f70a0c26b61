"""Discretized goal/tip state for the tabular controller.

The control state combines where the goal sits relative to the arm's rest
tip position with where the tip currently sits relative to the goal. Both
halves reduce to a radius plus spherical direction angles, giving ten
continuous dimensions. Each dimension is quantized into four bins and the
bin vector packs into one integer, so the table addresses 4**10 =
1,048,576 states. The leading five dimensions depend on the goal alone;
their packed prefix partitions the state space into 1024 goal bins used
for balanced goal sampling and as the lanes of lockstep training.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

N_DIMS = 10
N_BINS_PER_DIM = 4
N_STATES = N_BINS_PER_DIM**N_DIMS          # 1_048_576
GOAL_DIMS = 5
N_GOAL_BINS = N_BINS_PER_DIM**GOAL_DIMS    # 1024
N_TIP_STATES = N_STATES // N_GOAL_BINS     # 1024 suffix combinations per goal bin

_TINY_RADIUS = 1e-12
_GOAL_ROW = 6  # position xyz + direction xyz

# Interior edges shared by every azimuth dim ([-pi, pi) split in four) and
# every plain elevation dim ([0, pi] split in four).
_AZIMUTH_EDGES = (-math.pi / 2.0, 0.0, math.pi / 2.0)
_ELEVATION_EDGES = (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0)


def check_real_types(**values) -> None:
    """ValueError unless each value is an int, a float or a numpy real (bool refused)."""
    for name, v in values.items():
        if isinstance(v, (bool, np.bool_)):
            raise ValueError(f"{name} must not be a boolean, got {v!r}")
        if not isinstance(v, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a real number, not {v!r}")


def check_reals(positive: bool, /, **values) -> None:
    """ValueError unless each value is a real number, finite and > 0 (``positive``) or >= 0."""
    check_real_types(**values)
    for name, v in values.items():
        if not ((v > 0.0 if positive else v >= 0.0) and math.isfinite(v)):
            bound = "positive" if positive else "non-negative"
            raise ValueError(f"{name} must be {bound} and finite, got {v}")


@dataclass(frozen=True, eq=False)
class GoalPose:
    """A target for the tip: world position (mm) and unit pointing direction."""

    position: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float).reshape(3)
        dirn = np.asarray(self.direction, dtype=float).reshape(3)
        check_goal_rows(np.concatenate([pos, dirn])[None, None], 1)
        pos.flags.writeable = False
        dirn.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "direction", dirn)


@dataclass(frozen=True)
class BinningSpec:
    """Quantization edges for the ten state dimensions.

    Only the tip-distance edges, the goal-direction polar edges, and the
    goal-radius ceiling are free parameters; the seven remaining dims are
    split evenly over their natural ranges. Edges are interior boundaries:
    three values splitting a range into four half-open bins [lo, hi), with
    the last bin absorbing everything above the top edge.
    """

    d_tip_edges_mm: tuple[float, float, float] = (5.0, 30.0, 60.0)
    phi_egoal_edges_rad: tuple[float, float, float] = (
        math.radians(5.0), math.radians(20.0), math.radians(60.0))
    d_max_mm: float = 400.0

    def __post_init__(self):
        for name in ("d_tip_edges_mm", "phi_egoal_edges_rad"):
            edges = getattr(self, name)
            edges = tuple(edges) if np.iterable(edges) else ()  # a scalar is no edge triple
            for edge in edges:
                check_real_types(**{name: edge})
            edges = tuple(map(float, edges))
            if len(edges) != 3 or not all(np.isfinite(edges)):
                raise ValueError(f"{name} needs three finite interior edges")
            if not (0.0 < edges[0] < edges[1] < edges[2]):
                raise ValueError(f"{name} must be strictly increasing and positive")
            object.__setattr__(self, name, edges)
        if min(np.diff(self.phi_egoal_edges_rad)) <= 2.0 * _ANGLE_GUARD_RAD:
            raise ValueError("phi_egoal_edges_rad must lie more than 2e-9 rad apart")
        check_reals(True, d_max_mm=self.d_max_mm)

    def all_edges(self) -> tuple[tuple[float, float, float], ...]:
        d = self.d_max_mm
        d_goal_edges = (d / 4.0, d / 2.0, 3.0 * d / 4.0)
        return (
            d_goal_edges,            # d_goal
            _AZIMUTH_EDGES,          # theta_dgoal
            _ELEVATION_EDGES,        # phi_dgoal
            _AZIMUTH_EDGES,          # theta_egoal
            self.phi_egoal_edges_rad,  # phi_egoal
            self.d_tip_edges_mm,     # d_tip
            _AZIMUTH_EDGES,          # theta_dtip
            _ELEVATION_EDGES,        # phi_dtip
            _AZIMUTH_EDGES,          # theta_etip
            _ELEVATION_EDGES,        # phi_etip
        )

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, ...]:
        """all_edges() as read-only float arrays, built once: the batch encoders' input."""
        arrays = tuple(np.array(e, dtype=float) for e in self.all_edges())
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def phi_egoal_guards(self) -> np.ndarray:
        """_direction_bins' guards of phi_egoal_edges_rad, built once."""
        return _guard_edges(self.phi_egoal_edges_rad)


def spherical_of(v) -> tuple[float, float, float]:
    """Radius, azimuth, polar angle of a 3-vector.

    Azimuth is atan2(y, x) in [-pi, pi); polar angle is measured from +z
    in [0, pi]. Vectors shorter than 1e-12 get both angles zeroed.
    """
    x, y, z = (float(c) for c in v)
    r = math.sqrt(x * x + y * y + z * z)
    if r < _TINY_RADIUS:
        return r, 0.0, 0.0
    theta = math.atan2(y, x)
    if theta >= math.pi:  # atan2 yields (-pi, pi]; fold the single point pi
        theta = -math.pi
    phi = math.acos(min(1.0, max(-1.0, z / r)))
    return r, theta, phi


def rest_tip_origin(l0_mm: float) -> np.ndarray:
    """Tip position of the unpressurized arm, the reference point for goal coordinates."""
    return np.array([0.0, 0.0, 4.0 * l0_mm])


_WORLD_X = np.array([1.0, 0.0, 0.0])
_WORLD_Y = np.array([0.0, 1.0, 0.0])


def goal_frame(direction) -> np.ndarray:
    """Right-handed orthonormal frame with z along ``direction``.

    Columns are (x, y, z). x is world-x projected off the direction and
    normalized; when the direction is nearly parallel to world-x the
    projection degenerates, so world-y seeds the projection instead.
    """
    z = np.asarray(direction, dtype=float).reshape(3)
    z0, z1, z2 = z.tolist()
    # The dot with world-x (or world-y) is z0 (or z1). Keep the form ref - d * z:
    # -d * z would flip the sign of some zeros.
    if abs(z0) > 0.999:
        x = _WORLD_Y - z1 * z
    else:
        x = _WORLD_X - z0 * z
    x /= math.sqrt(x.dot(x))  # np.linalg.norm of a 1-D vector, on the same BLAS dot
    x0, x1, x2 = x.tolist()
    # np.cross(z, x) term for term, in scalars.
    return np.array([[x0, x1, x2],
                     [z1 * x2 - z2 * x1, z2 * x0 - z0 * x2, z0 * x1 - z1 * x0],
                     [z0, z1, z2]]).T


def bin_and_pack(values, edges, index: int = 0) -> int:
    """Bin each value and append its digit to ``index``, most significant first.

    ``edges`` holds the three interior edges of each value's dimension, in
    the same order. Bins are half-open [lo, hi): a value exactly on an
    interior edge lands in the upper bin, and values past the last edge
    (d_goal beyond d_max_mm, an elevation of pi) clamp to bin 3. Packing is
    Horner's rule, so continuing from a goal prefix with the five tip dims
    gives the full state index.
    """
    for value, dim_edges in zip(values, edges):
        index = index * N_BINS_PER_DIM + bisect_right(dim_edges, value)
    return index


def encode_goal_prefix(position, direction, origin, spec: BinningSpec) -> int:
    """Goal-bin id of a goal pose: the packed first five dims.

    Goal dims are the spherical coordinates of the goal position about the
    rest tip ``origin``, plus the direction angles of the goal pointing
    direction.
    """
    origin = np.asarray(origin, dtype=float).reshape(3)
    d_goal, theta_dgoal, phi_dgoal = spherical_of(np.asarray(position, dtype=float) - origin)
    _, theta_egoal, phi_egoal = spherical_of(direction)
    values = (d_goal, theta_dgoal, phi_dgoal, theta_egoal, phi_egoal)
    return bin_and_pack(values, spec.all_edges()[:GOAL_DIMS])


# np.arctan2 and np.arccos can differ from math.atan2 and math.acos in the last
# bit, which moves a bin only for an angle on an edge. The batch encoders take
# numpy's angles and recompute with math only those within this distance of an
# edge or of the azimuth fold at pi; the two differ by a few 1e-16 rad.
_ANGLE_GUARD_RAD = 1e-9


def _guard_edges(edges) -> np.ndarray:
    """Each edge e widened to e -+ _ANGLE_GUARD_RAD: an odd searchsorted index is near one."""
    return np.array([e + s * _ANGLE_GUARD_RAD for e in edges for s in (-1.0, 1.0)])


# The azimuth's last guard opens before pi, which spherical_of folds to -pi.
_AZIMUTH_GUARDS = _guard_edges(_AZIMUTH_EDGES + (math.pi,))[:-1]
_ELEVATION_GUARDS = _guard_edges(_ELEVATION_EDGES)


# Packed (azimuth bin, elevation bin) digit of a vector by its guard indices:
# azimuth guard index g (0-7) and elevation guard index h (0-6) at g * 8 + h.
_ANGLE_DIGITS = np.array([(g >> 1) * N_BINS_PER_DIM + (h >> 1)
                          for g in range(8) for h in range(8)])


def _direction_bins(v: np.ndarray, elevation_edges, elevation_guards):
    """Radius and packed angle digit of (n, 3) vectors, as binned from spherical_of.

    The digit is azimuth bin * 4 + elevation bin, the elevation binned by
    ``elevation_edges``, whose _guard_edges are ``elevation_guards``. The
    radius is spherical_of's bit for bit. Angles come from numpy; an angle
    within _ANGLE_GUARD_RAD of an edge, or of the fold at pi, and every
    vector below the zero-radius cutoff is recomputed with spherical_of
    itself.
    """
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    sq = v * v
    r = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    # Rows below the cutoff divide by it instead of by r and are recomputed.
    cos_phi = np.minimum(np.maximum(z / np.maximum(r, _TINY_RADIUS), -1.0), 1.0)
    guards = _AZIMUTH_GUARDS.searchsorted(np.arctan2(y, x), side="right") * 8
    guards += elevation_guards.searchsorted(np.arccos(cos_phi), side="right")
    # Bit 3 holds the azimuth guard index's parity, bit 0 the elevation's.
    unsure = (guards & 0b1001 | (r < _TINY_RADIUS)).nonzero()[0]
    angles = _ANGLE_DIGITS.take(guards)
    for i in unsure.tolist():
        _, theta_i, phi_i = spherical_of(v[i])
        angles[i] = (bisect_right(_AZIMUTH_EDGES, theta_i) * N_BINS_PER_DIM
                     + bisect_right(elevation_edges, phi_i))
    return r, angles


def encode_goal_prefix_batch(positions, directions, origin, spec: BinningSpec) -> np.ndarray:
    """encode_goal_prefix over (n, 3) position/direction stacks, bin for bin."""
    rel = np.asarray(positions, dtype=float).reshape(-1, 3) - np.asarray(origin, dtype=float)
    dirn = np.asarray(directions, dtype=float).reshape(-1, 3)
    r, offset_angles = _direction_bins(rel, _ELEVATION_EDGES, _ELEVATION_GUARDS)
    _, direction_angles = _direction_bins(dirn, spec.phi_egoal_edges_rad, spec.phi_egoal_guards)
    d_goal = spec.edge_arrays[0].searchsorted(r, side="right")
    return (d_goal * N_BINS_PER_DIM**2 + offset_angles) * N_BINS_PER_DIM**2 + direction_angles


def _screen_bins(x, y, z, elevation_edges, guard: float):
    """Radius, packed angle digit (as _direction_bins) and sure mask of vectors (x, y, z).

    Each vector lies within ``guard`` of an exact one. The digit comes from
    the signs of x and y, which set the azimuth quadrant (y = 0 with x < 0
    is the fold at pi, folded to bin 0), and from z <= cos(e) r, which
    holds when the elevation is e or more. A vector is sure where every
    tested value lies further than its own error plus one guard from where
    its test flips: x, y and r more than 2 guards from 0 and from the
    zero-radius cutoff, z - cos(e) r more than 3 guards from 0. A sure
    vector's exact one then stands at least a guard off every edge, far
    beyond the rounding of an angle, and bins the same. NaN is never sure.
    """
    r = np.sqrt(x * x + y * y + z * z)
    digit = (y > 0.0) * (2 * N_BINS_PER_DIM) + ((x < 0.0) != (y < 0.0)) * N_BINS_PER_DIM
    sure = (np.abs(x) > 2.0 * guard) & (np.abs(y) > 2.0 * guard)
    sure &= r > _TINY_RADIUS + 2.0 * guard
    # cos is decreasing on [0, pi], and no elevation exceeds pi.
    for c in np.cos(np.minimum(elevation_edges, math.pi)).tolist():
        off = z - c * r
        digit += off <= 0.0
        sure &= np.abs(off) > 3.0 * guard
    return r, digit, sure


def screen_goal_prefix_batch(positions, directions, sure, guards, origin,
                             spec: BinningSpec) -> tuple[np.ndarray, np.ndarray]:
    """Goal bins of approximate tips, and where they are encode_goal_prefix_batch's.

    ``positions``, ``directions`` and ``sure`` are what
    kinematics.tip_screen returns: (n, 3) tips within ``guards`` (position
    guard in mm, direction guard) of exact ones where ``sure`` is set.
    Returns the (n,) goal bins, found by comparison with the edges in
    float64, and ``sure`` narrowed to the rows whose exact tip encodes to
    the same bin: the rows no dimension finds near an edge (_screen_bins;
    d_goal is sure more than 2 position guards from every edge).
    """
    position_guard, direction_guard = guards
    rel = np.array(positions.T, dtype=float)
    rel -= np.asarray(origin, dtype=float).reshape(3, 1)
    r, offset_angles, sure_offset = _screen_bins(*rel, _ELEVATION_EDGES, position_guard)
    _, direction_angles, sure_direction = _screen_bins(
        *np.array(directions.T, dtype=float), spec.phi_egoal_edges_rad, direction_guard)
    sure = sure & sure_offset & sure_direction
    d_goal = np.zeros(len(r), dtype=np.int64)
    for edge in spec.edge_arrays[0].tolist():
        d_goal += r >= edge
        sure &= np.abs(r - edge) > 2.0 * position_guard
    bins = (d_goal * N_BINS_PER_DIM**2 + offset_angles) * N_BINS_PER_DIM**2 + direction_angles
    return bins, sure


def check_goal_rows(goals: np.ndarray, n_bins: int) -> None:
    """Raise ValueError unless float ``goals`` is (n_bins, quota, 6) goal rows.

    A goal row is a position then a direction, all finite, whose norm is 1
    within 1e-9. GoalPose and config goals run this check too.
    """
    if goals.ndim != 3 or goals.shape[0] != n_bins or goals.shape[2] != _GOAL_ROW:
        raise ValueError(f"goals of shape {goals.shape} do not fit {n_bins} bins")
    if not np.isfinite(goals).all():
        raise ValueError("goal position and direction must be finite, got non-finite values")
    with np.errstate(over="ignore"):  # squares past float64 give an inf norm, not 1
        norms = np.linalg.norm(goals[..., 3:], axis=-1)
    if (np.abs(norms - 1.0) > 1e-9).any():
        raise ValueError("goal directions are not unit vectors")


def check_goal_bins(bins, goals, origin, spec: BinningSpec) -> None:
    """Raise ValueError unless goal row ``goals[i, k]`` encodes to goal bin ``bins[i]``.

    ``goals`` must pass check_goal_rows for len(bins) bins. Their bins are
    encode_goal_prefix's, which every episode's states carry. The first
    mismatch in bin order, then goal order, is reported.
    """
    bins = np.asarray(bins, dtype=np.int64)
    goals = np.asarray(goals, dtype=float)
    check_goal_rows(goals, len(bins))
    rows = goals.reshape(-1, _GOAL_ROW)
    prefixes = encode_goal_prefix_batch(rows[:, :3], rows[:, 3:], origin, spec)
    wrong = np.flatnonzero(prefixes != np.repeat(bins, goals.shape[1]))
    if len(wrong):
        i, k = divmod(int(wrong[0]), goals.shape[1])
        raise ValueError(f"goal {k} of bin {bins[i]} encodes to goal bin {prefixes[wrong[0]]}")


def encode_tip_stack(v: np.ndarray, spec: BinningSpec) -> tuple[np.ndarray, np.ndarray]:
    """Offset radii and packed tip suffixes, in [0, 1024), of n tip observations at once.

    ``v`` (2n, 3) stacks the n tip offsets from their goals (tip position
    minus goal position) over the n tip directions in their goal frames.
    Suffix i equals ``StateEncoder(goal_i, ...).encode_tip_index(...)``
    modulo N_TIP_STATES and radius i its d_tip, bit for bit. The angles only
    bin, so they need not match math's to the bit (see _direction_bins).
    """
    n = len(v) // 2
    r, angles = _direction_bins(v, _ELEVATION_EDGES, _ELEVATION_GUARDS)
    radius = r[:n]
    d_tip = spec.edge_arrays[GOAL_DIMS].searchsorted(radius, side="right")
    return radius, (d_tip * N_BINS_PER_DIM**2 + angles[:n]) * N_BINS_PER_DIM**2 + angles[n:]


class StateEncoder:
    """Per-goal encoder that caches the goal half of the state.

    The five goal dims and the goal frame never change within an episode,
    so an episode builds one encoder and feeds it tip observations. The tip
    dims are the spherical coordinates of the tip position about the goal,
    plus the direction angles of the tip pointing direction expressed in
    the goal frame.
    """

    def __init__(self, goal: GoalPose, origin, spec: BinningSpec):
        self._prefix_index = encode_goal_prefix(goal.position, goal.direction, origin, spec)
        self._tip_edges = spec.all_edges()[GOAL_DIMS:]
        self._gx = float(goal.position[0])
        self._gy = float(goal.position[1])
        self._gz = float(goal.position[2])
        # Rows of the goal frame transpose, for fast world->goal direction mapping.
        self._frame_rows = tuple(map(tuple, goal_frame(goal.direction).T))

    @property
    def goal_bin(self) -> int:
        """Packed prefix of the five goal dims, in [0, 1024)."""
        return self._prefix_index

    def encode_tip_index(self, tip_pos, tip_dir) -> int:
        """Bare packed index for one tip observation; the episode-loop fast path."""
        px = float(tip_pos[0]) - self._gx
        py = float(tip_pos[1]) - self._gy
        pz = float(tip_pos[2]) - self._gz
        d_tip, theta_dtip, phi_dtip = spherical_of((px, py, pz))
        dx, dy, dz = (float(c) for c in tip_dir)
        rel = tuple(r[0] * dx + r[1] * dy + r[2] * dz for r in self._frame_rows)
        _, theta_etip, phi_etip = spherical_of(rel)
        values = (d_tip, theta_dtip, phi_dtip, theta_etip, phi_etip)
        return bin_and_pack(values, self._tip_edges, self._prefix_index)
