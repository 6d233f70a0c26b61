"""Independent reference implementations the test suite checks against.

Everything here is deliberately written from scratch, by a different
route than the library code: the arm pose comes from numerical arc
integration instead of the closed-form transform, the gridworld solution
from value iteration instead of temporal-difference learning, and the
state construction from a second spherical-coordinate derivation. None
of these import from hpnarm. The goal-bank writer spells out the layout of
the retired .hpnb cache file field by field; the frozen bank digests are
taken over its bytes.
The state-index digit packers and the action-triple composer name states and
actions by their parts, which only tests need.

Three references are frozen copies instead, which the library must match bit
for bit. oracle_evaluate replays evaluation episode by episode through the
library's scalar run_episode loop. oracle_tip_batch is the batch FK formula
as first written, and oracle_goal_bank the goal-bank loop that ran it on
one thread, batch after batch; it bins goals with the library's encoder.
oracle_augment finds each entry's neighbours digit by digit, but sums them
with np.add.reduceat in the order augment sums them, so its means match bit
for bit.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

_SQ = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# Arc-integration forward kinematics
# ---------------------------------------------------------------------------

def oracle_segment_config(p_seg, a_gain, b_gain, l0_mm):
    """Pressure to (curvature, plane azimuth, arc length), derived afresh."""
    p1, p2, p3, p4 = (float(x) for x in p_seg)
    vx = ((p1 - p3) + (p2 - p4)) * _SQ
    vy = (-(p1 - p3) + (p2 - p4)) * _SQ
    k = a_gain * math.sqrt(vx * vx + vy * vy)
    phi = math.atan2(vy, vx) if k > 0.0 else 0.0
    length = b_gain * (p1 + p2 + p3 + p4) + l0_mm
    return k, phi, length


def _rodrigues(axis, angle):
    """Rotation matrix about a unit axis by an angle, via the Rodrigues formula."""
    ax, ay, az = axis
    skew = np.array([[0.0, -az, ay], [az, 0.0, -ax], [-ay, ax, 0.0]])
    return np.eye(3) + math.sin(angle) * skew + (1.0 - math.cos(angle)) * (skew @ skew)


def oracle_arm_pose(pressures, a_gain, b_gain, l0_mm, n_points=10_000):
    """Arm tip rotation and position by integrating each segment's arc.

    The segment centerline's unit tangent at arc position s is
    (cos(phi) sin(k s), sin(phi) sin(k s), cos(k s)) in the segment base
    frame; the position is its midpoint-rule integral over [0, L] and the
    frame update is a Rodrigues rotation of k*L about the bending-plane
    normal (-sin(phi), cos(phi), 0). No 1/k term ever appears, so k = 0
    needs no special case.
    """
    p = np.asarray(pressures, dtype=float).reshape(4, 4)
    rot = np.eye(3)
    pos = np.zeros(3)
    for seg in range(4):
        k, phi, length = oracle_segment_config(p[seg], a_gain, b_gain, l0_mm)
        h = length / n_points
        s = (np.arange(n_points) + 0.5) * h
        ks = k * s
        sin_ks = np.sin(ks)
        tangent_sums = np.array([
            math.cos(phi) * sin_ks.sum(),
            math.sin(phi) * sin_ks.sum(),
            np.cos(ks).sum(),
        ])
        local_pos = tangent_sums * h
        seg_rot = _rodrigues((-math.sin(phi), math.cos(phi), 0.0), k * length)
        pos = pos + rot @ local_pos
        rot = rot @ seg_rot
    return rot, pos


# ---------------------------------------------------------------------------
# Batch FK and the goal-bank loop, as first written
# ---------------------------------------------------------------------------

_HALF_SQRT2 = math.sqrt(2.0) / 2.0
_E1 = np.array([_HALF_SQRT2, -_HALF_SQRT2])
_E2 = np.array([_HALF_SQRT2, _HALF_SQRT2])


def oracle_tip_batch(pressures, a_gain, b_gain, l0_mm, k_eps=1e-9):
    """Tip positions and directions of (n, 16) pressures: the full product of
    four 4x4 segment transforms, one masked formula for every row."""
    p = np.asarray(pressures, dtype=float).reshape(-1, 4, 4)
    n = p.shape[0]
    pose = np.broadcast_to(np.eye(4), (n, 4, 4)).copy()
    for seg in range(4):
        d13 = p[:, seg, 0] - p[:, seg, 2]
        d24 = p[:, seg, 1] - p[:, seg, 3]
        vx = d13 * _E1[0] + d24 * _E2[0]
        vy = d13 * _E1[1] + d24 * _E2[1]
        nv = np.hypot(vx, vy)
        k = a_gain * nv
        l = b_gain * p[:, seg].sum(axis=1) + l0_mm
        straight = k < k_eps
        nv_safe = np.where(straight, 1.0, nv)
        k_safe = np.where(straight, 1.0, k)
        cp = np.where(straight, 1.0, vx / nv_safe)
        sp = np.where(straight, 0.0, vy / nv_safe)
        th = np.where(straight, 0.0, k * l)
        c, s = np.cos(th), np.sin(th)
        t = np.zeros((n, 4, 4))
        t[:, 0, 0] = cp * cp * (c - 1.0) + 1.0
        t[:, 0, 1] = sp * cp * (c - 1.0)
        t[:, 0, 2] = cp * s
        t[:, 0, 3] = np.where(straight, 0.0, cp * (1.0 - c) / k_safe)
        t[:, 1, 0] = sp * cp * (c - 1.0)
        t[:, 1, 1] = cp * cp * (1.0 - c) + c
        t[:, 1, 2] = sp * s
        t[:, 1, 3] = np.where(straight, 0.0, sp * (1.0 - c) / k_safe)
        t[:, 2, 0] = -cp * s
        t[:, 2, 1] = -sp * s
        t[:, 2, 2] = c
        t[:, 2, 3] = np.where(straight, l, s / k_safe)
        t[:, 3, 3] = 1.0
        pose = pose @ t
    return pose[:, :3, 3], pose[:, :3, 2]


def oracle_goal_bank(params, binning, quota, budget, rng, batch_size):
    """The goal bank drawn, FK'd, binned and filed one batch at a time on one thread.

    Returns ({bin: (quota, 6) goal rows}, reachable flags, samples used) and
    leaves ``rng`` right after all ``budget`` rows. Bins are read through
    ``hpnarm.state.encode_goal_prefix_batch`` at call time, so a test that
    replaces it there replaces it here too.
    """
    from hpnarm import state

    origin = state.rest_tip_origin(params.l0_mm)
    needed = np.full(state.N_GOAL_BINS, quota, dtype=np.int64)
    stash = [[] for _ in range(state.N_GOAL_BINS)]
    used = 0
    while used < budget:
        n = min(batch_size, budget - used)
        pressures = rng.uniform(0.0, params.p_max_kpa, size=(n, 16))
        used += n
        positions, directions = oracle_tip_batch(
            pressures, params.a_gain, params.b_gain, params.l0_mm, params.k_eps)
        bins = state.encode_goal_prefix_batch(positions, directions, origin, binning)
        for i in np.nonzero(needed[bins] > 0)[0]:
            b = int(bins[i])
            if needed[b] > 0:
                stash[b].append(np.concatenate([positions[i], directions[i]]))
                needed[b] -= 1
    reachable = needed == 0
    goals = {int(b): np.array(stash[b]) for b in np.nonzero(reachable)[0]}
    return goals, reachable, used


# ---------------------------------------------------------------------------
# Gridworld value iteration
# ---------------------------------------------------------------------------

GRID_SIZE = 5
GRID_STATES = GRID_SIZE * GRID_SIZE
GRID_ACTIONS = 4
GRID_GOAL = GRID_STATES - 1
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


def gridworld_step(s, a):
    """Deterministic transition: move on the grid, walls block, goal absorbs."""
    row, col = divmod(s, GRID_SIZE)
    dr, dc = _MOVES[a]
    nr = min(GRID_SIZE - 1, max(0, row + dr))
    nc = min(GRID_SIZE - 1, max(0, col + dc))
    return nr * GRID_SIZE + nc, -1.0


def gridworld_value_iteration(gamma, tol=1e-13, max_iters=10_000):
    """Optimal Q for the gridworld: every move costs 1, the goal is terminal."""
    v = np.zeros(GRID_STATES)
    q = np.zeros((GRID_STATES, GRID_ACTIONS))
    for _ in range(max_iters):
        for s in range(GRID_STATES):
            if s == GRID_GOAL:
                continue
            for a in range(GRID_ACTIONS):
                ns, r = gridworld_step(s, a)
                q[s, a] = r + gamma * v[ns]
        v_new = q.max(axis=1)
        v_new[GRID_GOAL] = 0.0
        if np.max(np.abs(v_new - v)) < tol:
            v = v_new
            break
        v = v_new
    return q


# ---------------------------------------------------------------------------
# State index digits and action triples
# ---------------------------------------------------------------------------

DIM_NAMES = (
    "d_goal", "theta_dgoal", "phi_dgoal", "theta_egoal", "phi_egoal",
    "d_tip", "theta_dtip", "phi_dtip", "theta_etip", "phi_etip",
)
_N_STATES = 4 ** 10
# Place value of each dimension in the packed index, most significant first.
_PLACE = tuple(4 ** (9 - i) for i in range(10))


def pack_bins(bins) -> int:
    """Pack ten bin digits (most significant first) into one index."""
    return sum(b * place for b, place in zip(bins, _PLACE))


def unpack_index(index: int) -> tuple[int, ...]:
    """Inverse of pack_bins."""
    index = int(index)
    if index < 0 or index >= _N_STATES:
        raise ValueError(f"state index {index} outside [0, {_N_STATES})")
    out = []
    for place in _PLACE:
        out.append(index // place)
        index %= place
    return tuple(out)


def pack_bins_array(bins: np.ndarray) -> np.ndarray:
    """Vectorized pack_bins for an (n, 10) bin matrix."""
    return np.asarray(bins, dtype=np.int64) @ np.asarray(_PLACE, dtype=np.int64)


def unpack_index_array(indices: np.ndarray) -> np.ndarray:
    """Vectorized unpack_index, returning an (n, 10) bin matrix."""
    rem = np.array(indices, dtype=np.int64)
    out = np.empty(rem.shape + (10,), dtype=np.int64)
    for i, place in enumerate(_PLACE):
        out[..., i] = rem // place
        rem %= place
    return out


def compose_action(segment: int, chamber: int, direction: int) -> int:
    """Action id of (segment, chamber, direction), the inverse of ActionSpec.decompose."""
    if segment not in range(4) or chamber not in range(4) or direction not in (-1, 1):
        raise ValueError(f"bad action triple ({segment}, {chamber}, {direction})")
    return segment * 8 + chamber * 2 + (1 if direction < 0 else 0)


# ---------------------------------------------------------------------------
# Neighbour-mean augmentation in its summation order
# ---------------------------------------------------------------------------

def oracle_neighbour_lists(trained: dict, radius: int):
    """Each untrained (state, action) with a trained neighbour, and those neighbours' values.

    ``trained`` maps (state, action) to a float value. A neighbour has the
    same action and a state one digit away by 1..radius steps. Returns the
    entries sorted, and per entry its neighbours' values in (dim, step, up,
    down) order: digits most significant first, steps from 1, and at each
    step first the neighbour the entry lies above (its digit minus the
    step), then the one it lies below.
    """
    steps = range(1, min(radius, 3) + 1)
    targets = set()
    for s, a in trained:
        digits = unpack_index(s)
        for d, place in enumerate(_PLACE):
            for step in steps:
                for n in (digits[d] - step, digits[d] + step):
                    if 0 <= n <= 3 and (s + (n - digits[d]) * place, a) not in trained:
                        targets.add((s + (n - digits[d]) * place, a))
    targets = sorted(targets)
    lists = []
    for t, a in targets:
        digits = unpack_index(t)
        values = []
        for d, place in enumerate(_PLACE):
            for step in steps:
                for n in (digits[d] - step, digits[d] + step):
                    key = (t + (n - digits[d]) * place, a)
                    if 0 <= n <= 3 and key in trained:
                        values.append(trained[key])
        lists.append(values)
    return targets, lists


def oracle_augment(states, actions, flags, values, radius: int):
    """augment()'s output as record arrays (states, actions, flags, values), bit for bit.

    Takes a table's records. Each untrained entry with a trained neighbour
    gets the float32 mean of its neighbours' values and flag bit 1; every
    other record stays. One np.add.reduceat over the neighbour lists of
    oracle_neighbour_lists, one segment per entry, sums the float64 values
    in that order, which fixes each mean's bits. As in the table, a record
    with no flag and a zero value is not kept.
    """
    records = {(int(s), int(a)): (int(f), np.float32(v))
               for s, a, f, v in zip(states, actions, flags, values)}
    trained = {k: float(v) for k, (f, v) in records.items() if f & 1}
    targets, lists = oracle_neighbour_lists(trained, radius)
    if targets:
        starts = np.cumsum([0] + [len(x) for x in lists[:-1]])
        sums = np.add.reduceat(np.array([v for x in lists for v in x]), starts)
        for key, total, x in zip(targets, sums, lists):
            records[key] = (records.get(key, (0, 0))[0] | 2, np.float32(total / len(x)))
    keys = sorted(k for k, (f, v) in records.items() if f or v != 0)
    return (np.array([s for s, _ in keys], dtype=np.uint32),
            np.array([a for _, a in keys], dtype=np.uint16),
            np.array([records[k][0] for k in keys], dtype=np.uint16),
            np.array([records[k][1] for k in keys], dtype=np.float32))


# ---------------------------------------------------------------------------
# Scratch state construction
# ---------------------------------------------------------------------------

def _oracle_spherical(x, y, z):
    """Radius, azimuth in [-pi, pi), polar angle via atan2 rather than arccos."""
    r = math.sqrt(x * x + y * y + z * z)
    if r < 1e-12:
        return r, 0.0, 0.0
    theta = math.atan2(y, x)
    if theta == math.pi:
        theta = -math.pi
    phi = math.atan2(math.hypot(x, y), z)
    return r, theta, phi


def oracle_continuous_dims(goal_pos, goal_dir, tip_pos, tip_dir, origin):
    """The ten raw state values, rebuilt with double-cross-product frames."""
    gp = np.asarray(goal_pos, dtype=float)
    gd = np.asarray(goal_dir, dtype=float)
    tp = np.asarray(tip_pos, dtype=float)
    td = np.asarray(tip_dir, dtype=float)
    og = np.asarray(origin, dtype=float)

    rel_goal = gp - og
    d_goal, theta_dgoal, phi_dgoal = _oracle_spherical(*rel_goal)
    _, theta_egoal, phi_egoal = _oracle_spherical(*gd)
    rel_tip = tp - gp
    d_tip, theta_dtip, phi_dtip = _oracle_spherical(*rel_tip)

    ref = np.array([1.0, 0.0, 0.0])
    if abs(gd[0]) > 0.999:
        ref = np.array([0.0, 1.0, 0.0])
    x_axis = -np.cross(gd, np.cross(gd, ref))
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.cross(gd, x_axis)
    local = (float(np.dot(td, x_axis)), float(np.dot(td, y_axis)), float(np.dot(td, gd)))
    _, theta_etip, phi_etip = _oracle_spherical(*local)

    return (d_goal, theta_dgoal, phi_dgoal, theta_egoal, phi_egoal,
            d_tip, theta_dtip, phi_dtip, theta_etip, phi_etip)


def oracle_state_index(goal_pos, goal_dir, tip_pos, tip_dir, origin,
                       d_tip_edges, phi_egoal_edges, d_max):
    """Packed state index of a goal/tip pair, via oracle_bin_index."""
    values = oracle_continuous_dims(goal_pos, goal_dir, tip_pos, tip_dir, origin)
    return oracle_bin_index(values, d_tip_edges, phi_egoal_edges, d_max)


def oracle_bin_index(values, d_tip_edges, phi_egoal_edges, d_max):
    """Ten raw state values binned with np.digitize and packed by Horner's rule."""
    az = np.array([-math.pi / 2, 0.0, math.pi / 2])
    el = np.array([math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    per_dim_edges = [
        np.array([d_max / 4, d_max / 2, 3 * d_max / 4]),
        az, el, az, np.asarray(phi_egoal_edges, dtype=float),
        np.asarray(d_tip_edges, dtype=float), az, el, az, el,
    ]
    index = 0
    for value, edges in zip(values, per_dim_edges):
        index = index * 4 + int(np.digitize(value, edges))
    return index


# ---------------------------------------------------------------------------
# Goal bank file writer
# ---------------------------------------------------------------------------

def write_goal_bank(path, bins, rows, *, seed, quota, budget, fingerprint, samples_used):
    """A version-1 .hpnb file holding exactly these bin ids and goal rows, with a valid CRC.

    Each row is (x, y, z, dx, dy, dz); the file carries ``quota`` rows per bin.
    """
    body = (
        b"HPNB"
        + struct.pack("<IQIQQII", 1, seed, quota, budget, samples_used, fingerprint, len(bins))
        + np.asarray(bins, dtype="<u2").tobytes()
        + np.asarray(rows, dtype="<f8").tobytes()
    )
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body)))


# ---------------------------------------------------------------------------
# Episode-by-episode evaluation
# ---------------------------------------------------------------------------

def oracle_lock(log):
    """(step, period) of an episode log's first return to an earlier record's pressures.

    (None, None) when no record's pressures repeat an earlier one's.
    """
    first = {}
    for record in log.records:
        key = record.pressures.tobytes()
        if key in first:
            return record.step, record.step - first[key]
        first[key] = record.step
    return None, None


def oracle_evaluate(table, goals, *, params, action_spec, reward_spec, binning,
                    plant_kind="nominal", perturbed_cfg=None, repetitions=3,
                    max_steps=200, seed=0):
    """evaluate() as one scalar run_episode(train=False) call per (goal, repetition).

    Every episode gets a plant of its own: NominalPlant, or a PerturbedPlant on
    the run's plant seed whose noise stream is keyed by (goal index,
    repetition). Returns the GoalResults, selection counts included, read from
    the episode logs: an action is selected on the state of the record before it.
    On a plant without noise, a goal's lock is the first record whose 16
    pressures, bit for bit, repeat an earlier record's (oracle_lock).
    """
    from hpnarm.episode import NominalPlant, PerturbedPlant, PerturbedPlantConfig, run_episode
    from hpnarm.evalrun import GoalResult
    from hpnarm.qtable import FLAG_TRAINED, HyperParams, QTable

    if table is None:
        table = QTable()
    cfg = perturbed_cfg if perturbed_cfg is not None else PerturbedPlantConfig()
    plant_seed = int(np.random.SeedSequence((seed, 3)).generate_state(1)[0])
    length = max_steps + 1
    noise_free = plant_kind == "nominal" or cfg.tip_noise_sigma_mm == 0.0
    results = []
    for goal_i, goal in enumerate(goals):
        pos = np.empty((repetitions, length))
        rot = np.empty((repetitions, length))
        success = np.zeros(repetitions, dtype=bool)
        counts = [0, 0, 0]
        for rep in range(repetitions):
            if plant_kind == "perturbed":
                plant = PerturbedPlant(params, cfg, plant_seed, (goal_i, rep))
            else:
                plant = NominalPlant(params)
            log = run_episode(
                plant, goal, table, HyperParams(), params=params, action_spec=action_spec,
                reward_spec=reward_spec, binning=binning, max_steps=max_steps,
                rng=np.random.default_rng(0), train=False,
            )
            series = [(r.pos_error_mm, r.rot_error_deg) for r in log.records]
            series += [series[-1]] * (length - len(series))
            pos[rep], rot[rep] = np.array(series).T
            success[rep] = log.success
            for record in log.records[:-1]:
                flags = table.flags(record.state_index)
                counts[0 if (flags & FLAG_TRAINED).any() else 1 if flags.any() else 2] += 1
        # Without noise every repetition is the same episode: read the last one's log.
        lock = oracle_lock(log) if noise_free else (None, None)
        results.append(GoalResult(
            goal=goal, pos_series=pos, rot_series=rot, success=success,
            trained_selections=counts[0], augmented_selections=counts[1],
            empty_selections=counts[2],
            lock_step=lock[0], lock_period=lock[1],
        ))
    return results
