"""Tabular Q-function: storage, updates, action selection, augmentation, persistence.

The table maps (state index, action id) to a float32 value plus a flag
word recording how the entry came to be: bit 0 set by a learning update,
bit 1 set by neighbor-mean augmentation. Entries never touched read as
value 0 with flags 0. Storage is one block per goal bin written to (see
QTable). The on-disk format is a flat record list: little-endian, magic
"HPNQ", version, action count, entry count, records sorted by (state,
action), CRC32 over everything before the checksum itself.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .state import N_GOAL_BINS, N_STATES, N_TIP_STATES

N_ACTIONS = 32
FLAG_TRAINED = 1
FLAG_AUGMENTED = 2
_FLAGS_DEFINED = FLAG_TRAINED | FLAG_AUGMENTED

MAGIC = b"HPNQ"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIQ")  # version, action_count, entry_count (after magic)
_HEADER_SIZE = 4 + _HEADER.size
_CRC = struct.Struct("<I")
_RECORD_DTYPE = np.dtype(
    [("state", "<u4"), ("action", "<u2"), ("flags", "<u2"), ("value", "<f4")]
)


class QTableIOError(Exception):
    """Base for Q-table file problems."""


class BadMagicError(QTableIOError):
    """File does not start with the Q-table magic."""


class UnsupportedVersionError(QTableIOError):
    """File declares a format version this code does not read."""


class TruncatedTableError(QTableIOError):
    """File ends before the declared record count and checksum."""


class ChecksumError(QTableIOError):
    """Stored CRC32 does not match the file contents."""


@dataclass(frozen=True)
class HyperParams:
    """Constant learning rate, discount, and exploration probability."""

    alpha: float = 0.2
    gamma: float = 0.9
    epsilon: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class ActionSpec:
    """The 32 discrete actions: one chamber nudged up or down by delta_p.

    Action id packs (segment, chamber, direction) as segment*8 + chamber*2
    + (0 for +delta_p, 1 for -delta_p). Pressures saturate at [0, p_max],
    so an action against a bound leaves the chamber unchanged.
    """

    delta_p_kpa: float = 5.0

    def __post_init__(self):
        if not (self.delta_p_kpa > 0.0 and math.isfinite(self.delta_p_kpa)):
            raise ValueError(f"delta_p_kpa must be positive and finite, got {self.delta_p_kpa}")

    @property
    def action_count(self) -> int:
        return N_ACTIONS

    def decompose(self, action_id: int) -> tuple[int, int, int]:
        """(segment, chamber, direction) of an action id; direction is +1 or -1."""
        if not 0 <= action_id < N_ACTIONS:
            raise ValueError(f"action id {action_id} outside [0, {N_ACTIONS})")
        segment, rest = divmod(action_id, 8)
        chamber, down = divmod(rest, 2)
        return segment, chamber, -1 if down else 1

    def compose(self, segment: int, chamber: int, direction: int) -> int:
        if segment not in range(4) or chamber not in range(4) or direction not in (-1, 1):
            raise ValueError(f"bad action triple ({segment}, {chamber}, {direction})")
        return segment * 8 + chamber * 2 + (1 if direction < 0 else 0)

    def apply(self, pressures: np.ndarray, action_id: int, p_max_kpa: float) -> np.ndarray:
        """New (4, 4) pressure matrix after one action, clipped to [0, p_max]."""
        segment, chamber, direction = self.decompose(action_id)
        if isinstance(pressures, np.ndarray) and pressures.shape == (4, 4):
            out = pressures.copy()
        else:
            out = np.array(pressures, dtype=float).reshape(4, 4)
        p = out[segment, chamber] + direction * self.delta_p_kpa
        out[segment, chamber] = min(max(p, 0.0), p_max_kpa)
        return out

    def apply_batch(self, pressures: np.ndarray, action_ids: np.ndarray,
                    p_max_kpa: float) -> np.ndarray:
        """apply() to an (n, 4, 4) pressure stack in place, one action per row.

        Returns the segment each row's action moved.
        """
        segment, rest = np.divmod(action_ids, 8)
        chamber, down = np.divmod(rest, 2)
        row = np.arange(len(action_ids))
        p = pressures[row, segment, chamber] + np.where(down == 1, -self.delta_p_kpa,
                                                        self.delta_p_kpa)
        pressures[row, segment, chamber] = np.minimum(np.maximum(p, 0.0), p_max_kpa)
        return segment


class QTable:
    """Value table over (state index, action id), stored per goal bin.

    A state index divides by N_TIP_STATES into its goal bin and the tip-error
    suffix within it. Each goal bin written to owns a block: an
    (N_TIP_STATES, action_count) float32 value array and a uint16 flag array
    of the same shape. Training episodes only ever touch their own goal's
    bin, so a bin is also the unit the lockstep engine trains in: each lane
    owns one bin's block, and tables trained on disjoint bins join by a
    plain union of blocks (pretrain.merge).

    Flag words hold only the defined bits, FLAG_TRAINED and FLAG_AUGMENTED:
    set_entry, from_records and load reject any other bit.
    """

    def __init__(self, action_count: int = N_ACTIONS):
        if action_count <= 0 or action_count > 0xFFFF:
            raise ValueError(f"action_count must be in [1, 65535], got {action_count}")
        self.action_count = int(action_count)
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        zero_v = np.zeros(action_count, dtype=np.float32)
        zero_f = np.zeros(action_count, dtype=np.uint16)
        zero_v.flags.writeable = False
        zero_f.flags.writeable = False
        self._zero_values = zero_v
        self._zero_flags = zero_f

    # -- read paths ---------------------------------------------------------

    @property
    def dense(self) -> bool:
        """Always False: the table has one storage layout."""
        return False

    @property
    def blocks(self) -> Mapping[int, tuple[np.ndarray, np.ndarray]]:
        """Goal bin -> (values, flags) block, read-only view. Do not mutate."""
        return MappingProxyType(self._blocks)

    def values(self, state: int) -> np.ndarray:
        """Row of action values; a shared zero row for untouched states. Do not mutate."""
        goal_bin, suffix = divmod(state, N_TIP_STATES)
        block = self._blocks.get(goal_bin)
        return self._zero_values if block is None else block[0][suffix]

    def flags(self, state: int) -> np.ndarray:
        """Row of flag words, analogous to values(). Do not mutate."""
        goal_bin, suffix = divmod(state, N_TIP_STATES)
        block = self._blocks.get(goal_bin)
        return self._zero_flags if block is None else block[1][suffix]

    def get(self, state: int, action: int) -> float:
        return float(self.values(state)[action])

    def max_value(self, state: int) -> float:
        return float(self.values(state).max())

    def trained_count(self) -> int:
        return self._count_flag(FLAG_TRAINED)

    def augmented_count(self) -> int:
        return self._count_flag(FLAG_AUGMENTED)

    def _count_flag(self, bit: int) -> int:
        return sum(int(np.count_nonzero(f & bit)) for _, f in self._blocks.values())

    def entry_count(self) -> int:
        return sum(int(np.count_nonzero(_stored(v, f))) for v, f in self._blocks.values())

    def state_count(self) -> int:
        """Number of states holding at least one stored entry."""
        return sum(
            int(np.count_nonzero(_stored(v, f).any(axis=1))) for v, f in self._blocks.values()
        )

    # -- write paths --------------------------------------------------------

    def _check_entry(self, state: int, action: int) -> None:
        _check_state(state)
        if not 0 <= action < self.action_count:
            raise ValueError(f"action {action} outside [0, {self.action_count})")

    def _block(self, goal_bin: int) -> tuple[np.ndarray, np.ndarray]:
        """The bin's block, allocated zeroed on first write."""
        block = self._blocks.get(goal_bin)
        if block is None:
            shape = (N_TIP_STATES, self.action_count)
            block = (np.zeros(shape, dtype=np.float32), np.zeros(shape, dtype=np.uint16))
            self._blocks[goal_bin] = block
        return block

    def update(self, state: int, action: int, reward: float,
               next_state: int, hp: HyperParams) -> float:
        """One temporal-difference backup; marks the entry trained.

        Q(s,a) := Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)).
        Returns the new value. The arithmetic runs in float64 and the
        result is stored in float32.
        """
        if not np.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        self._check_entry(state, action)
        _check_state(next_state)
        target = reward + hp.gamma * self.max_value(next_state)
        goal_bin, suffix = divmod(state, N_TIP_STATES)
        values, flags = self._block(goal_bin)
        old = float(values[suffix, action])
        values[suffix, action] = old + hp.alpha * (target - old)
        flags[suffix, action] |= FLAG_TRAINED
        return float(values[suffix, action])

    def set_entry(self, state: int, action: int, value: float, flag_bits: int) -> None:
        """Directly store one entry; used by fixtures and bulk builders."""
        self._check_entry(state, action)
        if not np.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        if _undefined_flags(flag_bits):
            raise ValueError(f"flag bits {flag_bits:#x} outside the defined {_FLAGS_DEFINED:#x}")
        goal_bin, suffix = divmod(state, N_TIP_STATES)
        values, flags = self._block(goal_bin)
        values[suffix, action] = value
        flags[suffix, action] |= flag_bits

    # -- bulk views ---------------------------------------------------------

    def record_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All stored entries as (states, actions, flags, values), sorted.

        An entry is stored when its flags or value are nonzero. Sorting is
        by (state, action), the canonical on-disk order.
        """
        states = [np.empty(0, np.uint32)]
        actions = [np.empty(0, np.uint16)]
        flags = [np.empty(0, np.uint16)]
        values = [np.empty(0, np.float32)]
        for goal_bin in sorted(self._blocks):
            v, f = self._blocks[goal_bin]
            suffix, action = np.nonzero(_stored(v, f))
            states.append((goal_bin * N_TIP_STATES + suffix).astype(np.uint32))
            actions.append(action.astype(np.uint16))
            flags.append(f[suffix, action])
            values.append(v[suffix, action])
        return (
            np.concatenate(states), np.concatenate(actions),
            np.concatenate(flags), np.concatenate(values),
        )

    def copy(self) -> "QTable":
        return QTable.from_blocks(self._blocks, self.action_count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        if self.action_count != other.action_count:
            return False
        a = self.record_arrays()
        b = other.record_arrays()
        return all(np.array_equal(x, y) for x, y in zip(a[:3], b[:3])) and np.array_equal(
            a[3].view(np.uint32), b[3].view(np.uint32)
        )

    __hash__ = None

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Mapping[int, tuple[np.ndarray, np.ndarray]],
                    action_count: int = N_ACTIONS) -> "QTable":
        """A table holding copies of per-goal-bin (values, flags) blocks."""
        out = cls(action_count)
        shape = (N_TIP_STATES, out.action_count)
        for goal_bin, (values, flags) in blocks.items():
            if not 0 <= goal_bin < N_GOAL_BINS:
                raise ValueError(f"goal bin {goal_bin} outside [0, {N_GOAL_BINS})")
            values = np.array(values, dtype=np.float32)
            flags = np.array(flags, dtype=np.uint16)
            if values.shape != shape or flags.shape != shape:
                raise ValueError(f"goal bin {goal_bin}: block shape is not {shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"goal bin {goal_bin}: non-finite value")
            out._blocks[int(goal_bin)] = (values, flags)
        return out

    @classmethod
    def from_records(cls, states, actions, flags, values,
                     action_count: int = N_ACTIONS) -> "QTable":
        """Bulk-build a table from parallel entry arrays (any order, no duplicates)."""
        states = np.asarray(states, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        if _undefined_flags(flags):
            raise ValueError(f"flag bits outside the defined {_FLAGS_DEFINED:#x}")
        flags_arr = np.asarray(flags, dtype=np.uint16)
        values_arr = np.asarray(values, dtype=np.float32)
        if states.size and (states.min() < 0 or states.max() >= N_STATES):
            raise ValueError(f"state index outside [0, {N_STATES})")
        if actions.size and (actions.min() < 0 or actions.max() >= action_count):
            raise ValueError("action id outside table's action range")
        if not np.isfinite(values_arr).all():
            raise ValueError("non-finite value")
        out = cls(action_count)
        goal_bins, suffix = np.divmod(states, N_TIP_STATES)
        order = np.argsort(goal_bins, kind="stable")
        uniq, starts = np.unique(goal_bins[order], return_index=True)
        for goal_bin, idx in zip(uniq.tolist(), np.split(order, starts[1:])):
            v, f = out._block(goal_bin)
            v[suffix[idx], actions[idx]] = values_arr[idx]
            f[suffix[idx], actions[idx]] = flags_arr[idx]
        return out


def _stored(values: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Mask of entries that count as stored: nonzero flags or value."""
    return (flags != 0) | (values != 0)


def _undefined_flags(flags) -> bool:
    """Whether any flag word sets a bit other than FLAG_TRAINED and FLAG_AUGMENTED.

    Checked on the caller's values, before a uint16 cast could wrap them.
    The defined bits are the two lowest, so a word is valid iff it is 0..3.
    """
    flags = np.asarray(flags)
    return flags.size > 0 and bool(flags.max() > _FLAGS_DEFINED or flags.min() < 0)


def _check_state(state: int) -> None:
    if not 0 <= state < N_STATES:
        raise ValueError(f"state {state} outside [0, {N_STATES})")


def select_action(q: QTable, state: int, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over one row; greedy ties break to the lowest action id.

    One uniform draw is consumed per call regardless of epsilon, keeping
    stream alignment independent of the exploration setting.
    """
    if rng.random() < epsilon:
        return int(rng.integers(q.action_count))
    return int(q.values(state).argmax())


def augment(q: QTable, radius: int = 1) -> QTable:
    """Fill untrained entries from trained entries at neighboring states.

    A neighbor differs in exactly one of the ten packed base-4 digits, by
     1..radius steps. For each untrained (s, a) with at least one trained
    (n, a) among its neighbors, the new value is the mean of those trained
    values and the entry is flagged augmented; trained entries are never
    modified. The pass reads only the input table, so filled values never
    feed each other. Returns a new table.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    states, actions, flags, values = q.record_arrays()
    trained = (flags & FLAG_TRAINED) != 0
    src_s = states[trained].astype(np.int64)
    src_a = actions[trained].astype(np.int64)
    src_v = values[trained].astype(np.float64)
    out = q.copy()
    if src_s.size == 0:
        return out

    key_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    ac = q.action_count
    for dim in range(10):
        place = 4 ** (9 - dim)
        digit = (src_s // place) % 4
        for step in range(1, radius + 1):
            up = digit + step <= 3
            if up.any():
                key_parts.append((src_s[up] + step * place) * ac + src_a[up])
                val_parts.append(src_v[up])
            down = digit - step >= 0
            if down.any():
                key_parts.append((src_s[down] - step * place) * ac + src_a[down])
                val_parts.append(src_v[down])
    keys = np.concatenate(key_parts)
    vals = np.concatenate(val_parts)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    uniq_keys, starts = np.unique(keys, return_index=True)
    sums = np.add.reduceat(vals, starts)
    counts = np.diff(np.append(starts, keys.size))
    means = (sums / counts).astype(np.float32)

    tgt_bin, tgt_suffix = np.divmod(uniq_keys // ac, N_TIP_STATES)
    tgt_a = uniq_keys % ac
    # Keys are sorted, so each goal bin's targets form one contiguous run.
    bins, bin_starts = np.unique(tgt_bin, return_index=True)
    runs = (np.split(a, bin_starts[1:]) for a in (tgt_suffix, tgt_a, means))
    for goal_bin, suffix, act, mean in zip(bins.tolist(), *runs):
        block_v, block_f = out._block(goal_bin)
        eligible = (block_f[suffix, act] & FLAG_TRAINED) == 0
        suffix, act = suffix[eligible], act[eligible]
        block_v[suffix, act] = mean[eligible]
        block_f[suffix, act] |= FLAG_AUGMENTED
    return out


def save(q: QTable, path) -> None:
    """Write a table; the format round-trips bit-exactly through load()."""
    states, actions, flags, values = q.record_arrays()
    records = np.empty(states.size, dtype=_RECORD_DTYPE)
    records["state"] = states
    records["action"] = actions
    records["flags"] = flags
    records["value"] = values
    body = MAGIC + _HEADER.pack(FORMAT_VERSION, q.action_count, states.size) + records.tobytes()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    Path(path).write_bytes(body + _CRC.pack(crc))


def load(path) -> QTable:
    """Read a table written by save(), verifying structure and checksum.

    Also rejects state indices beyond the 4**10 codec, non-finite values and
    undefined flag bits, which no table can hold and so save() never writes,
    but a file could.
    """
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise TruncatedTableError(f"{path}: only {len(data)} bytes")
    if data[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < _HEADER_SIZE:
        raise TruncatedTableError(f"{path}: header cut short at {len(data)} bytes")
    version, action_count, n_entries = _HEADER.unpack_from(data, 4)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: version {version}, expected {FORMAT_VERSION}")
    if action_count == 0:
        raise QTableIOError(f"{path}: zero action count")
    expected = _HEADER_SIZE + n_entries * _RECORD_DTYPE.itemsize + _CRC.size
    if len(data) < expected:
        raise TruncatedTableError(
            f"{path}: {len(data)} bytes, need {expected} for {n_entries} records")
    if len(data) > expected:
        raise QTableIOError(f"{path}: {len(data) - expected} trailing bytes")
    (stored_crc,) = _CRC.unpack_from(data, expected - _CRC.size)
    actual_crc = zlib.crc32(data[: expected - _CRC.size]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ChecksumError(f"{path}: CRC {actual_crc:#010x} != stored {stored_crc:#010x}")
    records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=n_entries, offset=_HEADER_SIZE)
    if n_entries:
        if int(records["action"].max()) >= action_count:
            raise QTableIOError(f"{path}: action id beyond action count {action_count}")
        key = records["state"].astype(np.int64) * action_count + records["action"]
        if not (np.diff(key) > 0).all():
            raise QTableIOError(f"{path}: records not strictly sorted by (state, action)")
        if int(records["state"][-1]) >= N_STATES:
            raise QTableIOError(
                f"{path}: state {int(records['state'][-1])} outside [0, {N_STATES})")
        if not np.isfinite(records["value"]).all():
            raise QTableIOError(f"{path}: non-finite value")
        if _undefined_flags(records["flags"]):
            raise QTableIOError(f"{path}: flag bits outside the defined {_FLAGS_DEFINED:#x}")
    return QTable.from_records(
        records["state"], records["action"], records["flags"], records["value"],
        action_count=action_count,
    )
