"""Tabular Q-function: storage, updates, action selection, augmentation, persistence.

The table maps (state index, action id) to a float32 value plus a flag
word recording how the entry came to be: bit 0 set by a learning update,
bit 1 set by neighbor-mean augmentation. Entries never touched read as
value 0 with flags 0 and occupy no memory.

Storage is sparse (a dict of per-state rows) by default, since training
visits a small corner of the state space. Augmentation and loading can
promote a table to a dense array backend behind the same interface when
the entry count makes per-row bookkeeping the bigger cost. The on-disk
format is identical either way: little-endian, magic "HPNQ", version,
action count, entry count, records sorted by (state, action), CRC32 over
everything before the checksum itself.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .state import N_STATES

N_ACTIONS = 32
FLAG_TRAINED = 1
FLAG_AUGMENTED = 2

MAGIC = b"HPNQ"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIQ")  # version, action_count, entry_count (after magic)
_HEADER_SIZE = 4 + _HEADER.size
_CRC = struct.Struct("<I")
_RECORD_DTYPE = np.dtype(
    [("state", "<u4"), ("action", "<u2"), ("flags", "<u2"), ("value", "<f4")]
)

# Promote to the dense backend above this entry count, provided every state
# index fits the 4**10 address space of the arm's codec.
_DENSE_THRESHOLD = 400_000
_DENSE_CAPACITY = N_STATES


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
        if not self.delta_p_kpa > 0.0:
            raise ValueError(f"delta_p_kpa must be positive, got {self.delta_p_kpa}")

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
    """Sparse-by-default value table over (state index, action id)."""

    def __init__(self, action_count: int = N_ACTIONS):
        if action_count <= 0 or action_count > 0xFFFF:
            raise ValueError(f"action_count must be in [1, 65535], got {action_count}")
        self.action_count = int(action_count)
        self._rows: dict[int, list[np.ndarray]] | None = {}
        self._dense_values: np.ndarray | None = None
        self._dense_flags: np.ndarray | None = None
        zero_v = np.zeros(action_count, dtype=np.float32)
        zero_f = np.zeros(action_count, dtype=np.uint16)
        zero_v.flags.writeable = False
        zero_f.flags.writeable = False
        self._zero_values = zero_v
        self._zero_flags = zero_f

    # -- read paths ---------------------------------------------------------

    @property
    def dense(self) -> bool:
        return self._dense_values is not None

    def values(self, state: int) -> np.ndarray:
        """Row of action values; a shared zero row for untouched states. Do not mutate."""
        if self.dense:
            if 0 <= state < _DENSE_CAPACITY:
                return self._dense_values[state]
            return self._zero_values
        row = self._rows.get(state)
        return row[0] if row is not None else self._zero_values

    def flags(self, state: int) -> np.ndarray:
        """Row of flag words, analogous to values(). Do not mutate."""
        if self.dense:
            if 0 <= state < _DENSE_CAPACITY:
                return self._dense_flags[state]
            return self._zero_flags
        row = self._rows.get(state)
        return row[1] if row is not None else self._zero_flags

    def get(self, state: int, action: int) -> float:
        return float(self.values(state)[action])

    def max_value(self, state: int) -> float:
        return float(self.values(state).max())

    def trained_count(self) -> int:
        return self._count_flag(FLAG_TRAINED)

    def augmented_count(self) -> int:
        return self._count_flag(FLAG_AUGMENTED)

    def _count_flag(self, bit: int) -> int:
        if self.dense:
            return int(np.count_nonzero(self._dense_flags & bit))
        return sum(int(np.count_nonzero(row[1] & bit)) for row in self._rows.values())

    def state_count(self) -> int:
        """Number of states holding at least one stored entry."""
        if self.dense:
            present = (self._dense_flags != 0) | (self._dense_values != 0)
            return int(np.count_nonzero(present.any(axis=1)))
        count = 0
        for row in self._rows.values():
            if (row[1] != 0).any() or (row[0] != 0).any():
                count += 1
        return count

    # -- write paths --------------------------------------------------------

    def _writable_row(self, state: int) -> list[np.ndarray]:
        if self.dense:
            if not 0 <= state < _DENSE_CAPACITY:
                raise ValueError(
                    f"state {state} outside dense capacity {_DENSE_CAPACITY}")
            return [self._dense_values[state], self._dense_flags[state]]
        row = self._rows.get(state)
        if row is None:
            row = [
                np.zeros(self.action_count, dtype=np.float32),
                np.zeros(self.action_count, dtype=np.uint16),
            ]
            self._rows[state] = row
        return row

    def update(self, state: int, action: int, reward: float,
               next_state: int, hp: HyperParams) -> float:
        """One temporal-difference backup; marks the entry trained.

        Returns the new value. The arithmetic runs in float64 and the
        result is stored in float32.
        """
        if not np.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        if not 0 <= action < self.action_count:
            raise ValueError(f"action {action} outside [0, {self.action_count})")
        target = reward + hp.gamma * self.max_value(next_state)
        row = self._writable_row(state)
        old = float(row[0][action])
        row[0][action] = old + hp.alpha * (target - old)
        row[1][action] |= FLAG_TRAINED
        return float(row[0][action])

    def set_entry(self, state: int, action: int, value: float, flag_bits: int) -> None:
        """Directly store one entry; used by fixtures and bulk builders."""
        row = self._writable_row(state)
        row[0][action] = value
        row[1][action] |= flag_bits

    # -- bulk views ---------------------------------------------------------

    def record_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All stored entries as (states, actions, flags, values), sorted.

        An entry is stored when its flags or value are nonzero. Sorting is
        by (state, action), the canonical on-disk order.
        """
        if self.dense:
            mask = (self._dense_flags != 0) | (self._dense_values != 0)
            si, ai = np.nonzero(mask)
            return (
                si.astype(np.uint32),
                ai.astype(np.uint16),
                self._dense_flags[si, ai],
                self._dense_values[si, ai],
            )
        states, actions, flags, values = [], [], [], []
        for s in sorted(self._rows):
            v, f = self._rows[s]
            (idx,) = np.nonzero((f != 0) | (v != 0))
            if idx.size:
                states.append(np.full(idx.size, s, dtype=np.uint32))
                actions.append(idx.astype(np.uint16))
                flags.append(f[idx])
                values.append(v[idx])
        if not states:
            empty = (
                np.empty(0, np.uint32), np.empty(0, np.uint16),
                np.empty(0, np.uint16), np.empty(0, np.float32),
            )
            return empty
        return (
            np.concatenate(states), np.concatenate(actions),
            np.concatenate(flags), np.concatenate(values),
        )

    def entry_count(self) -> int:
        if self.dense:
            return int(np.count_nonzero((self._dense_flags != 0) | (self._dense_values != 0)))
        return sum(
            int(np.count_nonzero((row[1] != 0) | (row[0] != 0)))
            for row in self._rows.values()
        )

    def copy(self) -> "QTable":
        out = QTable(self.action_count)
        if self.dense:
            out._rows = None
            out._dense_values = self._dense_values.copy()
            out._dense_flags = self._dense_flags.copy()
        else:
            out._rows = {s: [row[0].copy(), row[1].copy()] for s, row in self._rows.items()}
        return out

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

    def _promote_to_dense(self) -> None:
        if self.dense:
            return
        values = np.zeros((_DENSE_CAPACITY, self.action_count), dtype=np.float32)
        flags = np.zeros((_DENSE_CAPACITY, self.action_count), dtype=np.uint16)
        for s, row in self._rows.items():
            if not 0 <= s < _DENSE_CAPACITY:
                raise ValueError(f"state {s} outside dense capacity {_DENSE_CAPACITY}")
            values[s] = row[0]
            flags[s] = row[1]
        self._rows = None
        self._dense_values = values
        self._dense_flags = flags

    @classmethod
    def from_records(cls, states, actions, flags, values,
                     action_count: int = N_ACTIONS, dense: bool | None = None) -> "QTable":
        """Bulk-build a table from parallel entry arrays (any order, no duplicates)."""
        states = np.asarray(states, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        flags_arr = np.asarray(flags, dtype=np.uint16)
        values_arr = np.asarray(values, dtype=np.float32)
        if actions.size and (actions.min() < 0 or actions.max() >= action_count):
            raise ValueError("action id outside table's action range")
        out = cls(action_count)
        if dense is None:
            dense = (
                states.size > _DENSE_THRESHOLD
                and (states.size == 0 or (states.min() >= 0 and states.max() < _DENSE_CAPACITY))
            )
        if dense:
            out._promote_to_dense()
            out._dense_values[states, actions] = values_arr
            out._dense_flags[states, actions] = flags_arr
            return out
        order = np.argsort(states, kind="stable")
        states = states[order]
        actions = actions[order]
        flags_arr = flags_arr[order]
        values_arr = values_arr[order]
        uniq, starts = np.unique(states, return_index=True)
        bounds = np.append(starts, states.size)
        for i, s in enumerate(uniq):
            lo, hi = bounds[i], bounds[i + 1]
            row = out._writable_row(int(s))
            row[0][actions[lo:hi]] = values_arr[lo:hi]
            row[1][actions[lo:hi]] = flags_arr[lo:hi]
        return out


def q_update(q: QTable, state: int, action: int, reward: float,
             next_state: int, hp: HyperParams) -> float:
    """Q(s,a) := Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))."""
    return q.update(state, action, reward, next_state, hp)


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

    if src_s.max() >= _DENSE_CAPACITY:
        raise ValueError("augmentation requires state indices below 4**10")

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

    tgt_s = uniq_keys // ac
    tgt_a = uniq_keys % ac

    if not out.dense and (out.entry_count() + uniq_keys.size) > _DENSE_THRESHOLD:
        out._promote_to_dense()

    if out.dense:
        eligible = (out._dense_flags[tgt_s, tgt_a] & FLAG_TRAINED) == 0
        s_e, a_e = tgt_s[eligible], tgt_a[eligible]
        out._dense_values[s_e, a_e] = means[eligible]
        out._dense_flags[s_e, a_e] |= FLAG_AUGMENTED
        return out

    uniq_states, state_starts = np.unique(tgt_s, return_index=True)
    bounds = np.append(state_starts, tgt_s.size)
    for i, s in enumerate(uniq_states):
        lo, hi = bounds[i], bounds[i + 1]
        row = out._writable_row(int(s))
        acts = tgt_a[lo:hi]
        eligible = (row[1][acts] & FLAG_TRAINED) == 0
        acts = acts[eligible]
        row[0][acts] = means[lo:hi][eligible]
        row[1][acts] |= FLAG_AUGMENTED
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

    Also rejects state indices beyond the 4**10 codec and non-finite values,
    which save() never writes for a trained table but a file could hold.
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
    return QTable.from_records(
        records["state"], records["action"], records["flags"], records["value"],
        action_count=action_count,
    )
