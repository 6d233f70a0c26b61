"""Tabular Q-function: storage, updates, action selection, augmentation, persistence.

The table maps (state index, action id) to a float32 value plus a flag
word recording how the entry came to be: bit 0 set by a learning update,
bit 1 set by neighbor-mean augmentation. Entries never touched read as
value 0 with flags 0. Storage is one layout from training to disk: the
goal bins held, and per bin a stacked row of values and one of flags (see
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

import numpy as np

from .state import N_BINS_PER_DIM, N_GOAL_BINS, N_STATES, N_TIP_STATES

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


def check_integers(**values) -> None:
    """ValueError unless each value is an int or a numpy integer; bool is refused."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, not {value!r}")


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
    """Value table over (state index, action id), stored as stacked goal-bin rows.

    A state index divides by N_TIP_STATES into its goal bin and the tip-error
    suffix within it. The table holds three arrays: ``bins`` (m,), the goal
    bins it holds as strictly increasing int64; ``bin_values`` (m,
    N_TIP_STATES, action_count) float32; and ``bin_flags`` of the same shape,
    uint16. Row i of the stacked arrays belongs to goal bin ``bins[i]``; a bin
    the table does not hold reads as zeros. Training episodes only ever touch
    their own goal's bin, so a bin is also the unit the lockstep engine trains
    in: lane i trains row i, and tables trained on disjoint bins join by
    concatenating their rows in bin order (pretrain.merge).

    Read the three arrays, but write only through update and set_entry: a
    write to a bin the table does not hold inserts a zeroed row at its sorted
    place, which replaces the arrays.

    Flag words hold only the defined bits, FLAG_TRAINED and FLAG_AUGMENTED:
    from_arrays, set_entry, from_records and load reject any other bit.
    """

    def __init__(self, action_count: int = N_ACTIONS):
        if action_count <= 0 or action_count > 0xFFFF:
            raise ValueError(f"action_count must be in [1, 65535], got {action_count}")
        self.action_count = int(action_count)
        self.bins = np.empty(0, dtype=np.int64)
        self.bin_values = np.zeros((0, N_TIP_STATES, self.action_count), dtype=np.float32)
        self.bin_flags = np.zeros(self.bin_values.shape, dtype=np.uint16)
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

    def _row(self, goal_bin: int) -> int | None:
        """Index of the goal bin's row, or None when the table does not hold it."""
        i = int(self.bins.searchsorted(goal_bin))
        return i if i < len(self.bins) and self.bins[i] == goal_bin else None

    def values(self, state: int) -> np.ndarray:
        """Row of action values; a shared zero row for untouched states. Do not mutate."""
        goal_bin, suffix = divmod(state, N_TIP_STATES)
        i = self._row(goal_bin)
        return self._zero_values if i is None else self.bin_values[i, suffix]

    def flags(self, state: int) -> np.ndarray:
        """Row of flag words, analogous to values(). Do not mutate."""
        goal_bin, suffix = divmod(state, N_TIP_STATES)
        i = self._row(goal_bin)
        return self._zero_flags if i is None else self.bin_flags[i, suffix]

    def get(self, state: int, action: int) -> float:
        return float(self.values(state)[action])

    def max_value(self, state: int) -> float:
        return float(self.values(state).max())

    def trained_count(self) -> int:
        return self._count_flag(FLAG_TRAINED)

    def augmented_count(self) -> int:
        return self._count_flag(FLAG_AUGMENTED)

    # The counts and record_arrays go one goal bin at a time, so no
    # temporary spans the whole table.
    def _count_flag(self, bit: int) -> int:
        return sum(int(np.count_nonzero(f & bit)) for f in self.bin_flags)

    def entry_count(self) -> int:
        return sum(int(np.count_nonzero(_stored(v, f)))
                   for v, f in zip(self.bin_values, self.bin_flags))

    def state_count(self) -> int:
        """Number of states holding at least one stored entry."""
        return sum(int(np.count_nonzero(_stored(v, f).any(axis=1)))
                   for v, f in zip(self.bin_values, self.bin_flags))

    # -- write paths --------------------------------------------------------

    def _check_entry(self, state: int, action: int) -> None:
        _check_state(state)
        if not 0 <= action < self.action_count:
            raise ValueError(f"action {action} outside [0, {self.action_count})")

    def _write_row(self, goal_bin: int) -> int:
        """Index of the goal bin's row, inserting a zeroed row first if it is absent."""
        i = int(self.bins.searchsorted(goal_bin))
        if i == len(self.bins) or self.bins[i] != goal_bin:
            self.bins = np.insert(self.bins, i, goal_bin)
            self.bin_values = np.insert(self.bin_values, i, 0, axis=0)
            self.bin_flags = np.insert(self.bin_flags, i, 0, axis=0)
        return i

    def update(self, state: int, action: int, reward: float,
               next_state: int, hp: HyperParams) -> float:
        """One temporal-difference backup; marks the entry trained.

        Q(s,a) := Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)).
        Returns the new value. The arithmetic runs in float64 and the
        result is stored in float32; a result float32 cannot hold finitely
        raises ValueError and leaves the table as it was.
        """
        if not np.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        self._check_entry(state, action)
        _check_state(next_state)
        target = reward + hp.gamma * self.max_value(next_state)
        old = self.get(state, action)
        return float(self._store(state, action, old + hp.alpha * (target - old), FLAG_TRAINED))

    def set_entry(self, state: int, action: int, value: float, flag_bits: int) -> None:
        """Directly store one entry; used by fixtures and bulk builders."""
        self._check_entry(state, action)
        if _undefined_flags(flag_bits):
            raise ValueError(f"flag bits {flag_bits:#x} outside the defined {_FLAGS_DEFINED:#x}")
        self._store(state, action, value, flag_bits)

    def _store(self, state: int, action: int, value: float, flag_bits: int) -> np.float32:
        """Write float32(value) and OR in flag_bits; ValueError first if that is not finite."""
        with np.errstate(over="ignore"):
            stored = np.float32(value)
        if not np.isfinite(stored):
            raise ValueError(f"state {state} action {action}: {value} not finite in float32")
        goal_bin, suffix = divmod(state, N_TIP_STATES)
        i = self._write_row(goal_bin)
        self.bin_values[i, suffix, action] = stored
        self.bin_flags[i, suffix, action] |= flag_bits
        return stored

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
        for goal_bin, idx, v, f in self._bin_entries(_stored):
            state, action = np.divmod(idx, self.action_count)
            state += goal_bin * N_TIP_STATES
            states.append(state.astype(np.uint32))
            actions.append(action.astype(np.uint16))
            flags.append(f[idx])
            values.append(v[idx])
        return (
            np.concatenate(states), np.concatenate(actions),
            np.concatenate(flags), np.concatenate(values),
        )

    def _bin_entries(self, select):
        """Per held bin: (goal bin, flat indices, flat values, flat flags).

        The indices, increasing, are those of the bin's entries for which
        ``select(values, flags)`` is true; index i is suffix i // action_count,
        action i % action_count.
        """
        for goal_bin, v, f in zip(self.bins.tolist(), self.bin_values, self.bin_flags):
            v, f = v.reshape(-1), f.reshape(-1)
            yield goal_bin, np.flatnonzero(select(v, f)), v, f

    def copy(self) -> "QTable":
        return QTable.from_arrays(self.bins.copy(), self.bin_values.copy(), self.bin_flags.copy())

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
    def from_arrays(cls, bins, values, flags) -> "QTable":
        """A table holding the three stacked arrays, checked but not copied.

        ``bins`` (m,) must be strictly increasing goal bins in [0, N_GOAL_BINS),
        ``values`` and ``flags`` (m, N_TIP_STATES, action_count) must agree in
        shape; values must be finite and flags hold only defined bits, else
        ValueError. Arrays already of dtype int64, float32 and uint16 become
        the table's own, so the caller must not write to them afterwards.
        """
        if _undefined_flags(flags):
            raise ValueError(f"flag bits outside the defined {_FLAGS_DEFINED:#x}")
        bins = np.asarray(bins, dtype=np.int64)
        values = np.asarray(values, dtype=np.float32)
        flags = np.asarray(flags, dtype=np.uint16)
        if bins.ndim != 1 or values.ndim != 3 or values.shape[:2] != (len(bins), N_TIP_STATES):
            raise ValueError(f"bins {bins.shape} and values {values.shape} do not stack as "
                             f"(m,) and (m, {N_TIP_STATES}, action_count)")
        if flags.shape != values.shape:
            raise ValueError(f"flags {flags.shape} and values {values.shape} differ in shape")
        if len(bins) and (bins[0] < 0 or bins[-1] >= N_GOAL_BINS):
            raise ValueError(f"goal bin outside [0, {N_GOAL_BINS})")
        if (np.diff(bins) <= 0).any():
            raise ValueError("goal bins must be strictly increasing")
        # One bin at a time: no whole-table temporary.
        if not all(np.isfinite(v).all() for v in values):
            raise ValueError("non-finite value")
        out = cls(values.shape[2])
        out.bins, out.bin_values, out.bin_flags = bins, values, flags
        return out

    @classmethod
    def from_records(cls, states, actions, flags, values,
                     action_count: int = N_ACTIONS) -> "QTable":
        """Bulk-build a table from parallel entry arrays in any order.

        The four arrays must be 1-D and of one length, with no (state, action)
        pair twice, else ValueError.
        """
        states = np.asarray(states, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        if _undefined_flags(flags):
            raise ValueError(f"flag bits outside the defined {_FLAGS_DEFINED:#x}")
        flags_arr = np.asarray(flags, dtype=np.uint16)
        values_arr = np.asarray(values, dtype=np.float32)
        shapes = [a.shape for a in (states, actions, flags_arr, values_arr)]
        if states.ndim != 1 or shapes.count(states.shape) != 4:
            raise ValueError(f"entry arrays must be 1-D and of one length, got shapes {shapes}")
        if states.size and (states.min() < 0 or states.max() >= N_STATES):
            raise ValueError(f"state index outside [0, {N_STATES})")
        if actions.size and (actions.min() < 0 or actions.max() >= action_count):
            raise ValueError("action id outside table's action range")
        if not np.isfinite(values_arr).all():
            raise ValueError("non-finite value")
        keys = states * action_count
        keys += actions
        sorted_keys = np.sort(keys)
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            raise ValueError("repeated (state, action) entry")
        return _from_keys(keys, flags_arr, values_arr, action_count)


def _from_keys(keys, flags, values, action_count: int) -> QTable:
    """A table of already checked entries, keyed state * action_count + action.

    from_records and load each check their input once, then build here.
    """
    out = QTable(action_count)
    out.bins, flat, out.bin_values, out.bin_flags = _stacked_for(keys, out.action_count)
    out.bin_values.reshape(-1)[flat] = values
    out.bin_flags.reshape(-1)[flat] = flags
    return out


def _stacked_for(keys: np.ndarray, action_count: int, held=()):
    """Zeroed stacked arrays for entry keys state * action_count + action.

    Returns (bins, flat, values, flags): the goal bins of the keys and of
    ``held``, in increasing order; each key's index into the flattened
    arrays; and zeroed (bins, N_TIP_STATES, action_count) value and flag
    arrays.
    """
    per_bin = N_TIP_STATES * action_count
    present = np.zeros(N_GOAL_BINS, dtype=bool)
    present[keys // per_bin] = True
    present[np.asarray(held, dtype=np.int64)] = True
    bins = np.flatnonzero(present)
    # In place, so that at most one key-sized temporary lives beside `flat`.
    flat = (np.cumsum(present) - 1)[keys // per_bin]
    flat *= per_bin
    flat += keys % per_bin
    shape = (len(bins), N_TIP_STATES, action_count)
    return bins, flat, np.zeros(shape, dtype=np.float32), np.zeros(shape, dtype=np.uint16)


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
    1..radius steps (a digit spans 0..3, so radius 3 reaches them all). For
    each untrained (s, a) with at least one trained (n, a) among its
    neighbors, the new value is the mean of those trained values and the
    entry is flagged augmented; trained entries are never modified. The pass
    reads only the input table, so filled values never feed each other.
    Returns a new table.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    keys, means = _neighbor_means(q, radius)
    bins, flat, values, flags = _stacked_for(keys, q.action_count, q.bins)
    held = np.searchsorted(bins, q.bins)
    values[held] = q.bin_values
    flags[held] = q.bin_flags
    flat_values, flat_flags = values.reshape(-1), flags.reshape(-1)
    eligible = (flat_flags[flat] & FLAG_TRAINED) == 0
    flat = flat[eligible]
    flat_values[flat] = means[eligible]
    flat_flags[flat] |= FLAG_AUGMENTED
    # Means of finite float32 values, flags input | FLAG_AUGMENTED: nothing to rescan.
    out = QTable(q.action_count)
    out.bins, out.bin_values, out.bin_flags = bins, values, flags
    return out


def _neighbor_means(q: QTable, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries with a trained neighbor (augment's), and their neighbors' mean values.

    Returns sorted keys state * action_count + action and float32 means.
    np.add.reduceat sums the contributions to one key in the order the loop
    below makes them (digit, step, up before down), which the stable sort
    keeps; that order fixes every mean's bits.
    """
    ac = q.action_count
    per_bin = N_TIP_STATES * ac
    src_k = [np.empty(0, np.int64)]
    src_v = [np.empty(0)]
    for goal_bin, idx, v, _ in q._bin_entries(lambda v, f: f & FLAG_TRAINED):
        src_k.append(idx + goal_bin * per_bin)
        src_v.append(v[idx].astype(np.float64))
    src_k = np.concatenate(src_k)
    src_v = np.concatenate(src_v)

    key_parts = [np.empty(0, np.int64)]
    val_parts = [np.empty(0)]
    for dim in range(10):
        place = 4 ** (9 - dim)
        digit = src_k // (place * ac) % 4
        for step in range(1, min(radius, N_BINS_PER_DIM - 1) + 1):
            up = digit + step <= 3
            if up.any():
                key_parts.append(src_k[up] + step * place * ac)
                val_parts.append(src_v[up])
            down = digit - step >= 0
            if down.any():
                key_parts.append(src_k[down] - step * place * ac)
                val_parts.append(src_v[down])
    keys = np.concatenate(key_parts)
    vals = np.concatenate(val_parts)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(vals, starts)
    counts = np.diff(np.append(starts, keys.size))
    return keys[starts], (sums / counts).astype(np.float32)


def save(q: QTable, path) -> None:
    """Write a table; the format round-trips bit-exactly through load()."""
    states, actions, flags, values = q.record_arrays()
    records = np.empty(states.size, dtype=_RECORD_DTYPE)
    records["state"] = states
    records["action"] = actions
    records["flags"] = flags
    records["value"] = values
    header = MAGIC + _HEADER.pack(FORMAT_VERSION, q.action_count, states.size)
    crc = zlib.crc32(records, zlib.crc32(header)) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records)
        fh.write(_CRC.pack(crc))


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
    if not 1 <= action_count <= 0xFFFF:
        raise QTableIOError(f"{path}: action count {action_count} outside [1, 65535]")
    expected = _HEADER_SIZE + n_entries * _RECORD_DTYPE.itemsize + _CRC.size
    if len(data) < expected:
        raise TruncatedTableError(
            f"{path}: {len(data)} bytes, need {expected} for {n_entries} records")
    if len(data) > expected:
        raise QTableIOError(f"{path}: {len(data) - expected} trailing bytes")
    (stored_crc,) = _CRC.unpack_from(data, expected - _CRC.size)
    actual_crc = zlib.crc32(memoryview(data)[: expected - _CRC.size]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ChecksumError(f"{path}: CRC {actual_crc:#010x} != stored {stored_crc:#010x}")
    records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=n_entries, offset=_HEADER_SIZE)
    key = records["state"].astype(np.int64)
    key *= action_count
    key += records["action"]
    if n_entries:
        if int(records["action"].max()) >= action_count:
            raise QTableIOError(f"{path}: action id beyond action count {action_count}")
        if not (key[1:] > key[:-1]).all():
            raise QTableIOError(f"{path}: records not strictly sorted by (state, action)")
        if int(records["state"][-1]) >= N_STATES:
            raise QTableIOError(
                f"{path}: state {int(records['state'][-1])} outside [0, {N_STATES})")
        if not np.isfinite(records["value"]).all():
            raise QTableIOError(f"{path}: non-finite value")
        if _undefined_flags(records["flags"]):
            raise QTableIOError(f"{path}: flag bits outside the defined {_FLAGS_DEFINED:#x}")
    return _from_keys(key, records["flags"], records["value"], action_count)
