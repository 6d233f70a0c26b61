"""Tabular Q-function: storage, updates, action selection, augmentation, persistence.

The table maps (state index, action id) to a float32 value plus a flag
word recording how the entry came to be: bit 0 set by a learning update,
bit 1 set by neighbor-mean augmentation. Entries never touched read as
value 0 with flags 0. Storage is one layout from training to disk: the
states holding a row, increasing, and one row of values and one of flags
per such state, in the same order (see QTable). The on-disk
format is a flat record list: little-endian, magic "HPNQ", version, action
count, entry count, records sorted by (state, action), CRC32 over
everything before the checksum itself.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .state import (
    N_BINS_PER_DIM,
    N_GOAL_BINS,
    N_STATES,
    N_TIP_STATES,
    check_real_types,
    check_reals,
)

N_ACTIONS = 32
# Both are powers of two, so an entry key state * N_ACTIONS + action and a state
# goal bin * N_TIP_STATES + tip state split with shifts and masks.
assert N_ACTIONS & (N_ACTIONS - 1) == 0 and N_TIP_STATES & (N_TIP_STATES - 1) == 0
_ACTION_BITS = N_ACTIONS.bit_length() - 1
_TIP_BITS = N_TIP_STATES.bit_length() - 1
FLAG_TRAINED = 1
FLAG_AUGMENTED = 2
_FLAGS_DEFINED = FLAG_TRAINED | FLAG_AUGMENTED
# The value and flag row every table reads at a state without a row.
_ZERO_VALUES = np.zeros(N_ACTIONS, dtype=np.float32)
_ZERO_FLAGS = np.zeros(N_ACTIONS, dtype=np.uint8)
_ZERO_VALUES.flags.writeable = False
_ZERO_FLAGS.flags.writeable = False

MAGIC = b"HPNQ"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIQ")  # version, action count, entry count (after magic)
_HEADER_SIZE = 4 + _HEADER.size
_CRC = struct.Struct("<I")
_RECORD_DTYPE = np.dtype(
    [("state", "<u4"), ("action", "<u2"), ("flags", "<u2"), ("value", "<f4")]
)
# Entries that save and record_arrays gather into each field at a time.
_GATHER_CHUNK = 1 << 16


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


def check_integers(low: int | None = None, /, **values) -> None:
    """ValueError unless each value is an int or numpy integer (bool refused), >= low if given."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if low is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_action(action: int, name: str = "action") -> None:
    """ValueError unless ``action`` is an integer action id in [0, N_ACTIONS)."""
    check_integers(**{name: action})
    if not 0 <= action < N_ACTIONS:
        raise ValueError(f"{name} {action} outside [0, {N_ACTIONS})")


@dataclass(frozen=True)
class HyperParams:
    """Constant learning rate, discount, and exploration probability."""

    alpha: float = 0.2
    gamma: float = 0.9
    epsilon: float = 0.1

    def __post_init__(self):
        check_real_types(alpha=self.alpha, gamma=self.gamma, epsilon=self.epsilon)
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
        check_reals(True, delta_p_kpa=self.delta_p_kpa)

    def decompose(self, action_id: int) -> tuple[int, int, int]:
        """(segment, chamber, direction) of an action id; direction is +1 or -1."""
        _check_action(action_id, "action_id")
        segment, rest = divmod(action_id, 8)
        chamber, down = divmod(rest, 2)
        return segment, chamber, -1 if down else 1

    def step(self, pressures, down, p_max_kpa: float) -> np.ndarray:
        """Chamber pressures moved by -delta_p where ``down``, else +delta_p, clipped to [0, p_max].

        Elementwise, broadcasting ``pressures`` against ``down``; every pressure
        an action sets is this value.
        """
        moved = pressures + np.where(down, -self.delta_p_kpa, self.delta_p_kpa)
        return np.minimum(np.maximum(moved, 0.0), p_max_kpa)

    def apply(self, pressures: np.ndarray, action_id: int, p_max_kpa: float) -> np.ndarray:
        """New (4, 4) pressure matrix after one action."""
        segment, chamber, direction = self.decompose(action_id)
        out = np.array(pressures, dtype=float).reshape(4, 4)
        out[segment, chamber] = self.step(out[segment, chamber], direction < 0, p_max_kpa)
        return out


class QTable:
    """Value table over (state index, action id), stored as rows for the states it holds.

    The table holds three arrays: the states holding a row, strictly
    increasing int64 (m,), and one float32 value row and one uint8 flag
    row of N_ACTIONS words per such state, (m, N_ACTIONS) each, in the
    same order (the file keeps u16 flag words, widened by save and
    narrowed by load): every table is as wide as ActionSpec's action set.
    A state without a row reads as zeros. A state index divides by N_TIP_STATES
    into its goal bin and the tip-error suffix within it, so each goal
    bin's rows are one contiguous run. Training episodes only ever touch
    their own goal's bin, so a bin is also the unit the lockstep engine
    trains in, and tables trained on disjoint bins join by taking their
    rows in state order (concat, pretrain.merge). ``bins`` is the goal bins
    holding a row.

    A table is built in bulk, by load, from_records, augment, concat or
    copy, or handed over by train_lockstep (from_checked_arrays), and only
    update, the TD backup, writes an entry after that. An update to a state
    without a row inserts the state and a zeroed row at its sorted place,
    replacing the three arrays. Read the rows only through the methods
    here: no code outside this module indexes the storage.

    Flag words hold only the defined bits, FLAG_TRAINED and FLAG_AUGMENTED:
    from_records and load reject any other bit, and the other builders and
    update set no other.
    """

    def __init__(self):
        self._states = np.empty(0, dtype=np.int64)
        self._values = np.zeros((0, N_ACTIONS), dtype=np.float32)
        self._flags = np.zeros((0, N_ACTIONS), dtype=np.uint8)

    # -- read paths ---------------------------------------------------------

    @property
    def dense(self) -> bool:
        """Always False: the table has one storage layout."""
        return False

    @property
    def bins(self) -> np.ndarray:
        """The goal bins holding a row, strictly increasing int64."""
        return np.unique(self._states >> _TIP_BITS)

    @property
    def nbytes(self) -> int:
        """Bytes the table's three arrays take in memory."""
        return self._states.nbytes + self._values.nbytes + self._flags.nbytes

    def _row(self, state: int) -> int:
        """The state's row, or -1 when it has none; ValueError unless the state is in the codec."""
        _check_state(state)
        i = int(self._states.searchsorted(state))
        return i if i < len(self._states) and self._states[i] == state else -1

    def values(self, state: int) -> np.ndarray:
        """Row of action values; a shared zero row for untouched states. Do not mutate."""
        row = self._row(state)
        return _ZERO_VALUES if row < 0 else self._values[row]

    def flags(self, state: int) -> np.ndarray:
        """Row of flag words, analogous to values(). Do not mutate."""
        row = self._row(state)
        return _ZERO_FLAGS if row < 0 else self._flags[row]

    def get(self, state: int, action: int) -> float:
        _check_action(action)
        return float(self.values(state)[action])

    def max_value(self, state: int) -> float:
        return float(self.values(state).max())

    def row_count(self) -> int:
        """Number of tip states holding a row.

        A row may hold no stored entry: from_records given an entry of value
        0.0 and flags 0 at state s gives s a row of zeros, which save() leaves
        out of the file.
        """
        return len(self._values)

    def trained_count(self) -> int:
        return self._count_flag(FLAG_TRAINED)

    def augmented_count(self) -> int:
        return self._count_flag(FLAG_AUGMENTED)

    def _count_flag(self, bit: int) -> int:
        return int(np.count_nonzero(self._flags & bit))

    def entry_count(self) -> int:
        return int(np.count_nonzero(self._stored_rows()))

    def state_count(self) -> int:
        """Number of states holding at least one stored entry."""
        return int(np.count_nonzero(self._stored_rows().any(axis=1)))

    def _stored_rows(self) -> np.ndarray:
        return _stored(self._values, self._flags)

    def greedy_policy(self, goal_bins) -> tuple[np.ndarray, np.ndarray]:
        """Greedy action and row kind at every tip state of each goal bin given.

        Returns two (len(goal_bins), N_TIP_STATES) int64 arrays: the argmax of
        the state's value row, ties to the lowest action id, and the row's
        kind: 0 if it holds a trained entry, 1 if only augmented ones, 2 if
        it is empty. A state without a row reads action 0 and kind 2.
        """
        goal_bins = np.asarray(goal_bins, dtype=np.int64)
        # Goal bin i's rows are the run lo[i]:lo[i] + count[i]; gather them all, run by run.
        lo = self._states.searchsorted(goal_bins * N_TIP_STATES)
        count = self._states.searchsorted((goal_bins + 1) * N_TIP_STATES) - lo
        which = np.repeat(np.arange(len(goal_bins)), count)
        rows = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
        at = (which, self._states[rows] & (N_TIP_STATES - 1))
        flags = self._flags[rows]
        policy = np.zeros((len(goal_bins), N_TIP_STATES), dtype=np.int64)
        kind = np.full(policy.shape, 2, dtype=np.int64)
        policy[at] = self._values[rows].argmax(axis=1)
        kind[at] = np.where((flags & FLAG_TRAINED).any(axis=1), 0,
                            np.where(flags.any(axis=1), 1, 2))
        return policy, kind

    # -- write paths --------------------------------------------------------

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
        old = self.get(state, action)
        target = reward + hp.gamma * self.max_value(next_state)
        new = old + hp.alpha * (target - old)
        with np.errstate(over="ignore"):
            stored = np.float32(new)
        if not np.isfinite(stored):
            raise ValueError(f"state {state} action {action}: {new} not finite in float32")
        row = int(self._states.searchsorted(state))
        if row == len(self._states) or self._states[row] != state:
            self._states = np.insert(self._states, row, state)
            self._values = np.insert(self._values, row, 0, axis=0)
            self._flags = np.insert(self._flags, row, 0, axis=0)
        self._values[row, action] = stored
        self._flags[row, action] |= FLAG_TRAINED
        return float(stored)

    # -- bulk views ---------------------------------------------------------

    def record_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All stored entries as (states, actions, flags, values), sorted.

        An entry is stored when its flags or value are nonzero. Sorting is
        by (state, action), the canonical on-disk order. The arrays are
        uint32, uint16, uint16 and float32.
        """
        idx = np.flatnonzero(self._stored_rows())
        out = tuple(np.empty(len(idx), t) for t in (np.uint32, np.uint16, np.uint16, np.float32))
        self._write_entries(idx, out)
        return out

    def _write_entries(self, idx: np.ndarray, out) -> None:
        """Write the entries at ``idx`` into the (states, actions, flags, values) arrays ``out``.

        Takes the increasing int64 flat indices of the stored entries into
        the rows and overwrites them with each entry's row. The outputs may
        be strided, as a record array's fields are: each field is gathered a
        chunk of entries at a time, so no temporary grows with the entry
        count.
        """
        flat_values, flat_flags = self._values.reshape(-1), self._flags.reshape(-1)
        out_states, out_actions, out_flags, out_values = out
        for a in range(0, len(idx), _GATHER_CHUNK):
            i = idx[a:a + _GATHER_CHUNK]
            b = a + len(i)
            out_flags[a:b] = flat_flags[i]
            out_values[a:b] = flat_values[i]
            np.bitwise_and(i, N_ACTIONS - 1, out=out_actions[a:b], casting="unsafe")
            i >>= _ACTION_BITS
            out_states[a:b] = self._states[i]

    def copy(self) -> "QTable":
        return QTable.concat([self])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        a = self.record_arrays()
        b = other.record_arrays()
        return all(np.array_equal(x, y) for x, y in zip(a[:3], b[:3])) and np.array_equal(
            a[3].view(np.uint32), b[3].view(np.uint32)
        )

    __hash__ = None

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_checked_arrays(cls, bins, values, flags) -> "QTable":
        """The table of stacked per-bin arrays that their maker checked as it wrote them.

        train_lockstep hands over its lane arrays this way: ``bins`` (m,)
        int64 strictly increasing in [0, N_GOAL_BINS), ``values`` float32
        and finite, ``flags`` uint8 of defined bits, both (m, N_TIP_STATES,
        N_ACTIONS), row i belonging to bins[i]. Nothing is checked again.
        The table keeps copies of the rows of the tip states holding a stored
        entry, in state order, so later writes to the arrays do not reach it.
        A bin without a stored entry holds no row.
        """
        occupied = np.empty(values.shape[:2], dtype=bool)
        for v, f, o in zip(values, flags, occupied):  # one bin at a time: no whole-table temporary
            _stored(v, f).any(axis=1, out=o)
        cells = np.flatnonzero(occupied)
        states = np.asarray(bins, dtype=np.int64)[cells >> _TIP_BITS] << _TIP_BITS
        states |= cells & (N_TIP_STATES - 1)
        return _table(states, values[occupied], flags[occupied])

    @classmethod
    def concat(cls, tables: Sequence["QTable"]) -> "QTable":
        """One table of the goal bins of tables that share none, their rows in state order.

        ValueError if two tables hold one goal bin. No tables give an empty
        table.
        """
        if not tables:
            return cls()
        bins = np.sort(np.concatenate([t.bins for t in tables]))
        repeated = bins[1:][bins[1:] == bins[:-1]]
        if len(repeated):
            raise ValueError(f"goal bin {repeated[0]} is held by more than one table")
        states = np.concatenate([t._states for t in tables])
        order = np.argsort(states)
        return _table(states[order],
                      np.concatenate([t._values for t in tables])[order],
                      np.concatenate([t._flags for t in tables])[order])

    @classmethod
    def from_records(cls, states, actions, flags, values) -> "QTable":
        """Bulk-build a table from parallel entry arrays in any order.

        The four arrays must be 1-D and of one length, with integer states,
        actions in [0, N_ACTIONS) and flag words, values float32 holds
        finitely and no (state, action) pair twice, else ValueError.
        """
        states = _integers("states", states).astype(np.int64)
        actions = _integers("actions", actions).astype(np.int64)
        flags = _integers("flag words", flags)
        if _undefined_flags(flags):
            raise ValueError(f"flag bits outside the defined {_FLAGS_DEFINED:#x}")
        flags_arr = flags.astype(np.uint8)
        with np.errstate(over="ignore"):  # a value past float32's range is refused below
            values_arr = np.asarray(values, dtype=np.float32)
        shapes = [a.shape for a in (states, actions, flags_arr, values_arr)]
        if states.ndim != 1 or shapes.count(states.shape) != 4:
            raise ValueError(f"entry arrays must be 1-D and of one length, got shapes {shapes}")
        if states.size and (states.min() < 0 or states.max() >= N_STATES):
            raise ValueError(f"state index outside [0, {N_STATES})")
        if actions.size and (actions.min() < 0 or actions.max() >= N_ACTIONS):
            raise ValueError(f"action id outside [0, {N_ACTIONS})")
        if not np.isfinite(values_arr).all():
            raise ValueError("value not finite in float32")
        keys = states * N_ACTIONS
        keys += actions
        order = np.argsort(keys)
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("repeated (state, action) entry")
        del keys
        return _from_entries(states[order], actions[order], flags_arr[order], values_arr[order])


def _table(states, values, flags) -> QTable:
    """A table taking the three storage arrays as they are: states increasing, rows in their order."""
    out = QTable()
    out._states, out._values, out._flags = states, values, flags
    return out


def _from_entries(states, actions, flags, values) -> QTable:
    """A table of already checked entries: parallel arrays sorted by (state, action), none twice.

    from_records and load each check their input once, then build here.
    Flag words of any integer dtype narrow to the uint8 rows, which hold
    every defined word. An entry's row counts the state changes up to it.
    """
    new = np.empty(len(states), dtype=bool)
    new[:1] = True
    np.not_equal(states[1:], states[:-1], out=new[1:])
    row_states = states[new].astype(np.int64, copy=False)
    flat = np.cumsum(new, dtype=np.int64)
    del new
    flat -= 1
    flat *= N_ACTIONS
    flat += actions
    shape = (len(row_states), N_ACTIONS)
    out_values = np.zeros(shape, dtype=np.float32)
    out_flags = np.zeros(shape, dtype=np.uint8)
    out_values.reshape(-1)[flat] = values
    out_flags.reshape(-1)[flat] = flags
    return _table(row_states, out_values, out_flags)


def _stored(values: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Mask of entries that count as stored: nonzero flags or value. Allocates only the mask."""
    stored = values != 0
    return np.logical_or(stored, flags, out=stored)


def _integers(name: str, words) -> np.ndarray:
    """``words`` as an array; ValueError unless it holds integers (bool refused).

    Checked before any cast, which would truncate a float. An empty array
    passes whatever its dtype, since ``[]`` reads as float64.
    """
    words = np.asarray(words)
    if words.size and words.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, not {words.dtype}")
    return words


def _goal_bin_ids(bins) -> np.ndarray:
    """Goal bins as int64; ValueError unless integers, strictly increasing, in [0, N_GOAL_BINS)."""
    bins = _integers("goal bins", bins).astype(np.int64).reshape(-1)
    outside = bins[(bins < 0) | (bins >= N_GOAL_BINS)]
    if len(outside):
        raise ValueError(f"goal bin {outside[0]} out of range [0, {N_GOAL_BINS})")
    if (np.diff(bins) <= 0).any():
        raise ValueError("goal bins must be strictly increasing")
    return bins


def _undefined_flags(flags) -> bool:
    """Whether any flag word sets a bit other than FLAG_TRAINED and FLAG_AUGMENTED.

    Checked on the caller's values (a file's u16 words, for load), before
    the uint8 cast to the stored rows could wrap them.
    The defined bits are the two lowest, so a word is valid iff it is 0..3.
    """
    flags = np.asarray(flags)
    return flags.size > 0 and bool(flags.max() > _FLAGS_DEFINED or flags.min() < 0)


def _check_state(state: int) -> None:
    check_integers(state=state)
    if not 0 <= state < N_STATES:
        raise ValueError(f"state {state} outside [0, {N_STATES})")


def select_action(q: QTable, state: int, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over one row; greedy ties break to the lowest action id.

    One uniform draw is consumed per call regardless of epsilon, keeping
    stream alignment independent of the exploration setting.
    """
    if rng.random() < epsilon:
        return int(rng.integers(N_ACTIONS))
    return int(q.values(state).argmax())


def augment(q: QTable, radius: int = 1) -> QTable:
    """Fill untrained entries from trained entries at neighboring states.

    A neighbor differs in exactly one of the ten packed base-4 digits, by
    1..radius steps (a digit spans 0..3, so radius 3 reaches them all). For
    each untrained (s, a) with at least one trained (n, a) among its
    neighbors, the new value is the mean of those trained values and the
    entry is flagged augmented; trained entries are never modified. The pass
    reads only the input table, so filled values never feed each other.
    Returns a new table; ``radius`` must be an integer >= 1, else ValueError.
    """
    check_integers(1, radius=radius)
    states, held_values, held_flags = q._states, q._values, q._flags
    keys, means = _neighbor_means(states, held_values, held_flags, radius)
    actions = np.bitwise_and(keys, N_ACTIONS - 1, out=np.empty(len(keys), np.uint8),
                             casting="unsafe")
    keys >>= _ACTION_BITS  # now each mean's state
    occupied = np.zeros(N_STATES, dtype=bool)
    occupied[states] = True
    occupied[keys] = True
    out_states = np.flatnonzero(occupied)
    del occupied
    # Each output state's row. Written and read only at those states, so of its
    # 4 MiB it touches about one page per goal bin.
    row_of = np.empty(N_STATES, dtype=np.int32)
    row_of[out_states] = np.arange(len(out_states), dtype=np.int32)
    held = row_of[states]
    # From here on keys holds each mean's flat index into the output rows.
    np.multiply(row_of[keys], N_ACTIONS, out=keys, dtype=np.int64)
    del row_of
    keys += actions
    del actions
    shape = (len(out_states), N_ACTIONS)
    values = np.zeros(shape, dtype=np.float32)
    flags = np.zeros(shape, dtype=np.uint8)
    values[held] = held_values
    flags[held] = held_flags
    del held, held_values, held_flags
    flat_values, flat_flags = values.reshape(-1), flags.reshape(-1)
    eligible = (flat_flags[keys] & FLAG_TRAINED) == 0
    flat = keys[eligible]
    del keys
    flat_values[flat] = means[eligible]
    # An untrained entry's flags are 0 or FLAG_AUGMENTED, so OR-ing it in is setting it.
    flat_flags[flat] = FLAG_AUGMENTED
    # Means of finite float32 values, flags input | FLAG_AUGMENTED: nothing to rescan.
    return _table(out_states, values, flags)


# The contributions _neighbor_means aims to sort at a time.
_WINDOW = 1 << 17
# A sort word's key field (a key less its window's start), part field (10 dims
# by 6 moves at most) and source field (a trained entry's index) fit in 64 bits
# for any window: 25 + 6 + 25 bits.
assert (2 * (N_STATES * N_ACTIONS - 1).bit_length()
        + (10 * 2 * (N_BINS_PER_DIM - 1) - 1).bit_length()) <= 64


def _neighbor_means(states, values, flags, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries with a trained neighbor (augment's), and their neighbors' mean values.

    Takes a table's row states (QTable._states) and their value and
    flag rows, in that order. Returns sorted int64 keys
    state * N_ACTIONS + action and float32 means. A trained entry adds its
    value to each neighbor's key, part by part: a part is one (digit, step,
    up or down), numbered in that loop order. Each contribution is one uint64
    word: the key, less the start of its key range, in the high bits, the
    part in the middle, and the trained entry's index in the low bits. A
    key and a part name one trained entry, so the words are distinct and a
    plain in-place sort orders them by key, then by part. np.add.reduceat
    sums each key's float64 values in that order, which fixes every mean's
    bits. The part and source field widths follow the table. The keys are
    taken in windows, one at a time: runs of whole goal bins whose
    contributions number at most _WINDOW, or one bin that holds more. A
    key's contributions all fall in one window, so the windows do not change
    the means' bits; they bound the sort words and values held at once.
    """
    ac = N_ACTIONS
    idx = np.flatnonzero((flags & FLAG_TRAINED) != 0)  # a bool mask: 6x faster than the words
    src_k = states[idx >> _ACTION_BITS] << _ACTION_BITS
    src_k |= idx & (ac - 1)
    src_v = values.reshape(-1)[idx].astype(np.float64)
    del idx
    if not len(src_k):
        return np.empty(0, np.int64), np.empty(0, np.float32)
    # A move takes a digit up or down by a step; parts are (dim, move) in sum order.
    moves = [m for step in range(1, min(radius, N_BINS_PER_DIM - 1) + 1) for m in (step, -step)]
    src_bits = (len(src_k) - 1).bit_length()
    low = (10 * len(moves) - 1).bit_length() + src_bits
    # Per dim, the trained entries ordered by their digit there, and where each digit starts.
    src_s = src_k >> _ACTION_BITS
    orders, edges = [], []
    for dim in range(10):
        digit = (src_s >> 2 * (9 - dim)) & 3
        buckets = [np.flatnonzero(digit == g) for g in range(N_BINS_PER_DIM)]
        orders.append(np.concatenate(buckets))
        edges.append(np.cumsum([0] + [len(b) for b in buckets]))
    del src_s, digit, buckets
    # Blocks (order, a, add, at): the entries from a on in a dim's order that move by
    # one part, in increasing source key. Their words are (source key - lo + offset)
    # << low | part << src_bits | source, and at[i] of them have a neighbor key below
    # grid[i], the first key of goal bin i.
    grid = np.arange(N_GOAL_BINS + 1) * (N_TIP_STATES * ac)
    blocks = []
    for dim, (order, edge) in enumerate(zip(orders, edges)):
        keys_in_order = src_k[order]
        for j, move in enumerate(moves):
            offset = move * 4 ** (9 - dim) * ac
            add = ((offset << low) + ((dim * len(moves) + j) << src_bits)) % 2**64
            for g in range(max(0, -move), min(4, 4 - move)):
                a, b = edge[g], edge[g + 1]
                blocks.append((order, a, add, keys_in_order[a:b].searchsorted(grid - offset)))
    del keys_in_order
    counts = sum(np.diff(at) for *_, at in blocks).tolist()
    cuts, filled = [0], 0  # the goal bins where windows start; contributions in this one
    for i, c in enumerate(counts):
        if filled and filled + c > _WINDOW:
            cuts.append(i)
            filled = 0
        filled += c
    cuts.append(len(counts))
    src_i = np.arange(len(src_k), dtype=np.uint64)
    base = np.empty(len(src_k), dtype=np.uint64)
    key_out, mean_out = [], []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        moved = [(order[a + at[start]:a + at[stop]], add)
                 for order, a, add, at in blocks if at[stop] > at[start]]
        n = sum(len(rows) for rows, _ in moved)
        if not n:
            continue
        lo = int(grid[start])
        np.subtract(src_k, lo, out=base, casting="unsafe")  # modulo 2**64, as is all below
        base <<= low
        base |= src_i
        words = np.empty(n, dtype=np.uint64)
        n = 0
        for rows, add in moved:
            np.add(base[rows], add, out=words[n:n + len(rows)])
            n += len(rows)
        del moved
        words.sort()
        vals = src_v.take(words & ((1 << src_bits) - 1))
        words >>= low
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(words[1:], words[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        keys = words[starts].astype(np.int64)
        del words
        keys += lo
        key_out.append(keys)
        sums = np.add.reduceat(vals, starts)
        del vals
        sums /= np.diff(starts, append=n)
        del starts
        mean_out.append(sums.astype(np.float32))
    return np.concatenate(key_out), np.concatenate(mean_out)


def save(q: QTable, path) -> None:
    """Write a table; the format round-trips bit-exactly through load()."""
    idx = np.flatnonzero(q._stored_rows())
    records = np.empty(len(idx), dtype=_RECORD_DTYPE)
    q._write_entries(idx, [records[name] for name in _RECORD_DTYPE.names])
    header = MAGIC + _HEADER.pack(FORMAT_VERSION, N_ACTIONS, len(records))
    crc = zlib.crc32(records, zlib.crc32(header)) & 0xFFFFFFFF
    with open(Path(path), "wb") as fh:
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
    if action_count != N_ACTIONS:
        raise QTableIOError(f"{path}: action count {action_count}, expected {N_ACTIONS}")
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
    states, actions = records["state"], records["action"]
    if n_entries:
        if int(actions.max()) >= N_ACTIONS:
            raise QTableIOError(f"{path}: action id beyond action count {N_ACTIONS}")
        # Strictly sorted by (state, action): states never fall, and actions rise where they tie.
        tie = states[1:] == states[:-1]
        if (states[1:] < states[:-1]).any() or (tie & (actions[1:] <= actions[:-1])).any():
            raise QTableIOError(f"{path}: records not strictly sorted by (state, action)")
        del tie
        if int(states[-1]) >= N_STATES:
            raise QTableIOError(f"{path}: state {int(states[-1])} outside [0, {N_STATES})")
        if not np.isfinite(records["value"]).all():
            raise QTableIOError(f"{path}: non-finite value")
        if _undefined_flags(records["flags"]):
            raise QTableIOError(f"{path}: flag bits outside the defined {_FLAGS_DEFINED:#x}")
    return _from_entries(states, actions, records["flags"], records["value"])
