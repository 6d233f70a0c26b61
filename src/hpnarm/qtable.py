"""Tabular Q-function: storage, updates, action selection, augmentation, persistence.

The table maps (state index, action id) to a float32 value plus a flag
word recording how the entry came to be: bit 0 set by a learning update,
bit 1 set by neighbor-mean augmentation. Entries never touched read as
value 0 with flags 0. Storage is one layout from training to disk: the
stored entries in (state, action) order, a uint32 key, a float32 value
and a uint8 flag word each (see QTable). Both lockstep loops select on
dense (goal bins, tip states, actions) float32 rows, 0 where no entry is
stored: training writes them and hands them over (from_checked_arrays),
evaluation reads them (QTable.bin_rows). The on-disk format is the same
entries as a flat record list: little-endian, magic "HPNQ", version,
action count, entry count, records sorted by (state, action), CRC32 over
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
SEED_LIMIT = 2**64  # a seed is a u64 (check_seed)

MAGIC = b"HPNQ"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIQ")  # version, action count, entry count (after magic)
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


def check_integers(low: int | None = None, /, **values) -> None:
    """ValueError unless each value is an int or numpy integer (bool refused), >= low if given."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if low is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def check_seed(seed: int) -> None:
    """ValueError unless ``seed`` is an integer (bool refused) in [0, SEED_LIMIT): a u64."""
    check_integers(0, seed=seed)
    if seed >= SEED_LIMIT:
        raise ValueError(f"seed must be < 2**64, got {seed}")


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
    """Value table over (state index, action id), stored as its entries in key order.

    The table holds three arrays, one word each per stored entry: the key
    state * N_ACTIONS + action, uint32 and strictly increasing, the float32
    value and the uint8 flag word (the file keeps u16 flag words, widened
    by save and narrowed by load). That is the record order of the file,
    9 bytes an entry. An entry is stored when its value or flags are
    nonzero; every other entry reads as value 0 with flags 0, and none is
    held. Every table is as wide as ActionSpec's action set. A state index
    divides by N_TIP_STATES into its goal bin and the tip-error suffix within
    it, so each goal bin's entries are one contiguous run of keys. Training
    episodes only ever touch their own goal's bin, so a bin is also the unit
    the lockstep engine trains in, and tables trained on disjoint bins join
    by taking their entries in key order (concat, pretrain.merge). ``bins``
    is the goal bins holding an entry.

    A table is built in bulk, by load, from_records, augment, concat or
    copy, or handed over by train_lockstep (from_checked_arrays), and only
    update, the TD backup, writes an entry after that. An update of an
    entry not stored inserts it at its sorted place, replacing the three
    arrays. Read the entries only through the methods here: no code
    outside this module indexes the storage. Greedy evaluation reads whole
    goal bins at once, as dense value rows and row kinds (bin_rows).

    Flag words hold only the defined bits, FLAG_TRAINED and FLAG_AUGMENTED:
    from_records and load reject any other bit, and the other builders and
    update set no other.
    """

    def __init__(self):
        self._keys = np.empty(0, dtype=np.uint32)
        self._values = np.empty(0, dtype=np.float32)
        self._flags = np.empty(0, dtype=np.uint8)

    # -- read paths ---------------------------------------------------------

    @property
    def dense(self) -> bool:
        """Always False: the table has one storage layout."""
        return False

    @property
    def bins(self) -> np.ndarray:
        """The goal bins holding an entry, strictly increasing int64."""
        return np.unique(self._keys >> (_ACTION_BITS + _TIP_BITS)).astype(np.int64)

    @property
    def nbytes(self) -> int:
        """Bytes the table's three arrays take in memory: 9 a stored entry."""
        return self._keys.nbytes + self._values.nbytes + self._flags.nbytes

    def _span(self, state: int) -> tuple[int, int]:
        """The run lo:hi of the state's stored entries. ValueError unless the state is in the codec."""
        _check_state(state)
        lo, hi = self._keys.searchsorted(
            np.array([state, state + 1], np.uint32) << _ACTION_BITS).tolist()
        return lo, hi

    def _row(self, state: int, stored: np.ndarray) -> np.ndarray:
        """The state's N_ACTIONS words of ``stored`` (values or flags), 0 where no entry is.

        ValueError unless the state is in the codec.
        """
        lo, hi = self._span(state)
        row = np.zeros(N_ACTIONS, dtype=stored.dtype)
        row[self._keys[lo:hi] & (N_ACTIONS - 1)] = stored[lo:hi]
        return row

    def values(self, state: int) -> np.ndarray:
        """Row of action values, a new array: 0 for an action without an entry."""
        return self._row(state, self._values)

    def flags(self, state: int) -> np.ndarray:
        """Row of flag words, analogous to values()."""
        return self._row(state, self._flags)

    def get(self, state: int, action: int) -> float:
        """values(state)[action], read from the state's stored entries."""
        _check_action(action)
        lo, hi = self._span(state)
        key = np.uint32(int(state) * N_ACTIONS + int(action))
        i = lo + int(self._keys[lo:hi].searchsorted(key))
        return float(self._values[i]) if i < hi and self._keys[i] == key else 0.0

    def max_value(self, state: int) -> float:
        """values(state).max(), read from the state's stored entries.

        An action without an entry reads 0. Where the maximum is a zero, the
        row decides, as numpy's sign of a maximum of +0 and -0 depends on
        their order.
        """
        lo, hi = self._span(state)
        if lo == hi:
            return 0.0
        best = float(self._values[lo:hi].max())
        if best > 0.0 or (best < 0.0 and hi - lo == N_ACTIONS):
            return best
        if best < 0.0:  # every word of the row is a negative entry or an unheld +0
            return 0.0
        return float(self.values(state).max())

    def trained_count(self) -> int:
        return self._count_flag(FLAG_TRAINED)

    def augmented_count(self) -> int:
        return self._count_flag(FLAG_AUGMENTED)

    def _count_flag(self, bit: int) -> int:
        return int(np.count_nonzero(self._flags & bit))

    def entry_count(self) -> int:
        return len(self._keys)

    def state_count(self) -> int:
        """Number of states holding at least one stored entry."""
        return len(np.unique(self._keys >> _ACTION_BITS))

    def bin_rows(self, goal_bins) -> tuple[np.ndarray, np.ndarray]:
        """Dense value rows and row kinds of every tip state of each goal bin given.

        Returns (m, N_TIP_STATES, N_ACTIONS) float32 values, row [i, t] being
        values(goal_bins[i] * N_TIP_STATES + t), 0 where no entry is stored
        (the layout train_lockstep writes), and (m, N_TIP_STATES) int8 kinds
        from the stored flag words: 0 if the row holds a trained entry, 1 if
        only augmented ones, 2 if neither. ``goal_bins`` must be integers,
        strictly increasing and inside [0, N_GOAL_BINS), else ValueError.
        """
        goal_bins = _goal_bin_ids(goal_bins)
        span = N_TIP_STATES * N_ACTIONS
        values = np.zeros((len(goal_bins), span), dtype=np.float32)
        kind = np.full((len(goal_bins), N_TIP_STATES), 2, dtype=np.int8)
        for i, b in enumerate(goal_bins.tolist()):
            lo, hi = self._keys.searchsorted(np.array([b, b + 1], np.uint32) * span).tolist()
            cell = self._keys[lo:hi] & np.uint32(span - 1)  # tip state * N_ACTIONS + action
            values[i, cell] = self._values[lo:hi]
            flags, state = self._flags[lo:hi], cell >> _ACTION_BITS
            kind[i, state[flags != 0]] = 1
            kind[i, state[(flags & FLAG_TRAINED) != 0]] = 0
        return values.reshape(-1, N_TIP_STATES, N_ACTIONS), kind

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
        _check_action(action)
        _check_state(state)
        # A uint32 needle: searchsorted would cast every key to int64 to meet a Python int.
        key = np.uint32(int(state) * N_ACTIONS + int(action))
        i = int(self._keys.searchsorted(key))
        held = i < len(self._keys) and self._keys[i] == key
        old = float(self._values[i]) if held else 0.0
        target = reward + hp.gamma * self.max_value(next_state)
        new = old + hp.alpha * (target - old)
        with np.errstate(over="ignore"):
            stored = np.float32(new)
        if not np.isfinite(stored):
            raise ValueError(f"state {state} action {action}: {new} not finite in float32")
        if held:
            self._values[i] = stored
            self._flags[i] |= FLAG_TRAINED
        else:
            self._keys = np.insert(self._keys, i, key)
            self._values = np.insert(self._values, i, stored)
            self._flags = np.insert(self._flags, i, FLAG_TRAINED)
        return float(stored)

    # -- bulk views ---------------------------------------------------------

    def record_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All stored entries as (states, actions, flags, values), sorted.

        An entry is stored when its flags or value are nonzero. Sorting is
        by (state, action), the canonical on-disk order. The arrays are
        uint32, uint16, uint16 and float32.
        """
        out = tuple(np.empty(len(self._keys), t)
                    for t in (np.uint32, np.uint16, np.uint16, np.float32))
        self._split(out)
        return out

    def _split(self, out) -> None:
        """Write the entries into the (states, actions, flags, values) arrays ``out``.

        The outputs may be strided, as a record array's fields are; nothing
        else is allocated.
        """
        states, actions, flags, values = out
        np.right_shift(self._keys, _ACTION_BITS, out=states, casting="unsafe")
        np.bitwise_and(self._keys, N_ACTIONS - 1, out=actions, casting="unsafe")
        flags[...] = self._flags
        values[...] = self._values

    def copy(self) -> "QTable":
        return _table(self._keys.copy(), self._values.copy(), self._flags.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return (np.array_equal(self._keys, other._keys)
                and np.array_equal(self._flags, other._flags)
                and np.array_equal(self._values.view(np.uint32), other._values.view(np.uint32)))

    __hash__ = None

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_checked_arrays(cls, bins, values, flags) -> "QTable":
        """The table of stacked per-bin arrays that their maker checked as it wrote them.

        train_lockstep hands over its lane arrays this way: ``bins`` (m,)
        int64 strictly increasing in [0, N_GOAL_BINS), ``values`` float32
        and finite, ``flags`` uint8 of defined bits, both (m, N_TIP_STATES,
        N_ACTIONS), row i belonging to bins[i]. Nothing is checked again.
        The table keeps copies of the stored entries, in key order, so later
        writes to the arrays do not reach it. A bin without a stored entry
        holds none.
        """
        stored = values != 0
        idx = np.flatnonzero(np.logical_or(stored, flags, out=stored))
        del stored
        cell_bits = _TIP_BITS + _ACTION_BITS
        keys = np.asarray(bins, dtype=np.int64)[idx >> cell_bits] << cell_bits
        keys |= idx & ((1 << cell_bits) - 1)
        return _table(keys.astype(np.uint32), values.reshape(-1)[idx], flags.reshape(-1)[idx])

    @classmethod
    def concat(cls, tables: Sequence["QTable"]) -> "QTable":
        """One table of the goal bins of tables that share none, their entries in key order.

        ValueError if two tables hold one goal bin. No tables give an empty
        table.
        """
        if not tables:
            return cls()
        bins = np.sort(np.concatenate([t.bins for t in tables]))
        repeated = bins[1:][bins[1:] == bins[:-1]]
        if len(repeated):
            raise ValueError(f"goal bin {repeated[0]} is held by more than one table")
        keys = np.concatenate([t._keys for t in tables])
        order = np.argsort(keys, kind="stable")
        return _table(keys[order],
                      np.concatenate([t._values for t in tables])[order],
                      np.concatenate([t._flags for t in tables])[order])

    @classmethod
    def from_records(cls, states, actions, flags, values) -> "QTable":
        """Bulk-build a table from parallel entry arrays in any order.

        The four arrays must be 1-D and of one length, with integer states,
        actions in [0, N_ACTIONS) and flag words, values float32 holds
        finitely and no (state, action) pair twice, else ValueError. An
        entry of value 0 and flags 0 is left out, as every table leaves it.
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
        return _stored_entries(keys.astype(np.uint32), values_arr[order], flags_arr[order])


def _table(keys, values, flags) -> QTable:
    """A table taking the three storage arrays as they are: keys increasing, all entries stored."""
    out = QTable()
    out._keys, out._values, out._flags = keys, values, flags
    return out


def _stored_entries(keys, values, flags) -> QTable:
    """The table of checked entries in key order, none twice, less those of value 0 and flags 0.

    from_records and load each check their input once, then build here.
    """
    stored = values != 0
    if not np.logical_or(stored, flags, out=stored).all():
        keys, values, flags = keys[stored], values[stored], flags[stored]
    return _table(keys, values, flags)


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
    the uint8 cast to the stored flag words could wrap them.
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
    trained = (q._flags & FLAG_TRAINED) != 0
    pieces = []  # (keys, values, flags) of the output, in key order
    done = 0  # input entries placed so far
    for lo, hi, mean_keys, means in _neighbor_means(q._keys[trained].astype(np.int64),
                                                    q._values[trained], radius):
        a, b = q._keys.searchsorted(np.array([lo, hi], np.uint32)).tolist()
        # Input entries between windows have no trained neighbor: they stay as they are.
        pieces.append((q._keys[done:a], q._values[done:a], q._flags[done:a]))
        pieces.append(_merge(q._keys[a:b], q._values[a:b], q._flags[a:b], trained[a:b],
                             mean_keys, means))
        done = b
    pieces.append((q._keys[done:], q._values[done:], q._flags[done:]))
    # Means of finite float32 values, flags input | FLAG_AUGMENTED: nothing to rescan.
    return _table(*(np.concatenate(column) for column in zip(*pieces)))


def _merge(keys, values, flags, trained, mean_keys, means) -> tuple:
    """Input entries, trained where ``trained``, merged with one window's means, in key order.

    Sort words key << 1 | trained (keys take 25 bits): a stable sort of the
    two sorted runs merges them, and a key's last word wins, a trained input
    entry over the mean of its key and the mean over an untrained one.
    Returns the merged keys, values and flags.
    """
    held = len(keys)
    keys = np.concatenate([keys, mean_keys])
    keys <<= 1
    keys[:held] |= trained
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    keys >>= 1
    last = np.empty(len(keys), dtype=bool)
    last[-1:] = True
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    # compress, not a boolean index: 3-4x faster on this mask's alternating runs.
    keys = keys.compress(last)
    order = order.compress(last)
    # An untrained entry's flags are 0 or FLAG_AUGMENTED, so OR-ing it in is setting it.
    flags = np.concatenate([flags, np.full(len(means), FLAG_AUGMENTED, np.uint8)])[order]
    return keys, np.concatenate([values, means])[order], flags


# The contributions _neighbor_means aims to sort at a time.
_WINDOW = 1 << 17
# A sort word's key field (a key less its window's start), part field (10 dims
# by 6 moves at most) and value field (a trained value's float32 bits) fit in
# 64 bits for any window: 25 + 6 + 32 bits.
assert ((N_STATES * N_ACTIONS - 1).bit_length()
        + (10 * 2 * (N_BINS_PER_DIM - 1) - 1).bit_length() + 32) <= 64


def _neighbor_means(src_k, values, radius: int):
    """Entries with a trained neighbor (augment's), and their neighbors' mean values.

    Takes a table's trained entries: their keys state * N_ACTIONS + action,
    int64 increasing, and their float32 values. Yields, window by window in
    key order, (lo, hi, keys, means): the window's key range [lo, hi), and
    the sorted uint32 keys in it and their float32 means. A trained entry
    adds its value to each neighbor's key, part by part: a part is one
    (digit, step, up or down), numbered in that loop order. Each
    contribution is one uint64 word: the key, less the start of its key
    range, in the high bits, the part in the middle, and the trained value's
    float32 bits in the low 32 bits, so the sorted words carry their values
    and nothing is gathered. A key and a part name one trained entry, so the
    words are distinct and a plain in-place sort orders them by key, then by
    part. np.add.reduceat sums each key's values, as float64, in that order,
    which fixes every mean's bits. The part field's width follows the
    radius. The keys are taken in windows, one at a time: runs of whole goal
    bins whose contributions number at most _WINDOW, or one bin that holds
    more. A key's contributions all fall in one window, so the windows do
    not change the means' bits; they bound the sort words and values held at
    once.
    """
    ac = N_ACTIONS
    if not len(src_k):
        return
    # A move takes a digit up or down by a step; parts are (dim, move) in sum order.
    moves = [m for step in range(1, min(radius, N_BINS_PER_DIM - 1) + 1) for m in (step, -step)]
    low = (10 * len(moves) - 1).bit_length() + 32
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
    # << low | part << 32 | value bits, and at[i] of them have a neighbor key below
    # grid[i], the first key of goal bin i.
    grid = np.arange(N_GOAL_BINS + 1) * (N_TIP_STATES * ac)
    blocks = []
    for dim, (order, edge) in enumerate(zip(orders, edges)):
        keys_in_order = src_k[order]
        for j, move in enumerate(moves):
            offset = move * 4 ** (9 - dim) * ac
            add = ((offset << low) + ((dim * len(moves) + j) << 32)) % 2**64
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
    value_bits = values.view(np.uint32)
    base = np.empty(len(src_k), dtype=np.uint64)
    for start, stop in zip(cuts[:-1], cuts[1:]):
        moved = [(order[a + at[start]:a + at[stop]], add)
                 for order, a, add, at in blocks if at[stop] > at[start]]
        n = sum(len(rows) for rows, _ in moved)
        if not n:
            continue
        lo = int(grid[start])
        np.subtract(src_k, lo, out=base, casting="unsafe")  # modulo 2**64, as is all below
        base <<= low
        base |= value_bits
        words = np.empty(n, dtype=np.uint64)
        n = 0
        for rows, add in moved:
            np.add(base[rows], add, out=words[n:n + len(rows)])
            n += len(rows)
        del moved
        words.sort()
        vals = words.astype(np.uint32).view(np.float32).astype(np.float64)
        words >>= low
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(words[1:], words[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        keys = words[starts].astype(np.uint32)
        del words
        keys += lo
        sums = np.add.reduceat(vals, starts)
        del vals
        sums /= np.diff(starts, append=n)
        del starts
        yield lo, int(grid[stop]), keys, sums.astype(np.float32)


def save(q: QTable, path) -> None:
    """Write a table; the format round-trips bit-exactly through load()."""
    records = np.empty(q.entry_count(), dtype=_RECORD_DTYPE)
    q._split([records[name] for name in _RECORD_DTYPE.names])
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
        if int(states.max()) >= N_STATES:
            raise QTableIOError(f"{path}: state {int(states.max())} outside [0, {N_STATES})")
    # With states in the codec and actions below N_ACTIONS, the keys fit uint32.
    keys = np.left_shift(states, _ACTION_BITS, dtype=np.uint32)
    keys |= actions
    if (keys[1:] <= keys[:-1]).any():
        raise QTableIOError(f"{path}: records not strictly sorted by (state, action)")
    if not np.isfinite(records["value"]).all():
        raise QTableIOError(f"{path}: non-finite value")
    if _undefined_flags(records["flags"]):
        raise QTableIOError(f"{path}: flag bits outside the defined {_FLAGS_DEFINED:#x}")
    return _stored_entries(keys, records["value"].astype(np.float32),
                           records["flags"].astype(np.uint8))
