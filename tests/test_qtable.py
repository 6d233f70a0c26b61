import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpnarm import qtable
from hpnarm.qtable import (
    FLAG_AUGMENTED,
    FLAG_TRAINED,
    MAGIC,
    N_ACTIONS,
    ActionSpec,
    BadMagicError,
    ChecksumError,
    HyperParams,
    QTable,
    QTableIOError,
    TruncatedTableError,
    UnsupportedVersionError,
    augment,
    load,
    save,
    select_action,
)
from hpnarm.state import N_STATES, N_TIP_STATES
from oracles import (
    compose_action,
    oracle_augment,
    oracle_neighbour_lists,
    pack_bins,
    unpack_index,
)

HP = HyperParams(alpha=0.1, gamma=0.9, epsilon=0.0)


def table_of(entries):
    """The table from_records builds of {(state, action): (value, flags)}."""
    keys = list(entries)
    return QTable.from_records([s for s, _ in keys], [a for _, a in keys],
                               [entries[k][1] for k in keys], [entries[k][0] for k in keys])


def assert_entries_in_key_order(q):
    """uint32 keys increase strictly, one per float32 value and uint8 flag word, none spare.

    Flag words hold only defined bits, and no entry holds both value 0 and flags 0.
    """
    keys, values, flags = q._keys, q._values, q._flags
    assert keys.dtype == np.uint32 and (keys[1:] > keys[:-1]).all()
    assert values.dtype == np.float32 and flags.dtype == np.uint8
    assert keys.shape == values.shape == flags.shape == (q.entry_count(),)
    assert not (flags & ~np.uint8(FLAG_TRAINED | FLAG_AUGMENTED)).any()
    assert ((values != 0) | (flags != 0)).all()
    assert q.nbytes == 9 * q.entry_count()


def scratch_neighbors(state, radius=1):
    """All states one digit away by up to `radius` steps, via unpack/pack."""
    bins = list(unpack_index(state))
    out = []
    for d in range(10):
        for step in range(1, radius + 1):
            for sign in (1, -1):
                nb = bins[d] + sign * step
                if 0 <= nb <= 3:
                    b2 = bins.copy()
                    b2[d] = nb
                    out.append(pack_bins(b2))
    return out


class TestHyperParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"gamma": 1.0},
            {"gamma": -0.1},
            {"epsilon": -0.01},
            {"epsilon": 1.01},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)

    def test_boundary_values_allowed(self):
        HyperParams(alpha=1.0, gamma=0.0, epsilon=0.0)
        HyperParams(alpha=0.01, gamma=0.99, epsilon=1.0)


class TestActionSpec:
    def test_ids_bijective_with_triples(self):
        spec = ActionSpec()
        seen = set()
        for aid in range(32):
            triple = spec.decompose(aid)
            seen.add(triple)
            assert compose_action(*triple) == aid
        assert len(seen) == 32

    def test_structure_of_packing(self):
        spec = ActionSpec()
        assert spec.decompose(0) == (0, 0, 1)
        assert spec.decompose(1) == (0, 0, -1)
        assert spec.decompose(8) == (1, 0, 1)
        assert spec.decompose(31) == (3, 3, -1)

    def test_apply_moves_one_chamber(self):
        spec = ActionSpec(delta_p_kpa=5.0)
        p = np.full((4, 4), 30.0)
        out = spec.apply(p, compose_action(2, 1, 1), p_max_kpa=60.0)
        assert out[2, 1] == 35.0
        assert np.count_nonzero(out != 30.0) == 1
        assert p[2, 1] == 30.0  # input untouched

    def test_apply_saturates_at_bounds(self):
        spec = ActionSpec(delta_p_kpa=5.0)
        p = np.zeros((4, 4))
        p[1, 3] = 58.0
        up = spec.apply(p, compose_action(1, 3, 1), p_max_kpa=60.0)
        assert up[1, 3] == 60.0
        down = spec.apply(p, compose_action(0, 0, -1), p_max_kpa=60.0)
        assert down[0, 0] == 0.0

    @pytest.mark.parametrize("pressures", [
        np.full((4, 4), 30, dtype=np.int64),
        np.full((4, 4), 30, dtype=np.float32),
        [[30] * 4] * 4,
    ], ids=["int64", "float32", "list"])
    def test_apply_returns_float64_whatever_the_input(self, pressures):
        # An int64 array once came back int64, its 32.5 kPa truncated to 32.
        spec = ActionSpec(delta_p_kpa=2.5)
        want = spec.apply(np.full((4, 4), 30.0), 0, p_max_kpa=60.0)
        assert want[0, 0] == 32.5
        out = spec.apply(pressures, 0, p_max_kpa=60.0)
        assert out.dtype == np.float64 and out.tobytes() == want.tobytes()

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            ActionSpec(delta_p_kpa=0.0)
        with pytest.raises(ValueError):
            ActionSpec().decompose(32)

    @pytest.mark.parametrize("method", ["decompose", "apply"])
    @pytest.mark.parametrize("action_id", [True, False, 2.5, np.float64(1.0)],
                             ids=["True", "False", "2.5", "float64"])
    def test_non_integer_action_ids_rejected(self, method, action_id):
        # True once decomposed as action 1 and moved chamber (0, 0) down;
        # 2.5 decomposed to (0.0, 1.0, -1) and apply died in numpy indexing.
        spec = ActionSpec()
        call = (spec.decompose if method == "decompose"
                else lambda a: spec.apply(np.full((4, 4), 30.0), a, p_max_kpa=60.0))
        with pytest.raises(ValueError, match="action_id must be an integer"):
            call(action_id)

    @pytest.mark.parametrize("action_id", [np.int64(31), np.uint8(8)],
                             ids=["int64", "uint8"])
    def test_numpy_integer_action_ids_accepted(self, action_id):
        assert ActionSpec().decompose(action_id) == ActionSpec().decompose(int(action_id))


class TestQUpdate:
    def test_first_update_from_zero(self):
        q = QTable()
        assert q.update(5, 3, 1.0, 6, HP) == pytest.approx(0.1)
        assert q.flags(5)[3] == FLAG_TRAINED

    def test_update_with_bootstrap_target(self):
        q = table_of({(5, 3): (0.5, FLAG_TRAINED), (6, 0): (2.0, FLAG_TRAINED)})
        assert q.update(5, 3, 1.0, 6, HP) == pytest.approx(0.73, rel=1e-6)

    def test_zero_reward_shrinks_toward_zero(self):
        q = table_of({(9, 1): (0.8, FLAG_TRAINED)})
        new = q.update(9, 1, 0.0, 777, HyperParams(alpha=0.25, gamma=0.9, epsilon=0.0))
        assert new == pytest.approx(0.75 * 0.8, rel=1e-6)

    def test_nonfinite_reward_rejected(self):
        q = QTable()
        with pytest.raises(ValueError):
            q.update(0, 0, float("nan"), 1, HP)
        with pytest.raises(ValueError):
            q.update(0, 0, float("inf"), 1, HP)

    def test_touches_exactly_one_entry(self):
        q = table_of({(4, 7): (1.25, FLAG_TRAINED), (200, 2): (-0.5, FLAG_TRAINED)})
        before = q.copy()
        q.update(4, 9, 2.0, 200, HP)
        bs, ba, bf, bv = before.record_arrays()
        as_, aa, af, av = q.record_arrays()
        assert as_.size == bs.size + 1
        changed = {(int(s), int(a)) for s, a in zip(as_, aa)} - {
            (int(s), int(a)) for s, a in zip(bs, ba)
        }
        assert changed == {(4, 9)}
        assert q.get(4, 7) == before.get(4, 7)
        assert q.get(200, 2) == before.get(200, 2)

    def test_untouched_states_read_as_zero(self):
        q = QTable()
        assert q.get(123456, 31) == 0.0
        assert q.max_value(999) == 0.0
        assert not q.flags(42).any()
        assert q.entry_count() == 0

    def test_a_state_without_a_row_reads_uint8_zero_flags(self):
        q = table_of({(5, 3): (1.0, FLAG_TRAINED)})
        for table in (QTable(), q):
            flags = table.flags(6)
            assert flags.dtype == np.uint8 and flags.tolist() == [0] * 32
        assert q.flags(5).dtype == np.uint8


LINE_UP = "1-D and of one length"


class TestBadReads:
    """The read paths refuse the indices the write paths refuse."""

    @pytest.fixture
    def q(self):
        return table_of({(5, 31): (2.5, FLAG_TRAINED), (N_STATES - 1, 31): (2.5, FLAG_TRAINED)})

    @pytest.mark.parametrize("state", [-5, -1, N_STATES, N_STATES + 5, 2**40])
    def test_state_outside_codec_rejected(self, q, state):
        # get(-5, 0) and get(4**10 + 5, 31) read 0.0 before.
        for read in (q.values, q.flags, q.max_value, lambda s: q.get(s, 0)):
            with pytest.raises(ValueError, match=f"state {state} outside"):
                read(state)

    @pytest.mark.parametrize("action", [-1, -32, 32, 10**6])
    def test_action_outside_range_rejected(self, q, action):
        # get(5, -1) read action 31's value before.
        for state in (5, 6):
            with pytest.raises(ValueError, match=f"action {action} outside"):
                q.get(state, action)

    @pytest.mark.parametrize("state", [True, False, 5.0, 2.5, np.float64(5.0)])
    def test_state_that_is_not_an_integer_rejected(self, q, state):
        # get(True, 0) read state 1; get(5.0, 1) and values(5.0) raised IndexError.
        for read in (q.values, q.flags, q.max_value, lambda s: q.get(s, 31)):
            with pytest.raises(ValueError, match="state must be an integer"):
                read(state)

    @pytest.mark.parametrize("action", [True, False, 31.0, 2.5, np.float32(1.0)])
    def test_action_that_is_not_an_integer_rejected(self, q, action):
        # get(5, True) raised TypeError.
        for state in (5, 6):
            with pytest.raises(ValueError, match="action must be an integer"):
                q.get(state, action)

    def test_numpy_integer_indices_read(self, q):
        assert q.get(np.int64(5), np.uint16(31)) == 2.5
        assert q.values(np.int32(5))[31] == 2.5 and q.flags(np.uint32(5))[31] == FLAG_TRAINED
        assert q.max_value(np.int64(N_STATES - 1)) == 2.5

    def test_edges_of_the_codec_read(self, q):
        assert q.get(N_STATES - 1, 31) == 2.5 and q.max_value(0) == 0.0
        assert q.values(N_STATES - 1)[31] == 2.5 and q.flags(0).tolist() == [0] * 32


class TestBadWrites:
    """update and from_records refuse an entry that save() could not round-trip."""

    def test_action_outside_range_rejected(self):
        q = QTable()
        for action in (-1, N_ACTIONS):
            with pytest.raises(ValueError, match=r"action -?\d+ outside \[0, 32\)"):
                q.update(5, action, 1.0, 6, HP)
            with pytest.raises(ValueError, match=r"action id outside \[0, 32\)"):
                QTable.from_records([5], [action], [FLAG_TRAINED], [1.0])
        assert q.entry_count() == 0

    def test_state_outside_codec_rejected(self):
        q = QTable()
        for state in (-5, N_STATES, 2**22):
            with pytest.raises(ValueError, match="outside"):
                q.update(state, 0, 1.0, 6, HP)
            with pytest.raises(ValueError, match="outside"):
                q.update(6, 0, 1.0, state, HP)
            with pytest.raises(ValueError, match="outside"):
                QTable.from_records([5, state], [0, 1], [1, 1], [1.0, 2.0])
        assert q.entry_count() == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, bad):
        q = QTable()
        with pytest.raises(ValueError, match="finite"):
            q.update(5, 1, bad, 6, HP)
        with pytest.raises(ValueError, match="finite"):
            QTable.from_records([5, 6], [1, 2], [1, 1], [bad, 2.0])
        assert q.entry_count() == 0

    def test_update_past_float32_range_rejected(self, tmp_path):
        # A finite reward whose backup overflows float32 is refused, and the
        # table, bins included, stays as augment and save need it.
        q = QTable()
        with pytest.raises(ValueError, match="not finite in float32"):
            q.update(5, 1, 1e300, 6, HyperParams())
        assert len(q.bins) == 0 and q.entry_count() == 0
        q = QTable.from_records([7], [2], [FLAG_TRAINED], [1.5])
        before = q.copy()
        with pytest.raises(ValueError, match="not finite in float32"):
            q.update(7, 2, 1e300, 6, HyperParams())
        with pytest.raises(ValueError, match="not finite in float32"):
            q.update(N_TIP_STATES + 5, 1, -1e300, 6, HyperParams())
        assert q == before and q.bins.tolist() == [0]
        augment(q)
        save(q, tmp_path / "q.hpnq")
        assert load(tmp_path / "q.hpnq") == q

    @pytest.mark.parametrize("big", [1e300, -1e300, 3.5e38])
    def test_from_records_past_float32_range_rejected(self, big):
        # A finite value float32 cannot hold is refused with a ValueError, not
        # with numpy's overflow warning from the cast.
        with pytest.raises(ValueError, match="not finite in float32"):
            QTable.from_records([5, N_TIP_STATES + 5], [1, 1], [FLAG_TRAINED, FLAG_AUGMENTED],
                                [1.5, big])

    @pytest.mark.parametrize("state, action, next_state", [
        (2.5, 1, 6), (5.0, 1, 6), (True, 1, 6), (5, True, 6), (5, 1.0, 6), (5, 1, 6.0),
        (5, 1, True),
    ])
    def test_index_that_is_not_an_integer_rejected(self, state, action, next_state):
        # update(2.5, 1, ...) raised IndexError, update(True, 1, ...) wrote
        # state 1 and update(5, 1, r, 6.0) read state 6.
        q = QTable()
        with pytest.raises(ValueError, match="must be an integer"):
            q.update(state, action, 1.0, next_state, HP)
        assert len(q.bins) == 0 and q.entry_count() == 0
        assert q.update(np.int64(5), np.int32(1), 1.0, np.uint32(6), HP) == pytest.approx(0.1)

    # 256 and 257 would wrap to 0 and 1 in the uint8 rows: refused before the cast.
    @pytest.mark.parametrize("bad", [4, FLAG_TRAINED | 4, 0x8000, 0x10001, -1, 256, 257])
    def test_undefined_flag_bits_rejected(self, bad):
        with pytest.raises(ValueError, match="flag bits"):
            QTable.from_records([5, 6], [1, 2], np.array([1, bad], dtype=np.int64), [1.0, 2.0])

    @pytest.mark.parametrize("arrays, match", [
        pytest.param(([5, 6], [1, 2], [1], [3.0]), LINE_UP, id="length-1-flags-and-values"),
        pytest.param(([5, 6], [1, 2], [1, 1], [3.0]), LINE_UP, id="length-1-values"),
        pytest.param(([5, 6], [1], [1, 1], [1.0, 2.0]), LINE_UP, id="length-1-actions"),
        pytest.param(([5], [1, 2], [1, 1], [1.0, 2.0]), LINE_UP, id="length-1-states"),
        pytest.param(([5, 6, 7], [1, 2, 3], [1, 1, 1], [1.0, 2.0]), LINE_UP, id="short-values"),
        pytest.param((5, 1, 1, 1.0), LINE_UP, id="scalars"),
        pytest.param(([[5, 6]], [[1, 2]], [[1, 1]], [[1.0, 2.0]]), LINE_UP, id="2-d"),
        # A cast to the storage dtypes would truncate these to state 5, action 1, flags 1.
        pytest.param(([5.9], [1], [1], [2.0]), "states must be integers", id="float-state"),
        pytest.param(([5], [1.7], [1], [2.0]), "actions must be integers", id="float-action"),
        pytest.param(([5], [1], [1.5], [2.0]), "flag words must be integers", id="float-flags"),
        pytest.param(([5.0], [1], [1], [2.0]), "states must be integers", id="integral-float"),
        pytest.param(([True], [1], [1], [2.0]), "states must be integers", id="bool-state"),
    ])
    def test_from_records_refuses_arrays_that_do_not_line_up(self, arrays, match):
        with pytest.raises(ValueError, match=match):
            QTable.from_records(*arrays)

    @pytest.mark.parametrize("states, actions", [
        pytest.param([5, 5], [1, 1], id="adjacent"),
        pytest.param([7 * N_TIP_STATES, 5, 6, 5], [0, 1, 1, 1], id="apart"),
    ])
    def test_from_records_refuses_a_repeated_entry(self, states, actions):
        n = len(states)
        with pytest.raises(ValueError, match="repeated"):
            QTable.from_records(states, actions, [FLAG_TRAINED] * n, np.arange(1.0, n + 1))


def stacked(bins, fill=1.0):
    """(bins, values, flags) holding one trained entry per bin, valued fill + bin."""
    values = np.zeros((len(bins), N_TIP_STATES, 32), dtype=np.float32)
    flags = np.zeros(values.shape, dtype=np.uint8)
    values[:, 7, 3] = fill + np.asarray(bins, dtype=np.float32)
    flags[:, 7, 3] = FLAG_TRAINED
    return bins, values, flags


class TestStackedLayout:
    def test_from_checked_arrays_copies_the_arrays_given(self):
        bins, values, flags = stacked([2, 5, 1023])
        bins = np.array(bins)
        q = QTable.from_checked_arrays(bins, values, flags)
        before = q.copy()
        bins[:] = [0, 1, 2]
        values[:] = 9.0
        flags[:] = FLAG_AUGMENTED
        assert q == before
        assert q.bins.tolist() == [2, 5, 1023]
        assert q.get(5 * N_TIP_STATES + 7, 3) == 6.0
        assert q.get(4 * N_TIP_STATES + 7, 3) == 0.0
        assert q.trained_count() == q.entry_count() == q.state_count() == 3

    def test_a_lane_without_a_stored_entry_holds_no_bin(self):
        bins, values, flags = stacked([2, 5, 1023])
        values[1], flags[1] = 0.0, 0
        q = QTable.from_checked_arrays(np.array(bins), values, flags)
        assert q.bins.tolist() == [2, 1023] and q.entry_count() == 2

    def test_bulk_builds_hold_only_the_bins_they_write(self, tmp_path):
        q = QTable.from_records([3 * N_TIP_STATES + 1, 700 * N_TIP_STATES], [0, 5], [1, 2],
                                [1.0, 2.0])
        assert q.bins.tolist() == [3, 700]
        save(q, tmp_path / "t.hpnq")
        assert load(tmp_path / "t.hpnq").bins.tolist() == [3, 700]
        near = {n // N_TIP_STATES for n in scratch_neighbors(3 * N_TIP_STATES + 1)}
        assert augment(q).bins.tolist() == sorted(near | {3, 700})

    def test_update_between_held_bins_inserts_a_sorted_zeroed_row(self):
        q = QTable.from_records([2 * N_TIP_STATES + 7, 9 * N_TIP_STATES + 7], [3, 3],
                                [FLAG_TRAINED] * 2, [3.0, 10.0])
        before = q.copy()
        state = 5 * N_TIP_STATES + 11
        q.update(state, 4, 1.0, 2 * N_TIP_STATES + 7, HP)
        assert q.bins.tolist() == [2, 5, 9]
        for goal_bin in (2, 9):
            for suffix in range(N_TIP_STATES):
                s = goal_bin * N_TIP_STATES + suffix
                assert q.values(s).tobytes() == before.values(s).tobytes()
                assert q.flags(s).tobytes() == before.flags(s).tobytes()
        states, actions, _, _ = q.record_arrays()
        new = states // N_TIP_STATES == 5
        assert states[new].tolist() == [state] and actions[new].tolist() == [4]
        assert q.flags(state)[4] == FLAG_TRAINED


class TestRowStore:
    """Only the stored entries are held, found by a search of their keys."""

    def test_one_entry_holds_one_row(self, tmp_path):
        q = QTable.from_records([700 * N_TIP_STATES + 9], [3], [FLAG_TRAINED], [1.5])
        assert q.entry_count() == q.state_count() == 1
        save(q, tmp_path / "t.hpnq")
        updated = QTable()
        updated.update(5, 1, 2.0, 6, HP)
        for built in (q.copy(), load(tmp_path / "t.hpnq"), updated):
            assert built.entry_count() == built.state_count() == 1 and built.nbytes == 9
        assert QTable().entry_count() == augment(QTable()).entry_count() == 0

    @pytest.mark.parametrize("held", range(N_ACTIONS + 1))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_scalar_reads_equal_the_row_bit_for_bit(self, held, data):
        # Signed zeros among the entries: numpy's sign of a zero maximum depends
        # on where the +0 and -0 words sit in the row, and the reads must agree.
        values = data.draw(st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 1.5]),
                                    min_size=held, max_size=held))
        actions = data.draw(st.permutations(range(N_ACTIONS)))[:held]
        state = 5 * N_TIP_STATES + 77
        # Neighbouring states hold entries too, so each read must keep to its state's run.
        states = [state - 1] * 2 + [state] * held + [state + 1] * 2
        q = QTable.from_records(states, [0, 31, *actions, 0, 31], [FLAG_TRAINED] * len(states),
                                [9.0, -9.0, *values, 9.0, -9.0])
        bits = struct.Struct("<d").pack
        row = q.values(state)
        assert bits(q.max_value(state)) == bits(float(row.max()))
        for a in range(N_ACTIONS):
            assert bits(q.get(state, a)) == bits(float(row[a]))

    def test_bytes_are_the_states_and_the_rows(self):
        q = QTable.from_records([3 * N_TIP_STATES + 1, 3 * N_TIP_STATES + 1, 700 * N_TIP_STATES],
                                [0, 5, 1], [1, 2, 1], [1.0, 2.0, 3.0])
        assert q.entry_count() == 3 and q.state_count() == 2
        assert q.nbytes == 3 * (4 + 4 + 1)  # a uint32 key, a float32 value, a uint8 flag word
        assert QTable().nbytes == 0

    def test_updates_in_falling_order_insert_rows_in_state_order(self):
        # States updated in falling order, across bins: every new row goes in
        # before all the rows held, and a new bin before all the bins held.
        # Every backup bootstraps from a state never written, so its value is
        # alpha * reward.
        states = [b * N_TIP_STATES + t for b in (900, 40, 3) for t in (1000, 600, 17, 0)] * 9
        states = sorted({s - 3 * i for i, s in enumerate(states)}, reverse=True)
        assert len(states) > 64
        q = QTable()
        for i, s in enumerate(states):
            q.update(s, i % 32, i + 0.5, N_STATES - 1, HP)
            assert_entries_in_key_order(q)
        assert q.entry_count() == q.state_count() == len(states)
        built = QTable.from_records(states, [i % 32 for i in range(len(states))],
                                    [FLAG_TRAINED] * len(states),
                                    [HP.alpha * (i + 0.5) for i in range(len(states))])
        assert q == built and q.bins.tolist() == built.bins.tolist()
        assert q.copy() == built and augment(q) == augment(built)

    def test_every_builder_leaves_rows_in_state_order(self, tmp_path):
        entries = clustered_entries(seed=6)
        q = table_of(entries)
        save(q, tmp_path / "t.hpnq")
        other = QTable.from_records([5 * N_TIP_STATES + 3], [1], [FLAG_TRAINED], [2.0])
        built = [q, load(tmp_path / "t.hpnq"), q.copy(), augment(q), augment(q, radius=3),
                 QTable.concat([q, other]), QTable.concat([other, q]),
                 QTable.from_checked_arrays(*stacked([2, 5, 1023])), QTable(), augment(QTable())]
        updated = q.copy()
        new_bin = next(b for b in range(1024) if b not in set(q.bins.tolist()))
        updated.update(new_bin * N_TIP_STATES + 9, 4, 1.0, 0, HP)
        for table in built + [updated]:
            assert_entries_in_key_order(table)
            held = table.record_arrays()[0]
            assert table.bins.tolist() == sorted({int(s) // N_TIP_STATES for s in held})
        assert built[0].entry_count() == len(entries)
        assert built[0].state_count() == len({s for s, _ in entries})
        assert updated.bins.tolist() == sorted(q.bins.tolist() + [new_bin])

    def test_bin_rows_read_each_state_row(self):
        entries = clustered_entries(seed=4)
        empty = min(entries)[0] // N_TIP_STATES * N_TIP_STATES + 5
        assert all(s != empty for s, _ in entries)
        entries[(empty, 2)] = (0.0, 0)  # an entry that is not stored
        q = table_of(entries)
        assert q.entry_count() == len(entries) - 1 and not q.flags(empty).any()
        assert q.state_count() == len({s for s, _ in entries}) - 1
        held = q.bins.tolist()
        missing = [b for b in range(1024) if b not in set(held)]
        goal_bins = sorted(held + [missing[0], missing[-1]])
        rows, kind = q.bin_rows(goal_bins)
        assert rows.shape == (len(goal_bins), N_TIP_STATES, N_ACTIONS)
        assert rows.dtype == np.float32
        assert kind.shape == (len(goal_bins), N_TIP_STATES)
        for i, goal_bin in enumerate(goal_bins):
            for suffix in range(N_TIP_STATES):
                state = goal_bin * N_TIP_STATES + suffix
                flags = q.flags(state)
                want = 0 if (flags & FLAG_TRAINED).any() else 1 if flags.any() else 2
                assert rows[i, suffix].tobytes() == q.values(state).tobytes()
                assert kind[i, suffix] == want
        assert set(np.unique(kind).tolist()) == {0, 1, 2}
        # A bin the table does not hold reads all zeros, every row empty.
        for goal_bin in (missing[0], missing[-1]):
            i = goal_bins.index(goal_bin)
            assert not rows[i].view(np.uint32).any() and (kind[i] == 2).all()
        rows, kind = QTable().bin_rows([0, 1023])
        assert not rows.view(np.uint32).any() and (kind == 2).all()

    @pytest.mark.parametrize("goal_bins", [[3, 2], [4, 4], [-1], [1024], [2.0], [True]])
    def test_bin_rows_refuse_bins_out_of_order_or_range(self, goal_bins):
        with pytest.raises(ValueError, match="goal bin"):
            table_of({(5, 1): (1.0, FLAG_TRAINED)}).bin_rows(goal_bins)

    def test_bin_rows_argmax_takes_an_unstored_action_over_negative_values(self):
        # The state's stored values are all below the 0 every other action reads.
        state = 7 * N_TIP_STATES + 300
        q = table_of({(state, 0): (-1.0, FLAG_TRAINED), (state, 1): (-0.5, FLAG_AUGMENTED),
                      (state, 2): (-2.0, FLAG_TRAINED), (state, 4): (-0.25, 0)})
        rows, kind = q.bin_rows([7])
        assert rows[0].argmax(axis=1)[300] == q.values(state).argmax() == 3
        assert kind[0, 300] == 0
        assert (np.delete(rows[0].argmax(axis=1), 300) == 0).all()
        assert (np.delete(kind[0], 300) == 2).all()
        # A stored -0.0 ties the 0 an unstored action reads, and comes first.
        q = table_of({(state, 0): (np.float32(-0.0), FLAG_TRAINED), (state, 1): (-1.0, 1)})
        rows, _ = q.bin_rows([7])
        assert rows[0, 300, :1].view(np.uint32).tolist() == [0x80000000]
        assert rows[0, 300].argmax() == q.values(state).argmax() == 0

    def test_bin_rows_read_a_state_holding_all_its_entries(self):
        state = 1023 * N_TIP_STATES + 1023
        values = np.linspace(-3.0, 2.0, N_ACTIONS, dtype=np.float32)
        values[[9, 20]] = 5.0  # a tie: the lower id wins
        q = table_of({(state, a): (values[a], FLAG_AUGMENTED) for a in range(N_ACTIONS)})
        assert q.entry_count() == N_ACTIONS and q.state_count() == 1
        rows, kind = q.bin_rows([1023])
        assert rows[0, 1023].tobytes() == values.tobytes()
        assert rows[0, 1023].argmax() == 9 and kind[0, 1023] == 1
        assert (rows[0, :1023].argmax(axis=1) == 0).all() and (kind[0, :1023] == 2).all()
        # A tie over all 32 stored entries, no unstored zero among them: the lowest id.
        q = table_of({(state, a): (-1.0, FLAG_TRAINED) for a in range(N_ACTIONS)})
        rows, kind = q.bin_rows([1023])
        assert rows[0, 1023].argmax() == 0 and kind[0, 1023] == 0

    @given(entries=st.dictionaries(
        st.tuples(st.sampled_from([5, 6, N_TIP_STATES - 1, 3 * N_TIP_STATES]),
                  st.integers(0, N_ACTIONS - 1)),
        st.tuples(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.5]), st.integers(0, 3)),
        max_size=70))
    @settings(max_examples=60, deadline=None)
    def test_bin_rows_are_the_values_of_each_row_bit_for_bit(self, entries):
        # Ties, zeros of either sign, all-negative rows and full rows, every flag word.
        q = table_of({k: (np.float32(v), f) for k, (v, f) in entries.items()})
        bins = [0, 3]
        rows, kind = q.bin_rows(bins)
        read = [5, 6, N_TIP_STATES - 1, 0]  # every state an entry can be at, and one empty
        for i, goal_bin in enumerate(bins):
            for suffix in read:
                state = goal_bin * N_TIP_STATES + suffix
                flags = q.flags(state)
                assert (rows[i, suffix].view(np.uint32).tobytes()
                        == q.values(state).view(np.uint32).tobytes())
                assert kind[i, suffix] == (0 if (flags & FLAG_TRAINED).any() else
                                           1 if flags.any() else 2)
                assert rows[i, suffix].argmax() == q.values(state).argmax()
        rest = np.delete(np.arange(N_TIP_STATES), read)
        assert not rows[:, rest].view(np.uint32).any() and (kind[:, rest] == 2).all()


class TestSelectAction:
    def test_greedy_picks_unique_max(self, rng):
        q = table_of({(3, 7): (5.0, FLAG_TRAINED), (3, 12): (4.0, FLAG_TRAINED)})
        assert select_action(q, 3, 0.0, rng) == 7

    def test_all_equal_row_breaks_tie_to_action_zero(self, rng):
        q = QTable()
        assert select_action(q, 11, 0.0, rng) == 0

    def test_tie_between_two_entries_takes_lower_id(self, rng):
        q = table_of({(1, 4): (2.0, FLAG_TRAINED), (1, 9): (2.0, FLAG_TRAINED)})
        assert select_action(q, 1, 0.0, rng) == 4

    def test_full_exploration_is_uniform(self):
        rng = np.random.default_rng(99)
        q = QTable()
        counts = np.zeros(32, dtype=int)
        n = 100_000
        for _ in range(n):
            counts[select_action(q, 0, 1.0, rng)] += 1
        p = 1 / 32
        sigma = (n * p * (1 - p)) ** 0.5
        assert np.all(np.abs(counts - n * p) < 3 * sigma + 1)

    def test_greedy_invariant_under_row_shift_and_scale(self, rng):
        base = np.linspace(-1.0, 2.0, 32).astype(np.float32)
        picks = {select_action(QTable.from_records([0] * 32, range(32), [FLAG_TRAINED] * 32, row),
                               0, 0.0, rng)
                 for row in (base, base + 7.5, base * 3.0)}
        assert len(picks) == 1


class TestAugment:
    def test_mean_of_two_trained_neighbors(self):
        center = pack_bins((1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
        up = pack_bins((1, 1, 1, 1, 1, 1, 1, 1, 1, 2))
        down = pack_bins((1, 1, 1, 1, 1, 1, 1, 1, 1, 0))
        q = table_of({(up, 4): (1.0, FLAG_TRAINED), (down, 4): (3.0, FLAG_TRAINED)})
        out = augment(q)
        assert out.get(center, 4) == 2.0
        assert out.flags(center)[4] == FLAG_AUGMENTED

    def test_no_trained_neighbors_leaves_zero(self):
        far_a = pack_bins((0,) * 10)
        far_b = pack_bins((3,) * 10)
        q = table_of({(far_a, 0): (5.0, FLAG_TRAINED)})
        out = augment(q)
        assert out.get(far_b, 0) == 0.0
        assert out.flags(far_b)[0] == 0

    def test_different_actions_do_not_mix(self):
        s1 = pack_bins((2, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        s2 = pack_bins((1, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        q = table_of({(s1, 3): (9.0, FLAG_TRAINED)})
        out = augment(q)
        assert out.get(s2, 3) == 9.0
        assert out.get(s2, 4) == 0.0

    def test_trained_entries_bit_unchanged(self, rng):
        entries = {}
        for s in rng.integers(0, N_STATES, 200):
            key = int(s), int(rng.integers(32))
            entries[key] = (float(rng.normal()), FLAG_TRAINED)
        q = table_of(entries)
        before = {
            (int(s), int(a)): (int(f), v.tobytes())
            for s, a, f, v in zip(*q.record_arrays())
        }
        out = augment(q)
        _, _, of, ov = out.record_arrays()
        after = {
            (int(s), int(a)): (int(f), v.tobytes())
            for s, a, f, v in zip(*out.record_arrays())
        }
        for key, (f, vb) in before.items():
            assert after[key] == (f, vb)

    def test_fully_trained_table_keeps_values(self):
        # fully trained on a tiny sub-lattice: every state's every action trained
        lattice = [pack_bins((b,) + (0,) * 9) for b in range(4)]
        q = table_of({(s, a): (float(s % 7) + a, FLAG_TRAINED)
                      for s in lattice for a in range(4)})
        out = augment(q)
        for s in lattice:
            for a in range(4):
                assert out.get(s, a) == q.get(s, a)
                assert out.flags(s)[a] == FLAG_TRAINED

    def test_input_table_is_not_mutated(self):
        s1 = pack_bins((0, 0, 0, 0, 0, 0, 0, 0, 0, 1))
        q = table_of({(s1, 0): (4.0, FLAG_TRAINED)})
        augment(q)
        assert q.entry_count() == 1
        assert q.augmented_count() == 0

    @pytest.mark.parametrize("flag", [0, FLAG_AUGMENTED])
    def test_nothing_trained_gives_an_equal_copy(self, flag):
        q = table_of({(77, 3): (1.5, flag)} if flag else {})
        out = augment(q)
        assert out == q and out.bins.tolist() == q.bins.tolist()
        out.update(77, 3, 9.0, 78, HP)
        assert q.get(77, 3) == (1.5 if flag else 0.0)

    def test_second_pass_adds_nothing_new(self):
        q = table_of({(pack_bins((1,) * 10), 2): (6.0, FLAG_TRAINED)})
        once = augment(q)
        twice = augment(once)
        assert twice == once
        assert twice.augmented_count() == once.augmented_count()

    def test_radius_two_reaches_two_step_neighbors(self):
        src = pack_bins((0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        two_away = pack_bins((0, 0, 0, 0, 0, 0, 0, 0, 0, 2))
        q = table_of({(src, 1): (8.0, FLAG_TRAINED)})
        assert augment(q, radius=1).get(two_away, 1) == 0.0
        assert augment(q, radius=2).get(two_away, 1) == 8.0
        with pytest.raises(ValueError, match="radius must be >= 1"):
            augment(q, radius=0)

    @pytest.mark.parametrize("radius", [True, 2.0, 1.5])
    def test_radius_must_be_an_integer(self, radius):
        # True once ran as radius 1; 2.0 died after the source scan.
        q = table_of({(5, 1): (8.0, FLAG_TRAINED)})
        with pytest.raises(ValueError, match="radius must be an integer"):
            augment(q, radius)
        assert augment(q, np.int64(2)) == augment(q, 2)

    def test_radius_past_three_reaches_no_further(self):
        # A digit spans 0..3, so radius 3 already reaches every neighbor.
        q = table_of(clustered_entries(seed=3))
        assert augment(q, 10**9) == augment(q, 3)

    @given(
        entries=st.lists(
            st.tuples(
                st.integers(0, 4 * N_TIP_STATES - 1),
                st.integers(0, 3),
                st.integers(0, FLAG_TRAINED | FLAG_AUGMENTED),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=30,
            unique_by=lambda e: (e[0], e[1]),
        ),
        radius=st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_output_is_finite_with_defined_flags(self, entries, radius):
        # augment hands its arrays to the table unchecked; this is why it may.
        q = QTable.from_records(*(zip(*entries) if entries else ([],) * 4))
        out = augment(q, radius)
        _, _, flags, values = out.record_arrays()
        assert np.isfinite(values).all()
        assert flags.max(initial=0) <= FLAG_TRAINED | FLAG_AUGMENTED

    def test_digit_boundaries_do_not_wrap(self):
        # digit 0 in the last dim: the "down" neighbor does not exist and the
        # "up" neighbor from digit 3 must not carry into the next dim
        lo = pack_bins((0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        hi = pack_bins((0, 0, 0, 0, 0, 0, 0, 0, 0, 3))
        q = table_of({(lo, 0): (1.0, FLAG_TRAINED), (hi, 0): (1.0, FLAG_TRAINED)})
        out = augment(q)
        os_, oa, of, ov = out.record_arrays()
        expected = set()
        for s in (lo, hi):
            expected.update(scratch_neighbors(s))
        got_aug = {int(s) for s, f in zip(os_, of) if f & FLAG_AUGMENTED}
        assert got_aug == expected - {lo, hi}

    @given(
        entries=st.lists(
            st.tuples(
                st.integers(0, N_STATES - 1),
                st.integers(0, 31),
                st.floats(-10.0, 10.0, width=32),
            ),
            min_size=1,
            max_size=25,
            unique_by=lambda e: (e[0], e[1]),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scratch_neighbor_means(self, entries):
        trained = {(s, a): float(np.float32(v)) for s, a, v in entries}
        q = table_of({k: (v, FLAG_TRAINED) for k, v in trained.items()})
        out = augment(q)
        expected = {}
        for (s, a), v in trained.items():
            for n in scratch_neighbors(s):
                if (n, a) not in trained:
                    expected.setdefault((n, a), []).append(v)
        for (n, a), vals in expected.items():
            assert out.flags(n)[a] == FLAG_AUGMENTED
            assert out.get(n, a) == pytest.approx(sum(vals) / len(vals), abs=1e-6)
        os_, oa, of, _ = out.record_arrays()
        n_aug = int(np.count_nonzero(of & FLAG_AUGMENTED))
        assert n_aug == len(expected)


def clustered_entries(seed, n=80):
    """{(state, action): (float32 value, flags)}: states one or two digits from one base.

    Actions are the first two and the last. Flags are drawn from 0..3, so
    some entries hold a value only. Values are nonzero multiples of 1/64,
    whose few-term sums are exact in float64, so a mean does not depend on
    the order of its terms.
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, 10)
    entries = {}
    while len(entries) < n:
        digits = base.copy()
        moved = rng.choice(10, rng.integers(1, 3), replace=False)
        digits[moved] = rng.integers(0, 4, moved.size)
        key = (pack_bins(digits), int(rng.choice([0, 1, N_ACTIONS - 1])))
        value = np.float32(rng.integers(1, 640) / 64 * rng.choice([-1, 1]))
        entries[key] = (value, int(rng.integers(0, 4)))
    return entries


def reference_augment(entries, radius):
    """augment() entry by entry over a dict {(state, action): (value, flags)}."""
    trained = {k: v for k, (v, f) in entries.items() if f & FLAG_TRAINED}
    contributions = {}
    for (s, a), v in trained.items():
        for n in scratch_neighbors(s, radius):
            contributions.setdefault((n, a), []).append(float(v))
    out = dict(entries)
    for key, vals in contributions.items():
        if key not in trained:
            out[key] = (np.float32(sum(vals) / len(vals)),
                        entries.get(key, (0, 0))[1] | FLAG_AUGMENTED)
    return out


def assert_records_equal(q, entries):
    stored = sorted((k, vf) for k, vf in entries.items() if vf[0] != 0 or vf[1] != 0)
    states, actions, flags, values = q.record_arrays()
    assert (states.dtype, actions.dtype, flags.dtype, values.dtype) == (
        np.uint32, np.uint16, np.uint16, np.float32)
    assert states.tolist() == [s for (s, _), _ in stored]
    assert actions.tolist() == [a for (_, a), _ in stored]
    assert flags.tolist() == [f for _, (_, f) in stored]
    assert values.tobytes() == np.array([v for _, (v, _) in stored], np.float32).tobytes()


class TestFlatIndexing:
    """record_arrays and augment against a per-entry reference, entry keys off the flat rows."""

    def test_record_arrays_and_augment_match_the_reference(self):
        entries = clustered_entries(seed=32)
        q = table_of(entries)
        assert len(q.bins) > 1
        assert_records_equal(q, entries)
        for radius in (1, 2):
            want = reference_augment(entries, radius)
            # Both kinds of value-only entry occur: one kept, one overwritten by a mean.
            value_only = [k for k, (_, f) in entries.items() if f == 0]
            assert {want[k][1] for k in value_only} == {0, FLAG_AUGMENTED}
            assert_records_equal(augment(q, radius), want)


def order_sensitive_records(seed):
    """Record arrays of a table whose neighbour means depend on their summation order.

    Five centres, on digit edges 0 and 3 and in between. Around each, a
    share of the 30 one-digit neighbours is stored: all of them, trained at
    every action, around the first, so its centre has 20 (radius 2) or 30
    trained neighbours. A share of the 64 states that vary the centre's last
    three digits is stored too, where entries get several neighbours each.
    Values have mixed signs, some -0.0, and magnitudes 2**60 or 2**61,
    which cancel in some sums and swallow small terms in others, or 1e-3 to
    1e3. Actions are the first, the last and one between. A fifth of the
    other entries are value-only or augmented.
    """
    rng = np.random.default_rng(seed)
    centres = [(0,) * 10, (3,) * 10, (0, 3) * 5, (1, 2, 0, 3, 1, 2, 3, 0, 2, 1),
               tuple(rng.integers(0, 4, 10))]
    actions = [0, N_ACTIONS // 2, N_ACTIONS - 1]
    entries = {}

    def store(state, acts, trained):
        for a in acts:
            big = rng.random() < 0.3
            value = rng.choice([-1.0, 1.0]) * (
                rng.choice([2.0**60, 2.0**61]) if big else 10.0 ** rng.uniform(-3, 3))
            value = -0.0 if rng.random() < 0.05 else value
            flags = 1 if trained else int(rng.choice([1, 1, 1, 1, 1, 1, 1, 3, 0, 2]))
            entries[(state, int(a))] = (np.float32(value), flags)

    for i, centre in enumerate(centres):
        share = (1.0, 0.9, 0.7, 0.5, 0.3)[i]
        for d in range(10):
            for digit in set(range(4)) - {centre[d]}:
                if rng.random() < share:
                    store(pack_bins(centre[:d] + (digit,) + centre[d + 1:]),
                          actions if i == 0 else rng.choice(actions, rng.integers(1, 4)),
                          i == 0)
        for tail in np.ndindex(4, 4, 4):
            if tail != centre[7:] and rng.random() < 0.4:
                store(pack_bins(centre[:7] + tail), rng.choice(actions, rng.integers(1, 4)),
                      False)
    keys = sorted(entries)
    return (np.array([s for s, _ in keys]), np.array([a for _, a in keys]),
            np.array([entries[k][1] for k in keys]),
            np.array([entries[k][0] for k in keys], dtype=np.float32))


class TestAugmentOracle:
    """augment against oracle_augment, byte for byte."""

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_means_match_the_oracle_bit_for_bit(self, radius):
        records = order_sensitive_records(seed=32 + radius)
        q = QTable.from_records(*records)
        got = augment(q, radius).record_arrays()
        want = oracle_augment(*records, radius)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_contribution_windows_match_the_oracle(self, monkeypatch):
        # Windows of 50 contributions hold one or a few of the 58 goal bins each.
        records = order_sensitive_records(seed=7)
        q = QTable.from_records(*records)
        monkeypatch.setattr(qtable, "_WINDOW", 50)
        for radius in (1, 3):
            got = augment(q, radius).record_arrays()
            want = oracle_augment(*records, radius)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_the_cases_depend_on_the_summation_order(self):
        # Keys from 1 to past 20 contributions, reduceat's pairwise branch
        # (9 or more) included, and means whose bits a reversed order moves.
        states, actions, flags, values = order_sensitive_records(seed=35)
        trained = {(int(s), int(a)): float(v)
                   for s, a, f, v in zip(states, actions, flags, values) if f & FLAG_TRAINED}
        _, lists = oracle_neighbour_lists(trained, 3)
        sizes = {len(x) for x in lists}
        assert min(sizes) == 1 and max(sizes) >= 20 and len(sizes & set(range(9, 20))) >= 2

        def mean(x):
            return np.float32(np.add.reduce(np.array(x)) / len(x))

        assert sum(mean(x) != mean(x[::-1]) for x in lists) >= 3
        assert (values == 0).any() and np.signbit(values[values == 0]).any()


class TestPersistence:
    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "empty.qt"
        q = QTable()
        save(q, path)
        assert load(path) == q

    def test_save_refuses_a_file_descriptor(self, tmp_path):
        # open() takes an int as a descriptor: save would write into whatever it names.
        path = tmp_path / "fd.qt"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        try:
            with pytest.raises(TypeError):
                save(QTable.from_records([5], [1], [FLAG_TRAINED], [1.0]), fd)
        finally:
            os.close(fd)
        assert path.read_bytes() == b""

    def test_small_table_round_trip_bit_exact(self, tmp_path, rng):
        entries = {}
        for _ in range(300):
            key = int(rng.integers(0, N_STATES)), int(rng.integers(32))
            entries[key] = (float(rng.normal()), int(rng.choice(
                [FLAG_TRAINED, FLAG_AUGMENTED, FLAG_TRAINED | FLAG_AUGMENTED])))
        q = table_of(entries)
        path = tmp_path / "small.qt"
        save(q, path)
        back = load(path)
        assert back == q
        path2 = tmp_path / "again.qt"
        save(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_million_entry_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.integers(0, N_STATES * 32, 1_200_000, dtype=np.int64))[:1_000_000]
        states = (keys // 32).astype(np.uint32)
        actions = (keys % 32).astype(np.uint16)
        flags = rng.choice(
            np.array([1, 2, 3], dtype=np.uint16), size=keys.size
        )
        values = rng.normal(size=keys.size).astype(np.float32)
        q = QTable.from_records(states, actions, flags, values)
        path = tmp_path / "big.qt"
        save(q, path)
        back = load(path)
        assert back == q

    def test_load_builds_without_from_records(self, tmp_path, monkeypatch):
        """load checks a file's records itself, so from_records' checks do not run again."""
        q = QTable.from_records([5, 6 * N_TIP_STATES], [1, 2], [1, 0], [1.0, -2.0])
        save(q, tmp_path / "t.hpnq")

        def refuse(*args, **kwargs):
            raise AssertionError("load called from_records")

        monkeypatch.setattr(QTable, "from_records", refuse)
        assert load(tmp_path / "t.hpnq") == q

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "t.qt"
        save(QTable(), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "t.qt"
        body = MAGIC + struct.pack("<IIQ", 9, 32, 0)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(UnsupportedVersionError):
            load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.qt"
        q = QTable.from_records([1], [1], [FLAG_TRAINED], [1.0])
        save(q, path)
        raw = path.read_bytes()
        for cut in (2, 10, len(raw) - 3):
            path.write_bytes(raw[:cut])
            with pytest.raises(TruncatedTableError):
                load(path)

    def test_flipped_record_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "t.qt"
        q = QTable.from_records([77], [5], [FLAG_TRAINED], [2.5])
        save(q, path)
        raw = bytearray(path.read_bytes())
        raw[_record_offset() + 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.qt"
        save(QTable(), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(QTableIOError):
            load(path)

    def test_unsorted_records_rejected(self, tmp_path):
        rec = np.zeros(2, dtype=[("state", "<u4"), ("action", "<u2"), ("flags", "<u2"), ("value", "<f4")])
        rec["state"] = (5, 4)
        rec["flags"] = 1
        body = MAGIC + struct.pack("<IIQ", 1, 32, 2) + rec.tobytes()
        path = tmp_path / "t.qt"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(QTableIOError):
            load(path)

    @pytest.mark.parametrize("states, actions", [
        ((5, 4), (1, 2)),          # states fall
        ((5, 5), (3, 2)),          # actions fall within a state
        ((4, 5, 5), (9, 2, 2)),    # one (state, action) twice
    ], ids=["state-falls", "action-falls-in-a-state", "repeated-entry"])
    def test_records_out_of_order_rejected(self, tmp_path, states, actions):
        path = tmp_path / "t.qt"
        _write_records(path, states, actions, [1] * len(states), [1.0] * len(states))
        with pytest.raises(QTableIOError, match=r"not strictly sorted by \(state, action\)"):
            load(path)

    def test_action_may_fall_where_the_state_rises(self, tmp_path):
        path = tmp_path / "t.qt"
        _write_records(path, [4, 4, 5, 9], [7, 9, 1, 0], [1, 2, 3, 1], [1.0, 2.0, 3.0, 4.0])
        assert load(path) == QTable.from_records([4, 4, 5, 9], [7, 9, 1, 0], [1, 2, 3, 1],
                                                 [1.0, 2.0, 3.0, 4.0])

    def test_state_beyond_codec_rejected(self, tmp_path):
        path = tmp_path / "t.qt"
        _write_records(path, [5, N_STATES + 3], [1, 2], [1, 1], [1.0, 2.0])
        with pytest.raises(QTableIOError, match="outside"):
            load(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "t.qt"
        _write_records(path, [5, 6], [1, 2], [1, 1], [bad, 2.0])
        with pytest.raises(QTableIOError, match="non-finite"):
            load(path)

    # 256 and 257 would wrap to 0 and 1 in the uint8 rows: refused before the cast.
    @pytest.mark.parametrize("bad", [4, 0x8000, 256, 257])
    def test_undefined_flag_bits_rejected(self, tmp_path, bad):
        path = tmp_path / "t.qt"
        _write_records(path, [5, 6], [1, 2], [1, bad], [1.0, 2.0])
        with pytest.raises(QTableIOError, match="flag bits"):
            load(path)

    @pytest.mark.parametrize("action_count", [0, 4, 31, 33, 0xFFFF, 70_000])
    def test_header_action_count_other_than_32_rejected(self, tmp_path, action_count):
        path = tmp_path / "t.qt"
        _write_header_only(path, action_count)
        with pytest.raises(QTableIOError,
                           match=rf"t.qt: action count {action_count}, expected 32$"):
            load(path)

    def test_action_id_at_the_header_action_count_rejected(self, tmp_path):
        path = tmp_path / "t.qt"
        _write_records(path, [5, 6], [1, 32], [1, 1], [1.0, 2.0])
        with pytest.raises(QTableIOError, match="action id beyond action count 32"):
            load(path)

    def test_last_codec_state_loads(self, tmp_path):
        path = tmp_path / "t.qt"
        q = QTable.from_records([0, N_STATES - 1], [0, 31], [1, 2], [-1.0, 2.0])
        save(q, path)
        assert load(path) == q


def bulk_table():
    """A table of known size: 64 goal bins, 512 tip states each, 7 entries per state.

    Every entry's value is nonzero, so all 229,376 are stored: 22% of its
    1,048,576 held cells, near the seed-1 default table's 16%.
    """
    bins = np.arange(0, 1024, 16)
    states = (bins[:, None] * N_TIP_STATES + np.arange(0, N_TIP_STATES, 2)).reshape(-1)
    actions = np.arange(0, 32, 5)
    n = len(states) * len(actions)
    return QTable.from_records(
        np.repeat(states, len(actions)), np.tile(actions, len(states)),
        np.resize(np.array([FLAG_TRAINED, FLAG_AUGMENTED, 3], dtype=np.uint16), n),
        np.linspace(-2.0, 3.0, n, dtype=np.float32) + np.float32(0.25))


def traced_peak(run):
    """Bytes ``run()`` allocated at its peak, as tracemalloc sees them, and its result."""
    tracemalloc.start()
    try:
        out = run()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestBulkMemory:
    """save, record_arrays and load hold at most their output plus one int64 per entry.

    Each bound is the output, one int64 per stored entry, one byte per cell
    of the states holding an entry and SLACK for fixed-size parts: the
    bounds a row store of those states met, which the entry store keeps
    well inside. load also holds the file's bytes while it builds the
    entries, so its bound adds them. load and from_records allocate
    nothing over the whole state space: a one-entry table builds in a few
    KiB.
    """

    SLACK = 1 << 20

    @pytest.fixture(scope="class")
    def table(self):
        q = bulk_table()
        assert (q.entry_count(), q.state_count(), len(q.bins)) == (229_376, 32_768, 64)
        return q

    def bound(self, q, output):
        return output + 8 * q.entry_count() + q.state_count() * N_ACTIONS + self.SLACK

    def test_record_arrays(self, table):
        peak, arrays = traced_peak(table.record_arrays)
        assert [a.dtype for a in arrays] == [np.uint32, np.uint16, np.uint16, np.float32]
        output = sum(a.nbytes for a in arrays)
        assert output == 12 * table.entry_count()
        assert peak <= self.bound(table, output), (peak, self.bound(table, output))

    def test_save(self, table, tmp_path):
        path = tmp_path / "t.hpnq"
        peak, _ = traced_peak(lambda: save(table, path))
        records = 12 * table.entry_count()  # the record array the file body is written from
        assert path.stat().st_size == _record_offset() + records + 4
        assert peak <= self.bound(table, records), (peak, self.bound(table, records))

    def test_load(self, table, tmp_path):
        path = tmp_path / "t.hpnq"
        save(table, path)
        peak, back = traced_peak(lambda: load(path))
        assert back == table
        output = back.nbytes + path.stat().st_size
        assert peak <= self.bound(table, output), (peak, self.bound(table, output))

    def test_one_entry_builds_in_a_few_kib(self, tmp_path):
        entry = ([700 * N_TIP_STATES + 9], [3], [FLAG_TRAINED], [1.5])
        path = tmp_path / "t.hpnq"
        save(QTable.from_records(*entry), path)
        for build in (lambda: load(path), lambda: QTable.from_records(*entry)):
            peak, q = traced_peak(build)
            assert q.entry_count() == 1
            assert peak < 64 << 10, peak


# States for the reference-model test: suffixes spread over goal bins,
# including both ends of the codec, so operations collide and bootstrap, and
# so updates insert rows before, between and after the rows a build leaves.
MODEL_STATES = [b * N_TIP_STATES + t
                for b in (0, 1, 3, 200, 511, 1022, 1023) for t in (0, 1, 5, 77, 500, 1022, 1023)]
MODEL_ACTIONS = (0, 1, 31)

# Sets one model entry (value, flags), then rebuilds the table from the model.
edit_op = st.tuples(
    st.just("edit"), st.sampled_from(MODEL_STATES), st.sampled_from(MODEL_ACTIONS),
    st.floats(-100.0, 100.0, width=32), st.sampled_from([0, 1, 2, 3]),
)
update_op = st.tuples(
    st.just("update"), st.sampled_from(MODEL_STATES), st.sampled_from(MODEL_ACTIONS),
    st.floats(-10.0, 10.0), st.sampled_from(MODEL_STATES),
)
# Rebuilds the table from its own record arrays.
rebuild_op = st.just(("rebuild", None, None, None, None))


class TestReferenceModel:
    """QTable against a plain dict {(state, action): (float32 value, flags)}.

    Bulk builds from the model and from the table's own records interleave
    with TD updates, which write the table in place.
    """

    @given(ops=st.lists(st.one_of(edit_op, update_op, rebuild_op), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, ops, tmp_path_factory):
        hp = HyperParams(alpha=0.3, gamma=0.9, epsilon=0.0)
        q = QTable()
        model = {}
        for kind, state, action, x, y in ops:
            if kind == "edit":
                model[(state, action)] = (np.float32(x), y)
                q = table_of(model)
            elif kind == "rebuild":
                rebuilt = QTable.from_records(*q.record_arrays())
                assert rebuilt == q
                q = rebuilt
            else:
                old_value, old_flags = model.get((state, action), (np.float32(0.0), 0))
                row = [model.get((y, a), (np.float32(0.0), 0))[0] for a in range(32)]
                target = x + hp.gamma * float(max(row))
                new = np.float32(float(old_value) + hp.alpha * (target - float(old_value)))
                assert q.update(state, action, x, y, hp) == float(new)
                model[(state, action)] = (new, old_flags | FLAG_TRAINED)
            assert_entries_in_key_order(q)

        for state in MODEL_STATES:
            for action in range(32):
                value, flags = model.get((state, action), (np.float32(0.0), 0))
                assert q.get(state, action) == float(value)
                assert q.flags(state)[action] == flags
        stored = sorted((k, vf) for k, vf in model.items() if vf[0] != 0 or vf[1] != 0)
        expected = (
            np.array([s for (s, _), _ in stored], dtype=np.uint32),
            np.array([a for (_, a), _ in stored], dtype=np.uint16),
            np.array([f for _, (_, f) in stored], dtype=np.uint16),
            np.array([v for _, (v, _) in stored], dtype=np.float32),
        )
        got = q.record_arrays()
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            assert g.tobytes() == e.tobytes()
        assert q.entry_count() == len(stored)
        assert q.trained_count() == sum(1 for _, (_, f) in stored if f & FLAG_TRAINED)
        assert q.augmented_count() == sum(1 for _, (_, f) in stored if f & FLAG_AUGMENTED)
        assert q.state_count() == len({s for (s, _), _ in stored})

        path = tmp_path_factory.mktemp("model") / "t.hpnq"
        save(q, path)
        back = load(path)
        for g, e in zip(back.record_arrays(), expected):
            assert g.tobytes() == e.tobytes()


def _record_offset():
    return 4 + struct.calcsize("<IIQ")


def _write_header_only(path, action_count):
    """A version-1 table file of no records declaring `action_count`, with a valid CRC."""
    body = MAGIC + struct.pack("<IIQ", 1, action_count, 0)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _write_records(path, states, actions, flags, values):
    """A version-1 table file holding exactly these records, with a valid CRC."""
    rec = np.zeros(len(states), dtype=[("state", "<u4"), ("action", "<u2"),
                                       ("flags", "<u2"), ("value", "<f4")])
    rec["state"], rec["action"], rec["flags"], rec["value"] = states, actions, flags, values
    body = MAGIC + struct.pack("<IIQ", 1, 32, len(states)) + rec.tobytes()
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
