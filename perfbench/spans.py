"""Spans and counts at the layer boundaries of the hpnarm package.

A traced run wraps the public functions at each layer boundary from the
outside: a traced function is replaced in every loaded ``hpnarm`` module that
binds it (``episode`` calls ``segment_transform`` through its own global, for
instance), and a traced method is replaced on its class. No file of the
package changes, and everything is restored when the traced region ends.

The step loop opens about a million spans in a default pretrain, so spans are
not kept one by one. Each closing span adds its duration and its self time
(duration minus the time its direct child spans cover) to a per-name total.
Spans nest strictly on one thread, so this gives the same self times as a
recorded span tree.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import sys
import time

# (layer module, public function or Class.method) pairs that open a span.
TRACED = (
    ("kinematics", "tip_batch"),
    ("kinematics", "segment_transform"),
    ("state", "encode_goal_prefix_batch"),
    ("state", "StateEncoder.encode_tip_index"),
    ("qtable", "QTable.update"),
    ("qtable", "ActionSpec.apply"),
    ("qtable", "select_action"),
    ("qtable", "augment"),
    ("qtable", "save"),
    ("qtable", "load"),
    ("episode", "NominalPlant.apply"),
    ("episode", "PerturbedPlant.apply"),
    ("episode", "pose_errors"),
    ("episode", "run_episode"),
    ("pretrain", "build_goal_bank"),
    ("pretrain", "pretrain_shard"),
    ("pretrain", "merge"),
    ("evalrun", "evaluate"),
    ("evalrun", "write_report_csvs"),
)


# Counts taken where the work happens. A hook runs after its span has closed,
# and its time is charged to neither the span nor the span's parent.
def _count_rows(counts, args, result):
    counts["kinematics.tip_batch.rows"] += len(result[0])


def _count_empty_row(counts, args, result):
    q, state = args[0], args[1]
    counts["qtable.select_action.empty_rows"] += not q.flags(state).any()


def _count_saved_bytes(counts, args, result):
    counts["qtable.save.bytes"] += os.path.getsize(args[1])


def _count_loaded(counts, args, result):
    counts["qtable.load.bytes"] += os.path.getsize(args[0])
    counts["qtable.dense_outputs"] += result.dense


def _count_augmented(counts, args, result):
    counts["qtable.dense_outputs"] += result.dense


def _count_episode(counts, args, result):
    counts["episode.steps"] += result.steps_taken
    counts["episode.successes"] += result.success


def _count_goal_bank(counts, args, result):
    counts["pretrain.build_goal_bank.samples_used"] += result.samples_used
    counts["pretrain.build_goal_bank.goals"] += result.goal_count()


HOOKS = {
    "kinematics.tip_batch": _count_rows,
    "qtable.select_action": _count_empty_row,
    "qtable.save": _count_saved_bytes,
    "qtable.load": _count_loaded,
    "qtable.augment": _count_augmented,
    "episode.run_episode": _count_episode,
    "pretrain.build_goal_bank": _count_goal_bank,
}


class Tracer:
    """Per-name span totals and counts over every region run under `active()`."""

    def __init__(self, modules):
        self._modules = modules
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = collections.Counter()
        self._stack: list[float] = []

    def _wrapper(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        # The stack holds, for each open span, the time its children covered.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - stack.pop()
            if hook is not None:
                hook(counts, args, result)
                duration = clock() - start
            if stack:
                stack[-1] += duration
            return result

        return traced

    def _targets(self):
        """(span name, owner, attribute, original) for every binding a region replaces."""
        package = [
            m for n, m in sorted(sys.modules.items())
            if n == "hpnarm" or n.startswith("hpnarm.")
        ]
        for layer, attr in TRACED:
            module = self._modules[layer]
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                yield name, cls, method, cls.__dict__[method]
                continue
            fn = getattr(module, attr)
            for owner in package:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        yield name, owner, key, fn

    @contextlib.contextmanager
    def active(self):
        """Replace every traced binding with its wrapper; restore them on exit."""
        replaced = []
        try:
            for name, owner, key, original in list(self._targets()):
                setattr(owner, key, self._wrapper(name, original))
                replaced.append((owner, key, original))
            yield self
        finally:
            for owner, key, original in reversed(replaced):
                setattr(owner, key, original)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics; a layer never entered reads 0."""
        stats, counts = self.stats, self.counts

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def total_s(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return stats.get(name, (0, 0.0, 0.0))[2]

        def ratio(num, den):
            return num / den if den else 0.0

        def us_per_call(name):
            return 1e6 * ratio(total_s(name), calls(name))

        # PerturbedPlant.apply nests NominalPlant.apply, which every plant step
        # calls exactly once: one plant step costs the nominal span plus the
        # perturbed wrapper's own time.
        plant_steps = calls("episode.NominalPlant.apply")
        plant_s = total_s("episode.NominalPlant.apply") + self_s("episode.PerturbedPlant.apply")
        steps = counts["episode.steps"]
        episodes = calls("episode.run_episode")
        return {
            "kinematics.tip_batch.calls": calls("kinematics.tip_batch"),
            "kinematics.tip_batch.rows": counts["kinematics.tip_batch.rows"],
            "kinematics.tip_batch.self_s": self_s("kinematics.tip_batch"),
            "kinematics.segment_transform.calls": calls("kinematics.segment_transform"),
            "kinematics.segment_transform.us_per_call": us_per_call("kinematics.segment_transform"),
            "episode.plant_apply.calls": plant_steps,
            "episode.plant_apply.us_per_call": 1e6 * ratio(plant_s, plant_steps),
            "episode.segment_cache_hit_ratio": (
                1.0 - ratio(calls("kinematics.segment_transform"), 4 * plant_steps)
                if plant_steps else 0.0
            ),
            "state.encode_tip_index.calls": calls("state.StateEncoder.encode_tip_index"),
            "state.encode_tip_index.us_per_call": us_per_call("state.StateEncoder.encode_tip_index"),
            "state.encode_goal_prefix_batch.calls": calls("state.encode_goal_prefix_batch"),
            "state.encode_goal_prefix_batch.self_s": self_s("state.encode_goal_prefix_batch"),
            "qtable.update.calls": calls("qtable.QTable.update"),
            "qtable.update.us_per_call": us_per_call("qtable.QTable.update"),
            "qtable.select_action.calls": calls("qtable.select_action"),
            "qtable.select_action.us_per_call": us_per_call("qtable.select_action"),
            "qtable.select_action.empty_row_ratio": ratio(
                counts["qtable.select_action.empty_rows"], calls("qtable.select_action")),
            "qtable.action_apply.calls": calls("qtable.ActionSpec.apply"),
            "qtable.action_apply.us_per_call": us_per_call("qtable.ActionSpec.apply"),
            "qtable.augment.calls": calls("qtable.augment"),
            "qtable.augment.self_s": self_s("qtable.augment"),
            "qtable.save.calls": calls("qtable.save"),
            "qtable.save.self_s": self_s("qtable.save"),
            "qtable.save.bytes": counts["qtable.save.bytes"],
            "qtable.load.calls": calls("qtable.load"),
            "qtable.load.self_s": self_s("qtable.load"),
            "qtable.load.bytes": counts["qtable.load.bytes"],
            "qtable.dense_outputs": counts["qtable.dense_outputs"],
            "episode.run_episode.calls": episodes,
            "episode.run_episode.self_us_per_step": 1e6 * ratio(
                self_s("episode.run_episode"), steps),
            "episode.steps": steps,
            "episode.success_ratio": ratio(counts["episode.successes"], episodes),
            "episode.pose_errors.calls": calls("episode.pose_errors"),
            "episode.pose_errors.us_per_call": us_per_call("episode.pose_errors"),
            "pretrain.build_goal_bank.calls": calls("pretrain.build_goal_bank"),
            "pretrain.build_goal_bank.self_s": self_s("pretrain.build_goal_bank"),
            "pretrain.build_goal_bank.samples_used": counts["pretrain.build_goal_bank.samples_used"],
            "pretrain.build_goal_bank.accept_ratio": ratio(
                counts["pretrain.build_goal_bank.goals"],
                counts["pretrain.build_goal_bank.samples_used"]),
            "pretrain.pretrain_shard.calls": calls("pretrain.pretrain_shard"),
            "pretrain.pretrain_shard.s": total_s("pretrain.pretrain_shard"),
            "pretrain.merge.calls": calls("pretrain.merge"),
            "pretrain.merge.self_s": self_s("pretrain.merge"),
            "evalrun.evaluate.calls": calls("evalrun.evaluate"),
            "evalrun.evaluate.self_s": self_s("evalrun.evaluate"),
            "evalrun.write_report_csvs.calls": calls("evalrun.write_report_csvs"),
            "evalrun.write_report_csvs.self_s": self_s("evalrun.write_report_csvs"),
        }
