"""Milliseconds and traced memory per call of the Q-table's bulk paths and the goal bank.

Builds the default table for --seed (pretrain at RunConfig defaults, written
to a temporary .hpnq file) and prints the loaded table's stored entries, goal
bins and bytes in memory and on disk. It then times load of that file, augment
of the loaded table at radius 1, 2 and 3, and record_arrays and save of the
loaded table, and bin_rows of the loaded table over the goal bins of the
eval_sweep goal set for --seed (the default suite plus 60 sample_goals drawn
from SeedSequence((seed, 4))), the dense rows evaluate reads. Each operation
runs --calls times untimed by tracemalloc, for the median time and the
median count of minor page faults per call (the process's getrusage
ru_minflt across the call: pages mapped in on first touch, 0 where the
allocator reuses pages an earlier call touched), and once more under
tracemalloc, for the peak of memory it allocated during the call. The peak
is also given per stored entry of the table the operation writes or reads:
augment's output, the loaded table otherwise (not for bin_rows, which reads
only its goal bins' entries). Last, it measures build_goal_bank the same
way, on pretrain's stream for --seed at the default quota and budget, with
the count of drawn rows the bank sent through exact FK (tip_batch) in one
call. The bulk-path counterpart of step_cost.py.

Example:
    python3 scripts/bulk_cost.py --seed 1 --calls 15
"""

import argparse
import importlib
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hpnarm import qtable
from hpnarm.config import RunConfig
from hpnarm.evalrun import sample_goals
from hpnarm.pretrain import build_goal_bank, default_sample_budget, pretrain
from hpnarm.state import encode_goal_prefix_batch, rest_tip_origin

# hpnarm.pretrain as a package attribute is the function, not the module.
pretrain_module = importlib.import_module("hpnarm.pretrain")


def cost(run, calls: int) -> tuple[float, float, float]:
    """Median ms and minor page faults of ``calls`` calls of ``run``, and a traced call's peak in MiB."""
    times, faults = [], []
    for _ in range(calls):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        run()
        times.append((time.perf_counter() - t0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), statistics.median(faults), peak / 2**20


def exact_rows(run) -> int:
    """Rows that one call of ``run`` sends through the goal bank's exact FK (its tip_batch)."""
    tip_batch = pretrain_module.tip_batch
    rows = []

    def counted(pressures, params):
        rows.append(len(pressures))
        return tip_batch(pressures, params)

    pretrain_module.tip_batch = counted
    try:
        run()
    finally:
        pretrain_module.tip_batch = tip_batch
    return sum(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--calls", type=int, default=15, help="timed calls per operation")
    args = ap.parse_args()
    if args.calls < 1:
        ap.error("--calls must be >= 1")
    if not 0 <= args.seed < qtable.SEED_LIMIT:
        ap.error("--seed must be in [0, 2**64)")

    cfg = RunConfig()
    p = cfg.pretrain
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "default.hpnq"
        pretrain(cfg.arm, cfg.hyper, cfg.action, cfg.reward, cfg.binning, quota=p.quota,
                 seed=args.seed, budget=p.budget, max_steps=p.max_steps,
                 augment_radius=p.augment_radius, out_path=path)
        table = qtable.load(path)
        print(f"seed {args.seed}: default table of {table.entry_count()} entries in "
              f"{len(table.bins)} goal bins, {table.nbytes} bytes in memory, "
              f"{path.stat().st_size} bytes on disk, "
              f"{args.calls} calls per operation")
        entries = table.entry_count()
        operations = [("load", entries, lambda: qtable.load(path))]
        operations += [(f"augment r{r}", qtable.augment(table, r).entry_count(),
                        lambda r=r: qtable.augment(table, r)) for r in (1, 2, 3)]
        operations.append(("record_arrays", entries, table.record_arrays))
        operations.append(("save", entries, lambda: qtable.save(table, Path(tmp) / "saved.hpnq")))
        print("operation      median ms  minor faults  traced peak MiB  B/entry")
        for name, n, run in operations:
            ms, faults, peak = cost(run, args.calls)
            print(f"{name:<13} {ms:10.1f} {faults:13.0f} {peak:16.1f} {peak * 2**20 / n:8.1f}")

    goals = list(cfg.eval_goals())
    goals += sample_goals(cfg.arm, 60, np.random.default_rng(np.random.SeedSequence((args.seed, 4))))
    poses = np.array([np.concatenate([g.position, g.direction]) for g in goals])
    bins = np.unique(encode_goal_prefix_batch(poses[:, :3], poses[:, 3:],
                                              rest_tip_origin(cfg.arm.l0_mm), cfg.binning))
    print(f"eval_sweep goal set of {len(goals)} goals in {len(bins)} goal bins, "
          f"{table.bin_rows(bins)[0].nbytes} bytes of dense rows")
    print("operation      median ms  minor faults  traced peak MiB")
    ms, faults, peak = cost(lambda: table.bin_rows(bins), args.calls)
    print(f"{'bin_rows':<13} {ms:10.1f} {faults:13.0f} {peak:16.1f}")

    quota = p.quota
    budget = p.budget or default_sample_budget(quota)

    def bank():
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1)))  # pretrain's stream
        return build_goal_bank(cfg.arm, quota, budget, rng, binning=cfg.binning)

    print(f"goal bank of quota {quota} and budget {budget} samples: "
          f"{len(bank().bins)} reachable bins")
    print("operation        median ms  minor faults  traced peak MiB  exact FK rows")
    ms, faults, peak = cost(bank, args.calls)
    print(f"{'build_goal_bank':<15} {ms:10.1f} {faults:13.0f} {peak:16.1f} {exact_rows(bank):14d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
