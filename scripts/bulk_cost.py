"""Milliseconds and traced memory per call of the Q-table's bulk paths.

Builds the default table for --seed (pretrain at RunConfig defaults, written
to a temporary .hpnq file) and prints the loaded table's stored entries, goal
bins and bytes in memory and on disk. It then times load of that file, augment
of the loaded table at radius 1, 2 and 3, and record_arrays and save of the
loaded table. Each operation runs --calls times untimed by tracemalloc, for
the median time and the median count of minor page faults per call (the
process's getrusage ru_minflt across the call: pages mapped in on first touch,
0 where the allocator reuses pages an earlier call touched), and once more
under tracemalloc, for the peak of memory it allocated during the call. The
peak is also given per stored entry of the table the operation writes or
reads: augment's output, the loaded table otherwise. The bulk-path counterpart
of step_cost.py.

Example:
    python3 scripts/bulk_cost.py --seed 1 --calls 15
"""

import argparse
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hpnarm import qtable
from hpnarm.config import RunConfig
from hpnarm.pretrain import pretrain


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--calls", type=int, default=15, help="timed calls per operation")
    args = ap.parse_args()
    if args.calls < 1:
        ap.error("--calls must be >= 1")
    if not 0 <= args.seed < 2**64:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
