"""Brute-force survey of goal-bin reachability under random pressure sampling.

Draws a large batch of uniform pressure vectors, bins the resulting tip poses,
and reports how many of the 1024 goal bins collect at least `quota` hits for a
range of quotas, per seed. This is where the frozen regression value in
tests/test_pretrain.py comes from: with the default arm, quota=10 at a budget
of 1e6 samples fills exactly 64 bins for every seed tried, while the quota=1
count keeps creeping up with budget (rare bins with hit rates near 1e-7) and
is too seed-sensitive to freeze.

Reference numbers measured with this script (default arm, a_gain=0.002):
    budget 1e6, quota 1:  105..119 bins depending on seed
    budget 1e6, quota 10: 64 bins (all seeds tried)
    budget 1e7, quota 1:  182 bins (seed 0)
    budget 1e7, quota 10: 96 bins (seed 0)
The ten most popular bins absorb about 47% of all samples.

Example:
    python3 scripts/reachability_survey.py --budget 10000000 --seeds 3
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hpnarm.kinematics import ArmParams
from hpnarm.pretrain import _binned_batches
from hpnarm.state import N_GOAL_BINS, BinningSpec


def bin_histogram(params, binning, budget, seed, batch=65536):
    """Hits per goal bin over `budget` samples, drawn as pretrain draws its goal bank."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    hist = np.zeros(N_GOAL_BINS, dtype=np.int64)
    for _, bins in _binned_batches(params, binning, budget, rng, batch):
        hist += np.bincount(bins, minlength=N_GOAL_BINS)
    return hist


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=int, default=10_000_000)
    ap.add_argument("--quotas", type=str, default="1,5,10,100")
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--a-gain", type=float, default=None)
    args = ap.parse_args()

    params = ArmParams()
    if args.a_gain is not None:
        params = dataclasses.replace(params, a_gain=args.a_gain)
    binning = BinningSpec()
    quotas = [int(q) for q in args.quotas.split(",")]

    print(f"arm: a_gain={params.a_gain}, budget={args.budget}, seeds={args.seeds}")
    header = "seed  " + "".join(f"q>={q:<8}" for q in quotas) + "top-10 bin mass"
    print(header)
    for seed in range(args.seeds):
        t0 = time.perf_counter()
        hist = bin_histogram(params, binning, args.budget, seed)
        counts = [int((hist >= q).sum()) for q in quotas]
        top = np.sort(hist)[::-1][:10].sum() / hist.sum()
        row = f"{seed:<6}" + "".join(f"{c:<11}" for c in counts) + f"{top:.1%}"
        print(f"{row}   ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
