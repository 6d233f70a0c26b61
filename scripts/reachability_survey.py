"""Brute-force survey of goal-bin reachability under random pressure sampling.

Draws a large batch of uniform pressure vectors, bins the resulting tip poses,
and reports per seed how many of the 1024 goal bins collect at least `quota`
hits for a range of quotas, and for each quota the plateau: the sample index
of the last bin's quota-th hit (the largest, over bins that reach the quota,
of the index of the bin's quota-th hit), past which no further bin fills
within the budget. This is where the frozen regression value in
tests/test_pretrain.py and the default goal-bank budget come from.

Reference numbers measured with this script (default arm, a_gain=0.002,
budget 1e6, seeds 0..39, quotas 1,10,30):
    quota 1:  105..120 bins, the last filled at index 846,887..999,322: the
              count keeps creeping up with budget (rare bins with hit rates
              near 1e-7) and is too seed-sensitive to freeze
    quota 10: 64 bins on 39 seeds, the last filled at index 102,455..193,058;
              seed 33 fills a 65th, rare bin at index 787,939
    quota 30: 64 bins on all 40 seeds, the last filled at index
              285,748..443,075 (above 400,000 on seeds 22 and 27)
    budget 1e7, quota 1:  182 bins (seed 0)
    budget 1e7, quota 10: 96 bins (seed 0)
The default budget, pretrain.default_sample_budget(quota) = 40,000 x
max(quota, 10) samples, is twice the quota-10 plateau up to quota 10 (400,000)
and 2.7 times the largest quota-30 plateau at quota 30 (1,200,000). The ten
most popular bins absorb about 47% of all samples.

Example:
    python3 scripts/reachability_survey.py --budget 1000000 --quotas 1,10,30 --seeds 40
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


def survey(params, binning, budget, seed, quotas, batch=65536):
    """Hits per goal bin over `budget` samples, drawn as pretrain draws its goal bank,
    and for each quota the sample index of the last bin's quota-th hit.

    A bin's q-th hit at index i means a budget of i + 1 samples fills it to q,
    so the largest such index over the bins that reach q is where the count of
    bins at quota q stops growing within this budget (None if no bin reaches q).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    hist = np.zeros(N_GOAL_BINS, dtype=np.int64)
    last_fill = dict.fromkeys(quotas)
    offset = 0
    for _, bins in _binned_batches(params, binning, budget, rng, batch):
        counts = np.bincount(bins, minlength=N_GOAL_BINS)
        for q in quotas:
            crossing = np.flatnonzero((hist < q) & (hist + counts >= q))
            if len(crossing):
                last_fill[q] = offset + max(
                    int(np.flatnonzero(bins == b)[q - 1 - hist[b]]) for b in crossing
                )
        hist += counts
        offset += len(bins)
    return hist, last_fill


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
    header = "seed  " + "".join(f"q>={q:<8}last@{q:<10}" for q in quotas) + "top-10 bin mass"
    print(header)
    for seed in range(args.seeds):
        t0 = time.perf_counter()
        hist, last_fill = survey(params, binning, args.budget, seed, quotas)
        row = f"{seed:<6}"
        for q in quotas:
            last = "-" if last_fill[q] is None else str(last_fill[q])
            row += f"{int((hist >= q).sum()):<11}{last:<15}"
        top = np.sort(hist)[::-1][:10].sum() / hist.sum()
        print(f"{row}{top:.1%}   ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
