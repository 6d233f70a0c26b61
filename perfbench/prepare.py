"""One set-up of a benchmark workload, run in a fresh process and timed by run.py.

    python3 perfbench/prepare.py --workload pretrain_default --seed 1
    python3 perfbench/prepare.py --workload eval_sweep --seed 1 --out table.hpnq

For pretrain_default the set-up is a cold start: import the package and build
the run config. For the other workloads it also builds the default table with
the code under test and writes it to --out.
"""

import argparse
import sys
from pathlib import Path

import layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    mods = layers.import_layers()
    plan = layers.make_plan(mods, args.smoke)
    if args.workload != "pretrain_default":
        if args.out is None:
            ap.error(f"--out is required for {args.workload}")
        layers.build_table(mods, plan.cfg, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
