"""Compare a pretrained controller against a zero-initialized one.

Pretrains a Q-table at the given quota, samples fresh evaluation goals, and
runs both controllers greedily on the nominal and/or perturbed plant. Prints
the per-controller summaries plus the headline comparisons: how many goals
each controller brings within 30 mm, the ratio of median final errors, and
both medians next to the hold baseline (the start error, which holding still
would keep).

Example:
    python3 scripts/compare_pretraining.py --quota 10 --goals 20 --seed 0
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hpnarm.config import RunConfig
from hpnarm.evalrun import evaluate, sample_goals
from hpnarm.pretrain import pretrain
from hpnarm.qtable import SEED_LIMIT


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quota", type=int, default=10, help="goals per reachable bin")
    ap.add_argument("--goals", type=int, default=20, help="fresh evaluation goals")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=None,
                    help="goal-bank samples (default: 40,000 x max(quota, 10))")
    ap.add_argument("--a-gain", type=float, default=None,
                    help="override the curvature gain (1/mm/kPa)")
    ap.add_argument("--epsilon", type=float, default=None,
                    help="override the exploration rate used during pretraining")
    ap.add_argument("--plant", choices=["nominal", "perturbed", "both"], default="both")
    ap.add_argument("--threshold-mm", type=float, default=30.0)
    args = ap.parse_args()
    if args.quota < 1 or args.goals < 1 or args.budget is not None and args.budget < 1:
        ap.error("--quota, --goals and --budget must be >= 1")
    if not 0 <= args.seed < SEED_LIMIT:
        ap.error("--seed must be in [0, 2**64)")
    if not 0 < args.threshold_mm < float("inf"):
        ap.error("--threshold-mm must be positive and finite")

    cfg = RunConfig()
    params, hp = cfg.arm, cfg.hyper
    try:
        if args.a_gain is not None:
            params = dataclasses.replace(params, a_gain=args.a_gain)
        if args.epsilon is not None:
            hp = dataclasses.replace(hp, epsilon=args.epsilon)
    except ValueError as exc:
        ap.error(str(exc))

    t0 = time.perf_counter()
    table, summary = pretrain(
        params, hp, cfg.action, cfg.reward, cfg.binning,
        quota=args.quota, seed=args.seed, budget=args.budget,
    )
    print(summary.format())
    print(f"pretraining took {time.perf_counter() - t0:.1f} s")
    print()

    goal_rng = np.random.default_rng(np.random.SeedSequence((args.seed, 4)))
    goals = sample_goals(params, args.goals, goal_rng)

    plants = ["nominal", "perturbed"] if args.plant == "both" else [args.plant]
    for plant_kind in plants:
        reports = {}
        for label, tbl in (("pretrained", table), ("zero-init", None)):
            reports[label] = evaluate(
                tbl, goals,
                params=params, action_spec=cfg.action,
                reward_spec=cfg.reward, binning=cfg.binning,
                plant_kind=plant_kind, perturbed_cfg=cfg.perturbed,
                repetitions=cfg.eval.repetitions, max_steps=cfg.eval.max_steps,
                seed=args.seed, label=label,
            )
            print(reports[label].summary(args.threshold_mm))
            print()
        pre, base = reports["pretrained"], reports["zero-init"]
        n_pre = pre.goals_reaching(args.threshold_mm)
        n_base = base.goals_reaching(args.threshold_mm)
        ratio = pre.median_final_pos_mm() / base.median_final_pos_mm()
        print(f"[{plant_kind}] goals within {args.threshold_mm:g} mm: "
              f"pretrained {n_pre} vs zero-init {n_base} (need >= 2x)")
        print(f"[{plant_kind}] median final error ratio: {ratio:.3f} (need <= 0.5)")
        print(f"[{plant_kind}] median final error: pretrained {pre.median_final_pos_mm():.1f} mm, "
              f"zero-init {base.median_final_pos_mm():.1f} mm, "
              f"hold baseline {pre.median_start_pos_mm():.1f} mm")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
