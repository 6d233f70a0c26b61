"""Microseconds per lockstep step of training and greedy evaluation, by lane count.

Builds the goal bank pretrain() draws for --seed (its stream
SeedSequence((seed, 1)), at quota --rounds), then times train_lockstep on the
first L reachable bins (one lane per bin, --rounds goals each) and
evalrun.evaluate on the first goal of each of those bins (one repetition, one
lane per goal, reading a table trained on the whole bank), on the nominal plant
and on the perturbed plant evaluate builds for --seed from RunConfig's
perturbed section, which draws observation noise. Each timed call is divided
by the number of lockstep steps it runs, counted once beforehand; a step
advances every running lane by one action. Prints the quartiles over --calls
calls for each lane count, and for evaluate the steps per call: a nominal lane
stops at its first return to an arm configuration, so its calls run fewer
steps than --max-steps, while a lane on the noisy plant runs until success or
the step limit. Each evaluate cell ends with the median µs of a max_steps=1
call on the same lanes: the per-call set-up (the dense rows of the lanes' goal
bins, QTable.bin_rows; plant, lane and noise set-up, padding, results) that
its per-step figures spread over its steps.

A last block splits a train_lockstep step at the largest lane count that
ran into stages, in µs per step (median over --calls calls): the
exploration draws (exploration_draws, once per round), the lane step less
what it observes (_Lanes.step), tip_of, observe_batch (encode_tip_stack
included), and the rest of the call: stream reads, lane set-up, action
selection and the TD update. Each stage is timed by wrapping its name, so
every wrapped call adds its own timing overhead: the block prints the wrapped
step's total next to the unwrapped one of the table above.

Then one line per plant's segment lattice (episode._segment_lattice), the
nominal plant's and then the perturbed plant's: its segment states, its
distinct transforms, the bytes its arrays hold, and the median ms of --calls
fresh builds, each after clearing the lattice cache.

Example:
    python3 scripts/step_cost.py --seed 1 --calls 15
"""

import argparse
import statistics
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from hpnarm import episode, evalrun
from hpnarm.config import RunConfig
from hpnarm.pretrain import build_goal_bank, default_sample_budget
from hpnarm.qtable import SEED_LIMIT
from hpnarm.state import GoalPose


def count_steps(run) -> int:
    """Lockstep steps one call of ``run`` makes."""
    steps = 0
    step = episode._Lanes.step

    def counted(lanes, action):
        nonlocal steps
        steps += 1
        step(lanes, action)

    episode._Lanes.step = counted
    try:
        run()
    finally:
        episode._Lanes.step = step
    return steps


# Wrapped stages of a train_lockstep call: (label, owner, attribute).
STAGES = (
    ("exploration draws", episode, "exploration_draws"),
    ("lane step", episode._Lanes, "step"),
    ("tip_of", episode, "tip_of"),
    ("observe_batch", episode, "observe_batch"),
)


def stage_seconds(run) -> dict[str, float]:
    """Seconds one call of ``run`` spends in each stage of STAGES and in the rest of it.

    A stage's time leaves out the stages called inside it (tip_of and
    observe_batch inside the lane step), so the stages add up to the call.
    """
    spent = {label: 0.0 for label, *_ in STAGES}
    inner = []  # per open stage, the seconds of the stages inside it

    def timed(label, fn):
        def wrapper(*args, **kwargs):
            inner.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                spent[label] += elapsed - inner.pop()
                if inner:
                    inner[-1] += elapsed
        return wrapper

    originals = [(owner, name, getattr(owner, name)) for _, owner, name in STAGES]
    for (label, *_), (owner, name, fn) in zip(STAGES, originals):
        setattr(owner, name, timed(label, fn))
    try:
        t0 = time.perf_counter()
        run()
        total = time.perf_counter() - t0
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    spent["rest of the call"] = total - sum(spent.values())
    return spent


def call_times(run, calls: int) -> list[float]:
    """Microseconds of each of ``calls`` timed calls of ``run``."""
    costs = []
    for _ in range(calls):
        t0 = time.perf_counter()
        run()
        costs.append((time.perf_counter() - t0) * 1e6)
    return costs


def step_quartiles(run, calls: int) -> tuple[list[float], int]:
    """Quartiles of µs per step over ``calls`` timed calls of ``run``, and its steps per call."""
    steps = count_steps(run)
    costs = [c / steps for c in call_times(run, calls)]
    quartiles = statistics.quantiles(costs, n=4, method="inclusive") if calls > 1 else costs * 3
    return quartiles, steps


def lattice_cost(params, action_spec, calls: int) -> str:
    """A plant's segment lattice: states, transforms, bytes, and median ms of ``calls`` builds."""
    costs = []
    for _ in range(calls):
        episode._segment_lattice.cache_clear()
        t0 = time.perf_counter()
        lattice = episode._segment_lattice(params, action_spec)
        costs.append((time.perf_counter() - t0) * 1e3)
    held = lattice.transforms.nbytes + lattice.transform_index.nbytes + lattice.moves.nbytes
    return (f"{len(lattice.transform_index)} states, {len(lattice.transforms)} transforms, "
            f"{held} bytes, build {statistics.median(costs):.1f} ms "
            f"(median of {calls} builds)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--lanes", default="1,4,16,64", help="comma-separated lane counts")
    ap.add_argument("--calls", type=int, default=15, help="timed calls per lane count")
    ap.add_argument("--rounds", type=int, default=3, help="training goals per bin")
    ap.add_argument("--max-steps", type=int, default=200)
    ap.add_argument("--budget", type=int, default=None,
                    help="goal-bank samples (default: the default for quota --rounds)")
    args = ap.parse_args()
    try:
        lane_counts = [int(x) for x in args.lanes.split(",")]
    except ValueError:
        ap.error(f"--lanes must be comma-separated integers, got {args.lanes!r}")
    if args.calls < 1 or args.rounds < 1 or min(lane_counts) < 1:
        ap.error("--calls, --rounds and every lane count must be >= 1")
    if args.max_steps < 1 or args.budget is not None and args.budget < 1:
        ap.error("--max-steps and --budget must be >= 1")
    if not 0 <= args.seed < SEED_LIMIT:
        ap.error("--seed must be in [0, 2**64)")

    cfg = RunConfig()
    specs = dict(params=cfg.arm, action_spec=cfg.action, reward_spec=cfg.reward,
                 binning=cfg.binning, max_steps=args.max_steps)
    budget = default_sample_budget(args.rounds) if args.budget is None else args.budget
    bank_rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1)))
    bank = build_goal_bank(cfg.arm, args.rounds, budget, bank_rng, binning=cfg.binning)
    table = episode.train_lockstep(bank.bins, bank.goals, args.seed, cfg.hyper, **specs)
    print(f"seed {args.seed}: {len(bank.bins)} reachable bins, {args.rounds} goals per bin, "
          f"{args.calls} calls per cell")
    print("lanes  train_lockstep us/step (q1 median q3)  "
          "evaluate nominal us/step (q1 median q3) steps 1-step-call-us  "
          "evaluate perturbed us/step (q1 median q3) steps 1-step-call-us")
    widest = None  # (lanes, its training call, its median µs per step)
    for n in lane_counts:
        if n > len(bank.bins):
            print(f"{n:>5}  skipped: the bank holds {len(bank.bins)} bins")
            continue
        bins, goals = bank.bins[:n], bank.goals[:n, :args.rounds]
        poses = [GoalPose(position=g[:3], direction=g[3:]) for g in bank.goals[:n, 0]]
        run_train = partial(episode.train_lockstep, bins, goals, args.seed, cfg.hyper, **specs)
        train, _ = step_quartiles(run_train, args.calls)
        if widest is None or n > widest[0]:
            widest = n, run_train, train[1]
        cells = []
        for plant_kind in ("nominal", "perturbed"):
            greedy = partial(evalrun.evaluate, table, poses, repetitions=1,
                             plant_kind=plant_kind, perturbed_cfg=cfg.perturbed, seed=args.seed,
                             **specs)
            quartiles, steps = step_quartiles(greedy, args.calls)
            setup = statistics.median(call_times(partial(greedy, max_steps=1), args.calls))
            cells.append(" ".join(f"{x:7.1f}" for x in quartiles) + f" {steps:5d} {setup:7.1f}")
        print(f"{n:>5}  " + " ".join(f"{x:7.1f}" for x in train)
              + "".join("       " + cell for cell in cells))
    if widest is None:
        print("train_lockstep stages: skipped, no lane count ran")
        return 0
    n, run_train, unwrapped = widest
    steps = count_steps(run_train)
    calls = [stage_seconds(run_train) for _ in range(args.calls)]
    per_step = {label: statistics.median(c[label] for c in calls) * 1e6 / steps
                for label in calls[0]}
    wrapped = statistics.median(sum(c.values()) for c in calls) * 1e6 / steps
    print(f"train_lockstep stages at {n} lanes, us per step (median of {args.calls} calls); "
          f"the timing wrappers add overhead: {wrapped:.1f} us per wrapped step "
          f"against {unwrapped:.1f} unwrapped")
    for label, us in per_step.items():
        print(f"  {label:<18} {us:7.1f}")
    perturbed = evalrun.perturbed_plant(cfg.arm, cfg.perturbed, args.seed)
    for plant_kind, params in (("nominal", cfg.arm), ("perturbed", perturbed.true_params)):
        cost = lattice_cost(params, cfg.action, args.calls)
        print(f"segment lattice, {plant_kind} plant: {cost}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
