"""Benchmark of the hpnarm stack: pretrain, evaluation and augmentation workloads.

    python3 perfbench/run.py --workload pretrain_default --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller on one worker: one call into
the package completes before the next starts. Set-up runs in fresh processes
(perfbench/prepare.py) and is timed as `setup_s`. The timed part repeats until
--seconds have passed and at least the plan's minimum repetitions are done;
`wall_s` is the median repetition. With --trace 1 the run makes two untraced
repetitions and one traced one and reports per-layer metrics instead.

The last line of standard output is the result as one JSON object; the line
before it records the host, versions and source the result came from. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import spans

HERE = Path(__file__).resolve().parent
SCRATCH = layers.ROOT / ".perfbench_tmp"
SETUP_TIMEOUT_S = 150
clock = time.perf_counter


class Ledger:
    """Operations attempted and failed; an exception or a failed check fails one."""

    def __init__(self):
        self.attempted: list[str] = []
        self.failed: list[str] = []

    def attempt(self, unit: str, fn, *args):
        self.attempted.append(unit)
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(unit, "raised")
            return None

    def expect(self, unit: str, ok: bool, what: str) -> None:
        if not ok:
            self.fail(unit, what)

    def fail(self, unit: str, what: str) -> None:
        print(f"perfbench: {unit}: {what}", file=sys.stderr)
        if unit not in self.failed:
            self.failed.append(unit)


@dataclass
class Rep:
    """One timed repetition: its wall time and the outputs other runs must match."""

    wall: float
    key: object                 # equal across repetitions and traced/untraced runs
    quality: dict | None = None  # eval quality, when the repetition evaluated
    table: Path | None = None    # table whose quality the workload reports


@dataclass
class Bench:
    mods: dict
    plan: layers.Plan
    seed: int
    work: Path
    ledger: Ledger
    table: Path | None = None   # the default table built in set-up
    goals: list | None = None


# -- workloads -----------------------------------------------------------------
# A repetition runs its timed part inside `timed()`, which is a traced region on
# the traced repetition, and checks its outputs outside it. The first
# repetition of a run checks them in depth; every later one must reproduce its
# outputs exactly (Rep.key), which keeps the untimed share of a run small.

def pretrain_rep(b: Bench, unit: str, i: int, timed) -> Rep:
    path = b.work / f"pretrain-{i}.hpnq"
    with timed():
        t0 = clock()
        table, _ = layers.build_table(b.mods, b.plan.cfg, b.seed, path)
        wall = clock() - t0
    if i == 0:
        digest = layers.table_digest(table)
        del table
        b.ledger.expect(unit, layers.table_digest(b.mods["qtable"].load(path)) == digest,
                        "saved table does not load back equal")
    return Rep(wall, layers.file_sha256(path), table=path)


def eval_rep(b: Bench, unit: str, i: int, timed) -> Rep:
    qtable, evalrun = b.mods["qtable"], b.mods["evalrun"]
    out = b.work / f"eval-{i}"
    with timed():
        t0 = clock()
        table = qtable.load(b.table)
        wall = clock() - t0
    before = layers.table_digest(table) if i == 0 else None
    with timed():
        t0 = clock()
        reports = layers.evaluate_both(b.mods, b.plan.cfg, table, b.goals)
        written = {p: evalrun.write_report_csvs(r, out / p) for p, r in reports.items()}
        wall += clock() - t0
    if i == 0:
        b.ledger.expect(unit, layers.table_digest(table) == before,
                        "evaluation changed the table")
    rows = b.plan.cfg.eval.max_steps + 2  # header, then steps 0..max_steps
    for plant, paths in written.items():
        b.ledger.expect(unit, len(paths) == len(b.goals) + 1,
                        f"{plant}: {len(paths)} CSVs for {len(b.goals)} goals")
        b.ledger.expect(unit, len(paths[-1].read_text().splitlines()) == rows,
                        f"{plant}: aggregate CSV is not {rows} lines")
    shutil.rmtree(out)
    q = layers.quality(reports)
    return Rep(wall, tuple(sorted(q.items())), quality=q)


def augment_rep(b: Bench, unit: str, i: int, timed) -> Rep:
    qtable = b.mods["qtable"]
    with timed():
        t0 = clock()
        table = qtable.load(b.table)
        wall = clock() - t0
    trained = layers.table_digest(table, qtable.FLAG_TRAINED) if i == 0 else None
    shas = []
    for radius in (1, 2):
        path = b.work / f"augment-{i}-r{radius}.hpnq"
        with timed():
            t0 = clock()
            augmented = qtable.augment(table, radius)
            qtable.save(augmented, path)
            loaded = qtable.load(path)
            wall += clock() - t0
        if i == 0:
            b.ledger.expect(unit, layers.table_digest(loaded) == layers.table_digest(augmented),
                            f"radius {radius}: saved table does not load back equal")
            b.ledger.expect(unit, layers.table_digest(augmented, qtable.FLAG_TRAINED) == trained,
                            f"radius {radius}: augmentation changed a trained entry")
        del augmented, loaded
        shas.append(layers.file_sha256(path))
    return Rep(wall, tuple(shas), table=path)


WORKLOADS = {
    "pretrain_default": pretrain_rep,
    "eval_sweep": eval_rep,
    "augment_sweep": augment_rep,
}


# -- the run -------------------------------------------------------------------

def set_up(b: Bench, workload: str) -> list[float]:
    """Time each fresh-process set-up.

    pretrain_default's set-up is a cold start, repeated. The other workloads
    build the default table once (a build takes as long as a timed pretrain),
    and that table serves the run.
    """
    builds = workload != "pretrain_default"
    times = []
    for i in range(1 if builds else b.plan.cold_setups):
        unit = f"setup {i}"
        cmd = [sys.executable, str(HERE / "prepare.py"),
               "--workload", workload, "--seed", str(b.seed)]
        if builds:
            b.table = b.work / "default.hpnq"
            cmd += ["--out", str(b.table)]
        cmd += ["--smoke"] if b.plan.smoke else []
        b.ledger.attempted.append(unit)
        t0 = clock()
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            b.ledger.fail(unit, f"took over {SETUP_TIMEOUT_S} s")
            continue
        times.append(clock() - t0)
        b.ledger.expect(unit, proc.returncode == 0, f"exited with {proc.returncode}")
    return times


def measure(b: Bench, rep, seconds: float) -> list[Rep]:
    """Untraced repetitions until `seconds` have passed and the minimum is done."""
    reps = []
    start = clock()
    i = 0
    while i < b.plan.min_reps or clock() - start < seconds:
        unit = f"rep {i}"
        r = b.ledger.attempt(unit, rep, b, unit, i, contextlib.nullcontext)
        if r is not None:
            reps.append(r)
            b.ledger.expect(unit, r.key == reps[0].key, "outputs differ from the first rep's")
        i += 1
    return reps


def table_quality(b: Bench, path: Path) -> dict:
    table = b.mods["qtable"].load(path)
    return layers.quality(layers.evaluate_both(b.mods, b.plan.cfg, table, b.goals))


def run(b: Bench, workload: str, seconds: float, trace: bool) -> tuple[dict, dict]:
    """All metrics of one run, plus a record of how they were measured."""
    rep = WORKLOADS[workload]
    setup_times = set_up(b, workload)
    b.goals = layers.eval_goals(b.mods, b.plan, b.seed)
    metrics = {"setup_s": statistics.median(setup_times)} if setup_times else {}

    if trace:
        # The first repetition warms the process up and runs the deep checks;
        # the overhead compares the next two, one untraced and one traced.
        tracer = spans.Tracer(b.mods)
        kinds = (("warm-up", contextlib.nullcontext), ("untraced", contextlib.nullcontext),
                 ("traced", tracer.active))
        reps = [b.ledger.attempt(f"{kind} rep", rep, b, f"{kind} rep", i, timed)
                for i, (kind, timed) in enumerate(kinds)]
        metrics.update(tracer.layer_metrics())
        if None not in reps:
            _, untraced, traced = reps
            b.ledger.expect("untraced rep", untraced.key == reps[0].key,
                            "outputs differ from the first rep's")
            b.ledger.expect("traced rep", traced.key == reps[0].key,
                            "traced outputs differ from the untraced run's")
            metrics["trace.untraced_wall_s"] = untraced.wall
            metrics["trace.wall_s"] = traced.wall
            metrics["trace.overhead_s"] = traced.wall - untraced.wall
    else:
        reps = measure(b, rep, seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if reps:
            metrics["wall_s"] = statistics.median(r.wall for r in reps)

    # Quality numbers are per-layer metrics: untraced runs of workloads that do
    # not evaluate skip the untimed evaluation they would need.
    first = reps[0] if reps else None
    if first is not None and first.quality is None and trace:
        first.quality = b.ledger.attempt("quality", table_quality, b, first.table)
    quality = first.quality if first is not None else None
    metrics.update(quality or {})
    record = {
        "setup_times_s": setup_times,
        "walls_s": [r.wall for r in reps if r is not None],
        "quality": quality,
        "operations": b.ledger.attempted,
        "failed_operations": b.ledger.failed,
    }
    return metrics, record


def provenance() -> dict:
    """Host, versions and the source a result was measured on."""
    sha = dirty = None
    if (layers.ROOT / ".git").exists():
        git = ["git", "-C", str(layers.ROOT)]
        try:
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=60).stdout.strip() or None
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=60)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(layers.SRC.rglob("*.py")):
        src.update(str(path.relative_to(layers.SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": src.hexdigest(),
    }


def select(metrics: dict, declared: list[dict], complete: bool) -> dict:
    """The declared metrics with their units; a missing one is a harness bug
    unless an operation failed, in which case it reads 0."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and complete:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configuration that proves the harness runs; not for timing")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        mods = layers.import_layers()
        spec = json.loads((layers.ROOT / "BENCHMARK.json").read_text())
    except (layers.SetupError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot benchmark this directory: {exc}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    ledger = Ledger()
    bench = Bench(mods, layers.make_plan(mods, args.smoke), args.seed, work, ledger)
    try:
        metrics, record = run(bench, args.workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not ledger.failed,
        "attempted": len(ledger.attempted),
        "failed": len(ledger.failed),
        "metrics": select(metrics, declared, complete=not ledger.failed),
    }
    print(json.dumps({"provenance": provenance(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, **record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
