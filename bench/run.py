#!/usr/bin/env python3
"""fcmax benchmark: likelihood pretraining and consistency fine-tuning, timed.

    python3 bench/run.py --workload fcm_finetune --seed 7 --seconds 8 --trace 0

One run sets the workload up three times (the median is ``setup_s``), then
repeats the timed training call and the eval block from the same start
model until ``--seconds`` have passed, and reports medians.  Times are
normalised to a reference machine speed (``clock.py``); the wall-clock
figures are in the metadata line.  Every repeat
must give the same checkpoint and quality bits; ``fcm_remote`` must also
match a local-scorer run of the same seed.  With ``--trace 1`` repeats
alternate between untraced and traced, and the per-layer metrics of the
traced ones are reported instead.  ``--workload all`` runs every workload in
a fresh process and checks ``fcm_remote`` against ``fcm_finetune``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when the run is correct.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from clock import Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
WORKLOADS = ("ce_pretrain", "fcm_finetune", "fcm_remote")
END_TO_END = (
    ("setup_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("eval_utts_per_s", "utt/s"),
    ("test_wer", "ratio"),
    ("test_consistency", "ratio"),
    ("summary_consistency", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own tests")
    return ap.parse_args(argv)


def run_metadata(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        # The ceiling stops git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Outcome:
    """What one run measured and found; reps that raised are not kept."""

    setup_s: list = dataclasses.field(default_factory=list)
    plain: list = dataclasses.field(default_factory=list)
    traced: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    n_test: int = 0
    clock: Clock = dataclasses.field(default_factory=Clock)


def measure(args, wl, tracer) -> Outcome:
    """Set up three times, repeat until --seconds have passed, then check outputs."""
    size = wl.SIZES[args.size]
    out = Outcome()
    setup = None
    try:
        for _ in range(SETUP_REPEATS):
            fresh, interval = out.clock.timed(wl.set_up, args.workload, size, args.seed,
                                              tracer)
            out.setup_s.append(interval)
            if setup is not None:
                if fresh.digest != setup.digest:
                    out.problems.append("set-up is not deterministic: corpus or start model "
                                        "differs")
                wl.stop_service(setup.service)
            setup = fresh
        out.n_test = len(setup.test.samples)

        def one_rep(trace: bool, scorer=None, eval_repeats: int = wl.EVAL_REPEATS):
            """A timed repeat; an exception counts as a failed operation."""
            base = scorer if scorer is not None else setup.scorer
            counter = wl.CountingScorer(tracer.scorer_fn(base.fn) if trace else base.fn)
            run_scorer = dataclasses.replace(base, fn=counter)
            out.attempted += 1
            rep = None
            try:
                if trace:
                    tracer.new_run()
                    with tracer.installed():
                        rep = wl.run_rep(args.workload, setup, size, args.seed, run_scorer,
                                         out.clock, 1)
                else:
                    rep = wl.run_rep(args.workload, setup, size, args.seed, run_scorer,
                                     out.clock, eval_repeats)
            except Exception:
                out.failed += 1
                traceback.print_exc()
            out.attempted += counter.calls
            out.failed += counter.errors
            if rep is not None:
                out.attempted += rep.samples + len(rep.eval_s) * out.n_test
            return rep

        deadline = time.perf_counter() + args.seconds
        while True:
            rep = one_rep(False)
            if rep is not None:
                out.plain.append(rep)
            if tracer is not None:
                rep = one_rep(True)
                if rep is not None:
                    out.traced.append(rep)
            if time.perf_counter() >= deadline or not (out.plain or out.traced):
                break

        reps = out.plain + out.traced
        if not reps:
            out.problems.append("every repeat raised")
            return out
        outputs = {(r.checkpoint, q) for r in reps for q in r.qualities}
        if len(outputs) > 1:
            out.problems.append("repeats of one seed differ in checkpoint or quality bits")
        if args.workload == "fcm_remote":
            local = one_rep(False, setup.local_scorer, eval_repeats=1)
            if local is None:
                out.problems.append("the local-scorer reference run raised")
            elif (local.checkpoint, local.qualities[0]) not in outputs:
                out.problems.append("remote-scorer run differs from the local-scorer run")
        q = reps[0].qualities[0]
        if not (0.0 <= q.test_wer < float("inf") and 0.0 <= q.test_consistency <= 1.0
                and 0.0 <= q.summary_consistency <= 1.0):
            out.problems.append(f"quality out of range: {q}")
        return out
    finally:
        if setup is not None:
            wl.stop_service(setup.service)


def run_workload(args) -> int:
    import workloads as wl
    from tracer import Tracer, per_layer_metric_names

    tracer = Tracer() if args.trace else None
    out = measure(args, wl, tracer)
    reps = out.plain + out.traced

    def timings(seconds) -> dict[str, float]:
        """Median set-up time and rates, with seconds() turning an Interval to seconds."""
        return {
            "setup_s": statistics.median(seconds(s) for s in out.setup_s),
            "train_samples_per_s": statistics.median(r.samples / seconds(r.train_s)
                                                     for r in out.plain),
            "eval_utts_per_s": statistics.median(out.n_test / seconds(t)
                                                 for r in out.plain for t in r.eval_s),
        }

    meta = run_metadata(args.seed)
    meta.update(workload=args.workload, size=args.size, trace=args.trace,
                repeats=len(out.plain), traced_repeats=len(out.traced))
    if reps:
        meta.update(checkpoint=reps[0].checkpoint,
                    quality=dataclasses.asdict(reps[0].qualities[0]),
                    guard_tripped=reps[0].guard_tripped)
    if out.plain:
        meta.update(wall_clock=timings(lambda iv: iv.wall), machine_speed=out.clock.speed())
    if tracer is not None:
        meta["missing_layers"] = tracer.missing

    metrics: dict[str, dict] = {}
    if tracer is None and out.plain:
        q = out.plain[0].qualities[0]
        values = timings(out.clock.seconds)
        values.update(
            test_wer=q.test_wer,
            test_consistency=q.test_consistency,
            summary_consistency=q.summary_consistency,
            ok_share=1.0 - out.failed / max(out.attempted, 1),
            peak_rss_mb=peak_rss_mb(),
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    elif tracer is not None and out.plain and out.traced:
        values = tracer.layer_metrics()
        plain, traced = (statistics.median(r.samples / out.clock.seconds(r.train_s)
                                           for r in group)
                         for group in (out.plain, out.traced))
        values["trace.overhead_pct"] = 100.0 * (plain / traced - 1)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_metric_names()}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", meta)
    correct = not out.problems and bool(metrics)

    for p in out.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {args.workload:<13} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, then fcm_remote against fcm_finetune."""
    correct, attempted, failed = True, 0, 0
    metrics: dict[str, dict] = {}
    metas: dict[str, dict] = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"CHECK FAILED: {workload} printed no result", file=sys.stderr)
            correct = False
            continue
        metas[workload] = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")),
                               {})
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    local, remote = metas.get("fcm_finetune", {}), metas.get("fcm_remote", {})
    same = [(local.get(k), remote.get(k)) for k in ("checkpoint", "quality")]
    if any(a is None or a != b for a, b in same):
        print("CHECK FAILED: fcm_remote and fcm_finetune differ in checkpoint or quality",
              file=sys.stderr)
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fcmax" / "__init__.py").is_file():
        print(f"error: no fcmax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    # The scorer service is on loopback; never route it through a proxy.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    import fcmax

    if SRC not in Path(fcmax.__file__).resolve().parents:
        print(f"error: fcmax imported from {fcmax.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
