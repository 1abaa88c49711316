#!/usr/bin/env python3
"""The borngen benchmark: full training passes, timed end to end and, in a
separate traced pass, layer by layer.

Run from the root of a checkout that holds `src/borngen`:

    python3 perfbench/run.py --workload small --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # each workload in its own process
    python3 perfbench/run.py --acceptance          # pinned configs, full length

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
Standard output starts with the environment as one JSON line, then one
line per metric with its unit and sample counts; its last line is a JSON
object with the keys correct, attempted, failed and metrics. Each run
repeats passes until `--seconds` is spent and reports medians (the epoch
percentiles are taken over each epoch's median across the passes), with every
time scaled to a reference host speed measured beside the passes (see
calibrate.py; the samples line prints the unscaled medians). Every pass is
checked for correctness after its timed region; a pass that raises or
fails a check counts as failed, and the exit code is still 0: the verdict
is in the result. Exit code 2 means there was no borngen source to run,
and no result is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import env


def _median(values):
    return statistics.median(values) if values else 0.0


def _epoch_profile(passes):
    """Each epoch's median wall time over the passes.

    Every pass of a run trains the same entries for the same number of
    epochs, so epoch i does the same work in each pass. Taking its median
    over the passes keeps that work and drops a burst of host load that
    hits one pass, which a percentile over the pooled epochs would report
    as its tail."""
    return [statistics.median(times) for times in zip(*(p.epoch_seconds for p in passes))]


def _measure(workload, seed, seconds, trace, epochs):
    import numpy as np

    import calibrate
    import workloads as wl

    bench = [(name, epochs or n, seed) for name, n in wl.WORKLOADS[workload].items()]
    reference = [(name, n, wl.REFERENCE_SEEDS[name]) for name, n, _ in bench]
    out = env.ROOT / ".perfbench_tmp" / str(os.getpid())
    passes, walls, problems = {False: [], True: []}, [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    kernel_times = calibrate.sample(workload, 4)[1:]  # the first run warms caches
    try:
        # pass 0 at the reference seeds, then --seed; with --trace 1 every
        # second pass is traced
        while len(walls) < 2 or time.perf_counter() + _median(walls) <= deadline:
            traced = bool(trace) and len(walls) % 2 == 1
            kernel_times += calibrate.sample(workload, 2)  # the host's speed beside each pass
            start = time.perf_counter()
            try:
                p = wl.run_pass(bench if walls else reference, out, traced=traced)
                failures = wl.check_pass(p, oracles=not walls)
            except Exception as exc:  # a raising pass is counted, not fatal
                traceback.print_exc()
                failures = [f"{type(exc).__name__}: {exc}"]
            walls.append(time.perf_counter() - start)
            if failures:
                failed += 1
                problems += failures
            else:
                passes[traced].append(p)
    finally:
        shutil.rmtree(out.parent, ignore_errors=True)

    untraced, traced_passes = passes[False], passes[True]
    for later in untraced + traced_passes:
        # a fixed seed must give the same models on every pass
        same_seed = [p for p in untraced + traced_passes if p.entries == later.entries]
        if later.tvs != same_seed[0].tvs:
            failed += 1
            problems.append(f"TVs differ between passes with seeds {later.entries}")
    for later in traced_passes[1:]:
        first = traced_passes[0].tracer
        if (later.tracer.counts, later.tracer.calls) != (first.counts, first.calls):
            failed += 1
            problems.append("work counts differ between traced passes")

    ref = [p for p in untraced if p.entries == tuple(reference)]
    speed = calibrate.scale(workload, kernel_times)
    notes = {
        "reference_scale": speed,
        "kernel_samples": len(kernel_times),
        "wall_train_s": _median([p.train_s for p in untraced]),
        "wall_run_s": _median([p.run_s for p in untraced]),
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "run_s_per_pass": [round(p.run_s, 4) for p in untraced + traced_passes],
        "epochs_per_pass": len(untraced[0].epoch_seconds) if untraced else 0,
        "epoch_samples": sum(len(p.epoch_seconds) for p in untraced),
    }
    if not trace:
        profile = _epoch_profile(untraced)
        values = {
            "setup_s": speed * _median([p.setup_s for p in untraced]),
            "train_s": speed * _median([p.train_s for p in untraced]),
            "run_s": speed * _median([p.run_s for p in untraced]),
            "epoch_p50_s": speed * float(np.percentile(profile, 50)) if profile else 0.0,
            "epoch_p90_s": speed * float(np.percentile(profile, 90)) if profile else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "tv_max": max(ref[0].tvs.values()) if ref else 0.0,
        }
        units = dict(wl.END_TO_END)
    else:
        values = _layer_metrics(wl, traced_passes, untraced, speed)
        units = {name: unit for name, unit, _ in wl.PER_LAYER}
    result = {
        "correct": failed == 0 and bool(ref),
        "attempted": len(walls),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, notes, problems


def _layer_metrics(wl, traced, untraced, speed):
    values = {}
    if not traced:
        return {name: 0.0 for name, _, _ in wl.PER_LAYER}
    first = traced[0].tracer
    for name, _, source in wl.PER_LAYER:
        span = name.rsplit(".", 1)[0]
        if source == "self":
            values[name] = speed * _median([p.tracer.self_time[span] for p in traced])
        elif source == "calls":
            values[name] = first.calls[span]
        elif source == "count":
            values[name] = first.counts[name]
    calls = first.calls["metrics.mmd_gradient"]
    values["metrics.states_per_gradient"] = (
        first.counts["metrics.gradient_states"] / calls if calls else 0.0
    )
    values["trace.train_s"] = speed * _median([p.train_s for p in traced])
    values["trace.run_s"] = speed * _median([p.run_s for p in traced])
    values["trace.overhead_s"] = values["trace.run_s"] - speed * _median([p.run_s for p in untraced])
    return values


def _acceptance():
    import workloads as wl

    entries = [
        (name, wl.ACCEPTANCE_EPOCHS[name], wl.REFERENCE_SEEDS[name])
        for name in ("exp-1d", "exp-cond", "exp-multi", "gmmd")
    ]
    out = env.ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        p = wl.run_pass(entries, out)
    finally:
        shutil.rmtree(out.parent, ignore_errors=True)
    problems = wl.check_pass(p, oracles=True) + wl.acceptance_failures(p)
    result = {
        "correct": not problems,
        "attempted": 1,
        "failed": int(bool(problems)),
        "metrics": {k: {"value": v, "unit": "fraction"} for k, v in p.tvs.items()},
    }
    return result, {"run_s": p.run_s}, problems


def _all_workloads(args):
    import workloads as wl

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.epochs:
            command += ["--epochs", str(args.epochs)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=args.seconds + 900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 2
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="borngen benchmark")
    parser.add_argument("--workload", choices=("multi", "small", "gmmd", "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--epochs", type=int, default=None, help="override every entry's epochs (smoke tests)")
    parser.add_argument("--acceptance", action="store_true",
                        help="run the acceptance tests' pinned configs at full length and check their tolerances")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or (args.epochs is not None and args.epochs < 1):
        parser.error("--seed and --seconds must be >= 0, --epochs >= 1")

    env.pin_blas_threads()
    try:
        env.use_checkout_source()
    except env.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.acceptance:
        return _all_workloads(args)

    print(json.dumps({"environment": env.environment()}))
    if args.acceptance:
        result, notes, problems = _acceptance()
    else:
        result, notes, problems = _measure(args.workload, args.seed, args.seconds, args.trace, args.epochs)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"samples": notes}))
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
