#!/usr/bin/env python3
"""Benchmark of the sapt sampler, end to end and layer by layer.

    python3 perfbench/run.py --workload iris-lg --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from a checkout of the repository. --trace 0 measures the
end-to-end metrics with tracing off; --trace 1 makes the traced
sequential run and prints the per-layer metrics. The metric names and
units are the ones BENCHMARK.json at the checkout root lists. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --workload all runs every workload with
both settings, each in a process of its own, and prints all of it.

The sampler starts its replicas with the spawn method, which imports
this file again in every worker. So this file imports only the
standard library at the top, everything else inside main(), and main()
runs only under the __main__ guard.
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
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="iris-lg, cancer-surrogate, synth-large or all")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; makes every input (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep repeating operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def sub_seeds(workload, seed: int) -> list:
    """The sampler and split seeds one run uses, all made from --seed.

    They are 10 apart because the sampler seeds its replicas, swaps and
    surrogate with base_seed + 0 .. replicas + 1: sub-seeds 1 apart
    would share replica streams and pool fewer independent chains.
    """
    return [seed * 1000 + 10 * k for k in range(workload.seeds_per_run)]


def prepare_inputs(workload, seed: int, work: Path):
    """Write the synthetic CSV when the workload needs one; its path."""
    from workloads import write_teacher_csv
    if workload.dataset != "synth":
        return None
    path = work / "synth.csv"
    write_teacher_csv(seed, path)
    return path


def exploit_ess(chain) -> float:
    """Median bulk ESS over parameters, one chain per replica."""
    import numpy as np
    from ess import median_bulk_ess
    return median_bulk_ess(np.stack([t.samples[t.exploit_start:]
                                     for t in chain.traces]))


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest child's.

    The sampler's worker processes all live at once and are alike, so
    this bounds their joint peak from above; 0 workers leaves only the
    benchmark process itself.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


class Loop:
    """Counts operations and decides when a run has measured enough.

    The first `minimum` operations always run, however long they take;
    they make the figures that do not depend on time (ESS, accuracy,
    the digest checks). Further operations start only while less than
    `seconds` have passed. Slowness therefore shows as time, never as a
    failed operation: an operation fails only when it raises or fails a
    check.
    """

    def __init__(self, seconds: float, minimum: int):
        self.seconds = seconds
        self.minimum = minimum
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def more(self) -> bool:
        elapsed = time.perf_counter() - self.start
        if self.attempted < self.minimum:
            return True
        if self.attempted == self.minimum and elapsed > self.seconds:
            print(f"the {self.minimum} required operations took "
                  f"{elapsed:.1f} s, more than --seconds {self.seconds:g}",
                  file=sys.stderr)
        return elapsed < self.seconds

    def fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        print(f"{what} failed: {exc!r}", file=sys.stderr)


def measure_end_to_end(workload, seed, seconds, work):
    """-> (metrics, loop)."""
    from pipeline import OutputError, run_operation
    from workloads import REPLICAS

    csv_path = prepare_inputs(workload, seed, work)
    seeds = sub_seeds(workload, seed)
    times = {"setup_s": [], "sample_s": [], "run_s": []}
    # every seed once, then one repeat to check the digest
    loop = Loop(seconds, len(seeds) + 1)
    digests, accuracy, ess = {}, {}, {}
    while loop.more():
        s = seeds[loop.attempted % len(seeds)]
        loop.attempted += 1
        try:
            op = run_operation(workload, csv_path, s, workload.sequential,
                               work / "out")
            if digests.setdefault(s, op.digest) != op.digest:
                raise OutputError(f"chain digest of seed {s} changed between "
                                  f"runs")
            if s not in accuracy:
                ess[s] = exploit_ess(op.chain)
                accuracy[s] = op.test_accuracy
        except Exception as exc:  # counted, reported, and the run goes on
            loop.fail(f"operation {loop.attempted} (seed {s})", exc)
            continue
        for name in times:
            times[name].append(getattr(op, name))
    if not accuracy:
        return {}, loop
    steps = REPLICAS * workload.steps_per_replica
    sample_s = statistics.median(times["sample_s"])
    ess_bulk = statistics.median(ess.values())
    metrics = {
        "setup_s": statistics.median(times["setup_s"]),
        "sample_s": sample_s,
        "run_s": statistics.median(times["run_s"]),
        "steps_per_s": statistics.median(steps / t for t in times["sample_s"]),
        "ess_bulk": ess_bulk,
        "ess_per_s": ess_bulk / sample_s,
        "test_accuracy": statistics.fmean(accuracy.values()),
        "peak_rss_mb": peak_rss_mb(0 if workload.sequential else REPLICAS),
    }
    return metrics, loop


def measure_layers(workload, seed, seconds, work):
    """Rounds of: the workload's own schedule (when it is multiprocess),
    an untraced sequential run, and a traced sequential run, all on the
    first sub-seed. -> (metrics, loop); the per-layer metrics come from
    the traced run with the median traced sample_s."""
    from pipeline import OutputError, output_bytes, run_operation
    from tracing import Tracer, layer_metrics

    csv_path = prepare_inputs(workload, seed, work)
    s = sub_seeds(workload, seed)[0]
    kinds = ["sequential", "traced"]
    if not workload.sequential:
        kinds.insert(0, "schedule")
    out = work / "out"
    loop = Loop(seconds, 2 * len(kinds))
    sample_s = {kind: [] for kind in kinds}
    traced = []
    digest = None
    while loop.more():
        kind = kinds[loop.attempted % len(kinds)]
        loop.attempted += 1
        try:
            if kind == "traced":
                tracer = Tracer()
                with tracer.installed():
                    op = run_operation(workload, csv_path, s, True, out)
                metrics = layer_metrics(tracer, op, not workload.sequential)
                metrics["diagnostics.bytes_written"] = output_bytes(out)
                metrics["diagnostics.test_accuracy"] = op.test_accuracy
                traced.append(metrics)
            else:
                sequential = kind == "sequential" or workload.sequential
                op = run_operation(workload, csv_path, s, sequential, out)
            digest = digest or op.digest
            if op.digest != digest:
                raise OutputError(f"{kind} chain digest differs from the "
                                  f"first run of seed {s}")
        except Exception as exc:  # counted, reported, and the run goes on
            loop.fail(f"{kind} operation {loop.attempted}", exc)
            continue
        sample_s[kind].append(op.sample_s)
    if not traced or not sample_s["sequential"]:
        return {}, loop
    traced.sort(key=lambda m: m["trace.sample_s"])
    metrics = traced[(len(traced) - 1) // 2]
    untraced = statistics.median(sample_s["sequential"])
    metrics["trace.overhead_frac"] = \
        statistics.median(sample_s["traced"]) / untraced - 1.0
    metrics["orchestrator.schedule_excess_s"] = 0.0 if workload.sequential \
        else statistics.median(sample_s["schedule"]) - untraced
    return metrics, loop


def result_line(spec_metrics, metrics: dict, loop) -> dict:
    """The final JSON object; every listed metric with its unit."""
    listed = {m["name"]: m["unit"] for m in spec_metrics}
    if metrics and set(metrics) != set(listed):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(listed) - set(metrics))}, unlisted "
            f"{sorted(set(metrics) - set(listed))}")
    return {
        "correct": loop.failed == 0 and bool(metrics),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in listed.items() if name in metrics},
    }


def print_table(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:<38} {metric['value']:>16.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0
    print(f"  {'error_rate':<38} {rate:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")


def run_one(args, spec) -> int:
    from machine import facts
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("machine " + json.dumps(facts(ROOT)), flush=True)
        if args.trace:
            measure = measure_layers
        else:
            measure = measure_end_to_end
        metrics, loop = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = result_line(spec["per_layer" if args.trace else "end_to_end"],
                         metrics, loop)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print_table(result)
    print(json.dumps(result))
    return 0 if metrics else 1


def run_all(args, workload_names) -> int:
    """Every workload, end to end and traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    status = 0
    for name in workload_names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or proc.returncode
            if proc.returncode or not lines:
                correct = False
                continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{key}": value
                            for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker helper and wait for it.

    The spawn start method starts this helper with the first worker. On
    its own it ends only after this process has exited, so it would
    outlive the benchmark; closing its pipe ends it now.
    """
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run_main(argv)
    finally:
        stop_resource_tracker()


def run_main(argv) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sapt" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"error: {ROOT} is not a checkout of sapt (src/sapt/ and "
              f"BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
