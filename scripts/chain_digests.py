#!/usr/bin/env python3
"""Check that a base git ref and the working tree sample the same chains.

    python3 scripts/chain_digests.py BASE_REF

The base ref (git archive) and the working tree's tracked files, as they
are on disk, are copied into .bench_build/digests/. Each copy runs the
fixed matrix of configurations below with its own sapt and perfbench.
For every configuration the script prints five hashes per side:

* chain: perfbench's chain digest of every replica's samples and
  log-likelihood trace;
* surrogate: every trace's surrogate steps, estimates and truths;
* report: the report.txt lines without blanks and without the
  elapsed_seconds and elapsed_minutes lines. Only the lines whose key
  both sides write are hashed, sorted, so a line that moved is still
  equal; keys that one side alone writes (a report schema change) are
  listed after the table and not compared;
* data: the bytes of the teacher CSV that the copy's save_csv wrote,
  then the train and test features, labels, one-hot targets and class
  counts the run sampled from;
* outputs: the name and bytes of every file that emit_posterior (at
  the CLI's thin 10) and write_surrogate_trace write for the run.

It exits 1 if any hash differs or a side fails to run, and removes the
copies on the way out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_base, export_working_tree

DIGESTS_DIR = ROOT / ".bench_build" / "digests"
HASHES = ("chain", "surrogate", "report", "data", "outputs")

# (label, workload or "nine-class", sub-seed, SamplerConfig overrides);
# the sub-seeds are those perfbench/run.py makes from --seed 1 and 5, and
# nine-class samples with iris-lg's settings plus its overrides
MATRIX = [
    *[(f"{name}/{s}", name, s, {})
      for name in ("iris-lg", "cancer-surrogate") for s in (1000, 1010, 5000)],
    ("synth-large/1000", "synth-large", 1000, {}),
    # drift with the surrogate off at >= LONG_ROWS rows; at the default
    # h = 0.02 no drift step is accepted at 12000 rows, so the gradient's
    # bits would never reach the chain
    ("synth-lg/1000", "synth-large", 1000,
     {"lg_prob": 0.5, "lg_learning_rate": 1e-4, "surrogate_prob": 0.0}),
    *[(f"cancer-lg-surrogate/interval{interval}", "cancer-surrogate", 1000,
       {"lg_prob": 0.5, "surrogate_interval": interval})
      for interval in (50, 150)],
    ("nine-class/lg_prob1", "nine-class", 1000,
     {"lg_prob": 1.0, "surrogate_prob": 0.5}),
    # 2010 steps per replica: the last block has 10 steps, then a refit
    ("cancer-surrogate/remainder-block", "cancer-surrogate", 1000,
     {"total_samples": 4 * 2010}),
    # nearly every step takes the surrogate path, so most intervals stage
    # no true-likelihood rows and skip training (33 of 40; 7 refit)
    ("cancer-surrogate/prob0.999", "cancer-surrogate", 1000,
     {"surrogate_prob": 0.999}),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="git ref of the base side")
    parser.add_argument("--checkout", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.base is None) == (args.checkout is None):
        parser.error("give BASE_REF")
    return args


def nine_class_inputs(seed: int):
    """180 rows of 4 features over 9 classes, the point above 8 classes
    where the likelihood kernel's row-sum order changes."""
    import numpy as np
    from sapt import bnn, data
    rng = np.random.default_rng(5)
    labels = np.arange(180) % 9
    features = rng.normal(size=(180, 4)) + 0.3 * labels[:, None]
    full = data.make_dataset(features, labels, 9, name="nine-class")
    train, test = data.split(full, 0.6, seed=seed)
    return train, test, bnn.NetworkTopology(4, 5, 9), (16, 8)


def run_matrix(checkout: Path) -> None:
    """Print one JSON line of hashes per configuration, sampled with the
    sapt and perfbench of checkout."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import dataclasses

    import numpy as np
    import pipeline
    import workloads
    from sapt import diagnostics, orchestrator, tempering

    if not Path(orchestrator.__file__).resolve().is_relative_to(checkout):
        raise RuntimeError(f"sapt imported from {orchestrator.__file__}")
    with tempfile.TemporaryDirectory() as work:
        synth_csv = Path(work) / "synth.csv"
        workloads.write_teacher_csv(1, synth_csv)
        csv_hash = hashlib.sha256(synth_csv.read_bytes())
        for label, name, seed, overrides in MATRIX:
            if name == "nine-class":
                workload = workloads.WORKLOADS["iris-lg"]
                train, test, topology, hidden = nine_class_inputs(seed)
            else:
                workload = workloads.WORKLOADS[name]
                train, test, topology, hidden = pipeline.setup(
                    workload, synth_csv, seed)
            config = pipeline.sampler_config(workload, seed,
                                             workload.sequential, hidden)
            overrides = dict(overrides)
            proposal = {key: overrides.pop(key)
                        for key in ("lg_prob", "lg_learning_rate")
                        if key in overrides}
            if proposal:
                overrides["proposal"] = tempering.ProposalConfig(
                    kind=tempering.KIND_LANGEVIN_MIX, **proposal)
            config = dataclasses.replace(config, **overrides)
            chain, report = orchestrator.run(config, train, topology)
            summary = diagnostics.posterior_accuracy(
                chain, train, test, topology, thin=pipeline.THIN,
                elapsed_seconds=report.elapsed_seconds)
            lines = diagnostics.compose_report(report, summary).splitlines()
            text = [line for line in lines
                    if line and not line.startswith(("elapsed_seconds ",
                                                     "elapsed_minutes "))]
            data = csv_hash.copy()
            for side in (train, test):
                for values in (side.features, side.labels, side.one_hot,
                               side.class_count):
                    data.update(np.ascontiguousarray(values).tobytes())
            surrogate = hashlib.sha256()
            for trace in chain.traces:
                for values in (trace.surrogate_steps,
                               trace.surrogate_estimates,
                               trace.surrogate_truths):
                    surrogate.update(np.ascontiguousarray(values).tobytes())
            out_dir = Path(work) / label
            written = diagnostics.emit_posterior(chain, out_dir,
                                                 thin=pipeline.THIN)
            written.append(out_dir / "surrogate_trace.csv")
            diagnostics.write_surrogate_trace(chain, written[-1])
            outputs = hashlib.sha256()
            for path in written:
                outputs.update(path.name.encode() + b"\0")
                outputs.update(path.read_bytes())
            shutil.rmtree(out_dir)
            print(json.dumps({
                "label": label,
                "chain": pipeline.chain_digest(chain),
                "surrogate": surrogate.hexdigest(),
                "report": text,
                "data": data.hexdigest(),
                "outputs": outputs.hexdigest(),
            }), flush=True)


def report_key(line: str) -> str:
    return line.split(" ", 1)[0]


def hash_shared_reports(base: dict, change: dict) -> set:
    """Replace both sides' report lines by a hash of the sorted lines
    whose key both write; returns the (side, key) pairs that only one
    side writes."""
    keys = {side: {report_key(line) for line in row["report"]}
            for side, row in (("base", base), ("change", change))}
    shared = keys["base"] & keys["change"]
    for row in (base, change):
        row["report"] = hashlib.sha256("\n".join(sorted(
            line for line in row["report"]
            if report_key(line) in shared)).encode()).hexdigest()
    return {(side, key) for side in keys for key in keys[side] - shared}


def side_hashes(checkout: Path) -> dict | None:
    """{label: hashes} of one copy, or None if its run failed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--checkout", str(checkout)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        print(f"{checkout.name}: exit {proc.returncode}")
        return None
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    return {row["label"]: row for row in rows}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.checkout is not None:
        run_matrix(args.checkout.resolve())
        return 0
    sides = {"base": DIGESTS_DIR / "base", "change": DIGESTS_DIR / "change"}
    shutil.rmtree(DIGESTS_DIR, ignore_errors=True)
    try:
        for path in sides.values():
            path.mkdir(parents=True)
        export_base(args.base, sides["base"])
        export_working_tree(sides["change"])
        hashes = {side: side_hashes(path) for side, path in sides.items()}
        if None in hashes.values():
            return 1
        ok = True
        one_sided = set()
        for label, *_ in MATRIX:
            base, change = hashes["base"][label], hashes["change"][label]
            one_sided |= hash_shared_reports(base, change)
            differ = [h for h in HASHES if base[h] != change[h]]
            ok = ok and not differ
            print(f"{label:<44} " + " ".join(
                f"{h} {base[h][:10]}/{change[h][:10]}" for h in HASHES)
                + ("  equal" if not differ
                   else f"  DIFFER: {', '.join(differ)}"))
        for side, key in sorted(one_sided):
            print(f"report key only on the {side} side, not compared: {key}")
        print(f"base {args.base}: {'all equal' if ok else 'mismatch'}")
        return 0 if ok else 1
    finally:
        shutil.rmtree(DIGESTS_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
