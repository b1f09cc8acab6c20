"""The benchmark measuring itself: repeated whole sets of runs.

``run.py --aa K`` runs the four workloads K times at one seed, each
run a fresh process exactly as the driver starts it, and prints per
(workload, metric) the K values, the largest pairwise gap as a share of
their median, and the metric's bound from BENCHMARK.json; it exits
non-zero if a gap exceeds its bound.  ``run.py --spread K`` does the
same over K consecutive seeds and reports the distance between the
first and third quartile as a share of the median — the spread the
driver computes before it accepts the benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

#: Metrics that are counts or sizes, not timings: at one seed they must
#: repeat bit for bit (``--aa`` fails otherwise).
EXACT = {
    "bytes_per_key", "disk_bytes_per_key",
    "core.engine.window_mean", "core.engine.fixup_rate",
    "families.pgm.segments", "families.pgm.window_mean",
    "families.pgm.bytes_per_key", "families.rs.segments",
    "families.rs.window_mean", "families.rs.bytes_per_key",
    "lsm.store.seals", "lsm.store.merges", "lsm.store.write_amplification",
    "lsm.store.runs_after_write", "lsm.store.runs_probed_per_key",
    "lsm.store.negative_probes_eliminated", "lsm.bloom.fpr_observed",
    "serving.coalescer.mean_batch", "serving.coalescer.ticks",
}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def one_run(args, workload: str, seed: int) -> dict:
    """Last stdout line of one fresh ``run.py`` process, parsed."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", args.workdir,
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run.py failed on {workload} (exit {done.returncode})")
    return json.loads(lines[-1])


def run_sets(args) -> int:
    contract = load_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in contract[kind]]
    workloads = (
        [args.workload] if args.workload
        else [w["name"] for w in contract["workloads"]]
    )
    sets = args.aa or args.spread
    seeds = [args.seed + (k if args.spread else 0) for k in range(sets)]
    values: dict = {(w, m): [] for w in workloads for m in names}
    failed = 0
    for k, seed in enumerate(seeds):
        for w in workloads:
            result = one_run(args, w, seed)
            failed += result["failed"]
            for m in names:
                values[w, m].append(result["metrics"][m]["value"])
            print(f"set {k + 1}/{sets} seed {seed} {w}: "
                  f"attempted {result['attempted']} failed {result['failed']}",
                  flush=True)

    label = "gap" if args.aa else "iqr"
    print(f"\n| workload | metric | median | {label} | bound | values |")
    print("|---|---|---|---|---|---|")
    over = []
    for (w, m), vals in values.items():
        median = statistics.median(vals)
        if args.aa:
            width = max(vals) - min(vals)
        else:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            width = q3 - q1
        share = width / abs(median) if median else 0.0
        bound = bounds.get(m)
        shown = " ".join(f"{v:.6g}" for v in vals)
        print(f"| {w} | {m} | {median:.6g} | {share:.2%} | "
              f"{'' if bound is None else format(bound, '.1%')} | {shown} |")
        # setup_s is gated on its medians only, never on its spread
        if bound is not None and share > bound and not (
                args.spread and m == "setup_s"):
            over.append(f"OVER BOUND: {w} {m}: {share:.2%} > {bound:.1%}")
        if args.aa and m in EXACT and len(set(vals)) > 1:
            over.append(f"NOT EXACT: {w} {m}: {shown}")
    print("\n".join(over))
    print(f"failed operations: {failed}")
    return 1 if over or failed else 0
