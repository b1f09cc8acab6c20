#!/usr/bin/env python3
"""The repository's benchmark: one workload, end to end or traced.

    python3 benchmarks/e2e/run.py --workload uniform --seed 1 --seconds 20 --trace 0

generates the workload from its seed, drives the whole stack through
its public functions, checks every answer, and prints every metric by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` runs
the per-layer measurements instead (layers.py).  ``--aa K`` and
``--spread K`` repeat whole sets to measure the benchmark's own noise
(aa.py).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# numpy's BLAS/OpenMP pools would borrow the second core during seals
# (process time measured ~2x wall), which a shared box does not
# guarantee: pin them to one thread before numpy is imported.  Shard
# workers inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The program's own switches are the benchmark's to set, not the shell's:
# telemetry off (the traced run turns it on where it measures it), and
# compaction mode chosen per store.
os.environ["REPRO_OBS"] = "0"
os.environ["REPRO_LSM_BACKGROUND"] = "0"


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time the measured phases may spread over")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="n = 20 000, 3 repetitions: checks, not numbers")
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".bench_work"),
                        help="parent of this run's scratch directory")
    parser.add_argument("--aa", type=int, metavar="K", default=0,
                        help="run K full sets at one seed; gaps against bounds")
    parser.add_argument("--spread", type=int, metavar="K", default=0,
                        help="run K sets at K seeds; quartile spread per metric")
    parser.add_argument("--supervised", action="store_true",
                        help=argparse.SUPPRESS)  # set by supervise() only
    return parser.parse_args(argv)


def print_metrics(name: str, metrics: dict) -> None:
    for key, m in metrics.items():
        line = f"{name:15s} {key:34s} {m['value']:>16.6g} {m['unit']}"
        if m.get("n", 1) > 1:
            line += (f"   [median {m['median']:.6g}, q1 {m['q1']:.6g}, "
                     f"q3 {m['q3']:.6g}, n={m['n']}]")
        print(line)


def run_workload(args, name: str) -> dict:
    from workloads import FULL, SMOKE, WORKLOADS, smoke_sized

    w = WORKLOADS[name]
    scale = FULL
    if args.smoke:
        w, scale = smoke_sized(w), SMOKE
    workdir = os.path.join(args.workdir, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            from layers import run_layers

            metrics, tally, spans = run_layers(
                w, scale, args.seed, args.seconds, workdir)
            spans.dump(os.path.join(args.workdir, f"spans-{name}.json"))
        else:
            from phases import run_end_to_end

            metrics, tally = run_end_to_end(
                w, scale, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not args.trace:
            try:
                os.rmdir(args.workdir)  # unless another run is using it
            except OSError:
                pass
    print_metrics(name, metrics)
    for failure in tally.first_failures:
        print(f"{name:15s} FAILED {failure}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }


def host_block() -> dict:
    import platform

    import numpy

    try:  # the driver's checkout is not a git repository
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
            # do not look for a repository above the checkout
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def wait_for_descendants(pgid: int, grace_s: float = 20.0) -> None:
    """Reap every child of this process, adopted orphans included, and
    return once none is left and process group ``pgid`` is empty.
    What is still there after ``grace_s`` is killed."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0]:
                continue  # reaped one; look for the next
        except ChildProcessError:
            try:  # no child left; without the subreaper orphans are not ours
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
        if time.monotonic() > deadline:
            if killed:  # unkillable, or an orphan nobody reaps
                return
            killed, deadline = True, time.monotonic() + grace_s
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.005)


def supervise(argv) -> int:
    """Run the benchmark as a child in a process group of its own and
    return only when every process it started has ended and been reaped.

    The run starts shard workers, and multiprocessing starts a resource
    tracker beside them which exits only *after* its parent has and then
    waits as a zombie for init: a process that outlives a bare ``main()``
    (and, after a crash, the workers might).  As subreaper this process
    adopts such orphans, so whoever waits for it is promised that nothing
    it started is left."""
    def interrupted(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    try:
        import ctypes

        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: wait_for_descendants polls the group instead
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--supervised", *argv],
        start_new_session=True)
    try:
        return child.wait()
    except BaseException:  # SIGTERM, ctrl-C: take the run down with us
        try:
            os.killpg(child.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        raise
    finally:
        wait_for_descendants(child.pid)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = parse_args(argv)
    if args.aa or args.spread:
        from aa import run_sets

        return run_sets(args)
    from workloads import WORKLOADS

    print("host " + json.dumps(host_block()))
    names = [args.workload] if args.workload else list(WORKLOADS)
    failed = 0
    for name in names:
        result = run_workload(args, name)
        failed += result["failed"]
        print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if "--supervised" in sys.argv[1:]:
        sys.exit(main())
    sys.exit(supervise(sys.argv[1:]))
