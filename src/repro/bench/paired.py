"""Paired runs of the end-to-end benchmark: this tree against a git ref.

    python -m repro.bench.paired --ref <git-ref> [--workload W] [--pairs K]
                                 [--seed S] [--smoke]

checks ``<git-ref>`` out with ``git worktree add`` into a temporary
directory, then runs ``benchmarks/e2e/run.py`` as a child process in
the ref's tree (side A) and in this working tree (side B), ``K`` pairs
in A B B A order, so neither side always runs first on a warm or a
cold host.  It parses the JSON object each run prints last, and prints
per metric the median of the ``K`` paired ratios B / A, a 95%
percentile-bootstrap interval of that median, and in how many pairs B
was lower, stamped with the host's CPU count, Python and NumPy, both
commits and the start time.  The worktree is removed at the end.  The
benchmark is only ever run, never imported or edited.

It exits non-zero if a run fails or answers wrongly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from .tables import Table

__all__ = ["main", "summarize"]

#: Bootstrap resamples behind each interval, and the seed of their draw.
BOOTSTRAP_RESAMPLES = 2000
_BOOTSTRAP_SEED = 20180611


def _git(tree: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", tree, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def run_once(tree: str, args, workdir: str) -> dict:
    """The last stdout line of one ``run.py`` process in ``tree``,
    parsed."""
    command = [
        sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", workdir,
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run.py failed in {tree} (exit {done.returncode})")
    return json.loads(lines[-1])


def summarize(pairs) -> list[dict]:
    """One row per metric both runs of every pair report: ``metric``,
    ``unit``, ``median`` (of the paired ratios B / A), ``low`` and
    ``high`` (the 2.5th and 97.5th percentiles of that median over
    :data:`BOOTSTRAP_RESAMPLES` draws of the pairs with replacement),
    ``lower`` (pairs where B's value is below A's) and ``pairs``.
    ``pairs`` is a list of ``(a, b)`` records as ``run.py`` prints
    them; a ratio over an A value of 0 is 1 where B is 0 too and
    infinite otherwise."""
    names = [
        name for name in pairs[0][0]["metrics"]
        if all(name in a["metrics"] and name in b["metrics"] for a, b in pairs)
    ]
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    draws = rng.integers(0, len(pairs), (BOOTSTRAP_RESAMPLES, len(pairs)))
    rows = []
    for name in names:
        a = np.array([p[0]["metrics"][name]["value"] for p in pairs], float)
        b = np.array([p[1]["metrics"][name]["value"] for p in pairs], float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(a == 0, np.where(b == 0, 1.0, np.inf), b / a)
        medians = np.median(ratios[draws], axis=1)
        low, high = np.percentile(  # sample values: no inf - inf
            medians, [2.5, 97.5], method="inverted_cdf"
        )
        rows.append({
            "metric": name,
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "median": float(np.median(ratios)),
            "low": float(low),
            "high": float(high),
            "lower": int(np.count_nonzero(b < a)),
            "pairs": len(pairs),
        })
    return rows


def render(rows, title: str) -> str:
    table = Table(title, ["metric", "unit", "B/A median", "95% CI", "B lower"])
    for row in rows:
        table.add_row(
            row["metric"], row["unit"], f"{row['median']:.3f}",
            f"[{row['low']:.3f}, {row['high']:.3f}]",
            f"{row['lower']}/{row['pairs']}",
        )
    return table.render()


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True,
                        help="the git ref side A checks out")
    parser.add_argument("--workload", default="uniform_mixed",
                        help="the benchmark workload both sides run")
    parser.add_argument("--pairs", type=int, default=5,
                        help="paired runs, in A B B A order")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated inputs, both sides")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-sized runs: checks, not numbers")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if args.pairs < 1:
        raise SystemExit("--pairs must be at least 1")
    started = time.strftime("%Y-%m-%d %H:%M:%S %Z")
    tree = _git(os.getcwd(), "rev-parse", "--show-toplevel")
    ref_commit = _git(
        tree, "rev-parse", "--short=12", f"{args.ref}^{{commit}}"
    )
    commit = _git(tree, "rev-parse", "--short=12", "HEAD")
    if _git(tree, "status", "--porcelain", "--untracked-files=no"):
        commit += " + uncommitted changes"
    scratch = tempfile.mkdtemp(prefix="paired-")
    ref_tree = os.path.join(scratch, "ref")
    _git(tree, "worktree", "add", "--detach", ref_tree, ref_commit)
    try:
        pairs, bad = [], []
        for i in range(args.pairs):
            sides = {}
            for side in ("AB" if i % 2 == 0 else "BA"):
                where = ref_tree if side == "A" else tree
                sides[side] = run_once(
                    where, args, os.path.join(scratch, f"work-{side}")
                )
                if sides[side]["failed"] or not sides[side]["correct"]:
                    bad.append(f"pair {i + 1} side {side}")
            pairs.append((sides["A"], sides["B"]))
    finally:
        _git(tree, "worktree", "remove", "--force", ref_tree)
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"started {started}; {os.cpu_count()} CPUs, Python "
          f"{platform.python_version()}, NumPy {np.__version__}")
    print(f"A: {args.ref} = {ref_commit}")
    print(f"B: {commit}")
    print(render(summarize(pairs), (
        f"{args.workload}, seed {args.seed}, {args.pairs} pairs"
        f"{' (smoke)' if args.smoke else ''}: B / A, paired"
    )))
    if bad:
        print(f"failed or wrong answers: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
