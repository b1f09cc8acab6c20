"""Smoke test of the benchmark: ``run.py --smoke`` on all four workloads,
untraced and traced.  It checks the contract, not the numbers: every
metric BENCHMARK.json names is printed exactly once with a finite
value, no operation fails, the engine's stage timings account for the
whole call, and nothing outlives the run — no store directory, no
shared-memory segment, no worker process.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SHM = "/dev/shm"


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _shm_segments() -> set:
    return set(os.listdir(SHM)) if os.path.isdir(SHM) else set()


def _processes_left(mark: str, session: int) -> list:
    """What is left of a run started with ``E2E_SMOKE_RUN=mark`` as
    leader of ``session``: the processes that inherited the mark, and
    the members of the session, zombies (which have no environment to
    read) included."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/environ", "rb") as handle:
                marked = f"E2E_SMOKE_RUN={mark}".encode() in handle.read()
            with open(f"/proc/{pid}/stat") as handle:
                # "pid (comm) state ppid pgrp session ..."
                state, _, _, sid = handle.read().rpartition(")")[2].split()[:4]
            if marked or int(sid) == session:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    command = handle.read().replace(b"\0", b" ").decode()
                found.append(f"{pid} {state} {command}")
        except OSError:  # gone meanwhile, or not ours to read
            pass
    return found


def test_smoke_runs_every_workload_both_ways(tmp_path):
    contract = _contract()
    workloads = [w["name"] for w in contract["workloads"]]
    before = _shm_segments()
    runs = {}
    for trace in (0, 1):
        workdir = tmp_path / f"trace{trace}"
        # output goes to files: a pipe would be held open by, and so make
        # us wait for, the very stragglers the test is looking for
        with open(tmp_path / f"out{trace}", "w") as out, \
                open(tmp_path / f"err{trace}", "w") as err:
            runs[trace] = (workdir, subprocess.Popen(
                [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                 "--seconds", "0", "--trace", str(trace),
                 "--workdir", str(workdir)],
                stdout=out, stderr=err, start_new_session=True,
                env={**os.environ, "E2E_SMOKE_RUN": f"{os.getpid()}-{trace}"},
            ))
    for trace, (workdir, process) in runs.items():
        process.wait(timeout=170)
        # the moment it has exited, nothing it started is left
        left = _processes_left(f"{os.getpid()}-{trace}", process.pid)
        assert left == [], left
        out = (tmp_path / f"out{trace}").read_text()
        err = (tmp_path / f"err{trace}").read_text()
        assert process.returncode == 0, out + err
        kind = "per_layer" if trace else "end_to_end"
        wanted = {m["name"]: m["unit"] for m in contract[kind]}
        results = [json.loads(line) for line in out.splitlines()
                   if line.startswith('{"correct"')]
        assert len(results) == len(workloads)
        for name, result in zip(workloads, results):
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            got = result["metrics"]
            assert set(got) == set(wanted), set(got) ^ set(wanted)
            for metric, unit in wanted.items():
                assert got[metric]["unit"] == unit, metric
                assert math.isfinite(got[metric]["value"]), metric
                printed = [line for line in out.splitlines()
                           if line.split()[:2] == [name, metric]]
                assert len(printed) == 1, (name, metric)
            if trace:
                # 0.85-1.15 at full size; 2 000-key smoke calls carry
                # more per-call bookkeeping than the stages show
                assert 0.5 < got["core.engine.stage_cover"]["value"] < 1.5

        # nothing outlives the run
        left = [p for p in workdir.rglob("*") if p.is_dir()] if (
            workdir.exists()) else []
        assert left == [], left
    assert _shm_segments() <= before, _shm_segments() - before


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and benchmarks/e2e
    there is no program to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
