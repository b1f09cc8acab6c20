#!/usr/bin/env python3
"""Paired runs of the end-to-end benchmark, this tree against a git ref,
from a plain checkout (no install, no ``PYTHONPATH``), as
``benchmarks/e2e/run.py`` runs:

    python3 benchmarks/paired.py --ref <git-ref> [--workload W] [--pairs K]
                                 [--seed S] [--smoke]

It is ``python -m repro.bench.paired`` with this tree's ``src`` on the
path; that module's docstring says what the runs and the table are.
Run it from inside the tree to compare.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench.paired import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
