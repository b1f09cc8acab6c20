"""Learned LSM storage engine (Appendix D.1 at system scale).

Tiered immutable sorted runs, each indexed by a vectorized RMI and
guarded by a bloom filter, behind an O(1) memtable and size-tiered
compaction — the Bigtable-shaped insert design the paper sketches,
composed from the repo's learned-index substrate.
"""

from .compaction import SizeTieredCompaction, merge_runs
from .faultfs import RealFileSystem, flip_byte
from .format import CorruptRunError
from .manifest import MANIFEST_NAME, commit_manifest, load_manifest
from .memtable import Memtable
from .run import SortedRun
from .store import LearnedLSMStore, LSMReadStats, LSMWriteStats
from .wal import WriteAheadLog

__all__ = [
    "CorruptRunError",
    "LearnedLSMStore",
    "LSMReadStats",
    "LSMWriteStats",
    "MANIFEST_NAME",
    "Memtable",
    "RealFileSystem",
    "SortedRun",
    "SizeTieredCompaction",
    "WriteAheadLog",
    "commit_manifest",
    "flip_byte",
    "load_manifest",
    "merge_runs",
]
