"""gpdiag benchmark entry point.

Run from the repository root:

    python3 benchmarks/run.py --workload concurrence_map --seed 0 --seconds 30 --trace 0

See README.md in this directory for the workloads and metrics.  Exits with
code 1 and prints no result when the checkout holds no gpdiag sources.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS to one thread before numpy loads, and import gpdiag from this checkout's src/."""
    if not (SRC / "gpdiag" / "__init__.py").is_file():
        sys.exit(f"benchmark: no gpdiag sources at {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    bootstrap()
    from harness import main

    sys.exit(main())
