"""Regenerate the gate's reference outputs from the current sources.

    python3 benchmarks/make_reference.py

Runs every workload on every input variant once and stores its CSVs, gzipped,
under benchmarks/reference/<workload>/variant<k>/.  Only rerun this when a
change to the outputs is intended and reported.
"""

from __future__ import annotations

import gzip
import shutil
import sys

from run import ROOT, bootstrap

if __name__ == "__main__":
    bootstrap()
    from harness import REFERENCE
    from workloads import VARIANTS, WORKLOADS

    scratch = ROOT / ".bench_out" / "make-reference"
    for name, workload in WORKLOADS.items():
        for variant, gammas in enumerate(VARIANTS):
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            workload.run(scratch, *gammas, 1)
            target = REFERENCE / name / f"variant{variant}"
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for csv_path in sorted(scratch.glob("*.csv")):
                # mtime=0 keeps the gzip bytes a function of the CSV alone
                with gzip.GzipFile(target / f"{csv_path.name}.gz", "wb", mtime=0) as out:
                    out.write(csv_path.read_bytes())
            print(f"{name} variant {variant} (gamma2, gamma3) = {gammas}: "
                  f"{len(list(target.iterdir()))} files", file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
