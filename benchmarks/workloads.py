"""The benchmark's workloads and the inputs each seed selects.

Each workload is one call through a public entry point of gpdiag
(`recipes.run_recipe` or `sweep.run_sweep`).  A seed selects one input
variant, (gamma2, gamma3), by `seed % len(VARIANTS)`; variant 0 is the
program's default and reproduces the frozen figure inputs exactly.  Every
variant has stored reference outputs, so every seed is gated.

Why these three (see README.md for the layer map):
- concurrence_map: fig3b at 101 x 101, all steady-state kernel plus
  concurrence and no geometric phase; the largest steady-state share.
- gp_paths: fig5 at the default 601 samples, five tracked paths; the
  workload where the gp layer carries the most weight.
- gp_grid_parallel: a 601 x 8 scheme-I sweep of purity, concurrence,
  gamma_g and dgamma at jobs = nproc; the sweep engine and its process pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import gpdiag.recipes as recipes
import gpdiag.sweep as sweep

VARIANTS = ((6.0, 1.0), (5.5, 0.75))

_GRID_CONFIG = """\
[sweep]
scheme = I
outputs = purity, concurrence, gamma_g, dgamma
path = grid.csv
gamma2 = {gamma2!r}
gamma3 = {gamma3!r}

[axis1]
parameter = delta1
start = -3
stop = 3
samples = {samples1}

[axis2]
parameter = omega1
start = 2
stop = 6
samples = {samples2}
"""


def variant_for(seed: int) -> int:
    return seed % len(VARIANTS)


def _concurrence_map(out_dir, gamma2, gamma3, jobs, full=True):
    recipes.run_recipe("fig3b", out_dir, samples=101 if full else 5, jobs=jobs,
                       gamma2=gamma2, gamma3=gamma3)


def _gp_paths(out_dir, gamma2, gamma3, jobs, full=True):
    recipes.run_recipe("fig5", out_dir, samples=601 if full else 11, jobs=jobs,
                       gamma2=gamma2, gamma3=gamma3)


def _gp_grid(out_dir, gamma2, gamma3, jobs, full=True):
    text = _GRID_CONFIG.format(gamma2=gamma2, gamma3=gamma3,
                               samples1=601 if full else 11, samples2=8 if full else 2)
    sweep.run_sweep(sweep.parse_config(text), out_dir, jobs=jobs)


@dataclass(frozen=True)
class Workload:
    """`run(out_dir, gamma2, gamma3, jobs, full)`; full=False is a small warm-up of the same code."""

    run: Callable
    points: int
    parallel: bool

    def jobs(self, nproc: int) -> int:
        # one process pool with at most nproc workers, and none idle
        return min(nproc, 8) if self.parallel else 1


WORKLOADS = {
    "concurrence_map": Workload(_concurrence_map, 101 * 101, parallel=False),
    "gp_paths": Workload(_gp_paths, 5 * 601, parallel=False),
    "gp_grid_parallel": Workload(_gp_grid, 601 * 8, parallel=True),
}
