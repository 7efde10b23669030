"""Frozen figure recipes, one CSV per panel.

Recipe parameters that are free choices (grid windows, the drive strength of
the derivative-surface maps, the fluctuation-map window) are frozen here and
recorded in a sidecar <id>_meta.json for transparency.  Every recipe except
fig4 is a table of sweep columns evaluated by sweep._column_outputs.  All
outputs are deterministic for a given sample count, independent of the worker
count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gpdiag.cascade import DEFAULT_GAMMA2, DEFAULT_GAMMA3_REAL, SystemParams, steady_state
from gpdiag.gp import PathSpec, UndefinedPhaseError, fix_global_phase, gp_derivative, pancharatnam_phase, unwrap_phases
from gpdiag.ideal import taylor_gp
from gpdiag.linops import DegenerateSteadyStateError, NoSteadyStateError, hermitian_eig
from gpdiag.photons import atomic_to_photon
from gpdiag.sweep import _column_outputs, grid_rows, map_columns, write_tables

# fewest samples per axis of each recipe; fig4 and fig5 differentiate along it,
# which takes 3 points
MIN_SAMPLES = {"fig2": 2, "fig3a": 2, "fig3b": 2, "fig4": 3, "fig5": 3, "fig6": 2}
RECIPE_IDS = tuple(MIN_SAMPLES)

# eigenvalue curves: (scheme tag, omega1, omega2)
_FIG2_COMBOS = (("ii", 6.0, 6.0), ("i", 6.0, 6.0), ("ii", 3.0, 6.0), ("i", 3.0, 6.0))
_FIG2_DELTA = (-6.0, 6.0)

_FIG3_DELTA = (-6.0, 6.0)
_FIG3_DOMEGA = (-4.0, 4.0)
_FIG3_OMEGA2 = 6.0

# derivative-surface windows around (delta_bar = 0, X0); the drive strength is
# chosen so the closed-form slope contrast between the windows is resolved
_FIG4_OMEGA2 = 2.0
_FIG4_DELTA = (-0.5, 0.5)
_FIG4_DX = (-0.3, 0.3)
_FIG4_DX_SAMPLES = 13
_FIG4_WINDOWS = (("separable", 0.0), ("bell", math.pi / 4.0))

# gamma_g(delta1) sweeps: (panel tag, omega1, omega2, delta2)
_FIG5_SETS = (
    ("ab", 6.0, 6.0, 0.0),
    ("cd", 3.0, 6.0, 0.0),
    ("ef", 6.0, 3.0, 0.0),
    ("gh", 6.0, 6.0, 3.0),
    ("ij", 1.5, 6.0, 0.0),
)
_FIG5_DELTA1 = (-3.0, 3.0)

# stability map: fluctuations applied to the (6, 6) sweep of fig5 panel a
_FIG6_DFLUCT = (-2.0, 2.0)
_FIG6_OMFLUCT = (-1.0, 1.0)
_FIG6_GRID = 21
_FIG6_OMEGA2 = 6.0


@dataclass
class RecipeResult:
    files: list = field(default_factory=list)
    undefined_points: int = 0


def _write_meta(out_dir: Path, recipe_id: str, meta: dict) -> Path:
    path = out_dir / f"{recipe_id}_meta.json"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# Each recipe returns (tables, meta): one (file name, header, *grid_rows(...))
# table per CSV, and the sidecar written as <id>_meta.json.

# ---------------------------------------------------------------------------
# fig2: steady-state eigenvalues vs two-photon detuning


def _run_fig2(samples, jobs, gamma2, gamma3):
    deltas = np.linspace(*_FIG2_DELTA, samples)
    payloads = [(PathSpec(SystemParams(o1, o2, 0.0, 0.0, gamma2, 0.0 if tag == "ii" else gamma3),
                          "delta1", *_FIG2_DELTA, samples), ("eigenvalues",))
                for tag, o1, o2 in _FIG2_COMBOS]
    columns = map_columns(_column_outputs, payloads, jobs)
    tables = [(f"fig2_{tag}_{o1:g}_{o2:g}.csv", ["delta", "lambda1", "lambda2", "lambda3"],
               *grid_rows(deltas, [None], [column]))
              for (tag, o1, o2), column in zip(_FIG2_COMBOS, columns)]
    meta = {
        "recipe": "fig2",
        "delta_range": list(_FIG2_DELTA),
        "delta_is": "delta1 (delta2 = 0)",
        "samples": samples,
        "combos": [{"scheme": t, "omega1": o1, "omega2": o2} for t, o1, o2 in _FIG2_COMBOS],
        "gamma2": gamma2,
        "gamma3_scheme_i": gamma3,
    }
    return tables, meta


# ---------------------------------------------------------------------------
# fig3: concurrence over (two-photon detuning, omega1 - omega2)


def _run_fig3(recipe_id, samples, jobs, gamma2, gamma3):
    scheme = "II" if recipe_id == "fig3a" else "I"
    g3 = 0.0 if scheme == "II" else gamma3
    deltas = np.linspace(*_FIG3_DELTA, samples)
    doms = np.linspace(*_FIG3_DOMEGA, samples)
    payloads = [(PathSpec(SystemParams(_FIG3_OMEGA2 + dom, _FIG3_OMEGA2, 0.0, 0.0, gamma2, g3),
                          "delta1", *_FIG3_DELTA, samples), ("concurrence",))
                for dom in doms]
    table = grid_rows(deltas, doms, map_columns(_column_outputs, payloads, jobs))
    meta = {
        "recipe": recipe_id,
        "scheme": scheme,
        "delta_range": list(_FIG3_DELTA),
        "delta_is": "delta1 (delta2 = 0)",
        "omega1_minus_omega2_range": list(_FIG3_DOMEGA),
        "omega2": _FIG3_OMEGA2,
        "samples_per_axis": samples,
        "gamma2": gamma2,
        "gamma3": g3,
    }
    return [(f"{recipe_id}.csv", ["delta", "omega1_minus_omega2", "concurrence"], *table)], meta


# ---------------------------------------------------------------------------
# fig4: derivative of the near-resonance phase over (delta offset, dX offset)


def _fig4_ideal_column(x0, dx, gamma2, deltas):
    g21 = gamma2 * math.cos(x0) / (2.0 * _FIG4_OMEGA2)
    gammas = unwrap_phases([taylor_gp(x0, d, dx, g21) for d in deltas])
    return [[v] for v in gp_derivative(gammas, deltas[1] - deltas[0])]


def _fig4_dominant_vector(p: SystemParams) -> np.ndarray:
    """Dominant eigenvector of the photon steady state, in the |00>-component gauge."""
    rho = atomic_to_photon(steady_state(p))
    return fix_global_phase(hermitian_eig(rho).eigenvectors[:, -1], pivot=0)


def _fig4_numeric_column(x0, dx, gamma2, gamma3, deltas, ref):
    x = x0 + dx
    if x < 0.0 or x >= math.pi / 2.0 - 1e-12:
        return [[None]] * len(deltas)
    o1 = math.tan(x) * _FIG4_OMEGA2
    w = math.hypot(o1, _FIG4_OMEGA2)
    gammas = []
    for d in deltas:
        p = SystemParams(o1, _FIG4_OMEGA2, d * w, 0.0, gamma2, gamma3)
        try:
            gammas.append(pancharatnam_phase(ref, _fig4_dominant_vector(p)))
        except (DegenerateSteadyStateError, NoSteadyStateError, UndefinedPhaseError):
            gammas.append(None)
    if any(g is None for g in gammas):
        return [[None]] * len(deltas)
    gammas = unwrap_phases(gammas)
    return [[v] for v in gp_derivative(gammas, deltas[1] - deltas[0])]


def _run_fig4(samples, jobs, gamma2, gamma3):
    deltas = np.linspace(*_FIG4_DELTA, samples)
    dxs = np.linspace(*_FIG4_DX, _FIG4_DX_SAMPLES)
    tables = []
    for window, x0 in _FIG4_WINDOWS:
        payloads = [(x0, dx, gamma2, deltas) for dx in dxs]
        surfaces = {"ideal": map_columns(_fig4_ideal_column, payloads, jobs)}
        for variant, g3 in (("scheme2", 0.0), ("scheme1", gamma3)):
            base = SystemParams(math.tan(x0) * _FIG4_OMEGA2, _FIG4_OMEGA2, 0.0, 0.0, gamma2, g3)
            ref = _fig4_dominant_vector(base)
            payloads = [(x0, dx, gamma2, g3, deltas, ref) for dx in dxs]
            surfaces[variant] = map_columns(_fig4_numeric_column, payloads, jobs)
        for variant, columns in surfaces.items():
            tables.append((f"fig4_{window}_{variant}.csv", ["delta_offset", "dX", "dgamma_dDelta"],
                           *grid_rows(deltas, dxs, columns)))
    meta = {
        "recipe": "fig4",
        "windows": {w: x0 for w, x0 in _FIG4_WINDOWS},
        "delta_offset_range": list(_FIG4_DELTA),
        "dX_range": list(_FIG4_DX),
        "delta_samples": samples,
        "dX_samples": _FIG4_DX_SAMPLES,
        "omega2": _FIG4_OMEGA2,
        "gamma2": gamma2,
        "gamma3_scheme1": gamma3,
        "variants": {
            "ideal": "closed-form second-order expansion at the window base point",
            "scheme2": "two-point phase of the dominant eigenvector of the ideal-system "
                       "steady state vs the window base state, |00>-component gauge",
            "scheme1": "same construction for the real system (emitted for inspection)",
        },
        "note": "dgamma_dDelta is d(phase)/d(delta_bar) along the delta axis at fixed dX",
    }
    return tables, meta


# ---------------------------------------------------------------------------
# fig5: gamma_g and its derivative along delta1


def _run_fig5(samples, jobs, gamma2, gamma3):
    deltas = np.linspace(*_FIG5_DELTA1, samples)
    payloads = [(PathSpec(SystemParams(o1, o2, 0.0, d2, gamma2, gamma3), "delta1", *_FIG5_DELTA1, samples),
                 ("gamma_g", "dgamma"))
                for _, o1, o2, d2 in _FIG5_SETS]
    columns = map_columns(_column_outputs, payloads, jobs)
    tables = [(f"fig5_{tag}.csv", ["delta1", "gamma_g", "dgamma"], *grid_rows(deltas, [None], [column]))
              for (tag, *_), column in zip(_FIG5_SETS, columns)]
    meta = {
        "recipe": "fig5",
        "scheme": "I",
        "delta1_range": list(_FIG5_DELTA1),
        "samples": samples,
        "panels": [{"file": f"fig5_{t}.csv", "omega1": o1, "omega2": o2, "delta2": d2}
                   for t, o1, o2, d2 in _FIG5_SETS],
        "gamma2": gamma2,
        "gamma3": gamma3,
        "anchor": "gamma_g = 0 at delta1 = -3",
    }
    return tables, meta


# ---------------------------------------------------------------------------
# fig6: stability of the full-sweep gamma_g under parameter fluctuations


def _run_fig6(samples, jobs, gamma2, gamma3):
    doms = np.linspace(*_FIG6_OMFLUCT, _FIG6_GRID)
    dfls = np.linspace(*_FIG6_DFLUCT, _FIG6_GRID)
    payloads = [(PathSpec(SystemParams(_FIG6_OMEGA2 + dom, _FIG6_OMEGA2, 0.0, dfl, gamma2, gamma3),
                          "delta1", *_FIG5_DELTA1, samples), ("gamma_g",))
                for dom in doms for dfl in dfls]
    # a cell is the endpoint gamma_g of its delta1 column; cells[i_dom][i_dfl]
    ends = [column[-1][0] for column in map_columns(_column_outputs, payloads, jobs)]
    cells = [ends[i:i + _FIG6_GRID] for i in range(0, len(ends), _FIG6_GRID)]
    base = cells[_FIG6_GRID // 2][_FIG6_GRID // 2]  # the unperturbed reference at (0, 0)
    if base is None or abs(base) < 1e-12:
        raise NoSteadyStateError("fig6 reference sweep produced no usable gamma_g")
    columns = [[[None if g is None else (g - base) / abs(base) * 100.0] for g in column]
               for column in cells]
    table = grid_rows(dfls, doms, columns)
    meta = {
        "recipe": "fig6",
        "cell": "percent change of the endpoint gamma_g of the delta1 in [-3, 3] sweep "
                "(omega1 = omega2 = 6 reference, scheme I) when omega1 -> 6 + x and "
                "the two-photon detuning is offset through delta2 = y",
        "delta_fluctuation_range": list(_FIG6_DFLUCT),
        "omega_fluctuation_range": list(_FIG6_OMFLUCT),
        "grid": [_FIG6_GRID, _FIG6_GRID],
        "path_samples": samples,
        "gamma2": gamma2,
        "gamma3": gamma3,
        "reference_gamma_g": base,
    }
    return [("fig6.csv", ["delta", "omega1_minus_omega2", "gamma_g_change_percent"], *table)], meta


def run_recipe(recipe_id: str, out_dir, samples: int = 601, jobs: int = 1,
               gamma2: float = DEFAULT_GAMMA2, gamma3: float = DEFAULT_GAMMA3_REAL) -> RecipeResult:
    """Execute a figure recipe; returns the written files and undefined-point count.

    Raises NoSteadyStateError when no point of the recipe produced a value.
    """
    if recipe_id not in RECIPE_IDS:
        raise ValueError(f"unknown recipe {recipe_id!r}; expected one of {RECIPE_IDS}")
    if samples < MIN_SAMPLES[recipe_id]:
        raise ValueError(f"{recipe_id} needs samples >= {MIN_SAMPLES[recipe_id]}, got {samples}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if recipe_id in ("fig3a", "fig3b"):
        tables, meta = _run_fig3(recipe_id, samples, jobs, gamma2, gamma3)
    else:
        run = {"fig2": _run_fig2, "fig4": _run_fig4, "fig5": _run_fig5, "fig6": _run_fig6}[recipe_id]
        tables, meta = run(samples, jobs, gamma2, gamma3)
    files, undefined = write_tables(out_dir, tables, "recipe")
    return RecipeResult(files + [_write_meta(out_dir, recipe_id, meta)], undefined)
