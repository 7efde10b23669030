"""Frozen figure recipes, one CSV per panel.

Recipe parameters that are free choices (grid windows, the drive strength of
the derivative-surface maps, the fluctuation-map window) are frozen in one
table per recipe, keyed as in its sidecar <id>_meta.json: the recipe reads its
inputs from the table, and run_recipe writes the table, plus the run-time
entries, as the sidecar.  Every recipe except fig4 is a table of delta1
columns evaluated by sweep._column_outputs.  All outputs are deterministic for
a given sample count, independent of the worker count.
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
from gpdiag.linops import NoSteadyStateError, hermitian_eig
from gpdiag.photons import atomic_to_photon
from gpdiag.sweep import _column_outputs, grid_rows, map_columns, write_tables

# fewest samples per axis of each recipe; fig4 and fig5 differentiate along it,
# which takes 3 points; at 2 samples the transport correction cancels the only
# overlap phase, so every fig6 endpoint gamma_g is 0 up to rounding
MIN_SAMPLES = {"fig2": 2, "fig3a": 2, "fig3b": 2, "fig4": 3, "fig5": 3, "fig6": 3}
RECIPE_IDS = tuple(MIN_SAMPLES)


@dataclass
class RecipeResult:
    files: list = field(default_factory=list)
    undefined_points: int = 0


def _delta1_columns(bases, span, samples, outputs, jobs):
    """`outputs` along delta1 over `span` from each base point; returns (delta1 values, columns)."""
    specs = [PathSpec(base, "delta1", *span, samples) for base in bases]
    return specs[0].values(), map_columns(_column_outputs, [(spec, outputs) for spec in specs], jobs)


# Each recipe runs as run(recipe_id, table, samples, jobs, gamma2, gamma3) and
# returns (tables, entries): one (file name, header, *grid_rows(...)) table per
# CSV, and the run-time entries of the sidecar.

# ---------------------------------------------------------------------------
# fig2: steady-state eigenvalues vs two-photon detuning

_FIG2 = {
    "delta_range": (-6.0, 6.0),
    "delta_is": "delta1 (delta2 = 0)",
    "combos": ({"scheme": "ii", "omega1": 6.0, "omega2": 6.0}, {"scheme": "i", "omega1": 6.0, "omega2": 6.0},
               {"scheme": "ii", "omega1": 3.0, "omega2": 6.0}, {"scheme": "i", "omega1": 3.0, "omega2": 6.0}),
}


def _run_fig2(recipe_id, t, samples, jobs, gamma2, gamma3):
    bases = [SystemParams(c["omega1"], c["omega2"], 0.0, 0.0, gamma2, 0.0 if c["scheme"] == "ii" else gamma3)
             for c in t["combos"]]
    deltas, columns = _delta1_columns(bases, t["delta_range"], samples, ("eigenvalues",), jobs)
    tables = [(f"fig2_{c['scheme']}_{c['omega1']:g}_{c['omega2']:g}.csv", ["delta", "lambda1", "lambda2", "lambda3"],
               *grid_rows(deltas, [None], [column]))
              for c, column in zip(t["combos"], columns)]
    return tables, {"samples": samples, "gamma3_scheme_i": gamma3}


# ---------------------------------------------------------------------------
# fig3: concurrence over (two-photon detuning, omega1 - omega2); fig3a is
# scheme II, fig3b scheme I

_FIG3 = {
    "delta_range": (-6.0, 6.0),
    "delta_is": "delta1 (delta2 = 0)",
    "omega1_minus_omega2_range": (-4.0, 4.0),
    "omega2": 6.0,
}


def _run_fig3(recipe_id, t, samples, jobs, gamma2, gamma3):
    g3 = 0.0 if t["scheme"] == "II" else gamma3
    doms = np.linspace(*t["omega1_minus_omega2_range"], samples)
    bases = [SystemParams(t["omega2"] + dom, t["omega2"], 0.0, 0.0, gamma2, g3) for dom in doms]
    deltas, columns = _delta1_columns(bases, t["delta_range"], samples, ("concurrence",), jobs)
    table = grid_rows(deltas, doms, columns)
    return [(f"{recipe_id}.csv", ["delta", "omega1_minus_omega2", "concurrence"], *table)], \
        {"samples_per_axis": samples, "gamma3": g3}


# ---------------------------------------------------------------------------
# fig4: derivative of the near-resonance phase over (delta offset, dX offset)

# derivative-surface windows around (delta_bar = 0, X0); the drive strength is
# chosen so the closed-form slope contrast between the windows is resolved
_FIG4 = {
    "windows": {"separable": 0.0, "bell": math.pi / 4.0},
    "delta_offset_range": (-0.5, 0.5),
    "dX_range": (-0.3, 0.3),
    "dX_samples": 13,
    "omega2": 2.0,
    "variants": {
        "ideal": "closed-form second-order expansion at the window base point",
        "scheme2": "two-point phase of the dominant eigenvector of the ideal-system "
                   "steady state vs the window base state, |00>-component gauge",
        "scheme1": "same construction for the real system (emitted for inspection)",
    },
    "note": "dgamma_dDelta is d(phase)/d(delta_bar) along the delta axis at fixed dX",
}


def _fig4_slopes(gammas, deltas):
    return gp_derivative(unwrap_phases(gammas), deltas[1] - deltas[0])[:, None]


def _fig4_ideal_column(x0, dx, omega2, gamma2, deltas):
    g21 = gamma2 * math.cos(x0) / (2.0 * omega2)
    return _fig4_slopes([taylor_gp(x0, d, dx, g21) for d in deltas], deltas)


def _fig4_dominant_vector(p: SystemParams) -> np.ndarray:
    """Dominant eigenvector of the photon steady state, in the |00>-component gauge."""
    rho = atomic_to_photon(steady_state(p))
    return fix_global_phase(hermitian_eig(rho).eigenvectors[:, -1], pivot=0)


def _fig4_numeric_column(x0, dx, omega2, gamma2, gamma3, deltas):
    x = x0 + dx
    gaps = np.full((len(deltas), 1), np.nan)
    if x < 0.0 or x >= math.pi / 2.0 - 1e-12:
        return gaps
    o1 = math.tan(x) * omega2
    w = math.hypot(o1, omega2)
    try:
        ref = _fig4_dominant_vector(SystemParams(math.tan(x0) * omega2, omega2, 0.0, 0.0, gamma2, gamma3))
        gammas = [pancharatnam_phase(ref, _fig4_dominant_vector(SystemParams(o1, omega2, d * w, 0.0, gamma2, gamma3)))
                  for d in deltas]
    except (NoSteadyStateError, UndefinedPhaseError):
        return gaps
    return _fig4_slopes(gammas, deltas)


def _run_fig4(recipe_id, t, samples, jobs, gamma2, gamma3):
    deltas = np.linspace(*t["delta_offset_range"], samples)
    dxs = np.linspace(*t["dX_range"], t["dX_samples"])
    o2 = t["omega2"]
    tables = []
    for window, x0 in t["windows"].items():
        surfaces = {"ideal": map_columns(_fig4_ideal_column, [(x0, dx, o2, gamma2, deltas) for dx in dxs], jobs)}
        for variant, g3 in (("scheme2", 0.0), ("scheme1", gamma3)):
            payloads = [(x0, dx, o2, gamma2, g3, deltas) for dx in dxs]
            surfaces[variant] = map_columns(_fig4_numeric_column, payloads, jobs)
        for variant, columns in surfaces.items():
            tables.append((f"fig4_{window}_{variant}.csv", ["delta_offset", "dX", "dgamma_dDelta"],
                           *grid_rows(deltas, dxs, columns)))
    return tables, {"delta_samples": samples, "gamma3_scheme1": gamma3}


# ---------------------------------------------------------------------------
# fig5: gamma_g and its derivative along delta1

_FIG5 = {
    "scheme": "I",
    "delta1_range": (-3.0, 3.0),
    "panels": tuple({"file": f"fig5_{tag}.csv", "omega1": o1, "omega2": o2, "delta2": d2} for tag, o1, o2, d2 in (
        ("ab", 6.0, 6.0, 0.0), ("cd", 3.0, 6.0, 0.0), ("ef", 6.0, 3.0, 0.0), ("gh", 6.0, 6.0, 3.0),
        ("ij", 1.5, 6.0, 0.0))),
    "anchor": "gamma_g = 0 at delta1 = -3",
}


def _run_fig5(recipe_id, t, samples, jobs, gamma2, gamma3):
    bases = [SystemParams(p["omega1"], p["omega2"], 0.0, p["delta2"], gamma2, gamma3) for p in t["panels"]]
    deltas, columns = _delta1_columns(bases, t["delta1_range"], samples, ("gamma_g", "dgamma"), jobs)
    tables = [(p["file"], ["delta1", "gamma_g", "dgamma"], *grid_rows(deltas, [None], [column]))
              for p, column in zip(t["panels"], columns)]
    return tables, {"samples": samples, "gamma3": gamma3}


# ---------------------------------------------------------------------------
# fig6: stability of the full-sweep gamma_g of fig5 panel a under parameter
# fluctuations

_FIG6 = {
    "cell": "percent change of the endpoint gamma_g of the delta1 in [-3, 3] sweep "
            "(omega1 = omega2 = 6 reference, scheme I) when omega1 -> 6 + x and "
            "the two-photon detuning is offset through delta2 = y",
    "delta_fluctuation_range": (-2.0, 2.0),
    "omega_fluctuation_range": (-1.0, 1.0),
    "grid": (21, 21),
}


def _run_fig6(recipe_id, t, samples, jobs, gamma2, gamma3):
    n_om, n_dl = t["grid"]
    doms = np.linspace(*t["omega_fluctuation_range"], n_om)
    dfls = np.linspace(*t["delta_fluctuation_range"], n_dl)
    panel = _FIG5["panels"][0]
    bases = [SystemParams(panel["omega1"] + dom, panel["omega2"], 0.0, dfl, gamma2, gamma3)
             for dom in doms for dfl in dfls]
    _, columns = _delta1_columns(bases, _FIG5["delta1_range"], samples, ("gamma_g",), jobs)
    # a cell is the endpoint gamma_g of its delta1 column; cells[i_dom, i_dfl]
    cells = np.array([column[-1, 0] for column in columns]).reshape(n_om, n_dl)
    base = float(cells[n_om // 2, n_dl // 2])  # the unperturbed reference at (0, 0)
    if not abs(base) >= 1e-12:  # a NaN gap fails this too
        raise NoSteadyStateError("fig6 reference sweep produced no usable gamma_g")
    table = grid_rows(dfls, doms, ((cells - base) / abs(base) * 100.0)[..., None])
    return [("fig6.csv", ["delta", "omega1_minus_omega2", "gamma_g_change_percent"], *table)], \
        {"path_samples": samples, "gamma3": gamma3, "reference_gamma_g": base}


# recipe id: (run, frozen-input table)
_RECIPES = {
    "fig2": (_run_fig2, _FIG2),
    "fig3a": (_run_fig3, {**_FIG3, "scheme": "II"}),
    "fig3b": (_run_fig3, {**_FIG3, "scheme": "I"}),
    "fig4": (_run_fig4, _FIG4),
    "fig5": (_run_fig5, _FIG5),
    "fig6": (_run_fig6, _FIG6),
}


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
    run, table = _RECIPES[recipe_id]
    tables, entries = run(recipe_id, table, samples, jobs, gamma2, gamma3)
    files, undefined = write_tables(out_dir, tables, "recipe")
    meta = out_dir / f"{recipe_id}_meta.json"
    with open(meta, "w", encoding="utf-8", newline="\n") as handle:
        json.dump({**table, **entries, "recipe": recipe_id, "gamma2": gamma2}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return RecipeResult(files + [meta], undefined)
