"""Acceptance suite.

One test per acceptance criterion, at the stated tolerance and runtime budget.
Each prints a single pass/fail line (run with -s to see them on passing runs).
"""

import cmath
import functools
import math
import time

import numpy as np
import pytest

import ideal_oracle as oracle
from gpdiag.cascade import SystemParams, lindblad_rhs, steady_state
from gpdiag.gp import (
    PathSpec,
    SpectralTrajectory,
    gp_derivative,
    mixed_state_gp,
    sample_path,
    track_spectrum,
    two_point_phases,
    unwrap_phases,
)
from gpdiag.ideal import taylor_gp
from gpdiag.linops import hermitian_eig
from gpdiag.photons import atomic_to_photon, concurrence
from gpdiag.recipes import run_recipe
from rk4_oracle import evolve

X_GRID = np.linspace(0.05 + 1e-9, math.pi / 2 - 0.05 - 1e-9, 50)


def _report(num, name, ok, elapsed, budget=None, detail=""):
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" / budget {budget:g}s" if budget else "")
    print(f"\n[criterion {num:02d}] {name}: {status}  ({timing})  {detail}")


def scheme_ii_at_angle(x, delta1=0.0, omega=6.0):
    return SystemParams(omega * math.sin(x), omega * math.cos(x), delta1=delta1, gamma3=0.0)


def circular_delta(a, b):
    return abs(cmath.phase(cmath.exp(1j * (a - b))))


def test_criterion_01_dark_state_purity():
    budget = 1.0
    start = time.perf_counter()
    max_eig_err = 0.0
    min_fidelity = 1.0
    for x in X_GRID:
        rho = atomic_to_photon(steady_state(scheme_ii_at_angle(x)))
        w, v = hermitian_eig(rho)
        max_eig_err = max(max_eig_err, abs(w[-1] - 1.0))
        dark = np.array([-math.sin(x), 0.0, math.cos(x)])
        min_fidelity = min(min_fidelity, abs(np.vdot(dark, v[:, -1])) ** 2)
    elapsed = time.perf_counter() - start
    ok = max_eig_err <= 1e-8 and min_fidelity >= 1.0 - 1e-8 and elapsed < budget
    _report(1, "dark-state purity", ok, elapsed, budget,
            f"max |l1 - 1| = {max_eig_err:.2e}, min fidelity = {1 - min_fidelity:.2e} below 1")
    assert max_eig_err <= 1e-8
    assert min_fidelity >= 1.0 - 1e-8
    assert elapsed < budget


def test_criterion_02_pure_concurrence_law():
    budget = 1.0
    start = time.perf_counter()
    worst = 0.0
    values = []
    for x in X_GRID:
        rho = atomic_to_photon(steady_state(scheme_ii_at_angle(x)))
        c = concurrence(rho)
        values.append(c)
        worst = max(worst, abs(c - math.sin(2 * x)))
    x_at_max = X_GRID[int(np.argmax(values))]
    grid_step = X_GRID[1] - X_GRID[0]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and abs(x_at_max - math.pi / 4) <= grid_step and elapsed < budget
    _report(2, "pure concurrence law", ok, elapsed, budget,
            f"max |C - sin 2X| = {worst:.2e}, argmax offset = {abs(x_at_max - math.pi/4):.3f}")
    assert worst <= 1e-6
    assert abs(x_at_max - math.pi / 4) <= grid_step
    assert elapsed < budget


def test_criterion_03_steady_state_oracle_equivalence():
    budget = 10.0
    start = time.perf_counter()
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    worst = 0.0
    for gamma3 in (1.0, 0.0):
        for omega1 in np.linspace(2.0, 6.0, 5):
            for delta1 in np.linspace(-2.0, 2.0, 5):
                p = SystemParams(omega1, 6.0, delta1, 0.0, 6.0, gamma3)
                dt = 0.01 / max(1.0, omega1, 6.0, abs(delta1), 6.0, gamma3)
                evolved = evolve(p, rho0, 50.0, dt)
                direct = steady_state(p)
                worst = max(worst, float(np.max(np.abs(evolved - direct))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < budget
    _report(3, "null-space vs RK4 oracle", ok, elapsed, budget,
            f"max elementwise deviation = {worst:.2e}")
    assert worst <= 1e-6
    assert elapsed < budget


def test_criterion_04_discretization_oracle_circle():
    budget = 5.0
    start = time.perf_counter()
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
        states = []
        for phi in np.linspace(0.0, 2.0 * math.pi, 10_000):
            psi = np.array(
                [math.cos(theta / 2.0), math.sin(theta / 2.0) * cmath.exp(1j * phi)]
            )
            states.append(np.outer(psi, psi.conj()))
        gamma = mixed_state_gp(track_spectrum(states))
        expected = -2.0 * math.pi * math.sin(theta / 2.0) ** 2
        worst = max(worst, circular_delta(gamma, expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < budget
    _report(4, "half-solid-angle circle oracle", ok, elapsed, budget,
            f"max |gamma - expected| mod 2pi = {worst:.2e}")
    assert worst <= 1e-4
    assert elapsed < budget


def test_criterion_05_gauge_invariance():
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    base = SystemParams(6.0, 6.0)
    traj = track_spectrum(sample_path(PathSpec(base, "delta1", -3.0, 3.0, 601)))
    reference = mixed_state_gp(traj)
    worst = 0.0
    for _ in range(100):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(601, 3)))
        rephased = SpectralTrajectory(
            traj.eigenvalues,
            traj.eigenvectors * phases[:, None, :],
            traj.kept_branches,
            traj.resolution_warning,
            traj.min_overlap,
        )
        worst = max(worst, abs(mixed_state_gp(rephased) - reference))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < budget
    _report(5, "gauge invariance under rephasing", ok, elapsed, budget,
            f"max |change| = {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < budget


def test_criterion_06_plateau_and_slope_ordering():
    """Bell-regime stability of the near-resonance phase.

    The quantity is the phase that ideal.taylor_gp expands and fig4
    differentiates: gamma(delta1) = Arg<psi(0)|psi(delta1)> of the dominant
    photon eigenvector in the |00> gauge (gp.two_point_phases), relative to the
    resonant state.  It is not gp.py's transported gamma_g (see the README).

    Ordering clause: on |delta1| < 0.25 the largest |dgamma/ddelta1| is
    strictly smaller at the Bell setting (omega1, omega2) = (6, 6) than at the
    separable setting (3, 6), in scheme I and in scheme II.

    Plateau clause: in scheme II each of those central slopes matches the
    closed-form leading slope gamma2 cos^2 X / (2 Omega^2) (taylor_gp's
    -gamma21 cos^2 X per unit delta_bar, divided by Omega) within criterion
    08's 10% relative tolerance.  The closed form puts the Bell slope at
    0.391 of the separable one: the flatness the Bell regime is predicted to
    have.
    """
    budget = 30.0
    start = time.perf_counter()
    window = 0.25
    rel_tol = 0.10
    d_small = 1e-6
    deltas = np.linspace(-3.0, 3.0, 601)
    inside = np.abs(deltas) < window
    settings = {"bell": 6.0, "sep": 3.0}
    schemes = {"I": SystemParams, "II": functools.partial(SystemParams, gamma3=0.0)}

    def photon(p):
        return atomic_to_photon(steady_state(p))

    def central_slope(scheme, omega1):
        gammas = unwrap_phases(two_point_phases(
            photon(scheme(omega1, 6.0)), [photon(scheme(omega1, 6.0, delta1=d)) for d in deltas]
        ))
        deriv = np.array(gp_derivative(gammas, deltas[1] - deltas[0]))
        return float(np.abs(deriv[inside]).max())

    def closed_form_slope(omega1):
        p = SystemParams(omega1, 6.0, gamma3=0.0)
        return abs(taylor_gp(oracle.mixing_angle(p), d_small, 0.0, oracle.gamma21(p)) / d_small) / oracle.total_rabi(p)

    slopes = {
        (name, tag): central_slope(scheme, omega1)
        for name, scheme in schemes.items()
        for tag, omega1 in settings.items()
    }
    closed = {tag: closed_form_slope(omega1) for tag, omega1 in settings.items()}
    ordering_ok = {name: slopes[name, "bell"] < slopes[name, "sep"] for name in schemes}
    rel_err = {tag: abs(slopes["II", tag] - closed[tag]) / closed[tag] for tag in settings}
    plateau_ok = all(err <= rel_tol for err in rel_err.values())
    elapsed = time.perf_counter() - start
    ok = all(ordering_ok.values()) and plateau_ok and elapsed < budget
    _report(6, "near-resonance slope ordering and closed-form plateau", ok, elapsed, budget,
            f"central |slope| bell/sep: I {slopes['I', 'bell']:.4f}/{slopes['I', 'sep']:.4f}, "
            f"II {slopes['II', 'bell']:.4f}/{slopes['II', 'sep']:.4f}; "
            f"closed form {closed['bell']:.4f}/{closed['sep']:.4f}, "
            f"worst II mismatch {max(rel_err.values()) * 100:.2f}% (need <= 10%)")
    for name in schemes:
        assert ordering_ok[name], (
            f"ordering clause, scheme {name}: central max |dgamma/ddelta1| at the Bell "
            f"setting {slopes[name, 'bell']:.4f} is not below the separable "
            f"{slopes[name, 'sep']:.4f}"
        )
    for tag in settings:
        assert rel_err[tag] <= rel_tol, (
            f"plateau clause, scheme II {tag}: central slope {slopes['II', tag]:.5f} is "
            f"{rel_err[tag] * 100:.2f}% from the closed form gamma2 cos^2 X / (2 Omega^2) "
            f"= {closed[tag]:.5f}"
        )
    assert elapsed < budget


def test_criterion_07_slope_range_contrast(tmp_path):
    budget = 60.0
    start = time.perf_counter()
    run_recipe("fig4", tmp_path, samples=41, jobs=1)
    spans = {}
    for window in ("separable", "bell"):
        lines = (tmp_path / f"fig4_{window}_ideal.csv").read_text().splitlines()[1:]
        vals = [float(line.split(",")[2]) for line in lines if line.split(",")[2] != ""]
        spans[window] = max(vals) - min(vals)
    ratio = spans["separable"] / spans["bell"]
    elapsed = time.perf_counter() - start
    ok = ratio >= 3.0 and elapsed < budget
    _report(7, "slope-range contrast (separable vs Bell)", ok, elapsed, budget,
            f"span ratio = {ratio:.2f} (sep {spans['separable']:.2f} / bell {spans['bell']:.2f})")
    assert ratio >= 3.0
    assert elapsed < budget


def test_criterion_08_taylor_cross_validation():
    budget = 10.0
    start = time.perf_counter()
    delta = 1e-2
    slope_err = 0.0
    worst_rel = 0.0
    for x in (math.pi / 6, math.pi / 4, math.pi / 3):
        p0 = scheme_ii_at_angle(x)
        gamma21 = oracle.gamma21(p0)
        # leading-order slope of the expansion
        d_small = 1e-6
        slope = taylor_gp(x, d_small, 0.0, gamma21) / d_small
        slope_err = max(slope_err, abs(slope - (-gamma21 * math.cos(x) ** 2)))
        # full numeric relative phase of the dominant eigenvectors
        p1 = scheme_ii_at_angle(x, delta1=delta * oracle.total_rabi(p0))
        [numeric] = two_point_phases(atomic_to_photon(steady_state(p0)), [atomic_to_photon(steady_state(p1))])
        predicted = taylor_gp(x, delta, 0.0, gamma21)
        worst_rel = max(worst_rel, abs(predicted - numeric) / abs(numeric))
    elapsed = time.perf_counter() - start
    ok = slope_err <= 1e-10 and worst_rel <= 0.10 and elapsed < budget
    _report(8, "second-order expansion vs numeric phase", ok, elapsed, budget,
            f"slope error = {slope_err:.2e}, worst relative mismatch = {worst_rel * 100:.2f}%")
    assert slope_err <= 1e-10
    assert worst_rel <= 0.10
    assert elapsed < budget


def test_criterion_09_physical_invariants():
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_herm = worst_trace = worst_psd = worst_flow = 0.0
    for i in range(500):
        p = SystemParams(
            omega1=rng.uniform(0.5, 6.0),
            omega2=rng.uniform(0.5, 6.0),
            delta1=rng.uniform(-3.0, 3.0),
            delta2=rng.uniform(-3.0, 3.0),
            gamma2=6.0,
            gamma3=1.0 if i % 2 == 0 else 0.0,
        )
        rho = steady_state(p)
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        worst_trace = max(worst_trace, abs(np.trace(rho) - 1.0))
        worst_psd = max(worst_psd, max(0.0, -float(np.linalg.eigvalsh(rho).min())))
        worst_flow = max(worst_flow, abs(np.trace(lindblad_rhs(p, rho))))
    elapsed = time.perf_counter() - start
    ok = (worst_herm <= 1e-10 and worst_trace <= 1e-10 and worst_psd <= 1e-10
          and worst_flow <= 1e-12 and elapsed < budget)
    _report(9, "steady-state invariants on random parameters", ok, elapsed, budget,
            f"herm {worst_herm:.1e}, trace {worst_trace:.1e}, "
            f"psd {worst_psd:.1e}, trace flow {worst_flow:.1e}")
    assert worst_herm <= 1e-10
    assert worst_trace <= 1e-10
    assert worst_psd <= 1e-10
    assert worst_flow <= 1e-12
    assert elapsed < budget


@pytest.mark.parametrize("recipe_id,samples", [
    ("fig2", 21), ("fig3a", 11), ("fig3b", 11), ("fig4", 21), ("fig5", 21), ("fig6", 41),
])
def test_criterion_10_recipe_determinism(tmp_path, recipe_id, samples):
    start = time.perf_counter()
    runs = {}
    for label, jobs in (("run1_j1", 1), ("run2_j1", 1), ("run3_j4", 4)):
        result = run_recipe(recipe_id, tmp_path / label, samples=samples, jobs=jobs)
        runs[label] = [(p.name, p.read_bytes()) for p in result.files]
    ok = runs["run1_j1"] == runs["run2_j1"] == runs["run3_j4"]
    elapsed = time.perf_counter() - start
    _report(10, f"determinism of {recipe_id} across runs and jobs 1/4", ok, elapsed,
            detail=f"{len(runs['run1_j1'])} files compared")
    assert ok
