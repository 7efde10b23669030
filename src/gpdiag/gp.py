"""Mixed-state geometric phase along control-parameter paths.

The phase of a spectral trajectory {lambda_k(j), phi_k(j)} is evaluated with
the gauge-invariant discretization

    z_k = <phi_k(0)|phi_k(M-1)> * exp(-i sum_j Arg<phi_k(j)|phi_k(j+1)>)
    gamma_g = Arg sum_k sqrt(lambda_k(0) lambda_k(M-1)) z_k

Per-sample phase redefinitions phi_k(j) -> e^{i a_j} phi_k(j) telescope out of
z_k exactly, so no gauge fixing of the eigenvectors is needed.  The phase is
undefined (Pancharatnam singularity) when the weighted overlap sum loses all
visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gpdiag.cascade import SystemParams, steady_state
from gpdiag.linops import DegenerateSteadyStateError, hermitian_eig
from gpdiag.photons import atomic_to_photon

EPS_VIS = 1e-9
EPS_LAMBDA = 1e-10
GAUGE_TOL = 1e-8
_AMBIGUITY_TOL = 1e-6

SWEEPABLE = ("delta1", "delta2", "omega1", "omega2")


class UndefinedPhaseError(RuntimeError):
    """Visibility fell below threshold; the phase has no defined value."""


@dataclass(frozen=True)
class PathSpec:
    """Uniform 1-D path in control-parameter space: `varying` runs over [start, stop]."""

    base: SystemParams
    varying: str
    start: float
    stop: float
    samples: int

    def __post_init__(self):
        if self.varying not in SWEEPABLE:
            raise ValueError(f"unknown path parameter {self.varying!r}; expected one of {SWEEPABLE}")
        if not (self.start < self.stop):
            raise ValueError(f"start must be < stop, got [{self.start}, {self.stop}]")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        # parameter constraints are interval constraints, so endpoint validity
        # implies validity of every sample
        self.params_at(self.start)
        self.params_at(self.stop)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.samples)

    def params_at(self, value: float) -> SystemParams:
        return self.base.with_value(self.varying, value)


@dataclass(frozen=True)
class SpectralTrajectory:
    """Branch-matched spectral data along a path.

    eigenvalues[j, k] and eigenvectors[j, :, k] belong to branch k; branch
    labels follow descending eigenvalue order at the first point and are
    continued across points by maximal-overlap matching.  kept_branches lists
    the branches whose eigenvalue stays above the weight threshold at both
    endpoints.  resolution_warning is set when branch matching was ambiguous
    or consecutive overlaps fell below the sampling-resolution heuristic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kept_branches: tuple
    resolution_warning: bool
    min_overlap: float


@dataclass(frozen=True)
class GeometricPhaseResult:
    gamma_g: float
    branch_terms: dict
    resolution_warning: bool

    @property
    def visibility(self) -> float:
        return abs(sum(self.branch_terms.values()))


def sample_path(spec: PathSpec) -> list:
    """Steady states along the path, mapped to the two-photon basis."""
    states = []
    for index, value in enumerate(spec.values()):
        try:
            rho = steady_state(spec.params_at(value))
        except DegenerateSteadyStateError as err:
            raise DegenerateSteadyStateError(
                err.deficiency,
                f"degenerate steady state at sample {index} ({spec.varying} = {value:g})",
            ) from err
        states.append(atomic_to_photon(rho))
    return states


def _greedy_match(overlaps: np.ndarray):
    """Greedy maximal-overlap assignment with deterministic index tie-break.

    Returns (perm, ambiguous) where perm[a] is the column matched to row a.
    Ambiguous is True when some selection had a competitor within tolerance.
    """
    n = overlaps.shape[0]
    perm = [-1] * n
    free_rows = list(range(n))
    free_cols = list(range(n))
    ambiguous = False
    for _ in range(n):
        best_val = -1.0
        best_pair = None
        for a in free_rows:
            for b in free_cols:
                if overlaps[a, b] > best_val + 1e-15:
                    best_val = overlaps[a, b]
                    best_pair = (a, b)
        a, b = best_pair
        # a competing assignment in the same row or column within tolerance
        # means the continuation is not resolved by this sampling
        for c in free_cols:
            if c != b and abs(overlaps[a, c] - best_val) < _AMBIGUITY_TOL:
                ambiguous = True
        for r in free_rows:
            if r != a and abs(overlaps[r, b] - best_val) < _AMBIGUITY_TOL:
                ambiguous = True
        perm[a] = b
        free_rows.remove(a)
        free_cols.remove(b)
    return perm, ambiguous


def track_spectrum(states) -> SpectralTrajectory:
    """Eigen-decompose each state and continue the branches along the path.

    Branches are matched between consecutive points by the greedy assignment
    on the overlap-magnitude matrix, so a branch follows its eigenvector
    through eigenvalue crossings.  A branch whose eigenvalue is below
    EPS_LAMBDA at either endpoint carries no weight and is left out of
    kept_branches.  Each state must be Hermitian within HERMITICITY_TOL.
    """
    if len(states) < 2:
        raise ValueError("need at least 2 states to track a spectrum")
    m = len(states)
    n = states[0].shape[0]
    lam = np.empty((m, n))
    vecs = np.empty((m, n, n), dtype=complex)
    for j, rho in enumerate(states):
        w, v = hermitian_eig(rho)
        lam[j] = w[::-1]
        vecs[j] = v[:, ::-1]
    warning = False
    min_overlap = 1.0
    spacing = max(
        float(np.linalg.norm(states[j + 1] - states[j])) for j in range(m - 1)
    )
    bound = 1.0 - 10.0 * spacing * spacing
    for j in range(m - 1):
        overlaps = np.abs(vecs[j].conj().T @ vecs[j + 1])
        perm, ambiguous = _greedy_match(overlaps)
        warning = warning or ambiguous
        vecs[j + 1] = vecs[j + 1][:, perm]
        lam[j + 1] = lam[j + 1][perm]
        matched = min(overlaps[a, perm[a]] for a in range(n))
        min_overlap = min(min_overlap, matched)
    if min_overlap < bound:
        warning = True
    kept = tuple(
        k for k in range(n) if lam[0, k] >= EPS_LAMBDA and lam[-1, k] >= EPS_LAMBDA
    )
    return SpectralTrajectory(lam, vecs, kept, warning, min_overlap)


def _prefix_terms(traj: SpectralTrajectory) -> np.ndarray:
    """Weighted overlap term of every kept branch for every prefix [0..j] of the trajectory.

    Row j, column b holds sqrt(lambda_k(0) lambda_k(j)) z_k for branch
    k = kept_branches[b], with z_k taken over the prefix; row 0 holds
    lambda_k(0).  Raises UndefinedPhaseError when no branch carries weight.
    """
    lam, vecs, kept = traj.eigenvalues, traj.eigenvectors, traj.kept_branches
    if not kept:
        raise UndefinedPhaseError("no branch carries weight at both endpoints")
    m = lam.shape[0]
    terms = np.empty((m, len(kept)), dtype=complex)
    terms[0] = lam[0, list(kept)]
    acc = [0.0] * len(kept)
    for j in range(1, m):
        for b, k in enumerate(kept):
            step = np.vdot(vecs[j - 1][:, k], vecs[j][:, k])
            acc[b] += math.atan2(step.imag, step.real)
            z = np.vdot(vecs[0][:, k], vecs[j][:, k]) * np.exp(-1j * acc[b])
            terms[j, b] = math.sqrt(max(lam[0, k], 0.0) * max(lam[j, k], 0.0)) * z
    return terms


def mixed_state_gp(traj: SpectralTrajectory) -> GeometricPhaseResult:
    """Geometric phase of the full trajectory.

    Raises UndefinedPhaseError when no branch carries weight or the weighted
    overlap sum has modulus below EPS_VIS.
    """
    terms = dict(zip(traj.kept_branches, _prefix_terms(traj)[-1]))
    total = sum(terms.values())
    if abs(total) <= EPS_VIS:
        raise UndefinedPhaseError(
            f"visibility {abs(total):.3e} below {EPS_VIS:g} (Pancharatnam singularity)"
        )
    return GeometricPhaseResult(float(np.angle(total)), terms, traj.resolution_warning)


def pancharatnam_phase(psi0: np.ndarray, psi1: np.ndarray) -> float:
    """Arg<psi0|psi1> in (-pi, pi] for normalized pure states.

    Raises UndefinedPhaseError for (numerically) orthogonal states.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    psi1 = np.asarray(psi1, dtype=complex)
    for name, psi in (("psi0", psi0), ("psi1", psi1)):
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"{name} is not normalized: |psi| = {norm:.12f}")
    ov = np.vdot(psi0, psi1)
    if abs(ov) < EPS_VIS:
        raise UndefinedPhaseError(f"|<psi0|psi1>| = {abs(ov):.3e}: phase undefined")
    return float(np.angle(ov))


def fix_global_phase(psi: np.ndarray, pivot: int = 0) -> np.ndarray:
    """Rotate a state vector so the pivot component is real and nonnegative.

    The pivot defaults to the first component (the |00> gauge); when its
    amplitude is at most GAUGE_TOL the largest-magnitude component is used.
    """
    psi = np.asarray(psi, dtype=complex)
    if abs(psi[pivot]) <= GAUGE_TOL:
        pivot = int(np.argmax(np.abs(psi)))
    return psi * (abs(psi[pivot]) / psi[pivot])


def unwrap_phases(values):
    """Shift consecutive jumps larger than pi by multiples of 2 pi; None entries pass through."""
    out = list(values)
    defined = [i for i, g in enumerate(out) if g is not None]
    if len(defined) < 2:
        return out
    seq = np.unwrap(np.array([out[i] for i in defined], dtype=float))
    for i, g in zip(defined, seq):
        out[i] = float(g)
    return out


def gp_curve_from_states(states) -> list:
    """gamma_g of every prefix of a sampled path, anchored to zero at the start.

    The spectral trajectory (and its branch matching) is built once; each
    prefix reuses it.  Undefined-phase points are None gaps.  The defined
    points are phase-unwrapped in path order.
    """
    # sum() adds the branches in order, as mixed_state_gp does, so the last
    # point equals mixed_state_gp bitwise
    totals = [sum(row) for row in _prefix_terms(track_spectrum(states))]
    return unwrap_phases([float(np.angle(t)) if abs(t) > EPS_VIS else None for t in totals])


def gp_derivative(gammas, h) -> list:
    """d gamma / d s of gap-free phases sampled h apart.

    Central differences inside, second-order one-sided differences at the ends.
    """
    if len(gammas) < 3:
        raise ValueError("need at least 3 points to differentiate")
    if any(g is None for g in gammas):
        raise ValueError("phases contain undefined points; filter gaps before differentiating")
    g = np.array(gammas, dtype=float)
    d = np.empty_like(g)
    d[1:-1] = (g[2:] - g[:-2]) / (2.0 * h)
    d[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h)
    d[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * h)
    return d.tolist()
