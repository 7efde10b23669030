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
        if not np.isfinite(self.stop - self.start):
            raise ValueError(f"span stop - start must be finite, got [{self.start}, {self.stop}]")
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
    """Greedy maximal-overlap assignment on every step of an (S, n, n) stack at once.

    Each of the n rounds takes, per step, the largest overlap among free rows
    and columns; ties go to the row of larger eigenvalue, not of lower branch
    label, which matters only for candidates in one row or column equal up to
    rounding, and those set the flag.  Returns (perm, ambiguous): perm[s, a]
    is the column matched to row a; ambiguous[s] is set when a selection of
    step s had a competitor in its row or column within _AMBIGUITY_TOL.
    """
    steps, n, _ = overlaps.shape
    s = np.arange(steps)
    free = overlaps.copy()
    perm = np.empty((steps, n), dtype=int)
    ambiguous = np.zeros(steps, dtype=bool)
    for _ in range(n):
        a, b = np.divmod(np.argmax(free.reshape(steps, -1), axis=1), n)
        best = free[s, a, b][:, None]
        # a competitor within tolerance in the pick's row or column leaves the
        # continuation unresolved (the pick counts twice; taken lines hold -inf)
        ambiguous |= (np.abs(np.hstack([free[s, a], free[s, :, b]]) - best) < _AMBIGUITY_TOL).sum(axis=1) > 2
        perm[s, a] = b
        free[s, a] = -np.inf
        free[s, :, b] = -np.inf
    return perm, ambiguous


def track_spectrum(states) -> SpectralTrajectory:
    """Eigen-decompose the whole path at once and continue the branches along it.

    Branches are matched between consecutive points by the greedy assignment
    on the overlap-magnitude matrices (ties go to eigenvalue order at the
    earlier point, see _greedy_match), so a branch follows its eigenvector
    through eigenvalue crossings; its columns follow by composing the step
    permutations.  A branch whose eigenvalue is below EPS_LAMBDA at either
    endpoint carries no weight and is left out of kept_branches.  Each state
    must be Hermitian within HERMITICITY_TOL.
    """
    if len(states) < 2:
        raise ValueError("need at least 2 states to track a spectrum")
    rhos = np.asarray(states, dtype=complex)
    lam, vecs = (x[..., ::-1] for x in hermitian_eig(rhos))
    overlaps = np.abs(vecs[:-1].conj().swapaxes(1, 2) @ vecs[1:])
    perm, ambiguous = _greedy_match(overlaps)
    min_overlap = min(1.0, float(np.take_along_axis(overlaps, perm[:, :, None], axis=2).min()))
    spacing = np.linalg.norm(np.diff(rhos, axis=0), axis=(1, 2)).max()
    warning = bool(ambiguous.any() or min_overlap < 1.0 - 10.0 * spacing * spacing)
    cols = [np.arange(lam.shape[1])]
    for step in perm:
        cols.append(step[cols[-1]])
    lam = np.take_along_axis(lam, np.array(cols), axis=1)
    vecs = np.take_along_axis(vecs, np.array(cols)[:, None, :], axis=2)
    kept = tuple(int(k) for k in np.flatnonzero((lam[0] >= EPS_LAMBDA) & (lam[-1] >= EPS_LAMBDA)))
    return SpectralTrajectory(lam, vecs, kept, warning, min_overlap)


def _prefix_terms(traj: SpectralTrajectory) -> np.ndarray:
    """Weighted overlap term of every kept branch for every prefix [0..j] of the trajectory.

    Row j, column b holds sqrt(lambda_k(0) lambda_k(j)) z_k for branch
    k = kept_branches[b], with z_k taken over the prefix; row 0 holds
    lambda_k(0).  Raises UndefinedPhaseError when no branch carries weight.
    """
    kept = list(traj.kept_branches)
    if not kept:
        raise UndefinedPhaseError("no branch carries weight at both endpoints")
    lam = traj.eigenvalues[:, kept]
    kets = traj.eigenvectors[:, :, kept].swapaxes(1, 2)[..., None]
    bras = kets.conj().swapaxes(-1, -2)
    # (1, n) @ (n, 1) matmuls are np.vdot's sum, bitwise
    steps = (bras[:-1] @ kets[1:])[..., 0, 0]
    ends = (bras[0] @ kets[1:])[..., 0, 0]
    z = ends * np.exp(-1j * np.cumsum(np.angle(steps), axis=0))
    weights = np.sqrt(np.maximum(lam[0], 0.0) * np.maximum(lam[1:], 0.0))
    return np.concatenate([lam[:1], weights * z])


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


def unwrap_phases(values) -> np.ndarray:
    """Float array of the phases, jumps above pi shifted by multiples of 2 pi; NaN gaps pass through."""
    phases = np.array(values, dtype=float)
    defined = ~np.isnan(phases)
    phases[defined] = np.unwrap(phases[defined])
    return phases


def gp_curve_from_states(states) -> np.ndarray:
    """gamma_g of every prefix of a sampled path, anchored to zero at the start, as a float array.

    The spectral trajectory is built once and every prefix reuses it.
    Undefined-phase points are NaN gaps; the defined points are unwrapped in
    path order.  The branch columns are summed in order, as mixed_state_gp
    sums its terms, so the last point equals mixed_state_gp bitwise.
    """
    totals = sum(_prefix_terms(track_spectrum(states)).T)
    return unwrap_phases(np.where(np.abs(totals) > EPS_VIS, np.angle(totals), np.nan))


def gp_derivative(gammas, h) -> np.ndarray:
    """d gamma / d s of gap-free phases sampled h apart, as a float array.

    Central differences inside, second-order one-sided differences at the ends.
    """
    g = np.array(gammas, dtype=float)
    if len(g) < 3:
        raise ValueError("need at least 3 points to differentiate")
    if np.isnan(g).any():
        raise ValueError("phases contain undefined points; filter gaps before differentiating")
    d = np.empty_like(g)
    d[1:-1] = (g[2:] - g[:-2]) / (2.0 * h)
    d[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h)
    d[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * h)
    return d
