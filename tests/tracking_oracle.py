"""Sample-by-sample spectral tracking and phase accumulation: the tests' oracle.

`gp.track_spectrum` and `gp._prefix_terms` run each step over the whole path
as stacked array operations.  This module keeps the plain sequential form:
one eigendecomposition and one greedy match per sample, and one accumulator
per branch, so tests can compare the two on the same states.
"""

import math

import numpy as np

from gpdiag.gp import _AMBIGUITY_TOL, EPS_LAMBDA, SpectralTrajectory
from gpdiag.linops import hermitian_eig


def greedy_match(overlaps: np.ndarray):
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


def track_spectrum(states):
    """Eigen-decompose each state and continue the branches one step at a time.

    Returns (trajectory, ambiguous): ambiguous is True when some step's greedy
    match had a competitor within _AMBIGUITY_TOL.
    """
    m = len(states)
    n = states[0].shape[0]
    lam = np.empty((m, n))
    vecs = np.empty((m, n, n), dtype=complex)
    for j, rho in enumerate(states):
        w, v = hermitian_eig(rho)
        lam[j] = w[::-1]
        vecs[j] = v[:, ::-1]
    any_ambiguous = False
    min_overlap = 1.0
    spacing = max(
        float(np.linalg.norm(states[j + 1] - states[j])) for j in range(m - 1)
    )
    bound = 1.0 - 10.0 * spacing * spacing
    for j in range(m - 1):
        overlaps = np.abs(vecs[j].conj().T @ vecs[j + 1])
        perm, ambiguous = greedy_match(overlaps)
        any_ambiguous = any_ambiguous or ambiguous
        vecs[j + 1] = vecs[j + 1][:, perm]
        lam[j + 1] = lam[j + 1][perm]
        matched = min(overlaps[a, perm[a]] for a in range(n))
        min_overlap = min(min_overlap, matched)
    warning = any_ambiguous
    if min_overlap < bound:
        warning = True
    kept = tuple(
        k for k in range(n) if lam[0, k] >= EPS_LAMBDA and lam[-1, k] >= EPS_LAMBDA
    )
    return SpectralTrajectory(lam, vecs, kept, warning, min_overlap), any_ambiguous


def prefix_terms(traj: SpectralTrajectory) -> np.ndarray:
    """Weighted overlap term of every kept branch for every prefix, one step at a time.

    Row j, column b holds sqrt(lambda_k(0) lambda_k(j)) z_k of branch
    k = kept_branches[b]; row 0 holds lambda_k(0).
    """
    lam, vecs, kept = traj.eigenvalues, traj.eigenvectors, traj.kept_branches
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
