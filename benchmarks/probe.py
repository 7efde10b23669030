"""Machine-speed probe interleaved with the work of every process of a call.

A shared host changes the speed of the same code by up to 2x over seconds to
minutes (measured on the 2-vCPU Xeon host, 2.1 GHz, where this benchmark was
defined), which no run length averages away.  So while a timed call runs, each
process of it (the benchmark process and every worker it forks) is
interrupted after every INTERVAL_S of its own CPU time and times one fixed
unit of work: a frozen, stand-alone copy of one steady-state and concurrence
point of the pipeline.  It shares the pipeline's mix of small numpy calls and
interpreter work but no code with it, so a change to gpdiag never moves it.

A call's work at reference speed is its time divided by
`factor() = harmonic mean of the probe times / REFERENCE_S`: samples are
spaced evenly in CPU time, so the harmonic mean is the speed averaged over the
work.  The probes' own time is subtracted first.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import struct
import time
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh, eigvalsh, svd  # bound here, so traced runs' LAPACK counters miss the probe

INTERVAL_S = 0.05
# probes before and after each bracketed run
BURST = 5
# median time of one probe on the host named above, in a quiet period
REFERENCE_S = 1.6e-3

_I3 = np.eye(3, dtype=complex)
_L21 = np.zeros((3, 3), dtype=complex)
_L21[0, 1] = 1.0
_L32 = np.zeros((3, 3), dtype=complex)
_L32[1, 2] = 1.0
_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])).astype(complex)
_PHOTON = np.array([0, 1, 3])


@dataclass(frozen=True)
class _Point:
    omega1: float
    omega2: float
    delta1: float
    gamma2: float
    gamma3: float

    def __post_init__(self):
        for name in ("omega1", "omega2", "delta1", "gamma2", "gamma3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(name)


def _point(p: _Point) -> float:
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = p.omega1
    h[1, 2] = h[2, 1] = p.omega2
    h[1, 1] = h[2, 2] = -p.delta1
    ell = -1j * (np.kron(h, _I3) - np.kron(_I3, h.T))
    for rate, c in ((p.gamma2, _L21), (p.gamma3, _L32)):
        cdc = c.conj().T @ c
        ell += rate * (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, _I3) - 0.5 * np.kron(_I3, cdc.T))
    vh = svd(ell)[2]
    rho = vh[-1].conj().reshape(3, 3)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    eigvalsh(rho)
    rho4 = np.zeros((4, 4), dtype=complex)
    rho4[np.ix_(_PHOTON, _PHOTON)] = rho[::-1, ::-1]
    w, v = eigh(rho4)
    root = (v * np.sqrt(np.where(w < 1e-13, 0.0, w))) @ v.conj().T
    sigma = svd(root @ _YY @ root.conj(), compute_uv=False)
    return float(sigma[0] - sigma[1:].sum())


def probe_once() -> float:
    """Seconds taken by one fixed unit of work."""
    start = time.perf_counter()
    for k in range(4):
        _point(_Point(6.0, 5.0, 0.1 * k, 6.0, 1.0))
    return time.perf_counter() - start


# The signal handler and the fork hook are process-wide, so the pipe that
# carries samples back to the benchmark process is too; None when inactive.
_write_fd = None
_fork_hook_registered = False


def _on_timer(signum, frame):
    # looked up at call time, so a traced run can put each probe in a span of its own
    sample = probe_once()
    try:
        os.write(_write_fd, struct.pack("d", sample))
    except (OSError, TypeError):
        pass  # pipe full, or the probe already stopped: the sample is dropped


def _arm():
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def _arm_in_child():
    # interval timers are not inherited across fork; the handler is
    if _write_fd is not None:
        _arm()


class SpeedProbe:
    """Context manager: probes this process and its forked children while active."""

    def __init__(self):
        self.samples = []

    def __enter__(self):
        global _write_fd, _fork_hook_registered
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_arm_in_child)
            _fork_hook_registered = True
        self._read_fd, _write_fd = os.pipe()
        os.set_blocking(_write_fd, False)
        self._previous = signal.signal(signal.SIGPROF, _on_timer)
        _arm()
        return self

    def __exit__(self, *exc):
        global _write_fd
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        os.close(_write_fd)
        _write_fd = None
        os.set_blocking(self._read_fd, False)
        data = b""
        try:
            while chunk := os.read(self._read_fd, 65536):
                data += chunk
        except BlockingIOError:
            pass  # a child still holds the write end; everything written is read
        os.close(self._read_fd)
        usable = len(data) - len(data) % 8
        self.samples = [s for (s,) in struct.iter_unpack("d", data[:usable])]
        return False

    @property
    def probe_seconds(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        """Slowdown relative to REFERENCE_S; 1.0 without samples."""
        if not self.samples:
            return 1.0
        return statistics.harmonic_mean(self.samples) / REFERENCE_S


def bracketed(fn):
    """Run fn() between two bursts of probes; returns (wall seconds of fn, factor).

    For work that cannot carry the interval probe: a child made by exec.
    """
    before = [probe_once() for _ in range(BURST)]
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    after = [probe_once() for _ in range(BURST)]
    return elapsed, statistics.harmonic_mean(before + after) / REFERENCE_S
