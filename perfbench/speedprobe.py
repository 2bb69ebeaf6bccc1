"""Machine-speed probe that rescales wall times to a reference speed.

On a shared host the speed of one CPU changes by up to 2x within tens of
seconds, as other tenants come and go.  Medians of raw wall times then
depend on when a run happened more than on the program.  The probe times a
fixed kernel between commands.  Each command's wall time is multiplied by
``REFERENCE_S`` over the mean kernel time just before and just after it,
which gives the time the command would take on a machine that runs the
kernel in ``REFERENCE_S``.  The kernel uses no parcoil code, so a change to
the program cannot move it.  It does the same kind of work as the program:
implicit Euler with a finite-difference Newton solve on a 2-state system in
small NumPy arrays.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time (s) of the reference machine; a unit choice, not a measurement.
REFERENCE_S = 0.01
KERNEL_STEPS = 60


def _rhs(u):
    return np.array([-50.0 * u[0] + 10.0 * np.tanh(u[1] - 77.0), 0.1 * u[0] ** 2 - (u[1] - 77.0)])


def kernel(steps: int = KERNEL_STEPS) -> np.ndarray:
    u = np.array([0.0, 77.0])
    eye = np.eye(2)
    dt = 0.01
    for _ in range(steps):
        v = u.copy()
        for _ in range(3):
            with np.errstate(over="ignore", invalid="ignore"):
                r = v - u - dt * _rhs(v)
                f0 = _rhs(v)
                jac = np.empty((2, 2))
                for i in range(2):
                    w = v.copy()
                    w[i] += 1e-7
                    jac[:, i] = (_rhs(w) - f0) / 1e-7
            v = v + np.linalg.solve(eye - dt * jac, -r)
            if not np.all(np.isfinite(v)):
                raise FloatingPointError("speed probe kernel diverged")
        u = v
    return u


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Timeline:
    """Timed samples in run order, each followed by one kernel run.

    Sample ``i`` lies between kernel runs ``i`` and ``i + 1``.  Its scale
    factor uses the median of the kernel runs within ``HALF_WINDOW`` of it,
    which follows the host's speed (it changes over seconds) while damping
    the noise of single kernel runs.  A sample taken in another process
    brings its own kernel time, measured on the CPU it ran on.
    """

    HALF_WINDOW = 2

    def __init__(self):
        self.kernel_s: list[float] = [kernel_seconds()]
        self.samples: list[tuple[str, float | None, float | None]] = []

    def add(self, kind: str, seconds: float | None, own_kernel_s: float | None = None) -> None:
        """Record a sample (None for a failed command) and run the kernel after it."""
        self.samples.append((kind, seconds, own_kernel_s))
        self.kernel_s.append(kernel_seconds())

    def raw(self, kind: str) -> list[float]:
        return [s for k, s, _ in self.samples if k == kind and s is not None]

    def scaled(self, kind: str) -> list[float]:
        out = []
        h = self.HALF_WINDOW
        for i, (k, s, own) in enumerate(self.samples):
            if k == kind and s is not None:
                near = own or statistics.median(self.kernel_s[max(0, i + 1 - h) : i + 1 + h])
                out.append(s * REFERENCE_S / near)
        return out
