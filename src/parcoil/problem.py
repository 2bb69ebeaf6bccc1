"""Abstract time-dependent ODE problem and the state/trajectory data model.

A solver state is a plain 1-D ``numpy`` vector of floats (mixed units:
amperes for currents, kelvin for temperatures; the layout is owned by the
concrete problem).  Time is never stored in the state itself, it travels
with :class:`Trajectory` entries.  States and trajectories are treated as
immutable values so they can be handed to concurrent workers freely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "State",
    "as_state",
    "state_linear_combination",
    "Trajectory",
    "Problem",
]

# A state is a read-only float64 vector; the alias documents intent.
State = np.ndarray

# Forward-difference perturbation scale for the default Jacobian.
FD_EPS = 1e-7


def as_state(values) -> State:
    """Copy ``values`` into a read-only float64 vector.

    Raises ``ValueError`` if the input is not 1-D or contains NaN/Inf:
    accepted solver states must be finite.
    """
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"state must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state contains non-finite entries")
    arr.setflags(write=False)
    return arr


def state_linear_combination(a: float, x: State, b: float, y: State) -> State:
    """Return ``a*x + b*y`` componentwise.

    Plain multiply-multiply-add floating point, no FMA contraction.  A
    dimension mismatch is a programming bug, not a recoverable condition.
    """
    if x.shape != y.shape:
        raise ValueError(f"state dimension mismatch: {x.shape} vs {y.shape}")
    out = a * x + b * y
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Trajectory:
    """Ordered sequence of (time, state) pairs produced by a propagator.

    ``times`` is strictly increasing and ``states[i]`` is the solution at
    ``times[i]``.  The first/last times are the integration start/end by
    construction (propagators land exactly, no overshoot).
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float, copy=True)
        states = np.array(self.states, dtype=float, copy=True)
        if times.ndim != 1:
            raise ValueError("times must be 1-D")
        if states.ndim != 2 or states.shape[0] != times.shape[0]:
            raise ValueError(
                f"states must be (n_times, dim), got {states.shape} for {times.shape[0]} times"
            )
        if times.size < 1:
            raise ValueError("trajectory needs at least one entry")
        if not np.all(np.isfinite(times)):
            raise ValueError("times contain non-finite entries")
        if not np.all(np.isfinite(states)):
            raise ValueError("states contain non-finite entries")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_points(self) -> int:
        return self.times.size

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def state(self, i: int) -> State:
        return self.states[i]

    @property
    def terminal_state(self) -> State:
        return self.states[-1]

    def state_at_time(self, t: float) -> State:
        """State at an exact grid time ``t`` (bitwise membership)."""
        i = int(np.searchsorted(self.times, t))
        if i >= self.times.size or self.times[i] != t:
            raise KeyError(f"time {t!r} is not a grid point of this trajectory")
        return self.states[i]


class Problem(ABC):
    """Nonlinear first-order ODE system ``d_t u = rhs(t, u)``.

    Concrete problems are read-only parameter holders: ``rhs`` must be
    deterministic and instances must be safe to evaluate concurrently.
    """

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Number of state components."""

    @property
    @abstractmethod
    def component_names(self) -> tuple[str, ...]:
        """Column labels for serialized trajectories, one per component."""

    @abstractmethod
    def rhs(self, t: float, u: State) -> np.ndarray:
        """Time derivative of the state at time ``t``."""

    def jacobian(self, t: float, u: State) -> np.ndarray:
        """Jacobian ``d rhs / d u`` at ``(t, u)`` as a ``(dim, dim)`` array.

        Default: forward differences with per-component perturbation
        ``1e-7 * max(|u_i|, 1)`` (deterministic).  Problems with a closed
        form override this; the Newton solver calls it once per iteration.
        """
        dim = u.size
        f0 = self.rhs(t, u)
        jac = np.empty((dim, dim))
        for i in range(dim):
            delta = FD_EPS * max(abs(float(u[i])), 1.0)
            up = u.copy()
            up[i] += delta
            jac[:, i] = (self.rhs(t, up) - f0) / delta
        return jac

    @abstractmethod
    def max_temperature(self, u: State) -> float:
        """Maximum temperature (K) extracted from the state vector."""

    @abstractmethod
    def initial_state(self) -> State:
        """State at the integration start."""

    def forced_event_times(self, t_a: float, t_b: float) -> list[float]:
        """Times strictly inside ``(t_a, t_b)`` where a step must land.

        Sorted and duplicate-free; default is no events.
        """
        return []
