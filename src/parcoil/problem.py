"""Abstract time-dependent ODE problem and the state/trajectory data model.

A solver state is a sequence of floats (mixed units: amperes for
currents, kelvin for temperatures; the layout is owned by the concrete
problem): a tuple of Python floats inside the propagators, which is what
:class:`Problem` methods receive there, and a row of a read-only ``numpy``
array in a :class:`Trajectory`.  Time is never stored in the state itself,
it travels with :class:`Trajectory` entries.  States and trajectories are
treated as immutable values so they can be handed to concurrent workers
freely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "State",
    "as_state",
    "Trajectory",
    "Problem",
]

# A state is a sequence of floats: a tuple inside the propagators, a
# read-only float64 vector from ``as_state`` or a trajectory row outside.
State = Sequence[float]

# Forward-difference perturbation scale for the default Jacobian.
FD_EPS = 1e-7


def as_state(values) -> np.ndarray:
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

    def state(self, i: int) -> np.ndarray:
        return self.states[i]

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]

    def state_at_time(self, t: float) -> np.ndarray:
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
    def component_names(self) -> tuple[str, ...]:
        """Column labels for serialized trajectories, one per component."""

    @abstractmethod
    def rhs(self, t: float, u: State) -> Sequence[float]:
        """Time derivative of the state at time ``t``, one float per component."""

    def jacobian(self, t: float, u: State) -> Sequence[Sequence[float]]:
        """Jacobian ``d rhs / d u`` at ``(t, u)`` as ``dim`` rows of ``dim`` floats.

        Default: forward differences with per-component perturbation
        ``1e-7 * max(|u_i|, 1)`` (deterministic).  Problems with a closed
        form override this; the Newton solver calls it once per iteration.
        """
        f0 = self.rhs(t, u)
        columns = []
        for i, x in enumerate(u):
            delta = FD_EPS * max(abs(x), 1.0)
            up = list(u)
            up[i] = x + delta
            columns.append([(f - f_0) / delta for f, f_0 in zip(self.rhs(t, tuple(up)), f0)])
        return tuple(zip(*columns))

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

    def derived_columns(self) -> tuple[tuple[str, Callable[[float, State], float]], ...]:
        """Extra trajectory-file columns as ``(name, fn(t, u))`` pairs; default none."""
        return ()
