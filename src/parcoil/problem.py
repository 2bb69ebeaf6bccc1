"""Abstract time-dependent ODE problem and the state/trajectory data model.

A solver state is a tuple of Python floats (mixed units: amperes for
currents, kelvin for temperatures; the layout is owned by the concrete
problem), and every :class:`Problem` method receives one in that form.
Time is never stored in the state itself, it travels with
:class:`Trajectory` entries.  States and trajectories are tuples of
floats, immutable, and cross the fine loop's pipes as pickles.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass

__all__ = [
    "State",
    "as_state",
    "Trajectory",
    "Problem",
]

# One Python float per component; as_state makes one from any sequence.
State = tuple[float, ...]

# Forward-difference perturbation scale for the default Jacobian.
FD_EPS = 1e-7


def as_state(values) -> State:
    """Copy ``values`` into a tuple of Python floats.

    Raises ``ValueError`` if an entry is not a real number (a nested
    sequence, say) or is NaN/Inf: accepted solver states must be finite.
    """
    try:
        state = tuple(map(float, values))
    except TypeError as exc:
        raise ValueError(f"state must be a flat sequence of floats: {exc}") from None
    if not all(map(math.isfinite, state)):
        raise ValueError("state contains non-finite entries")
    return state


@dataclass(frozen=True)
class Trajectory:
    """Ordered sequence of (time, state) pairs produced by a propagator.

    ``times`` is a strictly increasing tuple of floats and ``states[i]``,
    a state tuple, is the solution at ``times[i]``.  The first/last times
    are the integration start/end by construction (propagators land
    exactly, no overshoot).  Rows that are all tuples already are kept as
    they are (the propagators build theirs from checked floats); otherwise
    every row goes through :func:`as_state`.
    """

    times: tuple[float, ...]
    states: tuple[State, ...]

    def __post_init__(self):
        times = tuple(map(float, self.times))
        states = tuple(self.states)
        if set(map(type, states)) != {tuple}:
            states = tuple(map(as_state, states))
        if not times:
            raise ValueError("trajectory needs at least one entry")
        if len(states) != len(times):
            raise ValueError(f"got {len(states)} states for {len(times)} times")
        if len(set(map(len, states))) != 1:
            raise ValueError("states must all have the same dimension")
        if not all(map(math.isfinite, times)):
            raise ValueError("times contain non-finite entries")
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def terminal_state(self) -> State:
        return self.states[-1]


class Problem(ABC):
    """Nonlinear first-order ODE system ``d_t u = rhs(t, u)``.

    Concrete problems are read-only parameter holders: ``rhs`` must be
    deterministic.  No thread evaluates one; each fine-loop process
    evaluates its own copy, inherited at the fork.
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
        form override this; Newton calls it where :meth:`rhs_and_jacobian` does not.
        """
        f0 = self.rhs(t, u)
        columns = []
        for i, x in enumerate(u):
            delta = FD_EPS * max(abs(x), 1.0)
            up = list(u)
            up[i] = x + delta
            columns.append([(f - f_0) / delta for f, f_0 in zip(self.rhs(t, tuple(up)), f0)])
        return tuple(zip(*columns))

    def rhs_and_jacobian(self, t: float, u: State) -> tuple:
        """``(rhs(t, u), jacobian(t, u))``, for a problem that evaluates both at once.

        The stepper calls it at each Newton start where it is overridden.
        An override must equal the pair bit for bit, and a subclass that
        overrides ``rhs`` or ``jacobian`` of a problem that fuses must too.
        The coil's three methods enter one kernel, so they are bitwise
        equal by construction.
        """
        return self.rhs(t, u), self.jacobian(t, u)

    @abstractmethod
    def max_temperature(self, u: State) -> float:
        """Maximum temperature (K) extracted from a state.

        ``trajectory.csv`` formats the value as a float (``{:.12g}``).
        """

    @abstractmethod
    def initial_state(self) -> State:
        """State at the integration start, a tuple of floats (see :func:`as_state`)."""

    def forced_event_times(self, t_a: float, t_b: float) -> list[float]:
        """Times strictly inside ``(t_a, t_b)`` where a step must land.

        Sorted and duplicate-free; default is no events.
        """
        return []

    def derived_columns(self) -> tuple[tuple[str, Callable[[float, State], float]], ...]:
        """Extra trajectory-file columns as ``(name, fn(t, u))`` pairs; default none.

        Each ``fn`` returns a float: ``trajectory.csv`` formats every cell
        with ``{:.12g}``, unlike the other tables, which also hold ints and
        empty cells.
        """
        return ()
