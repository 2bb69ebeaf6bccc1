"""Lumped-parameter surrogate of a no-insulation HTS pancake coil.

Two state components: the azimuthal (inductive) coil current ``I_theta``
and one lumped temperature ``T``.  The source current splits between the
superconducting azimuthal path and the radial turn-to-turn contact path,
which is what delays the magnetic field of a no-insulation winding.  The
HTS path carries the strongly nonlinear power-law resistivity, so driving
the coil near its critical current produces a partial quench with current
redistribution and a pronounced temperature transient.  One private kernel
holds the law, and each :class:`CoilProblem` method calls it.  Its one
module-level entry, ``coil_rhs``, stays because ``perfbench/tracing.py``
wraps it by name.

A scalar linear test problem with the closed-form solution
``u(t) = u0 * exp(rate * t)`` is included as a verification oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .problem import Problem, State, as_state

__all__ = [
    "CoilParams",
    "RampSchedule",
    "source_current",
    "coil_rhs",
    "axial_field",
    "linear_test_rhs",
    "CoilProblem",
    "LinearTestProblem",
    "DEFAULT_RAMP",
]

# Relative floor on J_c(T) so the power law stays finite above T_c.
JC_REL_FLOOR = 1e-6


@dataclass(frozen=True)
class CoilParams:
    """Physical constants of the coil surrogate.

    Attributes
    ----------
    e_c : critical electric field (V/m)
    j_c0 : critical current density at ``t_op`` and zero field (A/m^2)
    n : power-law index (dimensionless)
    t_c : critical temperature (K)
    t_op : operating/bath temperature (K)
    inductance : azimuthal loop inductance (H)
    r_contact : lumped turn-to-turn plus terminal contact resistance (Ohm)
    a_hts : HTS cross-section (m^2)
    length : effective conductor length (m)
    heat_capacity : lumped heat capacity, held constant (J/K)
    cooling : lumped cooling conductance to the bath (W/K)
    field_constant : central axial flux density per ampere of I_theta (T/A)
    """

    e_c: float = 1e-4
    j_c0: float = 1.2e8
    n: float = 25.0
    t_c: float = 92.0
    t_op: float = 77.0
    inductance: float = 2e-3
    r_contact: float = 2e-4
    a_hts: float = 1e-6
    length: float = 1.0
    heat_capacity: float = 2.0
    cooling: float = 0.25
    field_constant: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"CoilParams.{f.name} must be strictly positive")
        if self.n < 1.0:
            raise ValueError("power-law index n must be >= 1")
        if not self.t_c > self.t_op:
            raise ValueError("critical temperature must exceed operating temperature")


@dataclass(frozen=True)
class RampSchedule:
    """Piecewise-linear source current.

    ``segments`` is a list of ``(t_end, i_end)`` breakpoints; the current
    is 0 A before 0 s, runs linearly from (0 s, 0 A) through each
    breakpoint and is held constant after the last one.
    """

    segments: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        segs = tuple((float(t), float(i)) for t, i in self.segments)
        prev = 0.0
        for t_end, _ in segs:
            if t_end <= prev:
                raise ValueError("ramp breakpoint times must be strictly increasing and > 0")
            prev = t_end
        object.__setattr__(self, "segments", segs)

    @property
    def breakpoint_times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.segments)


# Ramp that drives the default coil past its critical current: 140 A
# plateau vs. 120 A critical at 77 K, so a partial quench develops on the
# plateau (peak near 81 K) and recovers during the ramp-down.
DEFAULT_RAMP = RampSchedule(((50.0, 140.0), (150.0, 140.0), (200.0, 0.0)))


def source_current(t: float, ramp: RampSchedule) -> float:
    """Piecewise-linear source current (A); 0 A before 0 s, constant after the last breakpoint."""
    if t < 0.0:
        return 0.0
    t_prev, i_prev = 0.0, 0.0
    for t_end, i_end in ramp.segments:
        if t <= t_end:
            return i_prev + (i_end - i_prev) * (t - t_prev) / (t_end - t_prev)
        t_prev, i_prev = t_end, i_end
    return i_prev


def _coil_law(t: float, s: State, params: CoilParams, ramp: RampSchedule, with_jacobian: bool):
    """``(di_theta, d_temp)``, or with ``with_jacobian`` that pair and the Jacobian rows.

    J_c(T) is linear in T, ``j_c0`` at and below ``t_op``, floored at ``JC_REL_FLOOR * j_c0``.
    The power-law resistivity ``(e_c/j_c) * (|j|/j_c)**(n-1)`` is ``inf`` where it
    overflows, which the caller's finiteness checks treat as a failed evaluation.  With
    ``r = r_hts``, ``d(r*I)/dI = n*r``, ``d(r*I^2)/dI = (n+1)*r*I`` and, on the linear
    part of J_c(T), ``dr/dT = n*r / (T_c - T)``, and 0 where J_c is clipped.
    """
    i_theta, temp = s
    i_radial = source_current(t, ramp) - i_theta
    # Comparisons rather than min/max calls: this runs in every evaluation.
    frac = (params.t_c - temp) / (params.t_c - params.t_op)
    j_c = params.j_c0 * (1.0 if frac >= 1.0 else frac if frac > JC_REL_FLOOR else JC_REL_FLOOR)
    try:
        rho = (params.e_c / j_c) * (abs(i_theta / params.a_hts) / j_c) ** (params.n - 1.0)
    except OverflowError:
        rho = math.inf
    r_hts = rho * params.length / params.a_hts
    di_theta = (params.r_contact * i_radial - r_hts * i_theta) / params.inductance
    p_contact = params.r_contact * i_radial * i_radial
    p_hts = r_hts * i_theta * i_theta
    d_temp = (p_contact + p_hts - params.cooling * (temp - params.t_op)) / params.heat_capacity
    if not with_jacobian:
        return (di_theta, d_temp)
    dr_dtemp = params.n * r_hts / (params.t_c - temp) if JC_REL_FLOOR < frac < 1.0 else 0.0
    inv_l = 1.0 / params.inductance
    inv_c = 1.0 / params.heat_capacity
    return (di_theta, d_temp), (
        (-(params.r_contact + params.n * r_hts) * inv_l, -i_theta * dr_dtemp * inv_l),
        (
            (-2.0 * params.r_contact * i_radial + (params.n + 1.0) * r_hts * i_theta) * inv_c,
            (i_theta * i_theta * dr_dtemp - params.cooling) * inv_c,
        ),
    )


def coil_rhs(t: float, s: State, params: CoilParams, ramp: RampSchedule) -> tuple[float, float]:
    """Time derivative of ``(I_theta, T)`` for the coil surrogate."""
    return _coil_law(t, s, params, ramp, False)


def axial_field(s: State, params: CoilParams) -> float:
    """Central axial flux density B_z = field_constant * I_theta (T)."""
    return params.field_constant * s[0]


def linear_test_rhs(t: float, s: State, rate: float) -> tuple[float, ...]:
    """Derivative of the linear test system: ``rate * s`` componentwise."""
    return tuple([rate * x for x in s])


class CoilProblem(Problem):
    """The coil surrogate packaged behind the abstract problem interface."""

    def __init__(self, params: CoilParams | None = None, ramp: RampSchedule | None = None):
        self.params = params if params is not None else CoilParams()
        self.ramp = ramp if ramp is not None else DEFAULT_RAMP

    @property
    def component_names(self) -> tuple[str, ...]:
        return ("I_theta_A", "T_K")

    def rhs(self, t: float, u: State) -> tuple[float, float]:
        return coil_rhs(t, u, self.params, self.ramp)

    def jacobian(self, t: float, u: State) -> tuple:
        return _coil_law(t, u, self.params, self.ramp, True)[1]

    def rhs_and_jacobian(self, t: float, u: State) -> tuple:
        return _coil_law(t, u, self.params, self.ramp, True)

    def max_temperature(self, u: State) -> float:
        return u[1]

    def initial_state(self) -> State:
        return as_state([0.0, self.params.t_op])

    def forced_event_times(self, t_a: float, t_b: float) -> list[float]:
        return [t for t in (0.0, *self.ramp.breakpoint_times) if t_a < t < t_b]

    def derived_columns(self) -> tuple:
        return (
            ("B_z_T", lambda t, u: axial_field(u, self.params)),
            ("I_source_A", lambda t, u: source_current(t, self.ramp)),
        )


class LinearTestProblem(Problem):
    """``d_t u = rate * u`` with exact solution ``u0 * exp(rate * t)``.

    All components are treated as temperature-like so the max-temperature
    convergence machinery is exercised unchanged.
    """

    def __init__(self, rate: float = -1.0, u0=(1.0,)):
        self.rate = float(rate)
        self._u0 = as_state(u0)
        n = len(self._u0)
        self._jacobian = tuple(tuple(self.rate * float(i == j) for j in range(n)) for i in range(n))

    @property
    def component_names(self) -> tuple[str, ...]:
        return tuple(f"u_{i}" for i in range(len(self._u0)))

    def rhs(self, t: float, u: State) -> tuple[float, ...]:
        return linear_test_rhs(t, u, self.rate)

    def jacobian(self, t: float, u: State) -> tuple:
        return self._jacobian

    def max_temperature(self, u: State) -> float:
        return max(u)

    def initial_state(self) -> State:
        return self._u0
