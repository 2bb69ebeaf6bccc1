"""Spans around the calls into each parcoil layer, recorded from outside ``src/``.

A :class:`Tracer` replaces module-level names at the layer boundaries with
wrappers that record one span per call (name, start, end, the span that
caused it) and, for the propagators and the Newton step, the work counters
of that call.  Spans stay in memory until the benchmark writes them out.
Calls made inside forked pool workers run the wrappers too, but their spans
stay in the worker; per-window numbers come from the ``PararealReport``
or from the same scenario traced at one worker.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import NamedTuple

import parcoil.cli
import parcoil.coil
import parcoil.parareal
import parcoil.problem
import parcoil.stepper
from parcoil.stepper import StepCounters

from costmodel import (
    critical_path_newton,
    load_balance_newton,
    total_newton,
    tol_margin,
)


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    start: int  # perf_counter_ns
    end: int
    info: object = None

    @property
    def seconds(self) -> float:
        return 1e-9 * (self.end - self.start)


# (module, attribute, span name, counters position, tolerance position);
# a counters position of None marks a plain call without work counters.
PROPAGATOR_TARGETS = (
    (parcoil.parareal, "adaptive_integrate", "stepper.adaptive_integrate", 5, 4),
    (parcoil.parareal, "fixed_integrate", "stepper.fixed_integrate", 4, 3),
)
FUNCTION_TARGETS = PROPAGATOR_TARGETS + (
    (parcoil.coil, "coil_rhs", "coil.rhs", None, None),
    (parcoil.coil, "linear_test_rhs", "coil.rhs", None, None),
    (parcoil.stepper, "newton_jacobian", "stepper.newton_jacobian", None, None),
    (parcoil.stepper, "implicit_euler_step", "stepper.implicit_euler_step", 6, 5),
    (parcoil.cli, "adaptive_integrate", "stepper.adaptive_integrate", 5, 4),
    (parcoil.cli, "load_run_config", "config.load_run_config", None, None),
)


class Tracer:
    """Wraps the layer boundaries while installed and records one span per call.

    ``missing`` lists target names the program does not have (any more).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack = [0]
        self._next_id = 1
        self._undo = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------
    def begin(self) -> tuple[int, int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def end(self, token, name: str, info=None) -> None:
        end = time.perf_counter_ns()
        sid, parent, start = token
        if self._stack[-1] == sid:
            self._stack.pop()
        else:  # a generator span closed out of order
            self._stack.remove(sid)
        self.spans.append(Span(sid, parent, name, start, end, info))

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ----------------------------------------------------------
    def _plain(self, name, fn):
        def traced(*args, **kwargs):
            token = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token, name)

        return traced

    def _counted(self, name, fn, counters_pos, tol_pos):
        """Wrap a call that takes ``counters``; the span keeps this call's counts."""

        def traced(*args, **kwargs):
            if len(args) > counters_pos:
                outer, args = args[counters_pos], args[:counters_pos]
            else:
                outer = kwargs.pop("counters", None)
            tol = args[tol_pos] if len(args) > tol_pos else kwargs.get("tol")
            local = StepCounters()
            token = self.begin()
            try:
                return fn(*args, counters=local, **kwargs)
            finally:
                self.end(
                    token,
                    name,
                    (local.nr_iterations, local.steps_accepted, local.steps_rejected, tol),
                )
                if outer is not None:
                    outer.nr_iterations += local.nr_iterations
                    outer.steps_accepted += local.steps_accepted
                    outer.steps_rejected += local.steps_rejected

        return traced

    def _run_parareal(self, fn):
        def traced(problem, t_0, t_N, u_0, cfg, *args, **kwargs):
            token = self.begin()
            report = None
            try:
                trajectory, report = fn(problem, t_0, t_N, u_0, cfg, *args, **kwargs)
                return trajectory, report
            finally:
                self.end(token, "parareal.run_parareal", (cfg, report))

        return traced

    def _pool_class(self, real):
        tracer = self

        class TracedPool(real):
            def __init__(self, max_workers=None, *args, **kwargs):
                token = tracer.begin()
                try:
                    super().__init__(max_workers, *args, **kwargs)
                finally:
                    tracer.end(token, "parareal.pool_create", max_workers or os.cpu_count())

            def map(self, fn, *iterables, **kwargs):
                token = tracer.begin()

                def results():
                    try:
                        yield from real.map(self, fn, *iterables, **kwargs)
                    finally:
                        tracer.end(token, "parareal.pool_map")

                return results()

            def shutdown(self, *args, **kwargs):
                token = tracer.begin()
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    tracer.end(token, "parareal.pool_shutdown")

        return TracedPool

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=FUNCTION_TARGETS, everything=True) -> "Tracer":
        """Wrap ``targets``; with ``everything`` also the pool, run_parareal and Trajectory."""
        for module, attr, name, counters_pos, tol_pos in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
            elif counters_pos is None:
                self._patch(module, attr, self._plain(name, fn))
            else:
                self._patch(module, attr, self._counted(name, fn, counters_pos, tol_pos))
        if everything:
            self._patch(parcoil.cli, "run_parareal", self._run_parareal(parcoil.cli.run_parareal))
            self._patch(
                parcoil.parareal,
                "ProcessPoolExecutor",
                self._pool_class(parcoil.parareal.ProcessPoolExecutor),
            )
            traj = parcoil.problem.Trajectory
            self._patch(traj, "__post_init__", self._plain("problem.trajectory", traj.__post_init__))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


# -- per-layer metrics -----------------------------------------------------


def _child_seconds(spans) -> dict[int, float]:
    out: dict[int, float] = defaultdict(float)
    for s in spans:
        out[s.parent] += s.seconds
    return out


def _mean_us(spans) -> float:
    return 1e6 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0


def layer_metrics(seq_spans, par_spans, par1_spans, output_bytes: int) -> dict[str, float]:
    """Per-layer numbers from one traced sequential and parareal command pair.

    ``par_spans`` come from the parareal command at the scenario's worker
    count; ``par1_spans`` from the same command at one worker, where every
    propagator call is visible (the same list when the scenario uses one).
    """
    visible = seq_spans + par1_spans
    commands = seq_spans + par_spans

    def named(spans, name):
        return [s for s in spans if s.name == name]

    rhs = named(visible, "coil.rhs")
    jac = named(visible, "stepper.newton_jacobian")
    steps = named(visible, "stepper.implicit_euler_step")
    props = named(visible, "stepper.adaptive_integrate") + named(visible, "stepper.fixed_integrate")
    trajs = named(visible, "problem.trajectory")
    newton = sum(s.info[0] for s in steps)
    accepted = sum(s.info[1] for s in props)
    rejected = sum(s.info[2] for s in props)
    seq_newton = sum(s.info[0] for s in named(seq_spans, "stepper.adaptive_integrate"))

    (run,) = named(par_spans, "parareal.run_parareal")
    cfg, report = run.info
    children = [s for s in par_spans if s.parent == run.sid]
    pools = named(children, "parareal.pool_create")
    workers = pools[0].info if pools else 1
    maps = named(children, "parareal.pool_map")
    if maps:
        fine_loop = sum(s.seconds for s in maps)
    else:
        fine_loop = sum(
            s.seconds
            for s in named(children, "stepper.adaptive_integrate")
            if s.info[3] != cfg.coarse_tol
        )
    fine_times = [t for row in report.time_f_per_window_per_iter for t in row]
    mains = named(commands, "cli.main")
    child_s = _child_seconds(commands)

    return {
        "coil.rhs_calls": len(rhs),
        "coil.rhs_us": _mean_us(rhs),
        "stepper.jacobian_calls": len(jac),
        "stepper.jacobian_us": _mean_us(jac),
        "stepper.newton_iters": newton,
        "stepper.newton_iter_us": 1e6 * sum(s.seconds for s in steps) / max(newton, 1),
        "stepper.steps_accepted": accepted,
        "stepper.steps_rejected": rejected,
        "stepper.accept_ratio": accepted / (accepted + rejected),
        "problem.trajectory_calls": len(trajs),
        "problem.trajectory_us": _mean_us(trajs),
        "parareal.iterations": report.iterations_run,
        "parareal.tol_margin": tol_margin(report, cfg.tol_pr),
        "parareal.ghat_s": report.time_ghat,
        "parareal.ghat_newton": report.nr_ghat,
        "parareal.sweep_s": sum(report.time_g_per_iter),
        "parareal.sweep_newton": sum(report.nr_g_per_iter),
        "parareal.fine_windows": len(fine_times),
        "parareal.fine_newton": sum(map(sum, report.nr_f_per_window_per_iter)),
        "parareal.fine_window_s": sum(fine_times) / len(fine_times),
        "parareal.load_balance_newton": load_balance_newton(report),
        "parareal.critical_path_newton": critical_path_newton(report),
        "parareal.work_ratio": total_newton(report) / seq_newton,
        "parareal.pool_create_s": sum(s.seconds for s in pools),
        "parareal.pool_shutdown_s": sum(
            s.seconds for s in named(children, "parareal.pool_shutdown")
        ),
        "parareal.fine_loop_s": fine_loop,
        "parareal.pool_busy_share": sum(fine_times) / (workers * fine_loop),
        "parareal.self_s": run.seconds - child_s[run.sid],
        "config.load_s": sum(s.seconds for s in named(commands, "config.load_run_config"))
        / len(mains),
        "cli.output_s": sum(s.seconds - child_s[s.sid] for s in mains) / len(mains),
        "cli.output_bytes": output_bytes,
    }


# Per-layer metrics that must repeat exactly between repetitions of one scenario.
DETERMINISTIC = frozenset(
    {
        "coil.rhs_calls",
        "stepper.jacobian_calls",
        "stepper.newton_iters",
        "stepper.steps_accepted",
        "stepper.steps_rejected",
        "stepper.accept_ratio",
        "problem.trajectory_calls",
        "parareal.iterations",
        "parareal.tol_margin",
        "parareal.ghat_newton",
        "parareal.sweep_newton",
        "parareal.fine_windows",
        "parareal.fine_newton",
        "parareal.load_balance_newton",
        "parareal.critical_path_newton",
        "parareal.work_ratio",
    }
)
