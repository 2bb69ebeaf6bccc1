"""Benchmark of the ``parcoil sequential`` and ``parcoil parareal`` commands.

Run from the repository root::

    python3 perfbench/run.py --workload quench-fine --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

The load is a closed loop from one process with one client: each command
runs in-process through ``parcoil.cli.main`` after the previous one has
finished, with the scenario's generated config file as its only input.
Every command is checked by the correctness gate (gate.py).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` traces the calls into each
layer (tracing.py) and reports the per-layer metrics.  The last line of
standard output is one JSON object; results, generated configs and spans
are written under ``perfbench/out/``.  NOTES.md explains the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from speedprobe import Timeline

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Fresh interpreters started per run to measure set-up time; one more warms the bytecode cache.
SETUP_REPEATS = 7
# After the timed set-up, each interpreter times the speed-probe kernel three
# times on the CPU it ran on and prints the median and the time this took.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import parcoil; "
    "parcoil.make_problem(parcoil.load_run_config(sys.argv[2])); "
    "import time; t = time.perf_counter(); sys.path.insert(0, sys.argv[3]); import speedprobe; "
    "k = sorted(speedprobe.kernel_seconds() for _ in range(3)); "
    "print(k[1], time.perf_counter() - t)"
)

END_TO_END = {
    "sequential_s": "s",
    "parareal_s": "s",
    "speedup": "ratio",
    "modelled_speedup": "ratio",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "coil.rhs_calls": "count",
    "coil.rhs_us": "us",
    "stepper.jacobian_calls": "count",
    "stepper.jacobian_us": "us",
    "stepper.newton_iters": "count",
    "stepper.newton_iter_us": "us",
    "stepper.steps_accepted": "count",
    "stepper.steps_rejected": "count",
    "stepper.accept_ratio": "ratio",
    "problem.trajectory_calls": "count",
    "problem.trajectory_us": "us",
    "parareal.iterations": "count",
    "parareal.tol_margin": "ratio",
    "parareal.ghat_s": "s",
    "parareal.ghat_newton": "count",
    "parareal.sweep_s": "s",
    "parareal.sweep_newton": "count",
    "parareal.fine_windows": "count",
    "parareal.fine_newton": "count",
    "parareal.fine_window_s": "s",
    "parareal.load_balance_newton": "ratio",
    "parareal.critical_path_newton": "count",
    "parareal.work_ratio": "ratio",
    "parareal.fine_loop_s": "s",
    "parareal.pool_busy_share": "ratio",
    "parareal.self_s": "s",
    "config.load_s": "s",
    "cli.output_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_share": "ratio",
}
# Reported by the traced run but left out of its result line: both read 0
# on a scenario that never creates a pool.
PER_LAYER_EXTRA = {"parareal.pool_create_s": "s", "parareal.pool_shutdown_s": "s"}


class CountMismatch(Exception):
    """Two runs of one source tree disagree on a deterministic count."""


def _require_source() -> None:
    """Put the checkout's ``src`` first on the path; stop if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "parcoil", "__init__.py")):
        print(f"error: no parcoil sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _source_hash(config_text: str) -> str:
    digest = hashlib.sha256(config_text.encode())
    pkg = os.path.join(SRC, "parcoil")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def _machine(workers: int) -> dict:
    import numpy

    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": _nproc(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workers": workers,
        "loadavg": os.getloadavg(),
    }


def _timing(samples: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        pct = int(100 - 1000 / n)
        out[f"p{pct}"] = ordered[max(0, -(-pct * n // 100) - 1)]
    return out


class Commands:
    """Runs CLI commands in-process, times them and passes each through the gate."""

    def __init__(self, config_path: str, gate):
        self.config_path = config_path
        self.gate = gate
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, kind: str, out_dir: str, workers=None, tracer=None) -> float | None:
        """Wall seconds of one command, or None if it failed the gate."""
        import parcoil.cli

        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))
        argv = [kind, "--config", self.config_path, "--out", out_dir]
        if workers is not None:
            argv += ["--workers", str(workers)]
        self.attempted += 1
        token = tracer.begin() if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = parcoil.cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end(token, "cli.main")
        reasons = self.gate.check(kind, rc, out_dir)
        if reasons:
            self.failed += 1
            self.failures.extend(reasons)
            return None
        return elapsed


def count_scenario(cfg) -> tuple[dict, object]:
    """Deterministic counts of the scenario, from library calls at one worker."""
    import parcoil
    from costmodel import count_record
    from tracing import PROPAGATOR_TARGETS, Tracer

    problem = parcoil.make_problem(cfg)
    seq = parcoil.StepCounters()
    parcoil.adaptive_integrate(
        problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal.fine_tol, seq
    )
    sequential = {
        "newton": seq.nr_iterations,
        "accepted": seq.steps_accepted,
        "rejected": seq.steps_rejected,
    }
    with Tracer().install(PROPAGATOR_TARGETS, everything=False) as tracer:
        _, report = parcoil.run_parareal(
            problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal, 1
        )
    return count_record(sequential, report, cfg.parareal, tracer.take()), report


def _check_cli_counts(counts: dict, report, seq_dir: str, par_dir: str) -> None:
    """The first CLI outputs must carry the counts of the library calls."""
    with open(os.path.join(seq_dir, "sequential_summary.csv"), newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    seq = counts["sequential"]
    if int(row["steps"]) != seq["accepted"] or int(row["nr_iterations"]) != seq["newton"]:
        raise CountMismatch(f"sequential command counted {row}, library counted {seq}")
    with open(os.path.join(par_dir, "report.csv"), newline="") as handle:
        cli = [int(r["nr_iters"]) for r in csv.DictReader(handle)]
    lib = [
        f + g
        for f_row, g_row in zip(report.nr_f_per_window_per_iter, report.nr_g_per_window_per_iter)
        for f, g in zip(f_row, g_row)
    ]
    if cli != lib:
        raise CountMismatch("parareal command's per-window Newton counts differ from one worker's")


def _setup_once(config_path: str) -> tuple[float, float]:
    """Set-up wall time of one fresh interpreter, and its own kernel time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, config_path, HERE],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    elapsed = time.perf_counter() - start
    kernel_s, tail_s = map(float, proc.stdout.split())
    return elapsed - tail_s, kernel_s


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed(commands: Commands, out: str, seconds: float, config_path: str):
    """Closed loop of sequential/parareal pairs for ``seconds``, with set-up
    samples spread evenly over the run so that they see the same host."""
    timeline = Timeline()
    _setup_once(config_path)  # fills the bytecode cache
    start = time.perf_counter()
    deadline = start + seconds
    setups = 0
    while time.perf_counter() < deadline:
        for kind in ("sequential", "parareal"):
            timeline.add(kind, commands.run(kind, os.path.join(out, kind)))
        if setups < SETUP_REPEATS and time.perf_counter() - start >= setups * seconds / SETUP_REPEATS:
            timeline.add("setup", *_setup_once(config_path))
            setups += 1
    while setups < SETUP_REPEATS:
        timeline.add("setup", *_setup_once(config_path))
        setups += 1
    detail = {}
    for kind in ("sequential", "parareal"):
        if timeline.raw(kind):
            detail[f"{kind}_s"] = _timing(timeline.scaled(kind))
            detail[f"{kind}_raw_s"] = _timing(timeline.raw(kind))
    detail["setup_s"] = _timing(timeline.scaled("setup"))
    detail["setup_raw_s"] = _timing(timeline.raw("setup"))
    detail["probe_kernel_s"] = _timing(timeline.kernel_s)
    metrics = {"setup_s": detail["setup_s"]["median"]}
    if "sequential_s" in detail and "parareal_s" in detail:
        seq, par = detail["sequential_s"]["median"], detail["parareal_s"]["median"]
        metrics.update(sequential_s=seq, parareal_s=par, speedup=seq / par)
    return metrics, detail, timeline


def _traced(commands: Commands, out: str, seconds: float, workers: int) -> tuple[dict, dict, list]:
    from gate import output_bytes
    from tracing import DETERMINISTIC, Tracer, layer_metrics

    dirs = {k: os.path.join(out, k) for k in ("sequential", "parareal", "parareal-1")}
    reps, untraced, traced, kept = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain = [commands.run(k, dirs[k]) for k in ("sequential", "parareal")]
        with Tracer().install() as tracer:
            seq_t = commands.run("sequential", dirs["sequential"], tracer=tracer)
            seq_spans = tracer.take()
            par_t = commands.run("parareal", dirs["parareal"], tracer=tracer)
            par_spans = tracer.take()
            par1_spans = par_spans
            if workers > 1:
                if commands.run("parareal", dirs["parareal-1"], workers=1, tracer=tracer) is None:
                    break
                par1_spans = tracer.take()
        if None in plain or seq_t is None or par_t is None:
            break
        untraced.append(sum(plain))
        traced.append(seq_t + par_t)
        nbytes = output_bytes(dirs["sequential"]) + output_bytes(dirs["parareal"])
        reps.append(layer_metrics(seq_spans, par_spans, par1_spans, nbytes))
        if not kept:
            kept = [("sequential", seq_spans), ("parareal", par_spans)]
            if workers > 1:
                kept.append(("parareal-1", par1_spans))
        if time.perf_counter() >= deadline:
            break
    if not reps:
        return {}, {}, kept
    metrics = {}
    for name in reps[0]:
        values = [rep[name] for rep in reps]
        if name in DETERMINISTIC and len(set(values)) > 1:
            raise CountMismatch(f"{name} changed between traced repetitions: {values}")
        metrics[name] = values[0] if name in DETERMINISTIC else statistics.median(values)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    detail = {
        "repetitions": len(reps),
        "traced_pair_s": _timing(traced),
        "untraced_pair_s": _timing(untraced),
        "names_not_found": tracer.missing,
    }
    return metrics, detail, kept


def _write_spans(path: str, kept) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["command", "span_id", "parent_id", "name", "start_ns", "end_ns", "newton", "accepted", "rejected"]
        )
        for command, spans in kept:
            origin = min(s.start for s in spans)
            for s in spans:
                counts = s.info[:3] if s.name.startswith("stepper.") and s.info else ("", "", "")
                writer.writerow(
                    [command, s.sid, s.parent, s.name, s.start - origin, s.end - origin, *counts]
                )


def _repeat_check(path: str, counts: dict, digests: dict | None) -> dict:
    """Compare with an earlier run of the same source and scenario, or record this one."""
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        if json.loads(json.dumps(counts)) != earlier["counts"]:
            raise CountMismatch(f"deterministic counts differ from the earlier run recorded in {path}")
        return earlier["digests"]
    if digests is not None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"counts": counts, "digests": digests}, handle, indent=1)
    return {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import parcoil
    from gate import Gate
    from scenarios import config_text

    out = os.path.join(OUT, f"{workload}-seed{seed}")
    os.makedirs(out, exist_ok=True)
    text = config_text(workload, seed, _nproc())
    config_path = os.path.join(out, "config.cfg")
    with open(config_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    cfg = parcoil.load_run_config(config_path)
    workers = cfg.workers or 1

    counts, report = count_scenario(cfg)
    record_path = os.path.join(OUT, "records", f"{workload}-seed{seed}-{_source_hash(text)}.json")
    earlier = _repeat_check(record_path, counts, None)
    gate = Gate(cfg.parareal.tol_pr, earlier)
    commands = Commands(config_path, gate)

    # The first pair is the reference for the gate and warms the process.
    seq_dir, par_dir = os.path.join(out, "sequential"), os.path.join(out, "parareal")
    if commands.run("sequential", seq_dir) is not None and commands.run("parareal", par_dir) is not None:
        _check_cli_counts(counts, report, seq_dir, par_dir)

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config": os.path.relpath(config_path, ROOT),
        "machine": _machine(workers),
        "counts": counts,
    }
    if trace:
        metrics, detail, kept = _traced(commands, out, seconds, workers)
        spans_path = os.path.join(out, "spans.csv")
        if kept:
            _write_spans(spans_path, kept)
            result["spans"] = os.path.relpath(spans_path, ROOT)
        units = {**PER_LAYER, **PER_LAYER_EXTRA}
    else:
        metrics, detail, timeline = _timed(commands, out, seconds, config_path)
        result["timeline"] = {"samples": timeline.samples, "kernel_s": timeline.kernel_s}
        metrics["modelled_speedup"] = counts["modelled_speedup"]
        metrics["peak_rss_mb"] = _peak_rss_mb()
        metrics["ok_share"] = 1.0 - commands.failed / commands.attempted
        units = END_TO_END
    result.update(
        attempted=commands.attempted,
        failed=commands.failed,
        failures=commands.failures,
        max_temperature_gap_mk=1e3 * gate.max_gap_k,
        shared_times=gate.shared_times,
        detail=detail,
        metrics={name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    )
    if not commands.failures:
        _repeat_check(record_path, counts, gate.reference)
    return result


def _print_result(result: dict) -> None:
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    for name, stats in result["detail"].items():
        print(f"  {name:32s} {stats}")
    counts = result["counts"]
    print(
        f"  counts: sequential {counts['sequential']}, K={counts['iterations']}, "
        f"ghat {counts['ghat']}, sweeps {counts['sweeps']}, fine {counts['fine']}, "
        f"err_per_iter_mk {[round(e, 6) for e in counts['err_per_iter_mk']]}, "
        f"tol_margin {counts['tol_margin']:.4f}"
    )
    print(f"  machine: {result['machine']}")
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")


def _line(result: dict, names: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names if name in result["metrics"]},
    }


def _run_all(args) -> int:
    """Every workload in its own process; prints each one's table and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    from scenarios import WORKLOADS

    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="quench-fine, quench-coarse, linear-serial or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_source()
    import parcoil

    if not os.path.abspath(parcoil.__file__).startswith(SRC + os.sep):
        print(f"error: imported parcoil from {parcoil.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except CountMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, default=str)
    _print_result(result)
    print(json.dumps(_line(result, PER_LAYER if args.trace else END_TO_END)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
