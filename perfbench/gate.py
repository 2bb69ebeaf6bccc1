"""Correctness gate applied to every command the benchmark runs.

A command fails when it exits non-zero or raises, when the columns of its
CSV outputs that do not depend on the wall clock differ from the first run
of the same kind (the README promises byte-identical reruns), or when the
parareal trajectory's max temperature differs from the sequential one by
more than ``tol_pr`` at a grid time both trajectories share.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os

# Columns that carry wall-clock times or values computed from them.
WALL_CLOCK_COLUMNS = frozenset(
    {"wall_s", "fine_wall_s", "coarse_wall_s", "baseline_wall_s", "speedup", "load_balance"}
)


def _is_wall_clock(column: str) -> bool:
    return column in WALL_CLOCK_COLUMNS or "wall" in column


def output_digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of every CSV in ``out_dir`` with its wall-clock columns removed."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        keep = [i for i, column in enumerate(rows[0]) if not _is_wall_clock(column)] if rows else []
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in rows:
            writer.writerow([row[i] for i in keep])
        digests[name] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return digests


def read_max_temperature(path: str) -> dict[str, float]:
    """``T_max_K`` of a trajectory CSV keyed by its ``time_s`` text."""
    with open(path, newline="", encoding="utf-8") as handle:
        return {row["time_s"]: float(row["T_max_K"]) for row in csv.DictReader(handle)}


def max_temperature_gap(sequential: dict[str, float], parareal: dict[str, float]) -> tuple[float, int]:
    """Largest |T_max difference| (K) over the shared grid times, and their count."""
    shared = sequential.keys() & parareal.keys()
    if not shared:
        return float("inf"), 0
    return max(abs(sequential[t] - parareal[t]) for t in shared), len(shared)


def output_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in os.listdir(out_dir)
        if name.endswith(".csv")
    )


class Gate:
    """Holds the first outputs of each command kind and judges every later one."""

    def __init__(self, tol_pr: float, expected: dict[str, dict[str, str]] | None = None):
        self.tol_pr = tol_pr
        # Digests from an earlier run of the same source and scenario, if any.
        self.reference: dict[str, dict[str, str]] = dict(expected or {})
        self.sequential_tmax: dict[str, float] | None = None
        self.max_gap_k = 0.0
        self.shared_times = 0

    def check(self, kind: str, rc, out_dir: str) -> list[str]:
        """Reasons the command of ``kind`` ('sequential' or 'parareal') failed; empty if it passed."""
        if rc != 0:
            return [f"{kind}: exit status {rc!r}"]
        reasons = []
        digests = output_digests(out_dir)
        ref = self.reference.setdefault(kind, digests)
        if digests != ref:
            changed = sorted(k for k in ref.keys() | digests.keys() if ref.get(k) != digests.get(k))
            reasons.append(f"{kind}: outputs differ from the first run in {', '.join(changed)}")
        tmax = read_max_temperature(os.path.join(out_dir, "trajectory.csv"))
        if kind == "sequential":
            if self.sequential_tmax is None:
                self.sequential_tmax = tmax
        elif self.sequential_tmax is None:
            reasons.append("parareal: no sequential trajectory to compare against")
        else:
            gap, shared = max_temperature_gap(self.sequential_tmax, tmax)
            self.max_gap_k = max(self.max_gap_k, gap)
            self.shared_times = shared
            if not gap <= self.tol_pr:
                reasons.append(
                    f"parareal: max temperature differs from sequential by {1e3 * gap:.6g} mK "
                    f"over {shared} shared times (tol_pr {1e3 * self.tol_pr:g} mK)"
                )
        return reasons
