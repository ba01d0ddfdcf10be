"""Shared harness for the per-table benchmark sweeps.

Each ``repro.tables.tableN_*`` module declares ``SIZES`` (system label
-> full and quick sizes) and ``point(spark, system, n) -> Meter``;
:func:`sweep` drives it and yields one :class:`Point` per cell. A
point's ``seconds`` is the meter's *hybrid clock* (wall + simulated
network + simulated gates, see :mod:`repro.mpc.accounting`); ``status``
mirrors the paper's figure annotations: ``ok``, ``oom`` (simulated MPC
VM out of memory) or ``dnf`` (simulated runtime exceeded the paper's
patience threshold, e.g. ">1 h").
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

from .mpc.accounting import Meter, SimulatedOOM

#: the paper declares DNF after one/two hours; we use one hour
DNF_SECONDS = 3600.0


@dataclass
class Point:
    system: str
    n: int
    seconds: float | None
    status: str  # ok | oom | dnf
    wall: float = 0.0
    sim: float = 0.0


def run_point(system: str, n: int, fn: Callable[[], Meter]) -> Point:
    """Run one (system, n) cell; classify OOM/DNF like the paper's plots."""
    t0 = time.perf_counter()
    try:
        meter = fn()
    except SimulatedOOM as e:
        print(f"  [{system} n={n}] {e}", file=sys.stderr)
        return Point(system, n, None, "oom", wall=time.perf_counter() - t0)
    secs = meter.hybrid_seconds()
    status = "dnf" if secs > DNF_SECONDS else "ok"
    return Point(
        system, n, secs, status,
        wall=meter.wall_seconds(), sim=meter.sim_seconds(),
    )


def sweep(spark, table: ModuleType, *, quick: bool = False) -> list[Point]:
    """Run ``table.point`` over every (system, n) cell of ``table.SIZES``,
    in declaration order, on the quick or the full sizes. The first cell
    runs once more before the sweep, untimed and unreported, so that no
    reported point carries Spark's and the JVM's warm-up."""
    cells = [(system, n) for system, (full, q) in table.SIZES.items()
             for n in (q if quick else full)]
    if cells:
        run_point(*cells[0], lambda: table.point(spark, *cells[0]))
    return [run_point(system, n, lambda: table.point(spark, system, n))
            for system, n in cells]


def format_table(title: str, points: list[Point]) -> str:
    """A fixed-width table matching the figure's data series."""
    lines = [title, "-" * len(title)]
    header = f"{'system':<22} {'n':>12} {'seconds':>12} {'status':>8} {'wall_s':>9} {'sim_s':>10}"
    lines.append(header)
    for p in points:
        sec = f"{p.seconds:.3f}" if p.seconds is not None else "-"
        lines.append(
            f"{p.system:<22} {p.n:>12} {sec:>12} {p.status:>8} "
            f"{p.wall:>9.3f} {p.sim:>10.3f}"
        )
    return "\n".join(lines)
