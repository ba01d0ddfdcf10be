"""Self-test of the benchmark at tiny sizes of every workload.

    python3 perfbench/selftest.py

For each workload it sets up the same seed twice and makes one traced run
on each, then checks that

* both results match the DuckDB oracle;
* ``sim_s``, ``mpc_rounds``, ``mpc_mb`` and the ``core.*`` counts repeat
  exactly;
* the rounds and bytes of the top-level spans sum to the meter totals,
  and the spans under ``engine.run`` account for every charge it made;
* the tracer leaves no wrapper behind.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import math
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as R  # noqa: E402
from tracer import Tracer  # noqa: E402

SCALE = 0.01
SEED = 3


def span_totals(tracer: Tracer, parent_name: str | None) -> tuple[int, float, int, float]:
    """(Σ rounds, Σ bytes) of the spans directly under the first span
    named ``parent_name`` (or of the top-level spans), and that parent's own."""
    spans = tracer.run_spans(tracer.run_id)
    if parent_name is None:
        parent, p_rounds, p_bytes = -1, None, None
    else:
        parent, top = next((i, s) for i, s in spans if s.name == parent_name)
        p_rounds, p_bytes = top.rounds, top.bytes
    kids = [s for _, s in spans if s.parent == parent]
    return sum(s.rounds for s in kids), sum(s.bytes for s in kids), p_rounds, p_bytes


def check_workload(spark, workload) -> list[str]:
    problems = []
    runs, tracer = [], Tracer()
    for _ in range(2):
        h = R.Harness(spark, workload, SEED, SCALE)
        h.setup()
        run = h.run(tracer)
        runs.append(run)
        if run.error:
            problems.append(f"oracle: {run.error}")
        rounds, nbytes, _, _ = span_totals(tracer, None)
        if rounds != run.rounds or not math.isclose(nbytes / 1e6, run.mb,
                                                    rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"top-level spans charge {rounds} rounds/{nbytes} B, "
                            f"meter has {run.rounds}/{run.mb * 1e6} B")
        rounds, nbytes, e_rounds, e_bytes = span_totals(tracer, "engine.run")
        if rounds != e_rounds or not math.isclose(nbytes, e_bytes, rel_tol=1e-9,
                                                  abs_tol=1e-6):
            problems.append(f"engine.run charged {e_rounds}/{e_bytes} B, its "
                            f"child spans {rounds}/{nbytes} B")
    a, b = runs
    if (a.sim_s, a.rounds, a.mb) != (b.sim_s, b.rounds, b.mb):
        problems.append(f"cost differs: {(a.sim_s, a.rounds, a.mb)} vs "
                        f"{(b.sim_s, b.rounds, b.mb)}")
    core = [{k: v for k, v in r.layers.items() if k.startswith("core.")
             and k != "core.compile_s"} for r in runs]
    if core[0] != core[1]:
        problems.append(f"core counts differ: {core}")
    return problems


def main() -> int:
    from repro.mpc.secret_sharing import SecretSharingVM

    original_mul = SecretSharingVM.mul
    work = R.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    failures = 0
    try:
        spark = R.make_spark(work)
        try:
            for name, workload in R.WORKLOADS.items():
                problems = check_workload(spark, workload)
                failures += bool(problems)
                print(f"{name}: {'ok' if not problems else 'FAIL'}")
                for p in problems:
                    print(f"  {p}")
            if R.clear_caches() < 1:
                failures += 1
                print("clear_caches: found no memo-cached callable")
            if SecretSharingVM.mul is not original_mul:
                failures += 1
                print("tracer: SecretSharingVM.mul is still wrapped")
        finally:
            R.stop_spark(spark)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
