"""Closed-loop benchmark of compiled Conclave plans.

One client runs one query at a time in this process, against Spark in
local mode: ``compile_query`` + ``Engine.run`` on one of the paper's
queries, with the recipient's result collected as pandas. Every run's
result is checked against DuckDB over the cleartext union of the inputs,
outside the timed region.

    python3 perfbench/run.py --workload hhi-mpc --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, whose times are scaled to a reference host speed
(see :func:`calibrate`); with ``--trace 1`` it holds the per-layer
metrics of traced runs (interleaved with untraced ones, to measure the
tracing overhead), and the spans are written to ``.perfbench_out/``.
The line before it (``info: {...}``) records sizes, seed, environment,
sample counts and the deterministic cost-model figures.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, check_result, input_rows  # noqa: E402

#: gen + load + warm-up is repeated this many times; setup_s takes the median
SETUP_REPS = 3
#: timed runs made even when one run outlasts --seconds
MIN_RUNS = 3
#: Spark settings of the repo's own sweeps (repro.tables.cli), plus a
#: fixed core count and JVM heap so that two runs are comparable
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = "64"


# ------------------------------------------------------------------ spark
def make_spark(work: Path):
    """A quiet local SparkSession whose temporary files stay under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    # JVM options only take effect when given at launch; -XX:-UsePerfData
    # keeps both JVMs (Spark's launcher and Spark itself) out of /tmp
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-XX:-UsePerfData -Dlog4j2.configurationFile="
        f"file:{HERE / 'log4j2.properties'} -Djava.io.tmpdir={work}' pyspark-shell"
    )
    import tempfile

    tempfile.tempdir = str(work)
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(work / "spark"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def environment(spark, seed: int) -> dict:
    import numpy
    import pandas
    import pyspark

    conf = spark.sparkContext.getConf()
    return {
        "nproc": os.cpu_count(),
        "spark_master": spark.sparkContext.master,
        "driver_memory": conf.get("spark.driver.memory"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "spark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "python": platform.python_version(),
        "commit": commit(),
        "seed": seed,
    }


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


# ------------------------------------------------------- host speed
#: seconds :func:`calibrate` takes on the reference host (see README.md)
CALIBRATION_REF_S = 0.1


def calibrate() -> float:
    """Seconds a fixed CPU task takes now: a Python loop and a numpy sort.

    It runs between queries, outside the timed region, and touches nothing
    of the program, so its time moves only with the speed the host gives
    this process. Timings are scaled by ``CALIBRATION_REF_S / median`` of
    these samples, which cancels the minute-scale speed changes of a
    shared host that no sample count within one process can average out.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    keys = np.random.default_rng(0).integers(0, 1 << 40, 1_000_000)
    np.sort(keys)
    return time.perf_counter() - t0


# ---------------------------------------------------------------- memory
def _status_kb(field_name: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise KeyError(field_name)


def peak_alloc_mb(fn) -> tuple[float, object]:
    """Peak MB that Python objects and numpy arrays allocated by ``fn()``
    held at once (``tracemalloc``), and ``fn``'s result."""
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6, result


def reset_peak_rss() -> int:
    """Reset this process's RSS high-water mark; return the current RSS (kB)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return _status_kb("VmRSS")


# ----------------------------------------------------------------- runs
def clear_caches() -> int:
    """``cache_clear()`` every memo-cached callable of the loaded repro
    modules, so each timed run pays what a fresh process would."""
    cleared = 0
    for name, mod in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for obj in list(vars(mod).values()):
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for fn in members:
                if callable(getattr(fn, "cache_clear", None)) and hasattr(
                    fn, "cache_info"
                ):
                    fn.cache_clear()
                    cleared += 1
    return cleared


@dataclass
class Run:
    wall_s: float
    sim_s: float
    rounds: int
    mb: float
    error: str | None
    layers: dict = field(default_factory=dict)  # name -> (value, unit)


def plan_counts(plan) -> dict[str, tuple[float, str]]:
    """``core.*`` counts of a compiled plan, as ``name: (value, unit)``."""
    out = {f"core.nodes.{k}": 0.0 for k in ("mpc", "clear", "hybrid", "public")}
    for n in plan.nodes():
        out[f"core.nodes.{n.site[0]}"] += 1
    for k in ("concat_pushdown", "aggregation_split", "hybrid", "push_up"):
        out[f"core.rewrites.{k}"] = float(plan.rewrites.get(k, 0))
    out["core.sort_eliminated"] = float(sum(bool(n.input_sorted) for n in plan.nodes()))
    return {k: (v, "count") for k, v in out.items()}


class Harness:
    """One workload at one seed in one Spark session."""

    def __init__(self, spark, workload: Workload, seed: int, scale: float = 1.0):
        self.spark = spark
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.expected = None
        self.data = None
        self.rows = 0

    def setup(self) -> tuple[float, Run]:
        """Generate and load the inputs, then make one untimed warm-up run.
        Returns the seconds this took (oracle excluded) and the warm-up run."""
        import duckdb
        from repro.queries.base import gen_to_spark

        t0 = time.perf_counter()
        gen = self.workload.gen(self.seed, self.scale)
        self.data = gen_to_spark(self.spark, gen)
        load_s = time.perf_counter() - t0
        self.rows = input_rows(gen)
        if self.expected is None:
            con = duckdb.connect()
            try:
                for name, pdf in gen.items():
                    con.register(name, pdf)
                self.expected = con.execute(
                    self.workload.module().build().oracle_sql
                ).fetchdf()
            finally:
                con.close()
        warm = self.run()
        return load_s + warm.wall_s, warm

    def run(self, tracer: Tracer | None = None) -> Run:
        """One timed run: ``compile_query`` to the result as pandas."""
        from repro.core import compiler
        from repro.runtime.engine import Engine

        spec = self.workload.module().build()
        opts = compiler.CompileOptions(parties=spec.parties, **self.workload.options)
        parties = [p.name for p in spec.parties]
        clear_caches()
        gc.collect()
        if tracer is not None:
            tracer.run_id += 1
            tracer.install()
        t0 = time.perf_counter()
        try:
            plan = compiler.compile_query(spec.output, opts)
            eng = Engine(self.spark, parties)
            got = eng.run(plan, self.data).toPandas()
            wall = time.perf_counter() - t0
        except Exception as e:  # a failed run counts in error_rate
            traceback.print_exc()
            return Run(time.perf_counter() - t0, 0.0, 0, 0.0, f"raised {e!r}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        meter = eng.meter
        run = Run(wall, meter.sim_seconds(), meter.rounds, meter.bytes_sent / 1e6,
                  check_result(got, self.expected))
        if tracer is not None:
            run.layers = {
                **plan_counts(plan),
                **layer_metrics(tracer.run_spans(tracer.run_id), meter, wall),
            }
        return run


def measure(spark, workload: Workload, seed: int, seconds: float, trace: bool
            ) -> dict:
    """Set up, then run the closed loop for ``seconds``; returns a summary."""
    h = Harness(spark, workload, seed)
    setups, runs, calib = [], [], [calibrate()]
    for _ in range(SETUP_REPS):
        secs, warm = h.setup()
        setups.append(secs)
        runs.append(warm)
        calib.append(calibrate())
    warmups = len(runs)
    min_runs = 2 * MIN_RUNS if trace else MIN_RUNS
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    alloc_mb = None
    if not trace:
        # one run under tracemalloc, which slows it: not timed, but it
        # uses the loop's seconds and is one more warm-up for the loop
        alloc_mb, mem_run = peak_alloc_mb(h.run)
        runs.append(mem_run)
        if mem_run.error:
            alloc_mb = None
    gc.collect()
    rss0_kb = reset_peak_rss()
    timed: list[Run] = []
    traced: list[Run] = []
    while len(timed) + len(traced) < min_runs or time.perf_counter() - t0 < seconds:
        # traced and untraced runs alternate, so both see the same drift
        if trace and len(timed) > len(traced):
            traced.append(h.run(tracer))
        else:
            timed.append(h.run())
        calib.append(calibrate())
    loop_peak_kb = _status_kb("VmHWM") - rss0_kb
    runs += timed + traced
    failed = [r.error for r in runs if r.error]
    return {
        "harness": h,
        "setup_reps_s": setups,
        "warmups": warmups,
        # failed runs count in ``failed`` and in no median
        "timed": [r for r in timed if r.error is None],
        "traced": [r for r in traced if r.error is None],
        "attempted": len(runs),
        "failed": failed,
        "tracer": tracer,
        "calib_s": calib,
        "loop_peak_kb": loop_peak_kb,
        "peak_alloc_mb": alloc_mb,
    }


def end_to_end(res: dict, spark_start_s: float) -> dict:
    """End-to-end metrics; times are in reference-host seconds."""
    timed = res["timed"]
    speed = CALIBRATION_REF_S / median(res["calib_s"])
    wall = median([r.wall_s for r in timed]) * speed
    sim = median([r.sim_s for r in timed])
    return {
        "wall_s": (wall, "s"),
        "hybrid_s": (wall + sim, "s"),
        "rows_per_s": (res["harness"].rows / wall, "rows/s"),
        "setup_s": ((spark_start_s + median(res["setup_reps_s"])) * speed, "s"),
        "peak_alloc_mb": (res["peak_alloc_mb"], "MB"),
    }


def per_layer(res: dict) -> dict:
    traced = res["traced"]
    keys = traced[0].layers.keys()
    out = {k: (median([r.layers[k][0] for r in traced]), traced[0].layers[k][1])
           for k in keys}
    untraced = median([r.wall_s for r in res["timed"]])
    overhead = median([r.wall_s for r in traced]) / untraced - 1.0
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        t0 = time.perf_counter()
        spark = make_spark(work)
        spark_start_s = time.perf_counter() - t0
        try:
            env = environment(spark, args.seed)
            res = measure(spark, workload, args.seed, args.seconds, bool(args.trace))
        finally:
            stop_spark(spark)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = res["timed"] + res["traced"]
    if not res["timed"] or (args.trace and not res["traced"]) or (
            not args.trace and res["peak_alloc_mb"] is None):
        print(f"perfbench: no successful run to measure: {sorted(set(res['failed']))}",
              file=sys.stderr)
        return 1
    metrics = per_layer(res) if args.trace else end_to_end(res, spark_start_s)
    info = {
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.sizes,
        "options": workload.options,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "input_rows": res["harness"].rows,
        "env": env,
        "spark_start_s": spark_start_s,
        "setup_reps_s": res["setup_reps_s"],
        "samples": {"untraced": len(res["timed"]), "traced": len(res["traced"]),
                    "warmups": res["warmups"]},
        # measured seconds, before scaling to the reference host
        "wall_s_runs": [r.wall_s for r in res["timed"]],
        "wall_s_measured": median([r.wall_s for r in res["timed"]]),
        "calib_s": res["calib_s"],
        "loop_peak_rss_mb": res["loop_peak_kb"] / 1024.0,
        "speed": CALIBRATION_REF_S / median(res["calib_s"]),
        # deterministic for a fixed seed: a move is a cost-model change
        "sim_s": median([r.sim_s for r in timed]),
        "mpc_rounds": median([r.rounds for r in timed]),
        "mpc_mb": median([r.mb for r in timed]),
        "error_rate": len(res["failed"]) / res["attempted"],
        "errors": sorted(set(res["failed"])),
    }
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"{workload.name}-seed{args.seed}-spans.json"
        spans.write_text(json.dumps(res["tracer"].dump()))
        info["spans_file"] = str(spans.relative_to(ROOT))
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": not res["failed"],
        "attempted": res["attempted"],
        "failed": len(res["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
