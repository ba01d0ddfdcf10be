"""Table T1 — §2.3 Figure 1: single-operator scalability of MPC
frameworks vs cleartext Spark.

Three operators (grouped aggregation, join, projection) × three systems
(Sharemind-style secret sharing, Obliv-C-style garbled circuits,
insecure Spark), swept over input sizes on a log scale. Reproduces the
paper's observations: MPC aggregation/join die in the thousands-of-rows
regime, Obliv-C OOMs (join ~tens of k, projection ~hundreds of k), and
Spark handles millions of rows in seconds.

Each MPC operator is written once against the backend interface the
engine calls (``input_rel``, ``aggregate``, ``join``, ``project``,
``reveal``) and runs on the backend an :class:`~repro.runtime.engine.Engine`
builds for the system: Sharemind over three parties, or Obliv-C.

:func:`repro.bench_util.sweep` drives :data:`SIZES` through :func:`point`.
"""
from __future__ import annotations

import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from ..mpc.accounting import Meter
from ..runtime.engine import Engine
from ..synth_data import keyed


# ------------------------------------------------------------------ mpc
def _mpc_agg(be, n: int) -> None:
    rel = be.input_rel(keyed(n, seed=0, n_keys=max(1, n // 10)))
    be.aggregate(rel, ["k"], [("sum", "v", "s")])


def _mpc_join(be, n: int) -> None:
    left = be.input_rel(keyed(n, seed=1, n_keys=n))
    right = be.input_rel(keyed(n, seed=2, n_keys=n, value="w"))
    be.join(left, right, "k", "k")


def _mpc_project(be, n: int) -> None:
    be.reveal(be.project(be.input_rel(keyed(n, seed=0, n_keys=n)), ["k"]), "p1")


_MPC_OPS = {"agg": _mpc_agg, "join": _mpc_join, "project": _mpc_project}


# ---------------------------------------------------------------- spark
def _spark_op(spark: SparkSession, n: int, op: str) -> Meter:
    df = spark.createDataFrame(keyed(n, seed=1, n_keys=n)).cache()
    df.count()  # materialize input before timing, like the MPC inputs
    meter = Meter()
    if op == "agg":
        df.groupBy("k").agg(F.sum("v").alias("s")).count()
    elif op == "join":
        other = spark.createDataFrame(keyed(n, seed=2, n_keys=n, value="w"))
        df.join(other, on="k").count()
    else:
        df.select("k").count()
    df.unpersist()
    return meter


#: system/op -> (full, quick) input rows
SIZES = {
    "sharemind/agg": ([100, 1000, 10_000, 100_000], [100, 1000, 10_000]),
    "sharemind/join": ([100, 1000, 3000, 10_000], [100, 1000, 3000]),
    "sharemind/project": ([1000, 10_000, 100_000, 1_000_000], [1000, 100_000]),
    "oblivc/agg": ([100, 1000, 10_000, 100_000], [100, 1000, 10_000]),
    "oblivc/join": ([100, 1000, 10_000, 40_000], [100, 1000, 40_000]),
    "oblivc/project": ([1000, 100_000, 1_000_000], [1000, 1_000_000]),
    "spark/agg": ([10_000, 100_000, 1_000_000, 3_000_000], [10_000, 100_000]),
    "spark/join": ([10_000, 100_000, 1_000_000], [10_000, 100_000]),
    "spark/project": ([10_000, 100_000, 3_000_000], [10_000, 100_000]),
}


def point(spark: SparkSession, system: str, n: int) -> Meter:
    backend, op = system.split("/")
    if backend == "spark":
        return _spark_op(spark, n, op)
    eng = Engine(spark, ["p1", "p2", "p3"], backend=backend)
    _MPC_OPS[op](eng.backend, n)
    return eng.meter
