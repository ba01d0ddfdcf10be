"""Table T1 — §2.3 Figure 1: single-operator scalability of MPC
frameworks vs cleartext Spark.

Three operators (grouped aggregation, join, projection) × three systems
(Sharemind-style secret sharing, Obliv-C-style garbled circuits,
insecure Spark), swept over input sizes on a log scale. Reproduces the
paper's observations: MPC aggregation/join die in the thousands-of-rows
regime, Obliv-C OOMs (join ~tens of k, projection ~hundreds of k), and
Spark handles millions of rows in seconds.

:func:`repro.bench_util.sweep` drives :data:`SIZES` through :func:`point`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from ..mpc import protocols as P
from ..mpc.accounting import Meter
from ..mpc.gc_backend import GCBackend
from ..mpc.secret_sharing import SecretSharingVM
from ..mpc.shared_rel import share_dataframe


def _keyed(n: int, seed: int = 0, n_keys: int | None = None) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    n_keys = n_keys or max(1, n)
    return pd.DataFrame(
        {
            "k": g.integers(1, n_keys + 1, n).astype(np.int64),
            "v": g.integers(0, 1000, n).astype(np.int64),
        }
    )


# ------------------------------------------------------------- sharemind
def _sharemind_agg(n: int) -> Meter:
    meter = Meter()
    vm = SecretSharingVM(3, meter, seed=1)
    rel = share_dataframe(vm, _keyed(n, n_keys=max(1, n // 10)))
    P.aggregate_sum_by_key(vm, rel, "k", "v", np.random.default_rng(1))
    return meter


def _sharemind_join(n: int) -> Meter:
    meter = Meter()
    vm = SecretSharingVM(3, meter, seed=2)
    left = share_dataframe(vm, _keyed(n, seed=1, n_keys=n))
    right = share_dataframe(vm, _keyed(n, seed=2, n_keys=n).rename(columns={"v": "w"}))
    P.join_cartesian(vm, left, right, "k", "k", np.random.default_rng(2))
    return meter


def _sharemind_project(n: int) -> Meter:
    meter = Meter()
    vm = SecretSharingVM(3, meter, seed=3)
    rel = share_dataframe(vm, _keyed(n))
    out = rel.project(["k"])
    vm.reveal(out.columns["k"])
    return meter


# --------------------------------------------------------------- oblivc
def _oblivc_agg(n: int) -> Meter:
    meter = Meter()
    be = GCBackend(meter)
    rel = be.input_rel(_keyed(n, n_keys=max(1, n // 10)))
    be.agg_sum_by_key(rel, "k", "v")
    return meter


def _oblivc_join(n: int) -> Meter:
    meter = Meter()
    be = GCBackend(meter)
    left = be.input_rel(_keyed(n, seed=1, n_keys=n))
    right = be.input_rel(_keyed(n, seed=2, n_keys=n).rename(columns={"v": "w"}))
    be.join(left, right, "k", "k")
    return meter


def _oblivc_project(n: int) -> Meter:
    meter = Meter()
    be = GCBackend(meter)
    rel = be.input_rel(_keyed(n))
    be.reveal(be.project(rel, ["k"]))
    return meter


# ---------------------------------------------------------------- spark
def _spark_op(spark: SparkSession, n: int, op: str) -> Meter:
    df = spark.createDataFrame(_keyed(n, seed=1)).cache()
    df.count()  # materialize input before timing, like the MPC inputs
    meter = Meter()
    if op == "agg":
        df.groupBy("k").agg(F.sum("v").alias("s")).count()
    elif op == "join":
        other = spark.createDataFrame(
            _keyed(n, seed=2).rename(columns={"v": "w"})
        )
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

_MPC_KERNELS = {
    "sharemind/agg": _sharemind_agg,
    "sharemind/join": _sharemind_join,
    "sharemind/project": _sharemind_project,
    "oblivc/agg": _oblivc_agg,
    "oblivc/join": _oblivc_join,
    "oblivc/project": _oblivc_project,
}


def point(spark: SparkSession, system: str, n: int) -> Meter:
    backend, op = system.split("/")
    if backend == "spark":
        return _spark_op(spark, n, op)
    return _MPC_KERNELS[system](n)
