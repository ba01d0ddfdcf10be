"""§7.4 execution modes for the aspirin-count and comorbidity queries.

Four runners, matching the paper's Figure 7 comparison:

* ``run_aspirin_smcql`` — SMCQL: slicing on the public patient ID, then
  one small garbled-circuit MPC *per shared slice* on the ObliVM
  backend (join + filters + distinct contribution), single-party slices
  processed locally in Spark;
* ``run_aspirin_conclave`` — Conclave: slicing + §5.3 public join, the
  shared-slice rows entering one secret-sharing MPC; §5.4 sort
  elimination makes the MPC distinct-count a linear scan;
* ``run_comorbidity_smcql`` — split aggregation (local Spark pre-agg) +
  ObliVM garbled circuits for the combine/sort/limit;
* ``run_comorbidity_conclave`` — the same plan on the Sharemind-style
  secret-sharing backend (via the generic engine).

Each runner returns ``(result, meter)``; runtimes are the meter's hybrid
clock.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from .. import synth_data
from ..backends.oblivc_sim import OBLIVM_GATES_PER_SECOND
from ..backends.spark_clear import join_index_pairs
from ..core.compiler import CompileOptions, compile_query
from ..mpc import protocols as P
from ..mpc.accounting import Meter
from ..mpc.circuits import gate_counts
from ..mpc.gc_backend import WIRE_BYTES, batcher_comparators
from ..mpc.secret_sharing import SecretSharingVM
from ..mpc.shared_rel import SharedRelation, share_dataframe
from ..queries import aspirin, comorbidity
from ..queries.base import gen_to_spark
from ..runtime.engine import Engine
from .slicing import key_locations, slice_by_key

_GC_BITS = 32
#: SMCQL spawns one ObliVM garbled-circuit session per shared slice;
#: session setup (JVM circuit generation + OT base phase) costs ~1 s —
#: this is what makes sliced execution minutes-slow at tens of
#: thousands of records (Figure 7a: 14.3 min at 40k rows ≈ 800 slices).
SMCQL_SLICE_SETUP_SECONDS = 1.0


def _oblivm_meter(memory_cap_gib: int = 32) -> Meter:
    """§7.4 setup: SMCQL experiments ran on 32 GB VMs."""
    m = Meter(gc_gates_per_second=OBLIVM_GATES_PER_SECOND)
    m.memory_cap_bytes = memory_cap_gib << 30
    return m


def _local_aspirin_count(spark: SparkSession, diag: pd.DataFrame,
                         med: pd.DataFrame) -> int:
    """One party's clear contribution: distinct c.diff+aspirin patients
    among its single-party slices, computed in Spark."""
    if len(diag) == 0 or len(med) == 0:
        return 0
    d = spark.createDataFrame(diag).where(
        F.col("diag") == synth_data.CDIFF_CODE
    )
    m = spark.createDataFrame(med).where(
        F.col("med") == synth_data.ASPIRIN_CODE
    )
    row = (
        d.join(m, on="patient_id")
        .agg(F.countDistinct("patient_id").alias("c"))
        .collect()[0]
    )
    return int(row["c"])


def _slice_aspirin(gen: dict[str, pd.DataFrame]):
    diag_parts = {"h1": gen["diag_h1"], "h2": gen["diag_h2"]}
    med_parts = {"h1": gen["med_h1"], "h2": gen["med_h2"]}
    locs = key_locations([diag_parts, med_parts], "patient_id")
    return (
        slice_by_key(diag_parts, "patient_id", key_locations=locs),
        slice_by_key(med_parts, "patient_id", key_locations=locs),
    )


def run_aspirin_smcql(
    spark: SparkSession, gen: dict[str, pd.DataFrame], *, meter: Meter | None = None
) -> tuple[int, Meter]:
    meter = meter or _oblivm_meter()
    meter.restart_wall()
    dslice, mslice = _slice_aspirin(gen)
    # single-party slices: local cleartext Spark processing
    count = sum(
        _local_aspirin_count(spark, dslice.single[p], mslice.single[p])
        for p in ("h1", "h2")
    )
    # shared slices: one garbled-circuit MPC per patient slice. SMCQL
    # runs the join *obliviously within each slice* — quadratic in slice
    # size — plus filters and the distinct-count contribution.
    dsh = pd.concat(dslice.shared.values(), ignore_index=True)
    msh = pd.concat(mslice.shared.values(), ignore_index=True)
    dsizes = dsh["patient_id"].value_counts()
    msizes = msh["patient_id"].value_counts()
    sizes = pd.concat([dsizes, msizes], axis=1, keys=["d", "m"]).fillna(0)
    pair_count = float((sizes["d"] * sizes["m"]).sum())
    eq_and, _ = gate_counts("eq", _GC_BITS)
    mux_and, _ = gate_counts("mux", _GC_BITS)
    # per candidate pair: key-eq + the two filter comparisons + result mux
    meter.charge_gates(and_gates=pair_count * (3 * eq_and + 2 * mux_and))
    # per-slice MPCs are small; memory is the largest single slice
    max_pairs = float((sizes["d"] * sizes["m"]).max()) if len(sizes) else 0.0
    meter.charge_memory("smcql slice join", max_pairs * 3 * _GC_BITS * WIRE_BYTES)
    # one ObliVM session per shared slice
    meter.charge_extra(len(sizes) * SMCQL_SLICE_SETUP_SECONDS)
    # semantic result of the sliced MPCs
    matched = dsh[dsh["diag"] == synth_data.CDIFF_CODE].merge(
        msh[msh["med"] == synth_data.ASPIRIN_CODE], on="patient_id"
    )
    count += int(matched["patient_id"].nunique())
    return count, meter


def run_aspirin_conclave(
    spark: SparkSession, gen: dict[str, pd.DataFrame], *, meter: Meter | None = None
) -> tuple[int, Meter]:
    meter = meter or Meter()
    meter.restart_wall()
    dslice, mslice = _slice_aspirin(gen)
    count = sum(
        _local_aspirin_count(spark, dslice.single[p], mslice.single[p])
        for p in ("h1", "h2")
    )
    # public join on the shared slices, in the clear (Spark), sorted by
    # patient_id — so the MPC distinct-count needs no oblivious sort
    dsh = {p: df for p, df in dslice.shared.items()}
    msh = {p: df for p, df in mslice.shared.items()}
    vm = SecretSharingVM(n_parties=2, meter=meter, seed=5)
    d_all = pd.concat(
        [dsh["h1"], dsh["h2"]], keys=["h1", "h2"]
    ).reset_index(level=0, names="src_d").reset_index(drop=True)
    m_all = pd.concat(
        [msh["h1"], msh["h2"]], keys=["h1", "h2"]
    ).reset_index(level=0, names="src_m").reset_index(drop=True)
    if len(d_all) == 0 or len(m_all) == 0:
        return count, meter  # no shared slices: nothing enters MPC
    d_all["dgid"] = np.arange(len(d_all))
    m_all["mgid"] = np.arange(len(m_all))
    # key columns travel in the clear
    meter.charge_comm(rounds=1, bytes_sent=8.0 * (len(d_all) + len(m_all)))
    ddf = spark.createDataFrame(d_all[["patient_id", "dgid"]])
    mdf = spark.createDataFrame(m_all[["patient_id", "mgid"]])
    dgid, mgid = join_index_pairs(ddf, mdf, "patient_id", "dgid", "mgid")
    # share only the matched rows' private columns into MPC
    d_needed, li = np.unique(dgid, return_inverse=True)
    m_needed, ri = np.unique(mgid, return_inverse=True)
    d_shared = share_dataframe(
        vm, d_all.iloc[d_needed][["patient_id", "diag"]].astype(np.int64)
    )
    m_shared = share_dataframe(
        vm, m_all.iloc[m_needed][["med"]].astype(np.int64)
    )
    key = vm.take(d_shared.columns["patient_id"], li)
    diag = vm.take(d_shared.columns["diag"], li)
    med = vm.take(m_shared.columns["med"], ri)
    if len(dgid) == 0:
        return count, meter
    f1 = P.filter_eq_flags(vm, diag, synth_data.CDIFF_CODE)
    f2 = P.filter_eq_flags(vm, med, synth_data.ASPIRIN_CODE)
    mask = vm.mul(f1, f2)
    cnt = vm.reveal(P.distinct_count_sorted(vm, key, mask))[0]
    return count + int(cnt), meter


def run_comorbidity_smcql(
    spark: SparkSession, gen: dict[str, pd.DataFrame], *, top_k: int = 10,
    meter: Meter | None = None,
) -> tuple[pd.DataFrame, Meter]:
    meter = meter or _oblivm_meter()
    meter.restart_wall()
    # split aggregation: local pre-counts in Spark at each hospital
    partials = []
    for name in ("cdiag_h1", "cdiag_h2"):
        pdf = (
            spark.createDataFrame(gen[name])
            .groupBy("diag")
            .agg(F.count(F.lit(1)).alias("cnt"))
            .toPandas()
        )
        partials.append(pdf)
    combined = pd.concat(partials, ignore_index=True).astype(np.int64)
    # MPC combine + sort + limit under ObliVM-style garbled circuits
    from ..backends.oblivc_sim import OblivcBackend

    be = OblivcBackend(meter)
    rel = be.input_rel(combined)
    agg = be.aggregate(rel, ["diag"], "sum", "cnt", "cnt")
    top = be.gc.top_k_by(agg, "cnt", top_k)
    return be.reveal(top), meter


def run_comorbidity_conclave(
    spark: SparkSession, gen: dict[str, pd.DataFrame], *, meter: Meter | None = None
) -> tuple[pd.DataFrame, Meter]:
    spec = comorbidity.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    eng = Engine(spark, [p.name for p in spec.parties],
                 meter=meter or Meter())
    df = eng.run(plan, gen_to_spark(spark, gen))
    return df.toPandas(), eng.meter
