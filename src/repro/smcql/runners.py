"""§7.4 execution modes for the aspirin-count and comorbidity queries.

Three runners, matching the paper's Figure 7 comparison:

* ``run_aspirin_smcql`` — SMCQL: slicing on the public patient ID
  (:func:`slice_aspirin`, after Bater et al. [3]), then
  one small garbled-circuit MPC *per shared slice* on the ObliVM
  backend (join + filters + distinct contribution), single-party slices
  processed locally in Spark;
* ``run_aspirin_conclave`` — Conclave on the same slices: single-party
  slices processed locally in Spark, the shared slices run through the
  compiled aspirin plan (``compile_query`` + ``Engine.run``: §5.3 public
  join into one secret-sharing MPC, whose distinct count over the public
  patient ID sums the filter mask per patient share-locally and makes
  one equality batch over the patients). The slicing is applied by
  hand, as in the paper; the compiler has no slicing pass;
* ``run_comorbidity`` — the compiled comorbidity plan (§5.2 split
  aggregation: local Spark pre-counts, then the MPC combine, sort and
  limit) on the MPC backend it is given. Conclave runs it on the
  Sharemind-style secret-sharing backend; SMCQL runs the same plan on
  the garbled-circuit backend with the ObliVM meter
  (:func:`oblivm_meter`), so the two differ in the backend alone.

Each runner returns ``(result, meter)``; runtimes are the meter's hybrid
clock.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from .. import synth_data
from ..core.compiler import CompileOptions, compile_query
from ..mpc.accounting import Meter
from ..mpc.circuits import gate_counts
from ..mpc.gc_backend import BIT_WIDTH, OBLIVM_GATES_PER_SECOND, WIRE_BYTES
from ..queries import aspirin, comorbidity
from ..queries.base import gen_to_spark
from ..runtime.engine import Engine

#: SMCQL spawns one ObliVM garbled-circuit session per shared slice;
#: session setup (JVM circuit generation + OT base phase) costs ~1 s —
#: this is what makes sliced execution minutes-slow at tens of
#: thousands of records (Figure 7a: 14.3 min at 40k rows ≈ 800 slices).
SMCQL_SLICE_SETUP_SECONDS = 1.0


def oblivm_meter(memory_cap_gib: int = 32) -> Meter:
    """§7.4 setup: SMCQL experiments ran on 32 GB VMs."""
    m = Meter(gc_gates_per_second=OBLIVM_GATES_PER_SECOND)
    m.memory_cap_bytes = memory_cap_gib << 30
    return m


def slice_aspirin(gen: dict[str, pd.DataFrame]
                  ) -> tuple[dict[str, pd.DataFrame], dict[str, pd.DataFrame]]:
    """SMCQL's slicing of the aspirin inputs on the public patient ID: a
    patient whose rows, in either relation, sit at both hospitals is
    shared (MPC-bound); every other patient's rows stay with the one
    hospital that holds them. Returns each input's single-party rows and
    its shared rows, by input name, each in input order."""
    held = [np.union1d(gen[f"diag_{p}"]["patient_id"], gen[f"med_{p}"]["patient_id"])
            for p in ("h1", "h2")]
    both = np.intersect1d(*held)
    single, shared = {}, {}
    for name, pdf in gen.items():
        mask = pdf["patient_id"].isin(both).to_numpy()
        single[name] = pdf[~mask].reset_index(drop=True)
        shared[name] = pdf[mask].reset_index(drop=True)
    return single, shared


def _local_counts(spark: SparkSession, single: dict[str, pd.DataFrame]) -> int:
    """Each hospital's clear contribution, summed: the distinct
    c.diff+aspirin patients among its single-party slices, computed in
    Spark."""
    count = 0
    for p in ("h1", "h2"):
        diag, med = single[f"diag_{p}"], single[f"med_{p}"]
        if len(diag) == 0 or len(med) == 0:
            continue
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
        count += int(row["c"])
    return count


def run_aspirin_smcql(
    spark: SparkSession, gen: dict[str, pd.DataFrame], *, meter: Meter | None = None
) -> tuple[int, Meter]:
    meter = meter or oblivm_meter()
    meter.restart_wall()
    single, shared = slice_aspirin(gen)
    # single-party slices: local cleartext Spark processing
    count = _local_counts(spark, single)
    # shared slices: one garbled-circuit MPC per patient slice. SMCQL
    # runs the join *obliviously within each slice* — quadratic in slice
    # size — plus filters and the distinct-count contribution.
    dsh, msh = (pd.concat([shared[f"{rel}_{p}"] for p in ("h1", "h2")], ignore_index=True)
                for rel in ("diag", "med"))
    dsizes = dsh["patient_id"].value_counts()
    msizes = msh["patient_id"].value_counts()
    sizes = pd.concat([dsizes, msizes], axis=1, keys=["d", "m"]).fillna(0)
    pair_count = float((sizes["d"] * sizes["m"]).sum())
    eq_and, _ = gate_counts("eq", BIT_WIDTH)
    mux_and, _ = gate_counts("mux", BIT_WIDTH)
    # per candidate pair: key-eq + the two filter comparisons + result mux
    meter.charge_gates(and_gates=pair_count * (3 * eq_and + 2 * mux_and))
    # per-slice MPCs are small; memory is the largest single slice
    max_pairs = float((sizes["d"] * sizes["m"]).max()) if len(sizes) else 0.0
    meter.charge_memory("smcql slice join", max_pairs * 3 * BIT_WIDTH * WIRE_BYTES)
    # one ObliVM session per shared slice
    meter.charge_extra(len(sizes) * SMCQL_SLICE_SETUP_SECONDS)
    # semantic result of the sliced MPCs
    dkeys = dsh.loc[dsh["diag"] == synth_data.CDIFF_CODE, "patient_id"].to_numpy()
    mkeys = msh.loc[msh["med"] == synth_data.ASPIRIN_CODE, "patient_id"].to_numpy()
    count += len(np.intersect1d(dkeys, mkeys))
    return count, meter


def run_aspirin_conclave(
    spark: SparkSession, gen: dict[str, pd.DataFrame], *, meter: Meter | None = None
) -> tuple[int, Meter]:
    """Conclave on SMCQL's slices, as in §7.4: each hospital counts its
    single-party slices locally in Spark, and the four shared slices run
    through the compiled aspirin plan (§5.3 public join, §5.4 sort
    elimination) on the secret-sharing engine, whose revealed ``rx_cnt``
    is added to the local counts.

    ``Engine.run`` restarts its meter's wall clock, so the engine keeps a
    meter of its own and its simulated cost is added to ``meter``, whose
    wall clock spans the slicing, the local counts and the engine."""
    meter = meter or Meter()
    meter.restart_wall()
    single, shared = slice_aspirin(gen)
    count = _local_counts(spark, single)
    d_rows, m_rows = (sum(len(shared[f"{rel}_{p}"]) for p in ("h1", "h2"))
                      for rel in ("diag", "med"))
    if d_rows == 0 or m_rows == 0:
        return count, meter  # the shared join is empty: nothing enters MPC
    spec = aspirin.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    eng = Engine(spark, [p.name for p in spec.parties])
    rx = eng.run(plan, gen_to_spark(spark, shared)).toPandas()
    meter.charge_comm(rounds=eng.meter.rounds, bytes_sent=eng.meter.bytes_sent)
    return count + int(rx["rx_cnt"].iloc[0]), meter


def run_comorbidity(
    spark: SparkSession, gen: dict[str, pd.DataFrame], *,
    backend: str = "sharemind", meter: Meter | None = None,
) -> tuple[pd.DataFrame, Meter]:
    """The compiled comorbidity plan on ``Engine(backend=backend)``."""
    spec = comorbidity.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    eng = Engine(spark, [p.name for p in spec.parties], backend=backend,
                 meter=meter)
    df = eng.run(plan, gen_to_spark(spark, gen))
    return df.toPandas(), eng.meter
