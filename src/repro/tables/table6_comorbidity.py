"""Table T6 — §7.4 Figure 7b: the comorbidity query, Conclave vs SMCQL.

Both systems run the identical split-aggregation plan (local Spark
pre-counts, MPC combine + order-by + limit 10); the difference is the
MPC backend — Conclave's secret-sharing (Sharemind-style) vs SMCQL's
garbled circuits (ObliVM-style) — which is exactly the paper's
explanation for the Figure 7b gap. Distinct diagnosis keys are 10% of
the per-party row count, per §7.4.

:func:`repro.bench_util.sweep` drives :data:`SIZES` through :func:`point`.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..mpc.accounting import Meter
from ..queries import comorbidity as Q
from ..smcql.runners import run_comorbidity_conclave, run_comorbidity_smcql

#: system -> (full, quick) rows per party
SIZES = {
    "conclave": ([2000, 20_000, 200_000], [2000, 20_000]),
    "smcql": ([2000, 20_000, 200_000], [2000, 20_000]),
}


def point(spark: SparkSession, system: str, n_per_party: int) -> Meter:
    gen = Q.gen_inputs(n_per_party=n_per_party, distinct_key_frac=0.1, seed=1)
    runner = (
        run_comorbidity_conclave if system == "conclave" else run_comorbidity_smcql
    )
    _, meter = runner(spark, gen)
    return meter

