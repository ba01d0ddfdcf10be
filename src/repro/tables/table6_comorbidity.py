"""Table T6 — §7.4 Figure 7b: the comorbidity query, Conclave vs SMCQL.

Both systems run the identical compiled split-aggregation plan (local
Spark pre-counts, MPC combine + order-by + limit 10) through
:func:`~repro.smcql.runners.run_comorbidity`; the only difference is the
MPC backend — Conclave's secret sharing (Sharemind-style) vs SMCQL's
garbled circuits at ObliVM's gate rate — which is exactly the paper's
explanation for the Figure 7b gap. Distinct diagnosis keys are 10% of
the per-party row count, per §7.4.

:func:`repro.bench_util.sweep` drives :data:`SIZES` through :func:`point`.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..mpc.accounting import Meter
from ..queries import comorbidity as Q
from ..smcql.runners import oblivm_meter, run_comorbidity

#: system -> (full, quick) rows per party
SIZES = {
    "conclave": ([2000, 20_000, 200_000], [2000, 20_000]),
    "smcql": ([2000, 20_000, 200_000], [2000, 20_000]),
}

#: system -> (MPC backend, meter factory)
_BACKENDS = {"conclave": ("sharemind", Meter), "smcql": ("oblivc", oblivm_meter)}


def point(spark: SparkSession, system: str, n_per_party: int) -> Meter:
    gen = Q.gen_inputs(n_per_party=n_per_party, distinct_key_frac=0.1, seed=1)
    backend, new_meter = _BACKENDS[system]
    _, meter = run_comorbidity(spark, gen, backend=backend, meter=new_meter())
    return meter
