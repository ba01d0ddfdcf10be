"""Table T4 — §7.3 Figure 6: the credit-card regulation query.

Two systems over growing total record counts:

* **conclave-hybrid** — trust annotations make the regulator an STP, so
  the compiler emits a hybrid join and one hybrid aggregation for the
  SUM and the COUNT, and the regulator divides in the clear;
* **sharemind** — the same query entirely under secret-sharing MPC,
  whose O(n²) join stops scaling in the tens of thousands (the paper's
  baseline does not complete 30k within two hours; our simulated VM
  OOMs on the quadratic pair state, the same cliff).

:func:`repro.bench_util.sweep` drives :data:`SIZES` through :func:`point`.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core.compiler import CompileOptions, compile_query
from ..mpc.accounting import Meter
from ..queries import credit_card as Q
from ..queries.base import gen_to_spark
from ..runtime.engine import Engine

#: system -> (full, quick) total card holders
SIZES = {
    "conclave-hybrid": ([300, 3000, 30_000, 300_000], [300, 3000]),
    "sharemind": ([300, 3000, 30_000], [300, 3000]),
}


def point(spark: SparkSession, system: str, n_total: int) -> Meter:
    spec = Q.build(with_trust=(system == "conclave-hybrid"))
    gen = Q.gen_inputs(n_holders=n_total)
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    eng = Engine(spark, [p.name for p in spec.parties])
    eng.run(plan, gen_to_spark(spark, gen)).collect()
    return eng.meter

