"""Table T2 — §7.1 Figure 4: the market-concentration (HHI) query.

Three systems over growing per-party trip counts:

* **conclave** — full compiler (frontier push-down + aggregation split):
  all heavy lifting in local Spark jobs, a few rows under MPC;
* **sharemind** — the whole query under secret-sharing MPC (push-down
  and sort elimination disabled: the parties' rows are sorted under MPC,
  not merged), which dies in the ~100k regime like the paper's baseline;
* **insecure spark** — the query in the clear on the unioned data.

The paper runs to 1.3 B rows on a 9-node cluster; we sweep to 1 M rows
per party (3 M total) on one box — Conclave's curve is linear in input
size in both, so the shape comparison holds.

:func:`repro.bench_util.sweep` drives :data:`SIZES` through :func:`point`.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..backends.spark_clear import run_query_clear
from ..core.compiler import CompileOptions, compile_query
from ..mpc.accounting import Meter
from ..queries import market_concentration as Q
from ..queries.base import gen_to_spark
from ..runtime.engine import Engine

#: system -> (full, quick) rows per party
SIZES = {
    "conclave": ([1000, 10_000, 100_000, 1_000_000], [1000, 10_000]),
    "sharemind": ([1000, 10_000, 100_000], [1000, 10_000]),
    "insecure-spark": ([1000, 10_000, 100_000, 1_000_000], [1000, 10_000]),
}


def point(spark: SparkSession, system: str, n_per_party: int) -> Meter:
    gen = Q.gen_inputs(n_per_party=n_per_party)
    spec = Q.build()
    data = gen_to_spark(spark, gen)
    if system == "insecure-spark":
        meter = Meter()
        run_query_clear(spark, spec.output, data).collect()
        return meter
    conclave = system == "conclave"
    opts = CompileOptions(
        parties=spec.parties,
        allow_cardinality_leaking_pushdown=conclave,
        enable_push_up=conclave,
        enable_sort_elimination=conclave,
    )
    plan = compile_query(spec.output, opts)
    eng = Engine(spark, [p.name for p in spec.parties])
    eng.run(plan, data).collect()
    return eng.meter

