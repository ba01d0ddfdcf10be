"""Table T3 — §7.2 Figure 5: hybrid operator microbenchmarks.

Single-operator queries (one join / one aggregation) over synthetic
keyed data, compiled three ways:

* **mpc-join / mpc-agg** — no trust annotations: the operator runs fully
  under secret-sharing MPC (O(n²) join, O(n log² n) sort-based agg);
* **hybrid-join / hybrid-agg** — key/group column annotated with a
  selectively-trusted third party: the §5.3 hybrid protocols apply;
* **public-join** — public key columns: the §5.3 public join avoids MPC
  altogether.

Aggregation splitting is disabled so the benchmark measures the
operator, not the push-down (as in the paper's Figure 5 setup), and so
is §5.4 sort elimination, so that the MPC aggregation sorts its input
rather than merging the parties' pre-sorted parts.

:func:`repro.bench_util.sweep` drives :data:`SIZES` through :func:`point`.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core import dag as D
from ..core.columns import Column, Party
from ..core.compiler import CompileOptions, compile_query
from ..core.lang import concat, newTable
from ..mpc.accounting import Meter
from ..runtime.engine import Engine
from ..synth_data import keyed


def _parties():
    return Party("a"), Party("b"), Party("c")


def _key_col(mode: str, pc: Party) -> Column:
    if mode == "public":
        return Column("k", public=True)
    if mode == "hybrid":
        return Column("k", trust=(pc,))
    return Column("k")


def _join_query(mode: str):
    pa, pb, pc = _parties()
    left = newTable([_key_col(mode, pc), Column("v")], at=pa, name="jl")
    right = newTable([_key_col(mode, pc), Column("w")], at=pb, name="jr")
    out = left.join(right, left="k", right="k").collect(to=[pa])
    return out, [pa, pb, pc]


def _agg_query(mode: str):
    pa, pb, pc = _parties()
    mk = lambda: [_key_col(mode, pc), Column("v")]  # noqa: E731
    t = concat(
        [newTable(mk(), at=pa, name="ga"), newTable(mk(), at=pb, name="gb")]
    )
    out = t.aggregate("s", D.SUM, group=["k"], over="v").collect(to=[pa])
    return out, [pa, pb, pc]


#: mode-op -> (full, quick) rows per party
SIZES = {
    "mpc-join": ([200, 1000, 3000, 10_000], [200, 1000]),
    "hybrid-join": ([1000, 10_000, 100_000, 200_000], [1000, 10_000]),
    "public-join": ([1000, 10_000, 200_000, 2_000_000], [1000, 10_000]),
    "mpc-agg": ([1000, 10_000, 50_000], [1000, 10_000]),
    "hybrid-agg": ([10_000, 100_000, 1_000_000], [10_000]),
}


def point(spark: SparkSession, system: str, n_per_party: int) -> Meter:
    mode, op = system.split("-")
    output, parties = _join_query(mode) if op == "join" else _agg_query(mode)
    plan = compile_query(
        output,
        CompileOptions(parties=parties, allow_cardinality_leaking_pushdown=False,
                       enable_sort_elimination=False),
    )
    if system == "mpc-join":
        assert [j.site for j in plan.dag.nodes_of_type(D.Join)] == [("mpc",)]
    eng = Engine(spark, [p.name for p in parties])
    if op == "join":
        data = {
            "jl": keyed(n_per_party, seed=1, n_keys=n_per_party),
            "jr": keyed(n_per_party, seed=2, n_keys=n_per_party, value="w"),
        }
    else:
        n_keys = max(1, n_per_party // 10)
        data = {
            "ga": keyed(n_per_party, seed=3, n_keys=n_keys),
            "gb": keyed(n_per_party, seed=4, n_keys=n_keys),
        }
    eng.run(plan, {k: spark.createDataFrame(v) for k, v in data.items()}).collect()
    return eng.meter
