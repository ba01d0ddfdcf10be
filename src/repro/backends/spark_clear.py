"""Cleartext execution of DAG nodes as Spark DataFrame operations.

Every local per-party step and recipient post-processing step the
compiler produces is executed here through the DataFrame API (so
Catalyst plans it); the same functions power the "insecure Spark"
baseline that runs a whole query in the clear over the unioned inputs
(§7.1's insecure comparison line). The key join and sort of a hybrid or
public operator run in numpy: the STP's in
:class:`repro.backends.sharemind_sim.SharemindBackend`, the public
join's in :mod:`repro.runtime.engine`.
"""
from __future__ import annotations

from functools import reduce

import pandas as pd
import pyspark.sql.functions as F
import pyspark.sql.types as T
from pyspark.sql import DataFrame, SparkSession

from ..core import dag as D

_OPS = {
    "==": "=",
    "!=": "!=",
    "<": "<",
    ">": ">",
    "<=": "<=",
    ">=": ">=",
}


#: Spark column type per pandas dtype kind (signed int, float, bool)
_SPARK_TYPES = {"i": T.LongType(), "f": T.DoubleType(), "b": T.BooleanType()}


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """A pandas frame as a Spark DataFrame. The schema comes from the
    pandas dtypes, so a frame with zero rows loads too: Spark cannot infer
    a schema from no rows."""
    schema = T.StructType(
        [T.StructField(c, _SPARK_TYPES[t.kind]) for c, t in pdf.dtypes.items()]
    )
    return spark.createDataFrame(pdf, schema)


def select_cols(df: DataFrame, cols: list[str]) -> DataFrame:
    """``df`` projected to ``cols``: the frame itself when it already has
    exactly those columns in that order, so no new Spark plan is made
    (Spark would analyse and optimise it again at every action)."""
    return df if df.columns == list(cols) else df.select(*cols)


def exec_clear_node(node: D.Node, inputs: list[DataFrame]) -> DataFrame:
    """Execute one operator on already-clear Spark DataFrames."""
    if isinstance(node, D.Concat):
        return reduce(DataFrame.unionByName, inputs)
    if isinstance(node, D.Project):
        return select_cols(inputs[0], node.cols)
    if isinstance(node, D.Filter):
        return inputs[0].where(f"{node.col} {_OPS[node.op]} {node.value}")
    if isinstance(node, D.Arith):
        df = inputs[0]
        right = F.col(node.right) if isinstance(node.right, str) else F.lit(node.right)
        if node.op == "*":
            expr = F.col(node.left) * right
        elif node.op == "/":
            # NULL on zero divisors (ANSI mode would throw)
            expr = F.try_divide(F.col(node.left), right)
        else:  # pragma: no cover
            raise ValueError(node.op)
        return df.withColumn(node.out_col, expr)
    if isinstance(node, D.Aggregate):
        df = inputs[0]
        aggs = [
            (F.sum(a.over) if a.op == D.SUM else F.count(F.lit(1))).alias(a.out_col)
            for a in node.aggs
        ]
        if node.group_cols:
            return df.groupBy(*node.group_cols).agg(*aggs)
        return df.agg(*aggs)
    if isinstance(node, D.Join):
        left, right = inputs
        if not node.left_key:  # cross join (scalar broadcast)
            return left.crossJoin(right)
        if node.left_key == node.right_key:
            return left.join(right, on=node.left_key, how="inner")
        joined = left.join(
            right, on=left[node.left_key] == right[node.right_key], how="inner"
        )
        return joined.drop(right[node.right_key])
    if isinstance(node, D.DistinctCount):
        return inputs[0].agg(F.countDistinct(node.col).alias(node.out_col))
    if isinstance(node, D.SortBy):
        col = F.col(node.col)
        return inputs[0].orderBy(col.asc() if node.ascending else col.desc())
    if isinstance(node, D.Limit):
        return inputs[0].limit(node.n)
    if isinstance(node, D.Output):
        return inputs[0]
    raise NotImplementedError(type(node))  # pragma: no cover


def run_query_clear(
    spark: SparkSession, output: D.Output, data: dict[str, DataFrame]
) -> DataFrame:
    """Insecure baseline: run the whole DAG in the clear on one cluster.

    ``data`` maps Input-node names to Spark DataFrames.
    """
    dag = D.Dag([output])
    values: dict[int, DataFrame] = {}
    for n in dag.topo_order():
        if isinstance(n, D.Input):
            values[id(n)] = select_cols(data[n.name], n.out_cols)
        else:
            values[id(n)] = exec_clear_node(n, [values[id(p)] for p in n.parents])
    return values[id(output)]
