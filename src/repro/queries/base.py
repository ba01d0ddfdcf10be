"""Shared query-spec plumbing for the paper's evaluation queries."""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
import pyspark.sql.types as T

from ..core.columns import Party
from ..core import dag as D


@dataclass
class QuerySpec:
    """A built query plus everything needed to run and check it.

    ``oracle_sql`` is DuckDB SQL over the cleartext union of inputs,
    with table names equal to the Input-node names — used by tests to
    verify the multi-party execution end to end.
    """

    name: str
    parties: list[Party]
    output: D.Output
    oracle_sql: str
    input_names: list[str] = field(default_factory=list)


#: Spark column type per pandas dtype kind (signed int, float, bool)
_SPARK_TYPES = {"i": T.LongType(), "f": T.DoubleType(), "b": T.BooleanType()}


def gen_to_spark(spark, gen: dict[str, pd.DataFrame]):
    """Materialize generated pandas inputs as Spark DataFrames. The schema
    comes from the pandas dtypes, so a frame with zero rows (an empty
    SMCQL slice) loads too: Spark cannot infer a schema from no rows."""
    return {
        name: spark.createDataFrame(
            pdf,
            T.StructType(
                [T.StructField(c, _SPARK_TYPES[t.kind]) for c, t in pdf.dtypes.items()]
            ),
        )
        for name, pdf in gen.items()
    }
