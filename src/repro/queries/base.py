"""Shared query-spec plumbing for the paper's evaluation queries."""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from ..backends.spark_clear import to_spark
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


def gen_to_spark(spark, gen: dict[str, pd.DataFrame]):
    """Materialize generated pandas inputs as Spark DataFrames (an empty
    SMCQL slice loads too, see :func:`~repro.backends.spark_clear.to_spark`)."""
    return {name: to_spark(spark, pdf) for name, pdf in gen.items()}
