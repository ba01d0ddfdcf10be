"""spark-submit entry helper for the per-table jobs.

``jobs/tableN_*.py`` call :func:`main` with the table module; it builds
(or reuses) a SparkSession configured like the test fixture, runs the
table through :func:`repro.bench_util.sweep` and prints the paper-style
results table.
"""
from __future__ import annotations

import argparse
import importlib

from pyspark.sql import SparkSession

from ..bench_util import format_table, sweep


def make_spark(app: str) -> SparkSession:
    """A SparkSession that prints no stage progress bars and logs only
    errors, so that a job's output is its table."""
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.driver.memory", "8g")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def main(table: str, title: str) -> None:
    parser = argparse.ArgumentParser(description=title)
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweep (CI-sized)"
    )
    args = parser.parse_args()
    mod = importlib.import_module(f"repro.tables.{table}")
    spark = make_spark(table)
    try:
        points = sweep(spark, mod, quick=args.quick)
        print()
        print(format_table(title, points))
    finally:
        spark.stop()
