"""Self-tests for the DuckDB oracle and the bench harness."""
import types

import numpy as np
import pandas as pd
import pytest

from repro.bench_util import DNF_SECONDS, Point, format_table, run_point, sweep
from repro.mpc.accounting import Meter, SimulatedOOM
from repro.oracle import assert_equivalent


def test_oracle_accepts_matching_result(spark):
    pdf = pd.DataFrame({"k": [1, 2, 2], "v": [10, 20, 30]})
    df = spark.createDataFrame(pdf).groupBy("k").sum("v").withColumnRenamed(
        "sum(v)", "s"
    )
    assert_equivalent(df, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_wrong_rows(spark):
    pdf = pd.DataFrame({"k": [1, 2], "v": [10, 20]})
    df = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "s": [10, 99]}))
    with pytest.raises(AssertionError):
        assert_equivalent(df, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_column_mismatch(spark):
    pdf = pd.DataFrame({"k": [1]})
    df = spark.createDataFrame(pd.DataFrame({"wrong": [1]}))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(df, "SELECT k FROM t", t=pdf)


def test_oracle_ignores_row_and_column_order(spark):
    pdf = pd.DataFrame({"a": [1, 2], "b": [3, 4]})
    df = spark.createDataFrame(pd.DataFrame({"b": [4, 3], "a": [2, 1]}))
    assert_equivalent(df, "SELECT a, b FROM t", t=pdf)


def test_oracle_accepts_spark_frames_as_tables(spark):
    pdf = pd.DataFrame({"x": [1, 2, 3]})
    sdf = spark.createDataFrame(pdf)
    out = sdf.agg({"x": "sum"}).withColumnRenamed("sum(x)", "s")
    assert_equivalent(out, "SELECT SUM(x) AS s FROM t", t=sdf)


# ------------------------------------------------------------ bench_util
def test_run_point_ok():
    def fn():
        m = Meter()
        m.charge_comm(rounds=1, bytes_sent=100)
        return m

    p = run_point("sys", 10, fn)
    assert p.status == "ok" and p.seconds is not None and p.seconds > 0


def test_run_point_oom():
    def fn():
        raise SimulatedOOM("x", 10, 1)

    p = run_point("sys", 10, fn)
    assert p.status == "oom" and p.seconds is None


def test_run_point_dnf():
    def fn():
        m = Meter()
        m.charge_extra(10_000)
        return m

    p = run_point("sys", 10, fn)
    assert p.status == "dnf" and p.seconds > DNF_SECONDS


def _stub_table():
    """A table module with one system that runs and one that OOMs."""
    def point(spark, system, n):
        if system == "ooms":
            raise SimulatedOOM("stub", n, 1)
        m = Meter()
        m.charge_comm(rounds=1, bytes_sent=n)
        return m

    return types.SimpleNamespace(
        SIZES={"runs": ([10, 20, 30], [10]), "ooms": ([40, 50], [50])},
        point=point,
    )


@pytest.mark.parametrize(
    "quick, want",
    [
        (False, [("runs", 10, "ok"), ("runs", 20, "ok"), ("runs", 30, "ok"),
                 ("ooms", 40, "oom"), ("ooms", 50, "oom")]),
        (True, [("runs", 10, "ok"), ("ooms", 50, "oom")]),
    ],
)
def test_sweep_runs_sizes_in_order(quick, want):
    pts = sweep(None, _stub_table(), quick=quick)
    assert [(p.system, p.n, p.status) for p in pts] == want
    assert all((p.seconds is None) == (p.status == "oom") for p in pts)
    assert all(p.sim > 0 for p in pts if p.status == "ok")


def test_sweep_warms_up_on_the_first_cell():
    """The sweep runs its first cell once before the timed cells, and
    reports only the timed run of each cell."""
    calls = []
    table = _stub_table()
    point = table.point

    def counted(spark, system, n):
        calls.append((system, n))
        return point(spark, system, n)

    table.point = counted
    pts = sweep(None, table)
    assert calls == [("runs", 10), ("runs", 10), ("runs", 20), ("runs", 30),
                     ("ooms", 40), ("ooms", 50)]
    assert [(p.system, p.n) for p in pts] == calls[1:]


def test_format_table():
    pts = [
        Point("a", 100, 1.5, "ok", wall=1.0, sim=0.5),
        Point("b", 200, None, "oom"),
    ]
    txt = format_table("title", pts)
    assert "title" in txt and "a" in txt and "oom" in txt
