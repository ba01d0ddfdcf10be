"""Tests for the cleartext Spark executor — each operator checked
against the DuckDB oracle over the same inputs."""
import numpy as np
import pandas as pd
import pytest

from repro.core import dag as D
from repro.core.columns import Column, Party
from repro.core.lang import Rel, concat, newTable
from repro.backends.spark_clear import exec_clear_node, run_query_clear, to_spark
from repro.mpc.protocols import join_index_pairs
from repro.oracle import assert_equivalent


@pytest.fixture()
def data():
    g = np.random.default_rng(4)
    return pd.DataFrame(
        {
            "k": g.integers(0, 5, 60).astype(np.int64),
            "v": g.integers(0, 100, 60).astype(np.int64),
        }
    )


@pytest.fixture()
def rel():
    p = Party("x")
    return newTable([Column("k"), Column("v")], at=p, name="t"), p


def _run(spark, out, **tables):
    return run_query_clear(
        spark, out, {n: spark.createDataFrame(t) for n, t in tables.items()}
    )


def test_project(spark, data, rel):
    t, p = rel
    df = _run(spark, t.project(["v"]).collect(to=[p]), t=data)
    assert_equivalent(df, "SELECT v FROM t", t=data)


def test_identity_project_hands_on_the_frame(spark, data, rel):
    """A Project that keeps the columns as they are returns its input
    frame (no new Spark plan); one that reorders or drops columns still
    selects."""
    t, _ = rel
    df = spark.createDataFrame(data)
    assert exec_clear_node(t.project(["k", "v"]).node, [df]) is df
    for cols in (["v", "k"], ["v"]):
        out = exec_clear_node(t.project(cols).node, [df])
        assert out is not df and out.columns == cols


@pytest.mark.parametrize("op,sql_op", [("==", "="), (">", ">"), ("<=", "<=")])
def test_filter_ops(spark, data, rel, op, sql_op):
    t, p = rel
    df = _run(spark, t.filter("v", op, 50).collect(to=[p]), t=data)
    assert_equivalent(df, f"SELECT * FROM t WHERE v {sql_op} 50", t=data)


def test_grouped_sum(spark, data, rel):
    t, p = rel
    df = _run(
        spark,
        t.aggregate("s", D.SUM, group=["k"], over="v").collect(to=[p]),
        t=data,
    )
    assert_equivalent(df, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=data)


def test_grouped_count(spark, data, rel):
    t, p = rel
    df = _run(
        spark, t.aggregate("c", D.COUNT, group=["k"]).collect(to=[p]), t=data
    )
    assert_equivalent(df, "SELECT k, COUNT(*) AS c FROM t GROUP BY k", t=data)


def test_scalar_sum(spark, data, rel):
    t, p = rel
    df = _run(spark, t.aggregate("s", D.SUM, over="v").collect(to=[p]), t=data)
    assert_equivalent(df, "SELECT SUM(v) AS s FROM t", t=data)


def test_multiply_and_divide(spark, data, rel):
    t, p = rel
    q = t.multiply("m", "v", 3).divide("d", "m", by="k")
    df = _run(spark, q.collect(to=[p]), t=data)
    # division by k=0 gives NULL in both engines
    assert_equivalent(
        df,
        "SELECT k, v, v*3 AS m, (v*3) * 1.0 / NULLIF(k, 0) AS d FROM t",
        t=data,
    )


def test_join(spark, data, rel):
    t, p = rel
    other = newTable([Column("k"), Column("w")], at=p, name="u")
    g = np.random.default_rng(5)
    u = pd.DataFrame(
        {"k": g.integers(0, 5, 20).astype(np.int64),
         "w": g.integers(0, 9, 20).astype(np.int64)}
    )
    df = _run(spark, t.join(other, left="k", right="k").collect(to=[p]),
              t=data, u=u)
    assert_equivalent(
        df, "SELECT t.k AS k, v, w FROM t JOIN u ON t.k = u.k", t=data, u=u
    )


def test_cross_join(spark, data, rel):
    t, p = rel
    total = t.aggregate("s", D.SUM, over="v")
    df = _run(spark, t.cross(total).collect(to=[p]), t=data)
    assert_equivalent(
        df, "SELECT k, v, s FROM t, (SELECT SUM(v) AS s FROM t)", t=data
    )


def test_distinct_count(spark, data, rel):
    t, p = rel
    df = _run(spark, t.distinct_count("k", "dc").collect(to=[p]), t=data)
    assert_equivalent(df, "SELECT COUNT(DISTINCT k) AS dc FROM t", t=data)


def test_sort_and_limit(spark, data, rel):
    t, p = rel
    df = _run(
        spark,
        t.aggregate("s", D.SUM, group=["k"], over="v")
        .sort_by("s", ascending=False)
        .limit(3)
        .collect(to=[p]),
        t=data,
    )
    got = df.toPandas()["s"].tolist()
    expected = (
        data.groupby("k")["v"].sum().sort_values(ascending=False).head(3).tolist()
    )
    assert got == expected


def test_concat_union(spark, rel):
    p1, p2 = Party("x"), Party("y")
    a = newTable([Column("k")], at=p1, name="a")
    b = newTable([Column("k")], at=p2, name="b")
    pa = pd.DataFrame({"k": np.array([1, 2], np.int64)})
    pb = pd.DataFrame({"k": np.array([2, 3], np.int64)})
    df = _run(spark, concat([a, b]).collect(to=[p1]), a=pa, b=pb)
    # duplicate-preserving set union
    assert sorted(df.toPandas()["k"].tolist()) == [1, 2, 2, 3]


def test_exec_clear_node_rejects_unknown():
    class Bogus(D.Node):
        pass

    with pytest.raises(NotImplementedError):
        exec_clear_node(Bogus([], []), [])


#: left and right key arrays of each equi-join case
_KEY_CASES = {
    "many-to-many": lambda g: (g.integers(0, 40, 300), g.integers(0, 40, 250)),
    "empty-left": lambda g: (np.zeros(0), g.integers(0, 5, 20)),
    "empty-right": lambda g: (g.integers(0, 5, 20), np.zeros(0)),
    "no-match": lambda g: ([1, 2], [3]),
    "extreme-keys": lambda g: (
        g.choice([-(2**62), -7, 0, 7, 2**62], 60),
        g.choice([-(2**62), -7, 3, 2**62], 50),
    ),
}


def test_join_index_pairs_match_spark_order_by(spark, unordered_joins):
    """The driver-side equi-join returns exactly the position pairs, in
    exactly the order, of a Spark ``orderBy`` on the same join: by (key,
    left, right) and by (left, right)."""
    g = np.random.default_rng(8)
    for case, make in _KEY_CASES.items():
        lk, rk = (np.asarray(a, np.int64) for a in make(g))
        left = to_spark(spark, pd.DataFrame({"k": lk, "li": np.arange(len(lk))}))
        right = to_spark(spark, pd.DataFrame({"k": rk, "ri": np.arange(len(rk))}))
        joined = left.join(right, on="k").select("k", "li", "ri")
        for by_key, order in ((True, ("k", "li", "ri")), (False, ("li", "ri"))):
            expected = joined.orderBy(*order).toPandas()
            li, ri = join_index_pairs(lk, rk, by_key=by_key)
            assert li.dtype == ri.dtype == np.int64, case
            np.testing.assert_array_equal(li, expected["li"].to_numpy(), case)
            np.testing.assert_array_equal(ri, expected["ri"].to_numpy(), case)


def test_join_index_pairs_no_match():
    for by_key in (True, False):
        li, ri = join_index_pairs(
            np.array([1, 2], np.int64), np.array([3], np.int64), by_key=by_key
        )
        assert len(li) == len(ri) == 0
        assert li.dtype == ri.dtype == np.int64
