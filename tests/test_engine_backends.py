"""Compiled plans whose MPC steps run on either engine backend
(``sharemind`` or ``oblivc``), checked against DuckDB; plans neither
backend can run raise instead of returning wrong rows; inputs handed on
as loaded and the one concurrent collect batch at the MPC boundary; and
the traced benchmark's tracer run over a compiled plan."""
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core import dag as D
from repro.core.columns import Column, Party
from repro.core.compiler import CompileOptions, compile_query
from repro.core.lang import concat, newTable
from repro.oracle import assert_equivalent
from repro.queries.base import gen_to_spark
from repro.runtime.engine import Engine

BACKENDS = ["sharemind", "oblivc"]


def _pdf(**cols):
    return pd.DataFrame({k: np.asarray(v, np.int64) for k, v in cols.items()})


def _run(spark, out, parties, gen, backend):
    plan = compile_query(out, CompileOptions(parties=parties))
    eng = Engine(spark, [p.name for p in parties], backend=backend)
    return plan, eng.run(plan, gen_to_spark(spark, gen))


def _join(lcols, rcols):
    a, b = Party("a"), Party("b")
    left = newTable([Column(c) for c in lcols], at=a, name="l")
    right = newTable([Column(c) for c in rcols], at=b, name="r")
    return [a, b], left.join(right, left="k", right="k")


# ------------------------------------------ grouped aggregate after a filter
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("agg_op,sql_agg", [(D.SUM, "SUM(r.v)"), (D.COUNT, "COUNT(*)")])
def test_grouped_aggregate_after_mpc_filter(spark, backend, agg_op, sql_agg):
    """The aggregate counts only the rows the MPC filter keeps."""
    parties, joined = _join(["k", "g"], ["k", "x", "v"])
    over = "v" if agg_op == D.SUM else None
    out = (
        joined.filter("x", "==", 5)
        .aggregate("s", agg_op, group=["g"], over=over)
        .collect(to=[parties[0]])
    )
    gen = {"l": _pdf(k=[1, 2, 3, 4], g=[1, 1, 2, 2]),
           "r": _pdf(k=[1, 2, 3, 4], x=[5, 6, 5, 7], v=[10, 20, 30, 40])}
    plan, df = _run(spark, out, parties, gen, backend)
    assert all(n.site == ("mpc",) for n in plan.dag.nodes_of_type(D.Filter))
    assert_equivalent(
        df,
        f"SELECT l.g AS g, {sql_agg} AS s FROM l JOIN r ON l.k = r.k "
        "WHERE r.x = 5 GROUP BY l.g",
        **gen,
    )


@pytest.mark.parametrize("backend,site", [("sharemind", "mpc"), ("sharemind", "hybrid"),
                                          ("oblivc", "mpc")])
@pytest.mark.parametrize("agg_op,sql_agg", [(D.SUM, "SUM(r.v)"), (D.COUNT, "COUNT(*)")])
def test_group_the_mpc_filter_empties_is_dropped(spark, backend, site, agg_op, sql_agg):
    """No row of group g=2 passes the filter, so the result has no g=2
    row (the secret-sharing backend returned it with s=0). With the keys,
    ``g`` and the filter column trusted to party c, the aggregation is the
    §5.3 hybrid one; push-up is off, so COUNT is not lifted to party a."""
    a, b, c = Party("a"), Party("b"), Party("c")
    trust = (c,) if site == "hybrid" else ()
    left = newTable([Column("k", trust=trust), Column("g", trust=trust)], at=a, name="l")
    right = newTable([Column("k", trust=trust), Column("x", trust=trust), Column("v")],
                     at=b, name="r")
    over = "v" if agg_op == D.SUM else None
    out = (left.join(right, left="k", right="k").filter("x", "==", 5)
           .aggregate("s", agg_op, group=["g"], over=over).collect(to=[a]))
    gen = {"l": _pdf(k=[1, 2, 3, 4], g=[1, 1, 2, 2]),
           "r": _pdf(k=[1, 2, 3, 4], x=[5, 6, 6, 7], v=[10, 20, 30, 40])}
    plan = compile_query(out, CompileOptions(parties=[a, b, c], enable_push_up=False))
    assert [n.site[0] for n in plan.dag.nodes_of_type(D.Aggregate)] == [site]
    eng = Engine(spark, ["a", "b", "c"], backend=backend)
    df = eng.run(plan, gen_to_spark(spark, gen))
    assert_equivalent(
        df,
        f"SELECT l.g AS g, {sql_agg} AS s FROM l JOIN r ON l.k = r.k "
        "WHERE r.x = 5 GROUP BY l.g",
        **gen,
    )


def test_hybrid_join_keeps_both_sides_filters(spark):
    """A hybrid join of two MPC-filtered relations keeps a row only where
    both filters do (the right side's mask used to replace the left's, so
    the row with x=6 was returned too). Party c is trusted with the keys
    and the filter columns, so all three joins are hybrid."""
    a, b, c = Party("a"), Party("b"), Party("c")

    def cols(*names):
        return [Column(n, trust=(c,)) for n in names]

    left = (newTable(cols("k", "j", "x"), at=a, name="la")
            .join(newTable(cols("k"), at=b, name="lb"), left="k", right="k")
            .filter("x", "==", 5))
    right = (newTable(cols("m", "j", "z"), at=a, name="ra")
             .join(newTable(cols("m"), at=b, name="rb"), left="m", right="m")
             .filter("z", "==", 1))
    out = left.join(right, left="j", right="j").collect(to=[a])
    gen = {"la": _pdf(k=[1, 2, 3], j=[1, 1, 2], x=[5, 6, 5]), "lb": _pdf(k=[1, 2, 3]),
           "ra": _pdf(m=[1, 2, 3], j=[1, 2, 1], z=[1, 1, 0]), "rb": _pdf(m=[1, 2, 3])}
    plan, df = _run(spark, out, [a, b, c], gen, "sharemind")
    assert [n.site for n in plan.dag.nodes_of_type(D.Join)] == [("hybrid", "c")] * 3
    assert_equivalent(
        df,
        "SELECT l.k, l.j, l.x, r.m, r.z FROM "
        "(SELECT la.* FROM la JOIN lb ON la.k = lb.k WHERE la.x = 5) l JOIN "
        "(SELECT ra.* FROM ra JOIN rb ON ra.m = rb.m WHERE ra.z = 1) r ON l.j = r.j",
        **gen,
    )


# ---------------------------------------------------- empty MPC result
@pytest.mark.parametrize("backend", BACKENDS)
def test_mpc_join_with_no_match_reveals_empty_frame(spark, backend):
    """A join with no matching keys reveals zero rows, with the schema of
    a join that matches."""
    parties, joined = _join(["k", "g"], ["k", "v"])
    out = joined.collect(to=[parties[0]])
    left = _pdf(k=[1, 2], g=[7, 8])
    _, one = _run(spark, out, parties, {"l": left, "r": _pdf(k=[2, 3], v=[5, 6])},
                  backend)
    _, none = _run(spark, out, parties, {"l": left, "r": _pdf(k=[3, 4], v=[5, 6])},
                   backend)
    assert one.count() == 1 and none.count() == 0
    assert none.dtypes == one.dtypes == [("k", "bigint"), ("g", "bigint"),
                                         ("v", "bigint")]


def test_public_join_on_gc_backend(spark):
    """The aspirin plan's public join shares the matching rows into the
    garbled-circuit backend and rebuilds the joined rows there."""
    from repro.queries import aspirin

    gen = aspirin.gen_inputs(n_per_party=200, overlap_frac=0.2, seed=1)
    spec = aspirin.build()
    plan, df = _run(spark, spec.output, spec.parties, gen, "oblivc")
    assert any(j.site[0] == "public" for j in plan.dag.nodes_of_type(D.Join))
    assert_equivalent(df, spec.oracle_sql, **gen)


# -------------------------------------- MPC concat of filtered relations
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("filtered_first", [True, False])
def test_mpc_concat_of_filtered_and_unfiltered_parts(spark, backend, filtered_first):
    """An MPC concat keeps the rows its filtered part's mask keeps and
    every row of its unfiltered part, in either order."""
    a, b, c = Party("a"), Party("b"), Party("c")

    def part(i, lp, rp):
        left = newTable([Column("k"), Column("f")], at=lp, name=f"l{i}")
        right = newTable([Column("k"), Column("v")], at=rp, name=f"r{i}")
        return left.join(right, left="k", right="k")

    parts = [part(1, a, b).filter("f", "==", 1), part(2, b, c)]
    out = concat(parts if filtered_first else parts[::-1]).collect(to=[a])
    gen = {"l1": _pdf(k=[1, 2, 3], f=[1, 0, 1]), "r1": _pdf(k=[1, 2, 3], v=[10, 20, 30]),
           "l2": _pdf(k=[4], f=[0]), "r2": _pdf(k=[4, 5], v=[40, 50])}
    plan, df = _run(spark, out, [a, b, c], gen, backend)
    assert [n.site for n in plan.dag.nodes_of_type(D.Concat)] == [("mpc",)]
    assert_equivalent(
        df,
        "SELECT l1.k, l1.f, r1.v FROM l1 JOIN r1 ON l1.k = r1.k WHERE l1.f = 1 "
        "UNION ALL SELECT l2.k, l2.f, r2.v FROM l2 JOIN r2 ON l2.k = r2.k",
        **gen,
    )


# ------------------------------------------ public keys, MPC-computed side
@pytest.mark.parametrize("backend,hybrid", [("sharemind", True), ("sharemind", False),
                                            ("oblivc", False)])
def test_public_keys_over_an_mpc_input_do_not_make_a_public_join(spark, backend, hybrid):
    """A join whose keys are public but whose left side is an MPC
    aggregation has no clear rows to join in public: it runs as a hybrid
    join, or under MPC with the hybrid operators off."""
    a, b, c = Party("a"), Party("b"), Party("c")
    mk = lambda: [Column("k", public=True), Column("v")]  # noqa: E731
    sums = concat([newTable(mk(), at=a, name="s1"), newTable(mk(), at=b, name="s2")])
    s3 = newTable([Column("k", public=True), Column("w")], at=c, name="s3")
    out = (sums.aggregate("s", D.SUM, group=["k"], over="v")
           .join(s3, left="k", right="k").collect(to=[a]))
    plan = compile_query(out, CompileOptions(
        parties=[a, b, c], allow_cardinality_leaking_pushdown=False, enable_hybrid=hybrid,
    ))
    gen = {"s1": _pdf(k=[1, 2, 2], v=[1, 2, 3]), "s2": _pdf(k=[2, 3], v=[4, 5]),
           "s3": _pdf(k=[2, 3, 4], w=[7, 8, 9])}
    df = Engine(spark, ["a", "b", "c"], backend=backend).run(plan, gen_to_spark(spark, gen))
    assert_equivalent(
        df,
        "SELECT g.k, g.s, s3.w FROM (SELECT k, SUM(v) AS s FROM "
        "(SELECT * FROM s1 UNION ALL SELECT * FROM s2) GROUP BY k) g "
        "JOIN s3 ON g.k = s3.k",
        **gen,
    )
    (join,) = plan.dag.nodes_of_type(D.Join)
    assert join.site == (("hybrid", "a") if hybrid else ("mpc",))


# --------------------------------------------------- join after a filter
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("both", [False, True], ids=["left_filtered", "both_filtered"])
def test_join_after_mpc_filter(spark, backend, both):
    """An MPC join of relations an MPC filter masked keeps a row only
    where every filtered side keeps it."""
    a, b, c = Party("a"), Party("b"), Party("c")
    l, r, s, t = (newTable([Column("k"), Column(x)], at=p, name=n)
                  for p, x, n in ((a, "f", "l"), (b, "v", "r"), (c, "g", "s"), (a, "w", "t")))
    lhs = l.join(r, left="k", right="k").filter("f", "==", 1)
    rhs = s.join(t, left="k", right="k")
    rhs = rhs.filter("g", "==", 1) if both else rhs
    out = lhs.join(rhs, left="k", right="k").collect(to=[a])
    gen = {"l": _pdf(k=[1, 2, 3, 4, 5], f=[1, 0, 1, 1, 0]),
           "r": _pdf(k=[1, 2, 3, 4, 5], v=[10, 20, 30, 40, 50]),
           "s": _pdf(k=[1, 2, 3, 3, 4], g=[1, 1, 0, 1, 0]),
           "t": _pdf(k=[1, 2, 3, 4, 6], w=[7, 8, 9, 10, 11])}
    plan, df = _run(spark, out, [a, b, c], gen, backend)
    assert [n.site for n in plan.dag.nodes_of_type(D.Filter)] == [("mpc",)] * (1 + both)
    where = "l.f = 1" + (" AND s.g = 1" if both else "")
    assert_equivalent(
        df,
        "SELECT l.k, l.f, r.v, s.g, t.w FROM l JOIN r ON l.k = r.k "
        f"JOIN s ON l.k = s.k JOIN t ON s.k = t.k WHERE {where}",
        **gen,
    )


# ------------------------------------------- plans no backend can run
_FILTERED = {"l": _pdf(k=[1, 2, 3, 4], f=[0, 0, 1, 1]),
             "r": _pdf(k=[1, 2, 3, 4], v=[5, 6, 7, 8])}


@pytest.mark.parametrize("backend", BACKENDS)
def test_limit_over_mpc_filter_raises(spark, backend):
    """A limit after an MPC filter would count masked-out rows among its
    first positions (DuckDB gives 2 rows here; the backends gave 1 and 0),
    so both backends refuse it."""
    parties, joined = _join(["k", "f"], ["k", "v"])
    out = joined.filter("f", "==", 1).limit(2).collect(to=[parties[0]])
    with pytest.raises(NotImplementedError, match="limit over filtered"):
        _run(spark, out, parties, _FILTERED, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sort_over_mpc_filter_raises(spark, backend):
    """A sort after an MPC filter would sort masked-out rows in with the
    kept ones, so both backends refuse it."""
    parties, joined = _join(["k", "f"], ["k", "v"])
    out = joined.filter("f", "==", 1).sort_by("v").collect(to=[parties[0]])
    with pytest.raises(NotImplementedError, match="sort over filtered"):
        _run(spark, out, parties, _FILTERED, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_column_group_by_raises(spark, backend):
    """An MPC SUM grouped by two columns is refused, not grouped by the
    first column alone (which gave x=[1, 2], s=[60, 60] on oblivc)."""
    a, b = Party("a"), Party("b")
    t1, t2 = (newTable([Column("x"), Column("y"), Column("v")], at=p, name=f"t{i}")
              for i, p in ((1, a), (2, b)))
    out = (concat([t1, t2]).aggregate("s", D.SUM, group=["x", "y"], over="v")
           .collect(to=[a]))
    plan = compile_query(
        out, CompileOptions(parties=[a, b], allow_cardinality_leaking_pushdown=False)
    )
    assert [n.site for n in plan.dag.nodes_of_type(D.Aggregate)] == [("mpc",)]
    rows = _pdf(x=[1, 1, 2], y=[1, 2, 1], v=[10, 20, 30])
    eng = Engine(spark, ["a", "b"], backend=backend)
    with pytest.raises(NotImplementedError, match="multi-column group-by"):
        eng.run(plan, gen_to_spark(spark, {"t1": rows, "t2": rows}))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("leaking", [True, False])
def test_fractional_column_into_mpc_raises(spark, backend, leaking):
    """A clear division makes a double column; sharing it would truncate
    it (this plan returned s = 2 where DuckDB gives 3.0), so inputToMPC
    refuses it and names the column: ``h``, or the parties' local sums
    ``s`` when the leaking push-down splits the aggregation."""
    a, b = Party("a"), Party("b")
    ta, tb = (newTable([Column("x")], at=p, name=f"t{p.name}") for p in (a, b))
    out = (concat([ta, tb]).divide("h", "x", by=2).aggregate("s", D.SUM, over="h")
           .collect(to=[a]))
    opts = CompileOptions(parties=[a, b], allow_cardinality_leaking_pushdown=leaking)
    plan = compile_query(out, opts)
    eng = Engine(spark, ["a", "b"], backend=backend)
    gen = {"ta": _pdf(x=[1, 2]), "tb": _pdf(x=[1, 2])}
    with pytest.raises(NotImplementedError, match="fractional column '[hs]'"):
        eng.run(plan, gen_to_spark(spark, gen))


# ------------------------------------- §5.4 merge of pre-sorted parts
def _merged(plan) -> list[tuple[D.Concat, D.Node]]:
    """Each pre-sorted concat of the plan, with the operator that merges
    its parts."""
    return [(n.parents[0], n) for n in plan.nodes()
            if n.input_sorted and isinstance(n.parents[0], D.Concat)
            and n.parents[0].presort]


def _revenue():
    """The per-company revenue of the HHI query over its three parties'
    trip books: the MPC aggregation that HHI wholly under MPC merges."""
    from repro.queries import market_concentration

    spec = market_concentration.build()
    gen = market_concentration.gen_inputs(n_per_party=50, seed=1)
    taxi = concat([newTable([Column("companyID"), Column("price")], at=p,
                            name=f"taxi_{p.name}") for p in spec.parties])
    out = (taxi.aggregate("rev", D.SUM, group=["companyID"], over="price")
           .collect(to=[spec.parties[0]]))
    sql = " UNION ALL ".join(f"SELECT * FROM taxi_{p.name}" for p in spec.parties)
    sql = f"SELECT companyID, SUM(price) AS rev FROM ({sql}) GROUP BY companyID"
    return out, spec.parties, {"allow_cardinality_leaking_pushdown": False}, gen, sql


def _hhi():
    from repro.queries import market_concentration

    spec = market_concentration.build()
    gen = market_concentration.gen_inputs(n_per_party=50, seed=1)
    opts = {"allow_cardinality_leaking_pushdown": False, "enable_push_up": False}
    return spec.output, spec.parties, opts, gen, spec.oracle_sql


def _mpc_agg():
    from repro.tables.table3_hybrid import _agg_query

    out, parties = _agg_query("mpc")
    g = np.random.default_rng(2)
    gen = {n: _pdf(k=g.integers(-3, 9, 40), v=g.integers(-50, 50, 40))
           for n in ("ga", "gb")}
    sql = ("SELECT k, SUM(v) AS s FROM (SELECT * FROM ga UNION ALL SELECT * FROM gb) "
           "GROUP BY k")
    return out, parties, {"allow_cardinality_leaking_pushdown": False}, gen, sql


def _comorbidity():
    from repro.queries import comorbidity

    spec = comorbidity.build()
    gen = comorbidity.gen_inputs(n_per_party=120, distinct_key_frac=0.2, seed=3)
    return spec.output, spec.parties, {}, gen, spec.oracle_sql


#: the garbled-circuit backend runs no arithmetic, so HHI runs on the
#: secret-sharing backend only; its merged aggregation runs on both
_MERGED = [("hhi", "sharemind", _hhi)] + [
    (name, backend, case) for name, case in
    (("revenue", _revenue), ("mpc-agg", _mpc_agg), ("comorbidity", _comorbidity))
    for backend in BACKENDS
]


@pytest.mark.parametrize("name,backend,case", _MERGED,
                         ids=[f"{n}-{b}" for n, b, _ in _MERGED])
def test_a_merge_of_pre_sorted_parts_matches_duckdb(spark, name, backend, case):
    """Each party sorts its part of the MPC concat before inputToMPC, and
    the sort-based aggregation merges the runs: the results are DuckDB's."""
    out, parties, opts, gen, sql = case()
    plan = compile_query(out, CompileOptions(parties=parties, **opts))
    [(cat, _)] = _merged(plan)
    assert cat.site == ("mpc",) and cat.presort[1] is False
    eng = Engine(spark, [p.name for p in parties], backend=backend)
    assert_equivalent(eng.run(plan, gen_to_spark(spark, gen)), sql, **gen)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_concat_with_an_mpc_part_is_sorted_in_full(spark, backend):
    """A part computed under MPC has no party to sort it: the aggregation
    over the concat sorts all its rows, and still matches DuckDB."""
    a, b, c = Party("a"), Party("b"), Party("c")
    left = newTable([Column("k"), Column("v")], at=a, name="l")
    right = newTable([Column("k"), Column("w")], at=b, name="r")
    joined = left.join(right, left="k", right="k").project(["k", "v"])
    third = newTable([Column("k"), Column("v")], at=c, name="t")
    out = (concat([joined, third]).aggregate("s", D.SUM, group=["k"], over="v")
           .collect(to=[a]))
    plan = compile_query(
        out, CompileOptions(parties=[a, b, c], allow_cardinality_leaking_pushdown=False)
    )
    agg = [n for n in plan.dag.nodes_of_type(D.Aggregate) if n.site == ("mpc",)]
    assert [n.input_sorted for n in agg] == [False]
    gen = {"l": _pdf(k=[3, 1, 2, 5], v=[10, 20, 30, 40]),
           "r": _pdf(k=[1, 2, 2, 9], w=[0, 0, 0, 0]),
           "t": _pdf(k=[2, 7, 1], v=[1, 2, 3])}
    eng = Engine(spark, ["a", "b", "c"], backend=backend)
    assert_equivalent(
        eng.run(plan, gen_to_spark(spark, gen)),
        "SELECT k, SUM(v) AS s FROM (SELECT l.k, l.v FROM l JOIN r ON l.k = r.k "
        "UNION ALL SELECT * FROM t) GROUP BY k",
        **gen,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_descending_sort_over_a_concat_merges(spark, backend):
    """ORDER BY v DESC over three parties' rows: each party sorts its part
    descending, and the merged rows come out in DuckDB's order."""
    parties = [Party(p) for p in "abc"]
    rows = concat([newTable([Column("k"), Column("v")], at=p, name=f"s{p.name}")
                   for p in parties])
    out = rows.sort_by("v", ascending=False).collect(to=[parties[0]])
    plan = compile_query(out, CompileOptions(parties=parties))
    [(cat, _)] = _merged(plan)
    assert cat.presort == ("v", True)
    g = np.random.default_rng(9)
    gen = {f"s{p}": _pdf(k=np.arange(n) + 100 * i, v=g.integers(-4, 5, n))
           for i, (p, n) in enumerate(zip("abc", (9, 0, 14)))}
    eng = Engine(spark, ["a", "b", "c"], backend=backend)
    got = eng.run(plan, gen_to_spark(spark, gen)).toPandas()
    want = pd.concat(gen.values(), ignore_index=True)
    np.testing.assert_array_equal(got["v"], np.sort(want["v"])[::-1])
    assert sorted(zip(got["k"], got["v"])) == sorted(zip(want["k"], want["v"]))


# ----------------------------------------------- inputs as they were loaded
@pytest.mark.parametrize("backend", BACKENDS)
def test_input_with_extra_and_reordered_columns_is_projected(spark, backend):
    """A loaded frame with an extra (fractional) column and its columns in
    another order is projected to the plan's columns before it enters
    MPC; a frame that already has them enters as it is."""
    a, b = Party("a"), Party("b")
    ta, tb = (newTable([Column("k"), Column("v")], at=p, name=f"t{p.name}")
              for p in (a, b))
    out = concat([ta, tb]).aggregate("s", D.SUM, group=["k"], over="v").collect(to=[a])
    opts = CompileOptions(parties=[a, b], allow_cardinality_leaking_pushdown=False)
    plan = compile_query(out, opts)
    assert [n.site for n in plan.dag.nodes_of_type(D.Aggregate)] == [("mpc",)]
    gen = {"ta": _pdf(k=[1, 2, 1], v=[3, 4, 5]),
           "tb": pd.DataFrame({"v": np.asarray([6, 7], np.int64),
                               "note": [0.5, 1.5],
                               "k": np.asarray([2, 3], np.int64)})}
    df = Engine(spark, ["a", "b"], backend=backend).run(plan, gen_to_spark(spark, gen))
    assert_equivalent(
        df,
        "SELECT k, SUM(v) AS s FROM (SELECT k, v FROM ta UNION ALL "
        "SELECT k, v FROM tb) GROUP BY k",
        **gen,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_frame_listed_twice_in_one_batch(spark, backend):
    """``concat([ta, ta, tb])`` lists one frame twice in the boundary
    batch: it is collected once and shared for both uses (k=1→7, 2→4,
    3→7)."""
    a, b = Party("a"), Party("b")
    ta, tb = (newTable([Column("k"), Column("v")], at=p, name=f"t{p.name}")
              for p in (a, b))
    out = (concat([ta, ta, tb]).aggregate("s", D.SUM, group=["k"], over="v")
           .collect(to=[a]))
    opts = CompileOptions(parties=[a, b], allow_cardinality_leaking_pushdown=False)
    plan = compile_query(out, opts)
    (cat,) = plan.dag.nodes_of_type(D.Concat)
    assert cat.site == ("mpc",) and cat.parents[0] is cat.parents[1]
    gen = {"ta": _pdf(k=[1, 2], v=[3, 2]), "tb": _pdf(k=[1, 3, 3], v=[1, 3, 4])}
    df = Engine(spark, ["a", "b"], backend=backend).run(plan, gen_to_spark(spark, gen))
    assert_equivalent(
        df,
        "SELECT k, SUM(v) AS s FROM (SELECT * FROM ta UNION ALL SELECT * FROM ta "
        "UNION ALL SELECT * FROM tb) GROUP BY k",
        **gen,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_boundary_shares_every_frame_in_one_round(spark, backend):
    """The three parties' frames that enter MPC at one node are sent in
    one round (inputToMPC), with the bytes of all of them; the scalar SUM
    is share-local and its output one more round."""
    parties = [Party(p) for p in "abc"]
    out = (concat([newTable([Column("k"), Column("v")], at=p, name=f"t{p.name}")
                   for p in parties])
           .aggregate("s", D.SUM, over="v").collect(to=[parties[0]]))
    opts = CompileOptions(parties=parties, allow_cardinality_leaking_pushdown=False)
    plan = compile_query(out, opts)
    gen = {f"t{p}": _pdf(k=[1, 2, 3], v=[4, 5, 6]) for p in "abc"}
    eng = Engine(spark, list("abc"), backend=backend)
    assert eng.run(plan, gen_to_spark(spark, gen)).collect()[0]["s"] == 45
    assert eng.meter.rounds == 2
    if backend == "sharemind":
        # 3 frames × 3 rows × 2 columns to 2 parties, then 1 word to 1
        assert eng.meter.bytes_sent == (18 * 2 + 1 * 2) * 8


def test_a_value_is_dropped_once_every_consumer_has_read_it(spark, monkeypatch):
    """The engine holds a node's value, its MPC shares included, only until
    its last consumer has run: when the output runs, the one value left is
    its parent's."""
    from repro.queries import credit_card

    held = {}
    exec_node = Engine._exec_node

    def spy(self, n, inputs, values):
        held[n.name] = set(values)
        return exec_node(self, n, inputs, values)

    monkeypatch.setattr(Engine, "_exec_node", spy)
    spec = credit_card.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    gen = credit_card.gen_inputs(n_holders=40, seed=2)
    Engine(spark, ["a", "b", "c"]).run(plan, gen_to_spark(spark, gen))
    (out,) = plan.dag.outputs
    assert held[out.name] == {id(out.parents[0])}


#: frames in the one boundary batch of each benchmark plan
_BATCH_FRAMES = {"hhi-mpc": 3, "aspirin-public": 4, "credit-hybrid": 3}


@pytest.mark.parametrize("name", sorted(_BATCH_FRAMES))
def test_benchmark_plans_make_one_boundary_batch(spark, monkeypatch, name):
    """The benchmark's three plans at small sizes, with its compiler
    options: one boundary batch per run, of every party's frame, and no
    Spark ``select`` over a loaded input that already has the plan's
    columns (a new plan that Spark analyses again at every run)."""
    from pyspark.sql.classic.dataframe import DataFrame

    w = _load_perfbench("workloads").WORKLOADS[name]
    spec = w.module().build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties, **w.options))
    data = gen_to_spark(spark, w.gen(seed=2, scale=0.01))
    as_loaded = [data[n.name] for n in plan.dag.nodes_of_type(D.Input)
                 if data[n.name].columns == n.out_cols]
    assert as_loaded

    collected, selected, batches = [], [], []
    to_pandas, select, collect = DataFrame.toPandas, DataFrame.select, Engine._collect

    def spy_to_pandas(df, *a, **kw):
        collected.append(df)
        return to_pandas(df, *a, **kw)

    def spy_select(df, *a, **kw):
        selected.append(df)
        return select(df, *a, **kw)

    def spy_collect(eng, dfs):
        before = len(collected)
        out = collect(eng, dfs)
        if len(collected) > before:
            batches.append(len(collected) - before)
        return out

    monkeypatch.setattr(DataFrame, "toPandas", spy_to_pandas)
    monkeypatch.setattr(DataFrame, "select", spy_select)
    monkeypatch.setattr(Engine, "_collect", spy_collect)
    for _ in range(2):
        batches.clear()
        Engine(spark, [p.name for p in spec.parties]).run(plan, data)
        assert batches == [_BATCH_FRAMES[name]]
    assert not any(df is loaded for df in selected for loaded in as_loaded)


# ------------------------------------------ concurrent boundary collect
def _three_party_public_join(downstream: str):
    """Left and right tables partitioned over parties a, b, c with a
    public key; the join's result is collected, or summed under MPC."""
    parties = [Party(p) for p in "abc"]
    left = concat([newTable([Column("k", public=True), Column("v")], at=p,
                            name=f"l{p.name}") for p in parties])
    right = concat([newTable([Column("k", public=True), Column("w")], at=p,
                             name=f"r{p.name}") for p in parties])
    joined = left.join(right, left="k", right="k")
    if downstream == "mpc":
        joined = joined.aggregate("s", D.SUM, group=["v"], over="w")
    opts = CompileOptions(parties=parties, allow_cardinality_leaking_pushdown=False)
    return compile_query(joined.collect(to=[parties[0]]), opts), parties


def _three_party_inputs():
    """Unequal part sizes, one empty part per side; ``v`` and ``w`` are
    unique, so a collected part handed to the wrong side or position
    shifts the row ids and changes the joined pairs."""
    g = np.random.default_rng(5)
    sizes = {"la": 7, "lb": 0, "lc": 3, "ra": 2, "rb": 5, "rc": 0}
    gen, base = {}, 0
    for name, n in sizes.items():
        col = "v" if name[0] == "l" else "w"
        gen[name] = _pdf(k=g.integers(0, 4, n), **{col: np.arange(base, base + n)})
        base += n
    return gen


@pytest.mark.parametrize("downstream", ["clear", "mpc"])
def test_three_party_public_join_matches_duckdb(spark, downstream):
    plan, parties = _three_party_public_join(downstream)
    assert any(j.site[0] == "public" for j in plan.dag.nodes_of_type(D.Join))
    gen = _three_party_inputs()
    df = Engine(spark, [p.name for p in parties]).run(plan, gen_to_spark(spark, gen))
    union = ("(SELECT * FROM {0}a UNION ALL SELECT * FROM {0}b "
             "UNION ALL SELECT * FROM {0}c)")
    joined = f"{union.format('l')} l JOIN {union.format('r')} r ON l.k = r.k"
    sql = (f"SELECT l.k AS k, l.v AS v, r.w AS w FROM {joined}" if downstream == "clear"
           else f"SELECT l.v AS v, SUM(r.w) AS s FROM {joined} GROUP BY l.v")
    assert_equivalent(df, sql, **gen)


def test_boundary_collect_leaves_no_thread_behind(spark):
    """The public join collects its six parts from a pool of threads; the
    pool is closed when the node is done."""
    plan, parties = _three_party_public_join("mpc")
    data = gen_to_spark(spark, _three_party_inputs())
    eng = Engine(spark, [p.name for p in parties])
    before = threading.active_count()
    eng.run(plan, data).toPandas()
    assert threading.active_count() == before


def test_a_partitioned_value_read_in_the_clear_pays_its_transfer(spark):
    """The concat of a's and b's rows feeds a public join and is also
    collected at a: b's part (3 rows, 2 columns) travels to a, one more
    round and 48 more bytes than a plan that did not move it would
    charge."""
    a, b = Party("a"), Party("b")
    pub = lambda: [Column("k", trust=(a, b)), Column("v")]  # noqa: E731
    rows = concat([newTable(pub(), at=a, name="ta"), newTable(pub(), at=b, name="tb")])
    other = newTable([Column("k", trust=(a, b)), Column("w")], at=b, name="r")
    joined = rows.join(other, left="k", right="k").collect(to=[a])
    plan = compile_query([rows.collect(to=[a]), joined], CompileOptions(parties=[a, b]))
    assert [j.site for j in plan.dag.nodes_of_type(D.Join)] == [("public", "a")]
    gen = {"ta": _pdf(k=[1, 2], v=[10, 20]), "tb": _pdf(k=[2, 3, 4], v=[30, 40, 50]),
           "r": _pdf(k=[2, 4], w=[7, 8])}
    eng = Engine(spark, ["a", "b"])
    df = eng.run(plan, gen_to_spark(spark, gen))
    assert_equivalent(df, "SELECT * FROM ta UNION ALL SELECT * FROM tb", **gen)
    assert (eng.meter.rounds, eng.meter.bytes_sent) == (5, 368.0)


def test_a_public_join_that_matches_nothing_feeds_mpc(spark):
    """The aspirin plan with no medication patient among the diagnosed:
    the public join shares an empty part of each side, and the count is
    DuckDB's 0."""
    from repro.queries import aspirin

    gen = aspirin.gen_inputs(n_per_party=200, seed=5)
    shift = 1 + max(int(gen[f"diag_{p}"]["patient_id"].max()) for p in ("h1", "h2"))
    for p in ("h1", "h2"):
        gen[f"med_{p}"] = gen[f"med_{p}"].assign(
            patient_id=gen[f"med_{p}"]["patient_id"] + shift)
    spec = aspirin.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    eng = Engine(spark, [p.name for p in spec.parties])
    df = eng.run(plan, gen_to_spark(spark, gen))
    assert df.toPandas()["rx_cnt"].tolist() == [0]
    assert_equivalent(df, spec.oracle_sql, **gen)
    assert (eng.meter.rounds, eng.meter.bytes_sent) == (21, 12_808.0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("leaking", [True, False])
def test_an_mpc_aggregation_of_two_empty_parts_has_no_rows(spark, backend, leaking):
    """T3's MPC aggregation over two parties with no rows returns no
    groups, as DuckDB does: with the leaking push-down (local
    pre-aggregates) and without (a merge of two empty runs)."""
    out, parties, _, _, sql = _mpc_agg()
    opts = CompileOptions(parties=parties, allow_cardinality_leaking_pushdown=leaking)
    plan = compile_query(out, opts)
    gen = {n: _pdf(k=[], v=[]) for n in ("ga", "gb")}
    eng = Engine(spark, [p.name for p in parties], backend=backend)
    df = eng.run(plan, gen_to_spark(spark, gen))
    assert df.count() == 0
    assert_equivalent(df, sql, **gen)


# ------------------------------------------------------ benchmark tracer
def _load_perfbench(module: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{module}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{module}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks the module up
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_a_compiled_credit_run(spark):
    """Every name the benchmark's tracer patches still exists, and the
    ``engine.run`` span charges what the run's meter holds."""
    from repro.core import compiler
    from repro.queries import credit_card

    tracer = _load_perfbench("tracer").Tracer()
    gen = credit_card.gen_inputs(n_holders=30, seed=1)
    spec = credit_card.build()
    tracer.install()
    try:
        plan = compiler.compile_query(spec.output, CompileOptions(parties=spec.parties))
        eng = Engine(spark, [p.name for p in spec.parties])
        eng.run(plan, gen_to_spark(spark, gen))
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names.count("core.compile") == 1
    assert "sharemind.shuffle" in names and "protocols.oblivious_shuffle" in names
    # the SUM and the COUNT are one hybrid aggregation: one traced backend
    # call that runs the STP's reveal and reorder
    aggs = [i for i, s in enumerate(tracer.spans) if s.name == "sharemind.aggregate"]
    assert len(aggs) == 1
    for i in aggs:
        kids = {s.name for s in tracer.spans if s.parent == i}
        assert {"sharemind.reveal_col_to", "sharemind.reorder_public"} <= kids
    (run,) = [s for s in tracer.spans if s.name == "engine.run"]
    assert run.rounds == eng.meter.rounds > 0
    assert run.bytes == eng.meter.bytes_sent
