"""End-to-end multi-party execution of the paper's queries, checked
against DuckDB over the cleartext union of inputs (the repro's
correctness oracle). Every test runs the full compiled plan: local
Spark stages, inputToMPC sharing, simulated MPC protocols, hybrid
operators, and the final reveal."""
import numpy as np
import pandas as pd
import pytest

import duckdb

from repro.core.columns import Column, Party
from repro.core.compiler import CompileOptions, compile_query
from repro.core.lang import concat, newTable
from repro.oracle import assert_equivalent
from repro.queries import aspirin, comorbidity, credit_card, market_concentration
from repro.queries.base import gen_to_spark
from repro.runtime.engine import Engine


def _oracle(sql: str, gen: dict[str, pd.DataFrame]) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, pdf in gen.items():
            con.register(name, pdf)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def _run(spark, mod, gen, *, spec=None, backend="sharemind", **copts):
    spec = spec or mod.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties, **copts))
    eng = Engine(spark, [p.name for p in spec.parties], backend=backend)
    df = eng.run(plan, gen_to_spark(spark, gen))
    return spec, plan, eng, df


# --------------------------------------------------- market concentration
def test_market_concentration_end_to_end(spark):
    gen = market_concentration.gen_inputs(n_per_party=400)
    spec, plan, eng, df = _run(spark, market_concentration, gen)
    got = df.toPandas()["hhi"].iloc[0]
    expected = _oracle(spec.oracle_sql, gen)["hhi"].iloc[0]
    # fixed-point division under MPC: compare with tolerance
    assert got == pytest.approx(expected, abs=1e-4)


def test_market_concentration_no_pushdown_same_result(spark):
    gen = market_concentration.gen_inputs(n_per_party=60)
    spec, plan, eng, df = _run(
        spark, market_concentration, gen, allow_cardinality_leaking_pushdown=False
    )
    got = df.toPandas()["hhi"].iloc[0]
    expected = _oracle(spec.oracle_sql, gen)["hhi"].iloc[0]
    assert got == pytest.approx(expected, abs=1e-4)


def test_market_pushdown_reduces_mpc_cost(spark):
    gen = market_concentration.gen_inputs(n_per_party=300)
    meters = {}
    for allow in (True, False):
        spec = market_concentration.build()
        plan = compile_query(
            spec.output,
            CompileOptions(
                parties=spec.parties, allow_cardinality_leaking_pushdown=allow
            ),
        )
        eng = Engine(spark, [p.name for p in spec.parties])
        eng.run(plan, gen_to_spark(spark, gen))
        meters[allow] = eng.meter
    # with the split, only a handful of rows enter MPC
    assert meters[True].bytes_sent < meters[False].bytes_sent / 10


def test_market_insecure_spark_baseline(spark):
    from repro.backends.spark_clear import run_query_clear

    gen = market_concentration.gen_inputs(n_per_party=500)
    spec = market_concentration.build()
    df = run_query_clear(spark, spec.output, gen_to_spark(spark, gen))
    got = df.toPandas()["hhi"].iloc[0]
    expected = _oracle(spec.oracle_sql, gen)["hhi"].iloc[0]
    assert got == pytest.approx(expected, rel=1e-9)


# --------------------------------------------------------- credit card
def _check_credit(spark, gen, **copts):
    spec, plan, eng, df = _run(spark, credit_card, gen, **copts)
    got = df.toPandas().sort_values("zip").reset_index(drop=True)
    expected = (
        _oracle(spec.oracle_sql, gen).sort_values("zip").reset_index(drop=True)
    )
    # integer columns must match exactly (oracle discipline); the average,
    # a double, gets a tolerance
    assert_equivalent(
        spark.createDataFrame(got[["zip", "total", "cnt"]]),
        "SELECT zip, SUM(score) AS total, COUNT(*) AS cnt FROM ("
        "  SELECT d.zip AS zip, s.score AS score FROM demographics d "
        "  JOIN (SELECT * FROM scores_b UNION ALL SELECT * FROM scores_c) s "
        "  ON d.ssn = s.ssn) GROUP BY zip",
        **gen,
    )
    np.testing.assert_allclose(
        got["avg_score"].to_numpy(), expected["avg_score"].to_numpy(), atol=1e-4
    )
    return plan, eng


def test_credit_card_hybrid_end_to_end(spark):
    gen = credit_card.gen_inputs(n_holders=300)
    plan, eng = _check_credit(spark, gen)
    from repro.core import dag as D

    assert any(j.site[0] == "hybrid" for j in plan.dag.nodes_of_type(D.Join))


@pytest.mark.parametrize("trust,backend", [
    (True, "sharemind"), (False, "sharemind"), (False, "oblivc"),
], ids=["hybrid", "mpc", "mpc-oblivc"])
def test_credit_card_one_aggregation_matches_duckdb(spark, trust, backend):
    """One aggregation computes SUM and COUNT and the regulator divides:
    the result matches DuckDB with trust (a hybrid aggregation), without
    trust, and without trust on the garbled-circuit backend."""
    from repro.core import dag as D

    gen = credit_card.gen_inputs(n_holders=90, seed=4)
    plan, eng = _check_credit(
        spark, gen, spec=credit_card.build(with_trust=trust), backend=backend
    )
    (agg,) = plan.dag.nodes_of_type(D.Aggregate)
    assert agg.site[0] == ("hybrid" if trust else "mpc")
    # no node after the join reads the regulator's ssn
    (join,) = plan.dag.nodes_of_type(D.Join)
    assert join.out_cols == ["zip", "score"]
    assert [n.site for n in plan.dag.nodes_of_type(D.Arith)] == [("clear", "a")]


def test_credit_card_pure_mpc_same_result(spark):
    gen = credit_card.gen_inputs(n_holders=120)
    plan, eng = _check_credit(
        spark, gen, enable_hybrid=False, enable_public_join=False
    )
    from repro.core import dag as D

    assert all(j.site[0] != "hybrid" for j in plan.dag.nodes_of_type(D.Join))


def test_credit_hybrid_cheaper_than_mpc(spark):
    gen = credit_card.gen_inputs(n_holders=400)
    costs = {}
    for hybrid in (True, False):
        spec = credit_card.build()
        plan = compile_query(
            spec.output,
            CompileOptions(
                parties=spec.parties, enable_hybrid=hybrid,
                enable_public_join=hybrid,
            ),
        )
        eng = Engine(spark, [p.name for p in spec.parties])
        eng.run(plan, gen_to_spark(spark, gen))
        costs[hybrid] = eng.meter.bytes_sent
    assert costs[True] < costs[False] / 5  # O(n log n) vs O(n^2)


@pytest.mark.parametrize("mode,backend", [
    ("mpc", "sharemind"), ("hybrid", "sharemind"), ("public", "sharemind"),
    ("mpc", "oblivc"),
])
def test_pruned_joins_match_duckdb(spark, mode, backend):
    """a's (k, f, x, g) joined with b's (k, y), then an MPC filter on f and
    SUM(y) by g: the join carries only f, g and y. With no column read at
    all, an ungrouped COUNT of the join keeps one column and counts right."""
    from repro.core import dag as D

    pa, pb, pc = Party("a"), Party("b"), Party("c")
    key = {"mpc": Column("k"), "hybrid": Column("k", trust=(pc,)),
           "public": Column("k", public=True)}[mode]
    joined = lambda: newTable(  # noqa: E731
        [key, Column("f"), Column("x"), Column("g")], at=pa, name="pl",
    ).join(newTable([key, Column("y")], at=pb, name="pr"), left="k", right="k")
    g = np.random.default_rng(8)
    gen = {"pl": pd.DataFrame({"k": g.integers(0, 20, 40), "f": g.integers(0, 2, 40),
                               "x": g.integers(0, 99, 40), "g": g.integers(0, 4, 40)}),
           "pr": pd.DataFrame({"k": g.integers(0, 20, 30), "y": g.integers(0, 99, 30)})}
    sql = "FROM pl JOIN pr ON pl.k = pr.k"
    for rel, kept, query in (
        (joined().filter("f", "==", 1).aggregate("s", D.SUM, group=["g"], over="y"),
         ["f", "g", "y"], f"SELECT g, SUM(y) AS s {sql} WHERE f = 1 GROUP BY g"),
        (joined().aggregate("c", D.COUNT), ["k"], f"SELECT COUNT(*) AS c {sql}"),
    ):
        plan = compile_query(rel.collect(to=[pa]), CompileOptions(parties=[pa, pb, pc]))
        (join,) = plan.dag.nodes_of_type(D.Join)
        assert (join.site[0], join.out_cols) == (mode, kept)
        eng = Engine(spark, ["a", "b", "c"], backend=backend)
        assert_equivalent(eng.run(plan, gen_to_spark(spark, gen)), query, **gen)


# ------------------------------------------------------------- aspirin
def test_aspirin_end_to_end(spark):
    gen = aspirin.gen_inputs(n_per_party=300, overlap_frac=0.1)
    spec, plan, eng, df = _run(spark, aspirin, gen)
    assert_equivalent(df, spec.oracle_sql, **gen)


def test_aspirin_no_cross_party_overlap(spark):
    """With disjoint patient pools the join still matches within each
    hospital; the result must equal the oracle's."""
    gen = aspirin.gen_inputs(n_per_party=100, overlap_frac=0.0)
    spec, plan, eng, df = _run(spark, aspirin, gen)
    assert_equivalent(df, spec.oracle_sql, **gen)


def test_aspirin_sort_elimination_same_answer_lower_cost(spark):
    """Over the public join's public key, the distinct count sorts under
    neither setting: same answer, same cost. Over a secret key, sort
    elimination merges the parties' pre-sorted parts instead of sorting
    them all: same answer, fewer rounds."""
    gen = aspirin.gen_inputs(n_per_party=400, overlap_frac=0.2)
    results, costs = {}, {}
    for elim in (True, False):
        spec = aspirin.build()
        plan = compile_query(
            spec.output,
            CompileOptions(parties=spec.parties, enable_sort_elimination=elim),
        )
        eng = Engine(spark, [p.name for p in spec.parties])
        df = eng.run(plan, gen_to_spark(spark, gen))
        results[elim] = df.toPandas()["rx_cnt"].iloc[0]
        costs[elim] = eng.meter.rounds, eng.meter.bytes_sent
    assert results[True] == results[False]
    assert costs[True] == costs[False]

    pa, pb = Party("a"), Party("b")
    rows = concat([newTable([Column("k"), Column("v")], at=p, name=f"t{p.name}")
                   for p in (pa, pb)])
    g = np.random.default_rng(4)
    data = {f"t{p}": pd.DataFrame({"k": g.integers(0, 30, 120), "v": g.integers(0, 9, 120)})
            for p in ("a", "b")}
    for elim in (True, False):
        plan = compile_query(
            rows.distinct_count("k", "dc").collect(to=[pa]),
            CompileOptions(parties=[pa, pb], enable_sort_elimination=elim),
        )
        eng = Engine(spark, ["a", "b"])
        results[elim] = eng.run(plan, gen_to_spark(spark, data)).toPandas()["dc"].iloc[0]
        costs[elim] = eng.meter.rounds
    assert results[True] == results[False] == len(np.unique(
        np.concatenate([d["k"] for d in data.values()])))
    assert costs[True] < costs[False]  # a merge of two runs, not a whole sort


def test_aspirin_public_join_only_shares_overlap(spark):
    """Only rows for patient IDs present at both parties enter MPC: the
    bytes shared should track the overlap, not the full input."""
    small = aspirin.gen_inputs(n_per_party=400, overlap_frac=0.02, seed=3)
    big = aspirin.gen_inputs(n_per_party=400, overlap_frac=0.9, seed=3)
    byts = {}
    for name, gen in [("small", small), ("big", big)]:
        spec, plan, eng, df = _run(spark, aspirin, gen)
        assert_equivalent(df, spec.oracle_sql, **gen)
        byts[name] = eng.meter.bytes_sent
    # the full 2%-only-enters-MPC effect needs SMCQL-style slicing on
    # top (tested in test_smcql.py); the public join alone already scales
    # shared bytes with the match count
    assert byts["small"] < byts["big"] / 1.5


def test_boundary_operator_costs_are_pinned(spark):
    """Results and simulated rounds and bytes of the compiled aspirin plan
    (public join + distinct count over its public key) and credit plan
    (hybrid join + one hybrid aggregation) on fixed inputs. Any change
    here is a cost-model change."""
    from repro.core import dag as D

    gen = aspirin.gen_inputs(n_per_party=300, overlap_frac=0.2, seed=1)
    spec, plan, eng, df = _run(spark, aspirin, gen)
    assert any(j.site[0] == "public" for j in plan.dag.nodes_of_type(D.Join))
    assert all(n.input_sorted for n in plan.dag.nodes_of_type(D.DistinctCount))
    assert df.toPandas()["rx_cnt"].tolist() == [49]
    assert (eng.meter.rounds, eng.meter.bytes_sent) == (29, 216_528.0)

    plan, eng = _check_credit(spark, credit_card.gen_inputs(n_holders=150, seed=1))
    assert any(j.site[0] == "hybrid" for j in plan.dag.nodes_of_type(D.Join))
    assert any(a.site[0] == "hybrid" for a in plan.dag.nodes_of_type(D.Aggregate))
    # the join carries no ssn, and the aggregation reads the rows in the
    # order of the join's closing shuffle (29 rounds and 198,576 B before)
    assert (eng.meter.rounds, eng.meter.bytes_sent) == (26, 148_176.0)


# ---------------------------------------------------------- comorbidity
def test_comorbidity_end_to_end(spark):
    gen = comorbidity.gen_inputs(n_per_party=500, distinct_key_frac=0.05)
    spec, plan, eng, df = _run(spark, comorbidity, gen)
    got = sorted(df.toPandas()["cnt"].tolist(), reverse=True)
    expected = _oracle(spec.oracle_sql, gen)["cnt"].tolist()
    # ties make the diag picks ambiguous; the count multiset is exact
    assert got == expected


def test_comorbidity_small_key_space(spark):
    gen = comorbidity.gen_inputs(n_per_party=60, distinct_key_frac=0.04)
    spec, plan, eng, df = _run(spark, comorbidity, gen)
    got = df.toPandas()
    full = _oracle(
        "SELECT diag, COUNT(*) AS cnt FROM ("
        "SELECT * FROM cdiag_h1 UNION ALL SELECT * FROM cdiag_h2) GROUP BY diag",
        gen,
    )
    merged = got.merge(full, on="diag", suffixes=("_got", "_exp"))
    # fewer keys than TOP_K: every group must be present and exact
    assert len(got) == len(full)
    np.testing.assert_array_equal(merged["cnt_got"], merged["cnt_exp"])


# -------------------------------------------------- engine odds and ends
def test_engine_rejects_unknown_backend(spark):
    with pytest.raises(ValueError):
        Engine(spark, ["a", "b"], backend="sgx")


def test_engine_meter_accumulates(spark):
    gen = market_concentration.gen_inputs(n_per_party=50)
    spec, plan, eng, df = _run(spark, market_concentration, gen)
    assert eng.meter.rounds > 0
    assert eng.meter.bytes_sent > 0
    assert eng.meter.hybrid_seconds() > 0
