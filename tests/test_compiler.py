"""Structural tests for the six compiler stages (§5) on the paper's
queries: ownership, trust propagation, frontier placement, hybrid
rewrites, push-up, sort elimination and site assignment."""
import pytest

from repro.core import dag as D
from repro.core.columns import Column, Party
from repro.core.compiler import CompileOptions, compile_query
from repro.core.lang import concat, newTable
from repro.queries import aspirin, comorbidity, credit_card, market_concentration


def _compile(spec, **kw):
    return compile_query(spec.output, CompileOptions(parties=spec.parties, **kw))


# ------------------------------------------------------------- ownership
def test_ownership_inputs_and_unary():
    p = Party("x")
    t = newTable([Column("a"), Column("b")], at=p, name="t")
    out = t.project(["a"]).collect(to=[p])
    plan = compile_query(out, CompileOptions(parties=[p]))
    for n in plan.nodes():
        assert n.owner == "x"


def test_ownership_concat_differs_is_none():
    pa, pb = Party("a"), Party("b")
    ta = newTable([Column("k")], at=pa, name="ta")
    tb = newTable([Column("k")], at=pb, name="tb")
    c = concat([ta, tb])
    out = c.aggregate("s", D.SUM, over="k").collect(to=[pa])
    plan = compile_query(
        out, CompileOptions(parties=[pa, pb], allow_cardinality_leaking_pushdown=False)
    )
    concat_nodes = plan.dag.nodes_of_type(D.Concat)
    assert all(c.owner is None for c in concat_nodes)


# ------------------------------------------------------ trust propagation
def test_trust_owner_implicit_and_annotation():
    spec = credit_card.build()
    plan = _compile(spec, enable_hybrid=False, enable_public_join=False)
    inputs = {n.name: n for n in plan.dag.nodes_of_type(D.Input)}
    assert inputs["demographics"].trust["ssn"] == frozenset({"a"})
    assert inputs["scores_b"].trust["ssn"] == frozenset({"a", "b"})
    assert inputs["scores_b"].trust["score"] == frozenset({"b"})


def test_trust_join_intersects_keys():
    spec = credit_card.build()
    plan = _compile(spec, enable_hybrid=False, enable_public_join=False)
    joins = plan.dag.nodes_of_type(D.Join)
    ssn_join = [j for j in joins if j.left_key == "ssn"][0]
    # every joined column's trust is cut down by the key columns' trust {a}
    assert ssn_join.trust["score"] <= frozenset({"a"})
    assert ssn_join.trust["zip"] == frozenset({"a"})


def test_trust_public_columns_cover_all_parties():
    spec = aspirin.build()
    plan = _compile(spec, enable_public_join=False, enable_hybrid=False)
    inputs = {n.name: n for n in plan.dag.nodes_of_type(D.Input)}
    assert inputs["diag_h1"].trust["patient_id"] == frozenset({"h1", "h2"})


def test_trust_never_widens():
    """Security invariant: a node's column trust set is a subset of the
    union of its parents' trust sets for that column (or the operand it
    derives from)."""
    for spec in [credit_card.build(), aspirin.build(), market_concentration.build()]:
        plan = _compile(spec)
        for n in plan.nodes():
            if isinstance(n, D.Input):
                continue
            for col, ts in n.trust.items():
                parent_sets = [p.trust[col] for p in n.parents if col in p.trust]
                if parent_sets:
                    assert any(ts <= ps for ps in parent_sets), (n.name, col)


# ----------------------------------------------------- frontier push-down
def test_market_pushdown_splits_aggregation():
    spec = market_concentration.build()
    plan = _compile(spec)
    assert plan.rewrites["aggregation_split"] == 1
    assert plan.rewrites["concat_pushdown"] >= 2  # filter + project
    # per-party pre-aggregations run in the clear at their owners
    local_aggs = [
        n for n in plan.dag.nodes_of_type(D.Aggregate)
        if not n.secondary and n.group_cols
    ]
    assert len(local_aggs) == 3
    assert {n.site for n in local_aggs} == {
        ("clear", "a"), ("clear", "b"), ("clear", "c")
    }
    # the secondary aggregation stays under MPC
    secondary = [n for n in plan.dag.nodes_of_type(D.Aggregate) if n.secondary]
    assert len(secondary) == 1 and secondary[0].site == ("mpc",)


def test_market_filters_run_locally():
    spec = market_concentration.build()
    plan = _compile(spec)
    for f in plan.dag.nodes_of_type(D.Filter):
        assert f.site[0] == "clear"


def test_pushdown_requires_consent():
    spec = market_concentration.build()
    plan = _compile(spec, allow_cardinality_leaking_pushdown=False)
    assert plan.rewrites.get("aggregation_split", 0) == 0
    secondary = [n for n in plan.dag.nodes_of_type(D.Aggregate) if n.secondary]
    assert not secondary


def test_market_no_hybrid_without_annotations():
    spec = market_concentration.build()
    plan = _compile(spec)
    assert plan.rewrites["hybrid"] == 0
    assert not plan.dag.nodes_of_type(D.HybridJoin)
    assert not plan.dag.nodes_of_type(D.HybridAggregate)


# --------------------------------------------------------------- hybrid
def test_credit_hybrid_join_and_aggregations():
    spec = credit_card.build()
    plan = _compile(spec)
    hj = plan.dag.nodes_of_type(D.HybridJoin)
    ha = plan.dag.nodes_of_type(D.HybridAggregate)
    assert hj and all(j.stp == "a" for j in hj)
    assert ha and all(a.stp == "a" for a in ha)
    # the ssn join must be hybrid (regulator is the STP)
    assert any(j.left_key == "ssn" for j in hj)


def test_credit_without_trust_annotations_stays_mpc():
    spec = credit_card.build(with_trust=False)
    plan = _compile(spec)
    assert not plan.dag.nodes_of_type(D.HybridJoin)
    joins = plan.dag.nodes_of_type(D.Join)
    assert any(j.left_key == "ssn" and j.site == ("mpc",) for j in joins)


def test_hybrid_disabled_by_option():
    spec = credit_card.build()
    plan = _compile(spec, enable_hybrid=False)
    assert not plan.dag.nodes_of_type(D.HybridJoin)
    assert not plan.dag.nodes_of_type(D.HybridAggregate)


@pytest.mark.parametrize(
    "group, hybrid", [(["g1"], True), (["g1", "g2"], False)]
)
def test_hybrid_aggregation_only_for_one_group_column(group, hybrid):
    # the hybrid aggregation protocol groups by a single STP-visible key
    pa, pb, pc = Party("a"), Party("b"), Party("c")
    mk = lambda: [  # noqa: E731
        Column("g1", trust=(pc,)), Column("g2", trust=(pc,)), Column("v")
    ]
    t = concat([newTable(mk(), at=pa, name="ta"), newTable(mk(), at=pb, name="tb")])
    out = t.aggregate("s", D.SUM, group=group, over="v").collect(to=[pa])
    plan = compile_query(
        out,
        CompileOptions(parties=[pa, pb, pc], allow_cardinality_leaking_pushdown=False),
    )
    assert bool(plan.dag.nodes_of_type(D.HybridAggregate)) == hybrid


def test_aspirin_public_join():
    spec = aspirin.build()
    plan = _compile(spec)
    pj = plan.dag.nodes_of_type(D.PublicJoin)
    assert len(pj) == 1
    assert pj[0].site[0] == "public"
    # private filters remain under MPC
    for f in plan.dag.nodes_of_type(D.Filter):
        assert f.site == ("mpc",)


def test_public_join_disabled_falls_back_to_hybrid():
    spec = aspirin.build()
    plan = _compile(spec, enable_public_join=False)
    # keys are public so *some* party qualifies as STP
    assert plan.dag.nodes_of_type(D.HybridJoin)


# -------------------------------------------------------------- push-up
def test_leaf_count_rewritten_to_projection_plus_clear_count():
    pa, pb = Party("a"), Party("b")
    ta = newTable([Column("g"), Column("v")], at=pa, name="ca")
    tb = newTable([Column("g"), Column("v")], at=pb, name="cb")
    out = (
        concat([ta, tb])
        .join(concat([ta.project(["g"]), tb.project(["g"])]), left="g", right="g")
        .aggregate("cnt", D.COUNT, group=["g"])
        .collect(to=[pa])
    )
    plan = compile_query(
        out,
        CompileOptions(
            parties=[pa, pb], allow_cardinality_leaking_pushdown=False,
            enable_hybrid=False, enable_public_join=False,
        ),
    )
    counts = [
        n for n in plan.dag.nodes_of_type(D.Aggregate) if n.clear_count_at
    ]
    assert len(counts) == 1
    assert counts[0].site == ("clear", "a")
    # its parent is an MPC projection of the group column only
    proj = counts[0].parents[0]
    assert isinstance(proj, D.Project) and proj.cols == ["g"]
    assert proj.site == ("mpc",)


def test_push_up_scalar_arithmetic():
    pa, pb = Party("a"), Party("b")
    ta = newTable([Column("v")], at=pa, name="sa")
    tb = newTable([Column("v")], at=pb, name="sb")
    out = (
        concat([ta, tb])
        .aggregate("s", D.SUM, over="v")
        .multiply("scaled", "s", 100)
        .collect(to=[pb])
    )
    plan = compile_query(
        out, CompileOptions(parties=[pa, pb], allow_cardinality_leaking_pushdown=False)
    )
    ar = plan.dag.nodes_of_type(D.Arith)[0]
    assert ar.site == ("clear", "b")  # reversible: runs at the recipient


# ------------------------------------------------------ sort elimination
def test_aspirin_sort_elimination():
    spec = aspirin.build()
    plan = _compile(spec)
    dc = plan.dag.nodes_of_type(D.DistinctCount)[0]
    assert dc.input_sorted  # public join output is sorted by patient_id
    plan2 = _compile(spec, enable_sort_elimination=False)
    dc2 = plan2.dag.nodes_of_type(D.DistinctCount)[0]
    assert not dc2.input_sorted


def test_sortby_then_aggregate_eliminates_sort():
    pa, pb = Party("a"), Party("b")
    ta = newTable([Column("g"), Column("v")], at=pa, name="xa")
    tb = newTable([Column("g"), Column("v")], at=pb, name="xb")
    out = (
        concat([ta, tb])
        .join(concat([ta, tb]).project(["g"]), left="g", right="g")
        .sort_by("g")
        .aggregate("s", D.SUM, group=["g"], over="v")
        .collect(to=[pa])
    )
    plan = compile_query(
        out,
        CompileOptions(
            parties=[pa, pb], allow_cardinality_leaking_pushdown=False,
            enable_hybrid=False, enable_public_join=False,
        ),
    )
    agg = [n for n in plan.dag.nodes_of_type(D.Aggregate) if n.group_cols][0]
    assert agg.input_sorted


# -------------------------------------------------------- site assignment
def test_every_node_has_a_site():
    for spec in [
        market_concentration.build(), credit_card.build(),
        aspirin.build(), comorbidity.build(),
    ]:
        plan = _compile(spec)
        for n in plan.nodes():
            assert n.site is not None


def test_comorbidity_plan_shape():
    spec = comorbidity.build()
    plan = _compile(spec)
    # local pre-counts at each hospital, secondary agg + sort + limit under MPC
    locals_ = [
        n for n in plan.dag.nodes_of_type(D.Aggregate) if not n.secondary
    ]
    assert {n.site for n in locals_} == {("clear", "h1"), ("clear", "h2")}
    assert [n.site for n in plan.dag.nodes_of_type(D.SortBy)] == [("mpc",)]
    assert [n.site for n in plan.dag.nodes_of_type(D.Limit)] == [("mpc",)]


def test_describe_mentions_sites():
    plan = _compile(market_concentration.build())
    text = plan.describe()
    assert "mpc" in text and "clear" in text
