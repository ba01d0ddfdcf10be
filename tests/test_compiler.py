"""Structural tests for the six compiler stages (§5) on the paper's
queries: ownership, trust propagation, frontier placement, hybrid
rewrites, push-up, sort elimination and site assignment."""
import itertools

import pytest

from repro.core import dag as D
from repro.core.columns import Column, Party
from repro.core.compiler import CompileOptions, compile_query
from repro.core.lang import concat, newTable
from repro.queries import aspirin, comorbidity, credit_card, market_concentration
from repro.tables.table3_hybrid import _agg_query, _join_query


def _compile(spec, **kw):
    return compile_query(spec.output, CompileOptions(parties=spec.parties, **kw))


def _run_as(plan, cls, kind):
    """The plan's nodes of type ``cls`` whose site is ``(kind, party)``."""
    return [n for n in plan.dag.nodes_of_type(cls) if n.site[0] == kind]


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
    assert not _run_as(plan, D.Join, "hybrid")
    assert not _run_as(plan, D.Aggregate, "hybrid")


# --------------------------------------------------------------- hybrid
def test_credit_hybrid_join_and_aggregations():
    spec = credit_card.build()
    plan = _compile(spec)
    hj = _run_as(plan, D.Join, "hybrid")
    ha = _run_as(plan, D.Aggregate, "hybrid")
    assert hj and all(j.site[1] == "a" for j in hj)
    assert ha and all(a.site[1] == "a" for a in ha)
    # the ssn join must be hybrid (regulator is the STP)
    assert any(j.left_key == "ssn" for j in hj)


def test_credit_without_trust_annotations_stays_mpc():
    spec = credit_card.build(with_trust=False)
    plan = _compile(spec)
    assert not _run_as(plan, D.Join, "hybrid")
    joins = plan.dag.nodes_of_type(D.Join)
    assert any(j.left_key == "ssn" and j.site == ("mpc",) for j in joins)


def test_hybrid_disabled_by_option():
    spec = credit_card.build()
    plan = _compile(spec, enable_hybrid=False)
    assert not _run_as(plan, D.Join, "hybrid")
    assert not _run_as(plan, D.Aggregate, "hybrid")


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
    assert bool(_run_as(plan, D.Aggregate, "hybrid")) == hybrid


def test_aspirin_public_join():
    spec = aspirin.build()
    plan = _compile(spec)
    pj = _run_as(plan, D.Join, "public")
    assert len(pj) == 1
    # private filters remain under MPC
    for f in plan.dag.nodes_of_type(D.Filter):
        assert f.site == ("mpc",)


def test_public_join_disabled_falls_back_to_hybrid():
    spec = aspirin.build()
    plan = _compile(spec, enable_public_join=False)
    # keys are public so *some* party qualifies as STP
    assert _run_as(plan, D.Join, "hybrid")


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
        n for n in plan.dag.nodes_of_type(D.Aggregate) if n.forced_site
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


def _cross_party_join():
    """An MPC join of a's (k, x) and b's (k, y, g), neither key trusted."""
    pa, pb = Party("a"), Party("b")
    left = newTable([Column("k"), Column("x")], at=pa, name="l")
    right = newTable([Column("k"), Column("y"), Column("g")], at=pb, name="r")
    return left.join(right, left="k", right="k"), [pa, pb]


@pytest.mark.parametrize("projected", [False, True])
def test_push_up_column_arithmetic_only_over_columns_the_recipient_gets(projected):
    """A division by a column runs at the recipient when every column of
    its input reaches the recipient anyway; once its operand is projected
    away before the output, it stays under MPC."""
    joined, parties = _cross_party_join()
    q = joined.divide("q", "x", by="y")
    out = (q.project(["k", "q"]) if projected else q).collect(to=[parties[0]])
    plan = compile_query(out, CompileOptions(parties=parties))
    (ar,) = plan.dag.nodes_of_type(D.Arith)
    assert ar.site == (("mpc",) if projected else ("clear", "a"))


# ------------------------------------------------------ aggregation merge
def test_credit_plan_has_one_aggregation_and_divides_at_the_regulator():
    """SUM and COUNT come from one hybrid aggregation, the join that put
    them side by side is gone, and the regulator computes the average."""
    plan = _compile(credit_card.build())
    (agg,) = plan.dag.nodes_of_type(D.Aggregate)
    assert agg.site == ("hybrid", "a")
    assert agg.aggs == [D.Agg(D.SUM, "score", "total"), D.Agg(D.COUNT, None, "cnt")]
    assert [j.left_key for j in plan.dag.nodes_of_type(D.Join)] == ["ssn"]
    (ar,) = plan.dag.nodes_of_type(D.Arith)
    assert ar.site == ("clear", "a")
    assert plan.rewrites["aggregation_merge"] == 1


def test_sibling_aggregations_merge_only_on_the_same_group_columns():
    joined, parties = _cross_party_join()
    by_g = joined.aggregate("s", D.SUM, group=["g"], over="x")
    by_k = joined.aggregate("c", D.COUNT, group=["k"])
    out = by_g.join(by_k, left="g", right="k").collect(to=[parties[0]])
    plan = compile_query(out, CompileOptions(parties=parties))
    assert len(plan.dag.nodes_of_type(D.Aggregate)) == 2
    assert len(plan.dag.nodes_of_type(D.Join)) == 2
    assert plan.rewrites["aggregation_merge"] == 0


_TOGGLES = ["allow_cardinality_leaking_pushdown", "enable_hybrid",
            "enable_public_join", "enable_sort_elimination", "enable_push_up"]


def _paper_query(mod):
    spec = mod.build()
    return spec.output, spec.parties


_OTHER_QUERIES = {
    **{m.__name__.rsplit(".", 1)[1]: (lambda m=m: _paper_query(m))
       for m in (market_concentration, aspirin, comorbidity)},
    **{f"t3-{op}-{mode}": (lambda q=q, m=mode: q(m))
       for op, q in (("join", _join_query), ("agg", _agg_query))
       for mode in ("mpc", "hybrid", "public")},
}


@pytest.mark.parametrize("name", sorted(_OTHER_QUERIES))
def test_other_plans_take_neither_merge_nor_column_push_up(name):
    """Under all 32 combinations of the compile toggles, the HHI, aspirin,
    comorbidity and T3 plans merge no aggregation and lift no column
    arithmetic, so they are the plans they were before both rewrites."""
    for bits in itertools.product([False, True], repeat=len(_TOGGLES)):
        out, parties = _OTHER_QUERIES[name]()
        plan = compile_query(
            out, CompileOptions(parties=parties, **dict(zip(_TOGGLES, bits)))
        )
        assert plan.rewrites["aggregation_merge"] == 0
        assert not [a for a in plan.dag.nodes_of_type(D.Arith)
                    if isinstance(a.right, str) and a.forced_site]


# -------------------------------------------------------- column pruning
def test_credit_join_keeps_only_the_columns_its_aggregation_reads():
    """No node after the credit join reads the regulator's ssn, so neither
    the hybrid join nor the MPC join of the untrusted query carries it."""
    for trust, options in ((True, {}), (False, {}), (True, _NO_HYBRID)):
        plan = _compile(credit_card.build(with_trust=trust), **options)
        (join,) = plan.dag.nodes_of_type(D.Join)
        assert join.out_cols == ["zip", "score"]


@pytest.mark.parametrize("mode", ["mpc", "hybrid", "public"])
def test_a_join_that_feeds_an_output_keeps_every_column(mode):
    out, parties = _join_query(mode)
    plan = compile_query(out, CompileOptions(parties=parties))
    (join,) = plan.dag.nodes_of_type(D.Join)
    assert join.out_cols == ["k", "v", "w"]


def test_pruning_follows_what_each_later_node_reads():
    """Through a filter and an arithmetic step, the join keeps the filter's
    column, the operand and the group column, not the key or ``y``, and
    the nodes after it list only the columns they get, so the same DAG
    compiles again to the same plan. A join whose rows only an ungrouped
    COUNT reads keeps one column."""
    joined, parties = _cross_party_join()
    out = (joined.filter("x", "==", 1).multiply("z", "x", 2)
           .aggregate("s", D.SUM, group=["g"], over="z").collect(to=[parties[0]]))
    for _ in range(2):
        plan = compile_query(out, CompileOptions(parties=parties))
        (join,), (f,), (ar,) = (plan.dag.nodes_of_type(c)
                                for c in (D.Join, D.Filter, D.Arith))
        assert join.out_cols == f.out_cols == ["x", "g"]
        assert ar.out_cols == ["x", "g", "z"]
    joined, parties = _cross_party_join()
    out = joined.aggregate("c", D.COUNT).collect(to=[parties[0]])
    (join,) = compile_query(out, CompileOptions(parties=parties)).dag.nodes_of_type(D.Join)
    assert join.out_cols == ["k"]


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


def _over_concat(tail, **opts):
    """Compile ``tail`` applied to the MPC concat of two parties' tables
    (``g`` trusted to party c, the STP), and return its MPC and hybrid
    nodes, in topological order."""
    pa, pb, pc = Party("a"), Party("b"), Party("c")
    cols = lambda: [Column("g", trust=(pc,)), Column("v")]  # noqa: E731
    rows = concat([newTable(cols(), at=pa, name="xa"), newTable(cols(), at=pb, name="xb")])
    plan = compile_query(tail(rows).collect(to=[pa]), CompileOptions(
        parties=[pa, pb, pc], allow_cardinality_leaking_pushdown=False, **opts))
    return [n for n in plan.nodes() if n.site[0] in ("mpc", "hybrid")]


def _sorts_eliminated(nodes) -> bool:
    """Whether any of ``nodes`` skips or merges a sort, or is a concat
    whose parts the parties pre-sort."""
    return any(n.input_sorted or isinstance(n, D.Concat) and n.presort for n in nodes)


def test_a_sort_over_the_parties_concat_becomes_a_merge():
    """Each party pre-sorts its part for a sort-based MPC operator that
    reads the concat of the parties' parts, in the operator's direction;
    not with sort elimination off, not for a hybrid aggregation (its STP
    sorts in the clear), and not for a concat read twice."""
    agg = lambda r: r.aggregate("s", D.SUM, group=["g"], over="v")  # noqa: E731
    [cat, merged] = _over_concat(lambda r: agg(r.project(["g", "v"])), enable_hybrid=False)
    assert isinstance(cat, D.Concat) and cat.input_sorted is False
    assert merged.input_sorted is True and merged.parents == [cat]
    assert cat.presort == ("g", False)
    [cat, top] = _over_concat(lambda r: r.sort_by("v", ascending=False))
    assert top.input_sorted and cat.presort == ("v", True)
    [cat, dc] = _over_concat(lambda r: r.distinct_count("g"))
    assert dc.input_sorted and cat.presort == ("g", False)
    assert not _sorts_eliminated(
        _over_concat(agg, enable_hybrid=False, enable_sort_elimination=False))
    assert not _sorts_eliminated(_over_concat(agg))  # hybrid: pinned to the STP
    twice = lambda r: agg(r).cross(r.distinct_count("v"))  # noqa: E731
    assert not _sorts_eliminated(_over_concat(twice, enable_hybrid=False))


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


# ------------------------------------------------------------- plan pins
_MARKET_LOCAL = ["Input clear:{0}", "Filter clear:{0}", "Project clear:{0}",
                 "Aggregate clear:{0}"]
_MARKET = [s.format(p) for p in "abc" for s in _MARKET_LOCAL] + [
    # each party sorts its pre-aggregates: the combiner merges three runs
    "Concat mpc", "Aggregate mpc merged", "Aggregate mpc", "Join mpc", "Arith mpc",
    "Arith mpc", "Aggregate mpc", "Output clear:a",
]
_COMORBIDITY = [
    "Input clear:h1", "Aggregate clear:h1", "Input clear:h2", "Aggregate clear:h2",
    "Concat mpc", "Aggregate mpc merged", "SortBy mpc", "Limit mpc", "Output clear:h1",
]
_ASPIRIN_INPUTS = ["Input clear:h1", "Input clear:h2", "Concat mpc"] * 2
_CREDIT_INPUTS = ["Input clear:a", "Input clear:b", "Input clear:c", "Concat mpc"]
_NO_HYBRID = {"enable_hybrid": False, "enable_public_join": False}
PLAN_PINS = [
    (market_concentration, {}, _MARKET),
    (market_concentration, _NO_HYBRID, _MARKET),
    # one aggregation serves SUM and COUNT; the average is taken at the
    # regulator, which receives both
    (credit_card, {}, _CREDIT_INPUTS + [
        "Join hybrid:a", "Aggregate hybrid:a", "Project clear:a", "Arith clear:a",
        "Output clear:a",
    ]),
    (credit_card, _NO_HYBRID, _CREDIT_INPUTS + [
        "Join mpc", "Aggregate mpc", "Project clear:a", "Arith clear:a",
        "Output clear:a",
    ]),
    (aspirin, {}, _ASPIRIN_INPUTS + [
        "Join public:h1", "Filter mpc", "Filter mpc", "DistinctCount mpc sorted",
        "Output clear:h1",
    ]),
    (aspirin, _NO_HYBRID, _ASPIRIN_INPUTS + [
        "Join mpc", "Filter mpc", "Filter mpc", "DistinctCount mpc", "Output clear:h1",
    ]),
    (comorbidity, {}, _COMORBIDITY),
    (comorbidity, _NO_HYBRID, _COMORBIDITY),
]


@pytest.mark.parametrize(
    "query, options, pins", PLAN_PINS,
    ids=[f"{q.__name__.rsplit('.', 1)[1]}-{'no-hybrid' if o else 'default'}"
         for q, o, _ in PLAN_PINS],
)
def test_paper_query_plans_are_pinned(query, options, pins):
    """Every node's type, site and sort elimination (skipped, or a merge of
    sorted runs), in topological order: a change to placement has to show
    itself here."""
    plan = _compile(query.build(), **options)

    def sort_mark(n: D.Node) -> str:
        if not n.input_sorted:
            return ""
        p = n.parents[0]
        return " merged" if isinstance(p, D.Concat) and p.presort else " sorted"

    assert [
        f"{type(n).__name__} {':'.join(n.site)}{sort_mark(n)}" for n in plan.nodes()
    ] == pins
