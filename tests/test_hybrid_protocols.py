"""Unit tests for the §5.3 hybrid operator protocols, run by the engine:
correctness against pandas ground truth, cost advantages, and the
leakage discipline (the STP sees key/group columns only)."""
import numpy as np
import pandas as pd
import pytest

from repro.backends.sharemind_sim import SharemindBackend
from repro.core import dag as D
from repro.core.columns import Column, Party
from repro.core.compiler import CompileOptions, compile_query
from repro.core.lang import concat, newTable
from repro.mpc.accounting import Meter
from repro.mpc.secret_sharing import SecretSharingVM
from repro.mpc.shared_rel import share_dataframe
from repro.queries import aspirin, credit_card
from repro.queries.base import gen_to_spark
from repro.runtime import engine as engine_mod
from repro.runtime.engine import Engine


def _parties():
    return Party("a"), Party("b"), Party("c")


def _join_plan(mode: str):
    pa, pb, pc = _parties()
    key = (
        Column("k", public=True) if mode == "public"
        else Column("k", trust=(pc,)) if mode == "hybrid"
        else Column("k")
    )
    key2 = (
        Column("k", public=True) if mode == "public"
        else Column("k", trust=(pc,)) if mode == "hybrid"
        else Column("k")
    )
    left = newTable([key, Column("v")], at=pa, name="jl")
    right = newTable([key2, Column("w")], at=pb, name="jr")
    out = left.join(right, left="k", right="k").collect(to=[pa])
    plan = compile_query(out, CompileOptions(parties=[pa, pb, pc]))
    return plan, [pa, pb, pc]


def _data(spark, n=40, seed=0, n_keys=15):
    g = np.random.default_rng(seed)
    jl = pd.DataFrame({"k": g.integers(0, n_keys, n), "v": g.integers(0, 99, n)})
    jr = pd.DataFrame({"k": g.integers(0, n_keys, n), "w": g.integers(0, 99, n)})
    jl, jr = jl.astype(np.int64), jr.astype(np.int64)
    return {
        "jl": spark.createDataFrame(jl),
        "jr": spark.createDataFrame(jr),
    }, jl, jr


@pytest.mark.parametrize("mode", ["mpc", "hybrid", "public"])
def test_join_modes_agree_with_pandas(spark, mode):
    plan, parties = _join_plan(mode)
    data, jl, jr = _data(spark, seed=3)
    eng = Engine(spark, [p.name for p in parties])
    got = (
        eng.run(plan, data).toPandas().sort_values(["k", "v", "w"])
        .reset_index(drop=True).astype(np.int64)
    )
    expected = (
        jl.merge(jr, on="k").sort_values(["k", "v", "w"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k", "v", "w"]], expected, check_dtype=False)


@pytest.mark.parametrize("mode", ["public", "hybrid"])
def test_boundary_join_pairs_in_key_order(spark, unordered_joins, mode):
    """Duplicate keys on both sides; ``v`` and ``w`` are the row ids.
    The public join returns its rows ordered by (key, left row, right
    row); the hybrid join obliviously shuffles its result, so only the
    row set is compared."""
    plan, parties = _join_plan(mode)
    g = np.random.default_rng(11)
    jl = pd.DataFrame({"k": g.integers(0, 6, 30), "v": np.arange(30)})
    jr = pd.DataFrame({"k": g.integers(0, 6, 25), "w": np.arange(25)})
    data = {"jl": spark.createDataFrame(jl), "jr": spark.createDataFrame(jr)}
    eng = Engine(spark, [p.name for p in parties])
    got = eng.run(plan, data).toPandas()[["k", "v", "w"]].astype(np.int64)
    if mode == "hybrid":
        got = got.sort_values(["k", "v", "w"])
    expected = jl.merge(jr, on="k").sort_values(["k", "v", "w"])
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), expected.reset_index(drop=True),
        check_dtype=False,
    )


@pytest.mark.parametrize("mode", ["public", "hybrid"])
def test_boundary_join_without_match_is_empty(spark, mode):
    plan, parties = _join_plan(mode)
    jl = pd.DataFrame({"k": np.arange(10), "v": np.arange(10)})
    jr = pd.DataFrame({"k": np.arange(100, 108), "w": np.arange(8)})
    data = {"jl": spark.createDataFrame(jl), "jr": spark.createDataFrame(jr)}
    got = Engine(spark, [p.name for p in parties]).run(plan, data).toPandas()
    assert sorted(got.columns) == ["k", "v", "w"]
    assert len(got) == 0


def test_credit_with_disjoint_ssns_is_empty(spark):
    """No bank SSN is the regulator's: the hybrid join matches nothing,
    and the hybrid aggregation sees zero rows."""
    gen = credit_card.gen_inputs(n_holders=60)
    for bank in ("scores_b", "scores_c"):
        gen[bank] = gen[bank].assign(ssn=gen[bank]["ssn"] + 1_000_000)
    spec = credit_card.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    eng = Engine(spark, [p.name for p in spec.parties])
    got = eng.run(plan, gen_to_spark(spark, gen)).toPandas()
    assert sorted(got.columns) == ["avg_score", "cnt", "total", "zip"]
    assert len(got) == 0


@pytest.mark.parametrize(
    "query,gen",
    [
        (credit_card, lambda: credit_card.gen_inputs(n_holders=200)),
        (aspirin, lambda: aspirin.gen_inputs(n_per_party=200, overlap_frac=0.2)),
    ],
    ids=["credit", "aspirin"],
)
def test_boundary_operators_send_nothing_to_spark(spark, monkeypatch, query, gen):
    """The hybrid join, hybrid aggregation and public join compute their
    key join or sort on the driver: the engine hands Spark only the
    frames MPC reveals, none of the boundary operators' keys."""
    revealed, loaded = [], []
    reveal, to_spark = SharemindBackend.reveal, engine_mod.to_spark

    def reveal_spy(self, rel, party):
        pdf = reveal(self, rel, party)
        revealed.append(pdf)
        return pdf

    def to_spark_spy(spark_, pdf):
        loaded.append(pdf)
        return to_spark(spark_, pdf)

    monkeypatch.setattr(SharemindBackend, "reveal", reveal_spy)
    monkeypatch.setattr(engine_mod, "to_spark", to_spark_spy)
    spec = query.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    eng = Engine(spark, [p.name for p in spec.parties])
    eng.run(plan, gen_to_spark(spark, gen())).collect()
    assert revealed
    assert len(loaded) == len(revealed)
    assert all(a is b for a, b in zip(loaded, revealed))


def test_hybrid_join_cheaper_than_mpc_join(spark):
    costs = {}
    for mode in ("mpc", "hybrid"):
        plan, parties = _join_plan(mode)
        # ~1 match per key so the O(n²) vs O((n+m)·log) gap is visible
        data, *_ = _data(spark, n=400, seed=1, n_keys=400)
        eng = Engine(spark, [p.name for p in parties])
        eng.run(plan, data)
        costs[mode] = eng.meter.bytes_sent
    assert costs["hybrid"] < costs["mpc"] / 3


def test_public_join_clear_assembly_avoids_mpc(spark):
    """A public join whose result goes straight to the recipient needs
    no sharing at all (§7.2: 'the public variant avoids MPC')."""
    plan, parties = _join_plan("public")
    data, *_ = _data(spark, n=200, seed=2)
    eng = Engine(spark, [p.name for p in parties])
    eng.run(plan, data)
    # clear transfers only: key exchange, index broadcast, row shipping —
    # no secret-sharing rounds, no oblivious sub-protocols
    assert eng.meter.rounds <= 5


def test_hybrid_join_stp_sees_only_key_columns(spark, monkeypatch):
    """Leakage discipline: during a hybrid join the STP receives the key
    columns (and nothing else) in the clear."""
    revealed = []
    orig = SharemindBackend.reveal_col_to

    def spy(self, cols, party):
        revealed.extend((col, party) for _, col in cols)
        return orig(self, cols, party)

    monkeypatch.setattr(SharemindBackend, "reveal_col_to", spy)
    plan, parties = _join_plan("hybrid")
    data, *_ = _data(spark, seed=4)
    eng = Engine(spark, [p.name for p in parties])
    eng.run(plan, data)
    assert revealed and all(col == "k" for col, _ in revealed)
    assert all(party == "c" for _, party in revealed)


def _agg_plan(mode: str):
    pa, pb, pc = _parties()
    mk = lambda: [  # noqa: E731
        Column("k", trust=(pc,)) if mode == "hybrid" else Column("k"),
        Column("v"),
    ]
    t = concat([newTable(mk(), at=pa, name="ga"), newTable(mk(), at=pb, name="gb")])
    out = t.aggregate("s", D.SUM, group=["k"], over="v").collect(to=[pa])
    plan = compile_query(
        out,
        CompileOptions(parties=[pa, pb, pc], allow_cardinality_leaking_pushdown=False),
    )
    return plan, [pa, pb, pc]


def _agg_data(spark, seed, n=30):
    g = np.random.default_rng(seed)
    df = lambda: pd.DataFrame(  # noqa: E731
        {"k": g.integers(0, 5, n), "v": g.integers(0, 9, n)}
    ).astype(np.int64)
    return {"ga": spark.createDataFrame(df()), "gb": spark.createDataFrame(df())}


@pytest.mark.parametrize("mode", ["mpc", "hybrid"])
def test_agg_modes_agree_with_pandas(spark, mode):
    plan, parties = _agg_plan(mode)
    g = np.random.default_rng(9)
    ga = pd.DataFrame({"k": g.integers(0, 8, 50), "v": g.integers(0, 99, 50)}).astype(np.int64)
    gb = pd.DataFrame({"k": g.integers(0, 8, 50), "v": g.integers(0, 99, 50)}).astype(np.int64)
    eng = Engine(spark, [p.name for p in parties])
    got = (
        eng.run(plan, {"ga": spark.createDataFrame(ga), "gb": spark.createDataFrame(gb)})
        .toPandas().sort_values("k").reset_index(drop=True)
    )
    expected = (
        pd.concat([ga, gb]).groupby("k", as_index=False)["v"].sum()
        .rename(columns={"v": "s"})
    )
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def test_hybrid_agg_site_and_cost(spark):
    costs = {}
    for mode in ("mpc", "hybrid"):
        plan, parties = _agg_plan(mode)
        if mode == "hybrid":
            aggs = plan.dag.nodes_of_type(D.Aggregate)
            assert any(a.site[0] == "hybrid" for a in aggs)
        g = np.random.default_rng(1)
        mkdf = lambda s: pd.DataFrame(  # noqa: E731
            {"k": g.integers(0, 50, 500), "v": g.integers(0, 9, 500)}
        ).astype(np.int64)
        eng = Engine(spark, [p.name for p in parties])
        eng.run(
            plan,
            {"ga": spark.createDataFrame(mkdf(1)), "gb": spark.createDataFrame(mkdf(2))},
        )
        costs[mode] = eng.meter.rounds
    # clear sort at the STP removes the O(n log^2 n) oblivious sort rounds
    assert costs["hybrid"] < costs["mpc"] / 2


def test_hybrid_agg_stp_sees_only_group_column(spark, monkeypatch):
    revealed = []
    orig = SharemindBackend.reveal_col_to

    def spy(self, cols, party):
        revealed.extend((col, party) for _, col in cols)
        return orig(self, cols, party)

    monkeypatch.setattr(SharemindBackend, "reveal_col_to", spy)
    plan, parties = _agg_plan("hybrid")
    eng = Engine(spark, [p.name for p in parties])
    eng.run(plan, _agg_data(spark, seed=2))
    assert revealed and all(col == "k" and party == "c" for col, party in revealed)


def test_hybrid_agg_order_matches_spark_order_by(spark, monkeypatch):
    """With duplicate group keys, the STP's clear sort puts the revealed
    keys in the order of a Spark ``orderBy("k")``, and breaks ties at
    random: the order is a new one at each seed, never the stable one,
    which would keep each group's rows in place."""
    keys, orders = [], []
    reveal_col_to = SharemindBackend.reveal_col_to
    reorder_public = SharemindBackend.reorder_public

    def reveal_spy(self, cols, party):
        out = reveal_col_to(self, cols, party)
        keys.extend(out)
        return out

    def reorder_spy(self, rel, order):
        orders.append(order)
        return reorder_public(self, rel, order)

    monkeypatch.setattr(SharemindBackend, "reveal_col_to", reveal_spy)
    monkeypatch.setattr(SharemindBackend, "reorder_public", reorder_spy)
    plan, parties = _agg_plan("hybrid")
    g = np.random.default_rng(6)
    df = lambda: pd.DataFrame(  # noqa: E731
        {"k": g.integers(0, 4, 40), "v": g.integers(0, 9, 40)}
    ).astype(np.int64)
    data = {"ga": spark.createDataFrame(df()), "gb": spark.createDataFrame(df())}
    for seed in (1, 2):
        Engine(spark, [p.name for p in parties], seed=seed).run(plan, data)
    assert len(keys) == len(orders) == 2
    for k, order in zip(keys, orders):
        kdf = spark.createDataFrame(pd.DataFrame({"k": k}))
        expected = kdf.orderBy("k").toPandas()["k"].to_numpy()
        assert len(np.unique(k)) < len(k)
        np.testing.assert_array_equal(np.sort(order), np.arange(len(k)))
        np.testing.assert_array_equal(k[order], expected)
        assert not np.array_equal(order, np.argsort(k, kind="stable"))
    assert not np.array_equal(orders[0], orders[1])


def test_hybrid_agg_opened_order_hides_group_sizes(monkeypatch):
    """The order the STP opens to every party has, over seeds, the same
    number of descents whether the n rows form one group or n groups:
    about (n−1)/2, a uniformly random permutation's. A stable sort would
    open the identity for one group (no descent) and so show where each
    group ends."""
    n, orders = 16, []
    reorder_public = SharemindBackend.reorder_public

    def reorder_spy(self, rel, order):
        orders.append(order)
        return reorder_public(self, rel, order)

    monkeypatch.setattr(SharemindBackend, "reorder_public", reorder_spy)

    def mean_descents(keys):
        orders.clear()
        for seed in range(200):
            vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=seed)
            rel = share_dataframe(vm, pd.DataFrame({"k": keys, "v": np.ones(n, np.int64)}))
            SharemindBackend(vm, np.random.default_rng(seed)).aggregate(
                rel, ["k"], [("sum", "v", "s")], stp="c")
        return np.mean([np.count_nonzero(np.diff(o) < 0) for o in orders])

    assert abs(mean_descents(np.zeros(n, np.int64)) - (n - 1) / 2) < 0.5
    assert abs(mean_descents(np.arange(n, dtype=np.int64)) - (n - 1) / 2) < 0.5


def test_hybrid_ops_require_secret_sharing_backend(spark):
    """A hybrid join and a hybrid aggregation both raise on the garbled-
    circuit backend."""
    (join_plan, parties), (agg_plan, _) = _join_plan("hybrid"), _agg_plan("hybrid")
    cases = [(join_plan, _data(spark, seed=5)[0]), (agg_plan, _agg_data(spark, seed=5))]
    for plan, data in cases:
        eng = Engine(spark, [p.name for p in parties], backend="oblivc")
        with pytest.raises(NotImplementedError):
            eng.run(plan, data)


def test_hybrid_agg_stp_shares_only_group_keys_and_counts(monkeypatch):
    """After the group column reaches the STP, the only values secret-shared
    are the STP's G group keys and, with no filter, the G group sizes (the
    COUNT). No flag is shared: the sums come from a read of the group ends,
    and a filtered COUNT is the sum of the mask."""
    events = []
    share, reveal_col_to = SecretSharingVM.share, SharemindBackend.reveal_col_to

    def share_spy(self, values):
        events.append(("share", np.asarray(values).tolist()))
        return share(self, values)

    def reveal_spy(self, cols, party):
        events.extend(("reveal_col_to", None) for _ in cols)
        return reveal_col_to(self, cols, party)

    monkeypatch.setattr(SecretSharingVM, "share", share_spy)
    monkeypatch.setattr(SharemindBackend, "reveal_col_to", reveal_spy)
    pdf = pd.DataFrame({"k": [3, 1, 3, 2, 1, 3], "v": [4, 5, 6, 7, 8, 9],
                        "x": [5, 5, 0, 5, 5, 5]}).astype(np.int64)
    for filtered, sizes in ((False, [[2, 1, 3]]), (True, [])):
        vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=1)
        be = SharemindBackend(vm, np.random.default_rng(1))
        r = be.input_rel(pdf)
        if filtered:
            r = be.filter_eq(r, "x", 5)
        events.clear()
        be.aggregate(r, ["k"], [("sum", "v", "s"), ("count", None, "c")], stp="c")
        assert events.count(("reveal_col_to", None)) == 1
        after = events[events.index(("reveal_col_to", None)) + 1:]
        assert after == [("share", v) for v in [[1, 2, 3]] + sizes]


def test_hybrid_agg_empty_group_flags_hide_the_emptied_group():
    """A filtered hybrid aggregation opens to every party which of its G
    rows a filter emptied. The rows are shuffled first, so over seeds the
    opened 1-flag of the one emptied group falls at many positions, not at
    that group's key rank (2 of 5)."""
    keys = np.repeat(np.arange(5), 4)
    pdf = pd.DataFrame({"k": keys, "v": np.arange(20), "x": np.where(keys == 2, 0, 5)})
    positions = []
    for seed in range(30):
        vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=seed)
        opened = []

        def reveal(v, _reveal=vm.reveal):
            opened.append(_reveal(v))
            return opened[-1]

        vm.reveal = reveal
        be = SharemindBackend(vm, np.random.default_rng(seed))
        r = be.filter_eq(be.input_rel(pdf.astype(np.int64)), "x", 5)
        out = be.aggregate(r, ["k"], [("sum", "v", "s")], stp="c")
        ((pos,),) = [np.flatnonzero(f) for f in opened]
        positions.append(pos)
        assert out.n_rows == 4
    assert len(set(positions)) >= 3
    assert positions.count(2) < len(positions) / 2


# ---------------------------------------- one shuffle between join and agg
def _vm_events(monkeypatch) -> list[str]:
    """Record, in order, each oblivious read (``read``), each oblivious
    shuffle (``shuffle``) and each column opened to the STP
    (``open:<column>``)."""
    events = []
    gather, permute = SecretSharingVM.gather, SecretSharingVM.oblivious_permute
    reveal_col_to = SharemindBackend.reveal_col_to

    def gather_spy(self, *args, **kw):
        events.append("read")
        return gather(self, *args, **kw)

    def permute_spy(self, *args, **kw):
        events.append("shuffle")
        return permute(self, *args, **kw)

    def reveal_spy(self, cols, party):
        events.extend(f"open:{col}" for _, col in cols)
        return reveal_col_to(self, cols, party)

    monkeypatch.setattr(SecretSharingVM, "gather", gather_spy)
    monkeypatch.setattr(SecretSharingVM, "oblivious_permute", permute_spy)
    monkeypatch.setattr(SharemindBackend, "reveal_col_to", reveal_spy)
    return events


def _join_then_aggs(*, filtered: bool = False, two: bool = False):
    """A hybrid join of a's (k, g, h, f) and b's (k, v) on k, every column
    but v trusted to c, then a hybrid SUM(v) by g; with ``filtered`` an MPC
    filter on f comes first, with ``two`` a second hybrid SUM(v) by h reads
    the join too (its result goes to a second output)."""
    pa, pb, pc = _parties()
    trusted = lambda name: Column(name, trust=(pc,))  # noqa: E731
    left = newTable([trusted(c) for c in "kghf"], at=pa, name="ql")
    right = newTable([trusted("k"), Column("v")], at=pb, name="qr")
    joined = left.join(right, left="k", right="k")
    if filtered:
        joined = joined.filter("f", "==", 1)
    outs = [joined.aggregate("s", D.SUM, group=[g], over="v").collect(to=[pa])
            for g in ("gh" if two else "g")]
    plan = compile_query(outs, CompileOptions(parties=[pa, pb, pc]))
    assert [a.site for a in plan.dag.nodes_of_type(D.Aggregate)] == [("hybrid", "c")] * len(outs)
    return plan, [pa, pb, pc]


def _join_then_aggs_data(spark, seed=3):
    g = np.random.default_rng(seed)
    ql = pd.DataFrame({"k": np.arange(40), "g": g.integers(0, 5, 40),
                       "h": g.integers(0, 3, 40), "f": g.integers(0, 2, 40)})
    qr = pd.DataFrame({"k": g.integers(0, 60, 50), "v": g.integers(0, 99, 50)})
    return ql, qr, {"ql": spark.createDataFrame(ql), "qr": spark.createDataFrame(qr)}


def test_credit_shuffles_once_between_the_join_read_and_the_group_reveal(
        spark, monkeypatch):
    """The hybrid aggregation is the credit join's only reader, so it reads
    the rows in the order of the join's closing shuffle: exactly one
    oblivious shuffle runs between the join's index read and the reveal of
    ``zip`` to the STP, and the result still matches pandas."""
    events = _vm_events(monkeypatch)
    gen = credit_card.gen_inputs(n_holders=80, seed=2)
    spec = credit_card.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    got = Engine(spark, [p.name for p in spec.parties]).run(
        plan, gen_to_spark(spark, gen)).toPandas()
    after = events[events.index("read") + 1:]
    assert after[:after.index("open:zip")] == ["shuffle"]
    scores = pd.concat([gen["scores_b"], gen["scores_c"]])
    expected = gen["demographics"].merge(scores, on="ssn").groupby("zip")["score"].sum()
    np.testing.assert_array_equal(got.sort_values("zip")["total"], expected.to_numpy())


def test_two_aggregations_of_one_join_each_shuffle(spark, monkeypatch):
    """A join read by two hybrid aggregations with different group columns:
    each shuffles before its group column reaches the STP. Were both to
    read the join's one order, the STP could line up g and h row by row."""
    events = _vm_events(monkeypatch)
    plan, parties = _join_then_aggs(two=True)
    ql, qr, data = _join_then_aggs_data(spark)
    got = Engine(spark, [p.name for p in parties]).run(plan, data).toPandas()
    assert events[events.index("read") + 1:] == [
        "shuffle", "shuffle", "open:g", "read", "shuffle", "open:h", "read"]
    expected = ql.merge(qr, on="k").groupby("g")["v"].sum()
    np.testing.assert_array_equal(got.sort_values("g")["s"], expected.to_numpy())


def test_an_mpc_step_between_join_and_aggregation_keeps_the_shuffle(
        spark, monkeypatch):
    """A join, then an MPC filter, then a hybrid aggregation: the
    aggregation's parent is no join, so it shuffles its input itself."""
    events = _vm_events(monkeypatch)
    plan, parties = _join_then_aggs(filtered=True)
    ql, qr, data = _join_then_aggs_data(spark)
    got = Engine(spark, [p.name for p in parties]).run(plan, data).toPandas()
    after = events[events.index("read") + 1:]
    assert after[:after.index("open:g")] == ["shuffle", "shuffle"]
    joined = ql.merge(qr, on="k")
    expected = joined[joined["f"] == 1].groupby("g")["v"].sum()
    np.testing.assert_array_equal(got.sort_values("g")["s"], expected.to_numpy())
