"""Tests for the two engine-facing MPC backends: ``SharemindBackend``
over ``SharedRelation`` (fixed-point scales and the filter mask carried
through every operator) and ``GCBackend`` over ``GCRelation``."""
import numpy as np
import pandas as pd
import pytest

from repro.backends.sharemind_sim import FP_BITS, MASK, SharemindBackend
from repro.mpc.accounting import Meter
from repro.mpc.gc_backend import GCBackend
from repro.mpc.secret_sharing import _CMP_ROUNDS, SecretSharingVM


@pytest.fixture()
def be() -> SharemindBackend:
    vm = SecretSharingVM(3, Meter(), seed=21)
    return SharemindBackend(vm, np.random.default_rng(21))


def _pdf(**cols):
    return pd.DataFrame({k: np.asarray(v, np.int64) for k, v in cols.items()})


# ---------------------------------------------------------- sharemind-sim
def test_input_reveal_roundtrip(be):
    pdf = _pdf(a=[1, -2, 3], b=[7, 8, 9])
    out = be.reveal(be.input_rel(pdf), "p0")
    pd.testing.assert_frame_equal(out, pdf)


def test_concat_and_project(be):
    r1 = be.input_rel(_pdf(a=[1], b=[2]))
    r2 = be.input_rel(_pdf(a=[3], b=[4]))
    both = be.concat([r1, r2])
    out = be.reveal(be.project(both, ["b"]), "p0")
    np.testing.assert_array_equal(out["b"], [2, 4])


def test_filter_masks_and_reveal_drops_rows(be):
    r = be.input_rel(_pdf(a=[1, 2, 1], b=[10, 20, 30]))
    f = be.filter_eq(r, "a", 1)
    assert MASK in f.columns
    out = be.reveal(f, "p0")
    np.testing.assert_array_equal(out["b"], [10, 30])


def test_chained_filters_intersect(be):
    r = be.input_rel(_pdf(a=[1, 1, 2], b=[5, 6, 5]))
    f = be.filter_eq(be.filter_eq(r, "a", 1), "b", 5)
    out = be.reveal(f, "p0")
    assert len(out) == 1 and out["b"].iloc[0] == 5


def test_arith_multiply_columns(be):
    r = be.input_rel(_pdf(x=[2, 3], y=[5, 7]))
    out = be.reveal(be.arith(r, "z", "x", "*", "y"), "p0")
    np.testing.assert_array_equal(out["z"], [10, 21])


def test_arith_multiply_scalar(be):
    r = be.input_rel(_pdf(x=[2, -3]))
    out = be.reveal(be.arith(r, "z", "x", "*", 10), "p0")
    np.testing.assert_array_equal(out["z"], [20, -30])


def test_arith_divide_fixed_point_descaled(be):
    r = be.input_rel(_pdf(num=[1, 3], den=[2, 4]))
    d = be.arith(r, "q", "num", "/", "den")
    assert d.scale_of("q") == FP_BITS
    out = be.reveal(d, "p0")
    np.testing.assert_allclose(out["q"], [0.5, 0.75], atol=1e-5)


def test_arith_divide_then_square_scale_chain(be):
    r = be.input_rel(_pdf(num=[1], den=[4]))
    d = be.arith(r, "q", "num", "/", "den")
    sq = be.arith(d, "q2", "q", "*", "q")
    assert sq.scale_of("q2") == 2 * FP_BITS
    out = be.reveal(sq, "p0")
    assert out["q2"].iloc[0] == pytest.approx(0.0625, abs=1e-5)


def test_aggregate_grouped_and_scalar(be):
    r = be.input_rel(_pdf(k=[1, 2, 1], v=[10, 20, 30]))
    g = be.reveal(be.aggregate(r, ["k"], [("sum", "v", "s")]), "p0").sort_values("k")
    np.testing.assert_array_equal(g["s"], [40, 20])
    s = be.reveal(be.aggregate(r, [], [("sum", "v", "s")]), "p0")
    assert s["s"].iloc[0] == 60


def test_aggregate_count_with_mask(be):
    r = be.input_rel(_pdf(k=[1, 1, 2], f=[1, 0, 1]))
    r = be.filter_eq(r, "f", 1)
    g = be.reveal(be.aggregate(r, ["k"], [("count", None, "c")]), "p0").sort_values("k")
    # masked rows contribute 0 to the count; zero-count groups are
    # indistinguishable from absent under the oblivious protocol
    got = dict(zip(g["k"], g["c"]))
    assert got.get(1, 0) == 1 and got.get(2, 0) == 1


def test_join_and_cross(be):
    l = be.input_rel(_pdf(k=[1, 2], a=[10, 20]))
    r = be.input_rel(_pdf(k=[2, 3], b=[7, 8]))
    out = be.reveal(be.join(l, r, "k", "k"), "p0")
    assert out.to_dict("records") == [{"k": 2, "a": 20, "b": 7}]
    scalar = be.input_rel(_pdf(t=[100]))
    crossed = be.reveal(be.join(l, scalar, "", ""), "p0")
    np.testing.assert_array_equal(crossed["t"], [100, 100])


def test_cross_join_requires_scalar_right(be):
    l = be.input_rel(_pdf(k=[1, 2]))
    r = be.input_rel(_pdf(t=[1, 2]))
    with pytest.raises(NotImplementedError):
        be.join(l, r, "", "")


def _rows(df):
    """``df`` with sorted columns and rows, to compare as a multiset."""
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


@pytest.mark.parametrize("rkeys", [[2, 3, 3, 5], [7, 8, 9, 9]], ids=["dups", "no_match"])
def test_hybrid_join_matches_pandas_merge(be, rkeys):
    """The §5.3 hybrid join, party p0 being the STP, returns the rows of a
    pandas merge: with duplicate keys on both sides, and with no match."""
    lp = _pdf(k=[3, 1, 3, 2, 5], a=[10, 20, 30, 40, 50])
    rp = _pdf(k=rkeys, b=[1, 2, 3, 4])
    got = be.reveal(be.join(be.input_rel(lp), be.input_rel(rp), "k", "k", stp="p0"), "p0")
    want = lp.merge(rp, on="k")
    assert len(want) == (6 if rkeys[0] == 2 else 0)
    pd.testing.assert_frame_equal(_rows(got), _rows(want), check_dtype=False)


@pytest.mark.parametrize("stp", [None, "p0"], ids=["cartesian", "hybrid"])
def test_join_with_a_key_only_side(be, stp):
    """A side with no column but its key has nothing to read by oblivious
    indexing; the join still returns the other side's matching rows."""
    l = be.input_rel(_pdf(k=[1, 2, 2, 3], a=[10, 20, 30, 40]))
    r = be.input_rel(_pdf(k=[2, 3, 5]))
    got = be.reveal(be.join(l, r, "k", "k", stp=stp), "p0")
    assert sorted(got.itertuples(index=False)) == [(2, 20), (2, 30), (3, 40)]


def test_hybrid_join_stp_shares_nothing_after_the_key_reveal(be, monkeypatch):
    """After both key columns reach the STP, it secret-shares nothing: its
    index pairs reach the parties only as the read permutations it deals
    to the oblivious indexing, which it is named in."""
    events = []
    share, reveal_col_to = SecretSharingVM.share, SharemindBackend.reveal_col_to
    select_rows = SharemindBackend.select_rows

    def share_spy(self, values):
        events.append(("share", len(values)))
        return share(self, values)

    def reveal_spy(self, cols, party):
        events.append(("reveal_col_to", [c for _, c in cols]))
        return reveal_col_to(self, cols, party)

    def select_spy(self, batches, stp=None):
        events.append(("select_rows", stp))
        return select_rows(self, batches, stp)

    l = be.input_rel(_pdf(k=[1, 2, 2], a=[1, 2, 3]))
    r = be.input_rel(_pdf(j=[2, 4, 2], b=[5, 6, 7]))
    monkeypatch.setattr(SecretSharingVM, "share", share_spy)
    monkeypatch.setattr(SharemindBackend, "reveal_col_to", reveal_spy)
    monkeypatch.setattr(SharemindBackend, "select_rows", select_spy)
    out = be.join(l, r, "k", "j", stp="p0")
    assert out.n_rows == 4
    assert events == [("reveal_col_to", ["k", "j"]), ("select_rows", "p0")]


def test_hybrid_join_runs_both_sides_in_the_same_rounds(be):
    """Neither side of a hybrid join reads the other's shuffle, key reveal
    or oblivious indexing, so the two run side by side: the join costs
    the rounds of one side's three steps and the last shuffle, not those
    of both sides. The indexing is the STP's deal of the read permutation,
    one round, then its two applications, p rounds each."""
    l = be.input_rel(_pdf(k=[1, 2, 2, 3], a=[1, 2, 3, 4]))
    r = be.input_rel(_pdf(j=[2, 4, 2, 1], b=[5, 6, 7, 8]))
    meter = be.vm.meter

    def rounds(step):
        r0 = meter.rounds
        out = step()
        return meter.rounds - r0, out

    joined_rounds, out = rounds(lambda: be.join(l, r, "k", "j", stp="p0"))
    select = rounds(
        lambda: be.select_rows([(l, np.arange(out.n_rows) % l.n_rows)], "p0")
    )[0]
    deal, apply_twice = 1, 2 * be.vm.n_parties
    assert select == deal + apply_twice
    one_side = select + sum(rounds(step)[0] for step in (
        lambda: be.shuffle([l]),
        lambda: be.reveal_col_to([(l, "k")], "p0"),
    ))
    last_shuffle = rounds(lambda: be.shuffle([out]))[0]
    assert out.n_rows == 5
    assert joined_rounds == one_side + last_shuffle


@pytest.mark.parametrize("presorted", [True, False])
def test_distinct_count_paths(be, presorted):
    r = be.input_rel(_pdf(c=[1, 1, 2, 3, 3, 3]))
    out = be.reveal(be.distinct_count(r, "c", "dc", runs=[6] if presorted else None), "p0")
    assert out["dc"].iloc[0] == 3


def test_sort_and_limit(be):
    r = be.input_rel(_pdf(k=[3, 1, 2], v=[30, 10, 20]))
    s = be.sort_by(r, "k", ascending=True)
    out = be.reveal(be.limit(s, 2), "p0")
    np.testing.assert_array_equal(out["k"], [1, 2])
    np.testing.assert_array_equal(out["v"], [10, 20])


def test_shuffle_reorder_select(be):
    r = be.input_rel(_pdf(a=[1, 2, 3, 4]))
    (sh,) = be.shuffle([r])
    assert sorted(be.reveal(sh, "p0")["a"]) == [1, 2, 3, 4]
    ro = be.reorder_public(r, np.array([3, 2, 1, 0]))
    np.testing.assert_array_equal(be.reveal(ro, "p0")["a"], [4, 3, 2, 1])
    (sel,) = be.select_rows([(r, np.array([0, 0, 2]))])
    np.testing.assert_array_equal(be.reveal(sel, "p0")["a"], [1, 1, 3])


@pytest.mark.parametrize("n_cols", [1, 3])
def test_input_shares_every_column_in_one_round(be, n_cols):
    """inputToMPC sends the shares of every column at once: one round,
    n·c words to each other party."""
    m, p = be.vm.meter, be.vm.n_parties
    be.input_rel(_pdf(**{f"c{i}": np.arange(10) for i in range(n_cols)}))
    assert (m.rounds, m.bytes_sent) == (1, 10 * n_cols * (p - 1) * 8)


def test_reveal_col_to_charges_less_than_full_reveal(be):
    r = be.input_rel(_pdf(a=np.arange(100), b=np.arange(100)))
    b0 = be.vm.meter.bytes_sent
    be.reveal_col_to([(r, "a")], "p0")
    single = be.vm.meter.bytes_sent - b0
    b1 = be.vm.meter.bytes_sent
    be.reveal(r, "p0")
    full = be.vm.meter.bytes_sent - b1
    assert single < full


@pytest.mark.parametrize("n_cols", [1, 3])
def test_reveal_opens_only_the_kept_rows(be, monkeypatch, n_cols):
    """A filtered relation's reveal opens the mask to every party, then
    the kept rows of every column to the recipient only, in one more
    round: n mask words to each party and c·k value words to one, never a
    value of a row the filter dropped."""
    vals = {f"c{i}": np.arange(10) + 100 * i for i in range(n_cols)}
    r = be.filter_eq(be.input_rel(_pdf(f=[1, 0, 0, 1, 1, 0, 0, 0, 1, 0], **vals)), "f", 1)
    r = be.project(r, list(vals))
    vm, p = be.vm, be.vm.n_parties
    opened, reveal, reveal_to = [], vm.reveal, vm.reveal_to
    monkeypatch.setattr(vm, "reveal", lambda v: opened.append(len(v)) or reveal(v))
    monkeypatch.setattr(vm, "reveal_to", lambda vs, party: opened.append(
        (party, [len(v) for v in vs])) or reveal_to(vs, party))
    r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
    out = be.reveal(r, "p0")
    assert (vm.meter.rounds - r0, vm.meter.bytes_sent - b0) == (
        2, (10 * p + n_cols * 4) * (p - 1) * 8)
    assert opened == [10, ("p0", [4] * n_cols)]
    want = _pdf(**{c: v[[0, 3, 4, 8]] for c, v in vals.items()})
    pd.testing.assert_frame_equal(out, want)


@pytest.mark.parametrize("group", [[], ["k"]], ids=["ungrouped", "grouped"])
def test_filtered_count_sums_the_mask(be, group):
    """A filtered COUNT sums the filter mask itself, with no product: it
    costs the rounds of the unfiltered COUNT, plus, grouped, the step
    that drops the groups the filter emptied (an equality and a reveal)."""
    r = be.input_rel(_pdf(k=[1, 2, 1, 3], a=[5, 5, 6, 6]))

    def count(rel):
        r0 = be.vm.meter.rounds
        out = be.aggregate(rel, group, [("count", None, "c")])
        rounds = be.vm.meter.rounds - r0
        return rounds, be.reveal(out, "p0").sort_values(list(out.column_names))

    plain, _ = count(r)
    filtered, got = count(be.filter_eq(r, "a", 5))
    assert filtered == plain + (_CMP_ROUNDS + 1 if group else 0)
    want = _pdf(k=[1, 2], c=[1, 1]) if group else _pdf(c=[2])
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want, check_dtype=False)


_MULTI = _pdf(k=[1, 2, 1, 3, 2], f=[1, 0, 1, 1, 1], v=[5, 6, 7, 8, 9], w=[1, -2, 3, -4, 5])
_OUTPUTS = [("sum", "v", "s"), ("count", None, "c"), ("sum", "w", "t")]


@pytest.mark.parametrize("backend", ["sharemind", "oblivc"])
@pytest.mark.parametrize("filtered,group,want", [
    (False, [], _pdf(s=[35], c=[5], t=[3])),
    (True, [], _pdf(s=[29], c=[4], t=[5])),
    (False, ["k"], _pdf(k=[1, 2, 3], s=[12, 15, 8], c=[2, 2, 1], t=[4, 3, -4])),
    (True, ["k"], _pdf(k=[1, 2, 3], s=[12, 9, 8], c=[2, 1, 1], t=[4, 5, -4])),
], ids=["ungrouped", "filtered-ungrouped", "grouped", "filtered-grouped"])
def test_one_aggregation_computes_every_output(be, backend, filtered, group, want):
    """Two SUMs and a COUNT in one call: each output is its aggregation of
    the rows a filter kept."""
    b = be if backend == "sharemind" else GCBackend(Meter())
    r = b.input_rel(_MULTI)
    if filtered:
        r = b.filter_eq(r, "f", 1)
    got = b.reveal(b.aggregate(r, group, _OUTPUTS), "p0")
    got = got.sort_values(group).reset_index(drop=True) if group else got
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("backend", ["sharemind", "oblivc"])
@pytest.mark.parametrize("runs,filtered", [(None, False), ([0, 0], False), (None, True)],
                         ids=["no-runs", "two-empty-runs", "filtered"])
def test_a_grouped_aggregation_of_no_rows_has_no_groups(be, backend, runs, filtered):
    """SUM with COUNT over a relation with no rows (as it is, as two empty
    sorted runs, or filtered) returns no groups."""
    b = be if backend == "sharemind" else GCBackend(Meter())
    r = b.input_rel(_pdf(k=[], f=[], v=[]))
    if filtered:
        r = b.filter_eq(r, "f", 1)
    out = b.aggregate(r, ["k"], [("sum", "v", "s"), ("count", None, "c")], runs=runs)
    got = b.reveal(out, "p0")
    assert list(got.columns) == ["k", "s", "c"] and len(got) == 0


@pytest.mark.parametrize("stp", [None, "p0"], ids=["mpc", "hybrid"])
def test_outputs_share_the_rounds_of_one_aggregation(be, stp):
    """More outputs widen the sort, scan and shuffle of one grouped
    aggregation: they add bytes and no round, and cost less than one
    aggregation per output."""
    r = be.input_rel(_MULTI)

    def cost(outputs):
        r0, b0 = be.vm.meter.rounds, be.vm.meter.bytes_sent
        be.aggregate(r, ["k"], outputs, stp=stp)
        return be.vm.meter.rounds - r0, be.vm.meter.bytes_sent - b0

    single, merged = cost(_OUTPUTS[:1]), cost(_OUTPUTS)
    assert merged[0] == single[0]
    assert single[1] < merged[1] < sum(cost([o])[1] for o in _OUTPUTS)


# A fixed-point column (q = num / den) must come out of every operator
# that rebuilds a relation with its scale: without it, reveal returns the
# raw ring values, q · 2^FP_BITS.
_ROWS = _pdf(k=[3, 1, 2, 1], num=[1, 3, 5, 7], den=[2, 4, 8, 16])
_OTHER = _pdf(k=[1, 2], w=[10, 20])


def _hybrid_sum(be, r):
    """A hybrid SUM of q by k, party p0 being the STP."""
    return be.aggregate(r, ["k"], [("sum", "q", "s")], stp="p0")


@pytest.mark.parametrize("agg_op,over,filtered,want", [
    ("sum", "v", False, ["k", "v"]),
    ("count", None, False, ["k"]),
    ("sum", "v", True, ["k", "v", MASK]),
], ids=["sum", "count", "filtered_sum"])
def test_hybrid_agg_shuffles_only_the_columns_it_reads(
    be, monkeypatch, agg_op, over, filtered, want
):
    """The STP's shuffle moves the group column, a SUM's value and the
    filter mask, and no other column of the input. A filtered aggregation
    shuffles its group rows once more, before it drops the empty ones."""
    shuffled, shuffle = [], SharemindBackend.shuffle

    def spy(self, rels):
        shuffled.extend(rel.column_names for rel in rels)
        return shuffle(self, rels)

    monkeypatch.setattr(SharemindBackend, "shuffle", spy)
    r = be.input_rel(_pdf(x=[5, 6, 7, 8], k=[1, 2, 1, 2], v=[1, 2, 3, 4]))
    if filtered:
        r = be.filter_eq(r, "x", 5)
    be.aggregate(r, ["k"], [(agg_op, over, "s")], stp="p0")
    assert shuffled == [want] + ([["k", "s", MASK]] if filtered else [])


_SCALED_OPS = {
    "sort_by": (lambda be, r: be.sort_by(r, "k", ascending=True), lambda p: p),
    "shuffle": (lambda be, r: be.shuffle([r])[0], lambda p: p),
    "select_rows": (
        lambda be, r: be.select_rows([(r, np.array([2, 0, 0]))])[0],
        lambda p: p.iloc[[2, 0, 0]],
    ),
    "take": (lambda be, r: be.take(r, np.array([3, 1])), lambda p: p.iloc[[3, 1]]),
    "limit": (lambda be, r: be.limit(r, 2), lambda p: p.head(2)),
    "join_left": (
        lambda be, r: be.join(r, be.input_rel(_OTHER), "k", "k"),
        lambda p: p.merge(_OTHER, on="k"),
    ),
    "join_right": (
        lambda be, r: be.join(be.input_rel(_OTHER), r, "k", "k"),
        lambda p: _OTHER.merge(p, on="k"),
    ),
    "hybrid_join": (
        lambda be, r: be.join(r, be.input_rel(_OTHER), "k", "k", stp="p0"),
        lambda p: p.merge(_OTHER, on="k"),
    ),
    "grouped_sum": (
        lambda be, r: be.aggregate(r, ["k"], [("sum", "q", "s")]),
        lambda p: p.groupby("k", as_index=False)["q"].sum().rename(columns={"q": "s"}),
    ),
    "hybrid_sum": (
        _hybrid_sum,
        lambda p: p.groupby("k", as_index=False)["q"].sum().rename(columns={"q": "s"}),
    ),
}


@pytest.mark.parametrize("op", sorted(_SCALED_OPS))
def test_fixed_point_scale_survives(be, op):
    run, expect = _SCALED_OPS[op]
    r = be.arith(be.input_rel(_ROWS), "q", "num", "/", "den")
    got = be.reveal(run(be, r), "p0")
    want = expect(_ROWS.assign(q=_ROWS["num"] / _ROWS["den"]))
    pd.testing.assert_frame_equal(_rows(got), _rows(want), check_dtype=False, atol=1e-5)


def test_input_rejects_non_integer(be):
    with pytest.raises(TypeError):
        be.input_rel(pd.DataFrame({"x": [1.5]}))


# ------------------------------------------------------------ gc backend
@pytest.fixture()
def gc() -> GCBackend:
    return GCBackend(Meter())


def test_gc_adapter_roundtrip(gc):
    pdf = _pdf(a=[1, 2], b=[3, 4])
    out = gc.reveal(gc.input_rel(pdf), "p0")
    pd.testing.assert_frame_equal(out, pdf)


def test_gc_adapter_filter_and_reveal(gc):
    r = gc.filter_eq(gc.input_rel(_pdf(a=[1, 2, 1])), "a", 1)
    out = gc.reveal(r, "p0")
    np.testing.assert_array_equal(out["a"], [1, 1])


def test_gc_adapter_aggregate_count(gc):
    r = gc.input_rel(_pdf(k=[1, 1, 2]))
    out = gc.aggregate(r, ["k"], [("count", None, "c")]).pdf.sort_values("k")
    np.testing.assert_array_equal(out["c"], [2, 1])


def test_gc_adapter_scalar_sum(gc):
    r = gc.input_rel(_pdf(v=[1, 2, 3]))
    out = gc.aggregate(r, [], [("sum", "v", "s")])
    assert out.pdf["s"].iloc[0] == 6


def test_gc_adapter_sort_and_limit(gc):
    r = gc.input_rel(_pdf(k=[1, 3, 2]))
    out = gc.limit(gc.sort_by(r, "k", ascending=False), 2)
    np.testing.assert_array_equal(out.pdf["k"], [3, 2])


def test_gc_adapter_arith_unsupported(gc):
    r = gc.input_rel(_pdf(a=[1]))
    with pytest.raises(NotImplementedError):
        gc.arith(r, "b", "a", "*", 2)


def test_gc_adapter_distinct_count(gc):
    r = gc.input_rel(_pdf(c=[5, 5, 6]))
    out = gc.distinct_count(r, "c", "dc", runs=[3])
    assert out.pdf["dc"].iloc[0] == 2


@pytest.mark.parametrize(
    "agg_op,over,want", [("sum", "v", [10, 30]), ("count", None, [1, 1])]
)
def test_gc_grouped_aggregate_honours_mask(gc, agg_op, over, want):
    r = gc.input_rel(_pdf(g=[1, 1, 2, 2], x=[5, 6, 5, 7], v=[10, 20, 30, 40]))
    r = gc.filter_eq(r, "x", 5)
    out = gc.reveal(gc.aggregate(r, ["g"], [(agg_op, over, "s")]), "p0").sort_values("g")
    assert out["s"].tolist() == want


def test_gc_hybrid_operators_raise(gc):
    """A join or an aggregation that names an STP needs the secret-sharing
    backend."""
    r = gc.input_rel(_pdf(k=[1, 2], v=[3, 4]))
    with pytest.raises(NotImplementedError):
        gc.join(r, r, "k", "k", stp="p0")
    with pytest.raises(NotImplementedError):
        gc.aggregate(r, ["k"], [("sum", "v", "s")], stp="p0")
