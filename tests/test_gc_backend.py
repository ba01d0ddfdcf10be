"""Tests for the Obliv-C/ObliVM relational backend (semantics + cost model)."""
import numpy as np
import pandas as pd
import pytest

from repro.mpc import protocols as P
from repro.mpc.accounting import Meter, SimulatedOOM
from repro.mpc.circuits import gate_counts
from repro.mpc.gc_backend import GCBackend, GCRelation
from repro.mpc.secret_sharing import SecretSharingVM
from repro.mpc.shared_rel import share_dataframe


def _backend(cap_bytes=None, rate=10e6) -> GCBackend:
    m = Meter(gc_gates_per_second=rate)
    if cap_bytes is not None:
        m.memory_cap_bytes = cap_bytes
    return GCBackend(m)


def _rel(backend, **cols) -> GCRelation:
    return backend.input_rel(
        pd.DataFrame({k: np.asarray(v, np.int64) for k, v in cols.items()})
    )


def test_input_and_reveal_roundtrip():
    be = _backend()
    rel = _rel(be, a=[1, 2, 3], b=[4, 5, 6])
    out = be.reveal(rel, "p0")
    np.testing.assert_array_equal(out["a"], [1, 2, 3])
    assert be.meter.bytes_sent > 0  # OT for inputs


def test_project_semantics_and_charges_memory():
    be = _backend()
    rel = _rel(be, a=[1, 2], b=[3, 4], c=[5, 6])
    out = be.project(rel, ["c", "a"])
    assert list(out.pdf.columns) == ["c", "a"]
    assert be.meter.peak_mem_bytes > 0


def test_project_simulated_oom():
    be = _backend(cap_bytes=1 << 16)
    rel = GCRelation(pd.DataFrame({"a": np.arange(100000, dtype=np.int64)}))
    with pytest.raises(SimulatedOOM):
        be.project(rel, ["a"])


def test_join_matches_pandas():
    be = _backend()
    g = np.random.default_rng(3)
    l = pd.DataFrame({"k": g.integers(0, 8, 25), "a": np.arange(25)}).astype(np.int64)
    r = pd.DataFrame({"k": g.integers(0, 8, 15), "b": np.arange(15)}).astype(np.int64)
    out = be.join(be.input_rel(l), be.input_rel(r), "k", "k").pdf
    expected = l.merge(r, on="k")
    pd.testing.assert_frame_equal(
        out.sort_values(["k", "a", "b"]).reset_index(drop=True),
        expected.sort_values(["k", "a", "b"]).reset_index(drop=True),
        check_dtype=False,
    )


def test_join_gate_cost_quadratic():
    costs = []
    for n in (50, 100):
        be = _backend()
        l = _rel(be, k=np.arange(n))
        r = _rel(be, k=np.arange(n))
        g0 = be.meter.gc_and_gates
        be.join(l, r, "k", "k")
        costs.append(be.meter.gc_and_gates - g0)
    assert costs[1] > 3.5 * costs[0]


def test_join_simulated_oom_threshold():
    """With the default 8 GiB cap the join must OOM in the tens-of-
    thousands regime (paper: Obliv-C joins OOM at 30k records)."""
    be = _backend()
    n_oom = 40_000
    l = GCRelation(pd.DataFrame({"k": np.zeros(n_oom, np.int64)}))
    r = GCRelation(pd.DataFrame({"k": np.ones(n_oom, np.int64)}))
    with pytest.raises(SimulatedOOM):
        be.join(l, r, "k", "k")
    # but a 5k-record join fits
    be2 = _backend()
    l2 = _rel(be2, k=np.arange(5000))
    r2 = _rel(be2, k=np.arange(5000))
    be2.join(l2, r2, "k", "k")


def test_filter_and_join_mask_propagation():
    be = _backend()
    l = _rel(be, k=[1, 1, 2], a=[10, 11, 12])
    l = be.filter_eq(l, "a", 10)
    r = _rel(be, k=[1, 2], b=[7, 8])
    out = be.join(l, r, "k", "k")
    # mask column survives the join and marks only the a=10 row
    kept = out.pdf[out.pdf["__mask"] == 1]
    assert len(kept) == 1 and kept.iloc[0]["a"] == 10
    # both sides filtered: a row is kept only where both masks are 1
    r = be.filter_eq(_rel(be, k=[1, 1, 2], b=[7, 8, 7]), "b", 7)
    out = be.reveal(be.join(l, r, "k", "k"), "p0")
    assert out.to_dict("list") == {"k": [1], "a": [10], "b": [7]}


def test_agg_sum_by_key():
    be = _backend()
    rel = _rel(be, k=[1, 2, 1, 2, 3], v=[10, 20, 30, 40, 50])
    out = be.aggregate(rel, ["k"], [("sum", "v", "v")]).pdf.sort_values("k")
    np.testing.assert_array_equal(out["v"], [40, 60, 50])


def test_agg_respects_filter_mask():
    be = _backend()
    rel = _rel(be, k=[1, 1, 2], v=[5, 7, 9], f=[0, 1, 1])
    rel = be.filter_eq(rel, "f", 1)
    out = be.aggregate(rel, ["k"], [("sum", "v", "v")]).pdf.sort_values("k")
    np.testing.assert_array_equal(out["v"], [7, 9])


def test_agg_presorted_cheaper():
    gates = []
    for presorted in (False, True):
        be = _backend()
        rel = _rel(be, k=np.sort(np.random.default_rng(1).integers(0, 50, 500)),
                   v=np.ones(500, np.int64))
        g0 = be.meter.gc_and_gates
        be.aggregate(rel, ["k"], [("sum", "v", "v")], runs=[500] if presorted else None)
        gates.append(be.meter.gc_and_gates - g0)
    assert gates[1] < gates[0] / 2


@pytest.mark.parametrize("presorted", [False, True])
def test_agg_outputs_widen_one_network(presorted):
    """k outputs are one sort and one scan over (key, k values) records:
    each value widens the compare-and-swap by BIT_WIDTH and adds an add
    and two muxes per row to the scan."""
    be = _backend()
    n = 40
    rel = _rel(be, k=np.arange(n) % 7, v=np.arange(n), w=np.ones(n, np.int64))
    outputs = [("sum", "v", "s"), ("count", None, "c"), ("sum", "w", "t")]
    g0 = be.meter.gc_and_gates
    out = be.aggregate(rel, ["k"], outputs, runs=[n] if presorted else None)
    out = out.pdf.sort_values("k")
    (eq, _), (add, _), (mux, _) = (gate_counts(g, 32) for g in ("eq", "add", "mux"))
    swap, _ = gate_counts("cmp_swap", 4 * 32)
    want = n * (eq + 3 * (add + 2 * mux))
    want += 0 if presorted else P.sort_comparators(n) * swap
    assert be.meter.gc_and_gates - g0 == want
    np.testing.assert_array_equal(out["c"], [6, 6, 6, 6, 6, 5, 5])


@pytest.mark.parametrize("presorted", [False, True])
def test_distinct_count(presorted):
    be = _backend()
    rel = _rel(be, c=[3, 1, 3, 2, 2, 3])
    out = be.distinct_count(rel, "c", "dc", runs=[6] if presorted else None)
    assert out.pdf["dc"].tolist() == [3]


def test_distinct_count_with_mask():
    be = _backend()
    rel = _rel(be, c=[1, 2, 3], f=[1, 0, 1])
    rel = be.filter_eq(rel, "f", 1)
    assert be.distinct_count(rel, "c", "dc").pdf["dc"].tolist() == [2]


def test_top_k_by():
    be = _backend()
    rel = _rel(be, k=[1, 2, 3], cnt=[5, 50, 20])
    out = be.limit(be.sort_by(rel, "cnt", ascending=False), 2).pdf
    np.testing.assert_array_equal(out["k"], [2, 3])


@pytest.mark.parametrize("n", [2, 3, 100, 1000, 4096])
def test_sort_by_charges_the_secret_sharing_sort_network(n, monkeypatch):
    """GC ``sort_by`` charges one 64-bit compare-and-swap circuit per
    comparison the secret-sharing backend's oblivious sort makes on the
    same n: both backends sort with the same pruned Batcher network."""
    keys = np.random.default_rng(n).integers(0, 1000, n)
    vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=1)
    compared = []
    lt = vm.lt
    monkeypatch.setattr(vm, "lt", lambda a, b: compared.append(len(a)) or lt(a, b))
    P.oblivious_sort(vm, share_dataframe(vm, pd.DataFrame({"k": keys})), "k")
    be = _backend()
    be.sort_by(_rel(be, k=keys, v=keys), "k", ascending=True)
    swap_and, _ = gate_counts("cmp_swap", 64)
    assert be.meter.gc_and_gates / swap_and == sum(compared) > 0


def test_slow_backend_rate_increases_time():
    fast, slow = _backend(rate=10e6), _backend(rate=1e5)
    for be in (fast, slow):
        rel = _rel(be, k=np.arange(2000), v=np.arange(2000))
        be.aggregate(rel, ["k"], [("sum", "v", "v")])
    assert slow.meter.gate_seconds() > 50 * fast.meter.gate_seconds()
