"""Unit tests for MPC relational protocols vs numpy/pandas ground truth."""
import tracemalloc

import numpy as np
import pandas as pd
import pytest

from repro.backends.sharemind_sim import SharemindBackend
from repro.mpc.accounting import Meter, SimulatedOOM
from repro.mpc.circuits import gate_counts
from repro.mpc.gc_backend import BIT_WIDTH, GCBackend
from repro.mpc import protocols as P
from repro.mpc.secret_sharing import _CMP_ROUNDS, _CMP_WORDS_PER_ELEM, SecretSharingVM
from repro.mpc.shared_rel import SharedRelation, share_dataframe

from .reference import reveal_relation


@pytest.fixture()
def vm() -> SecretSharingVM:
    return SecretSharingVM(n_parties=3, meter=Meter(), seed=11)


def _rng():
    return np.random.default_rng(5)


def _backend(vm) -> SharemindBackend:
    """The engine's adapter over the protocols, for operators the engine
    composes from them (ungrouped sum, top-k, the join)."""
    return SharemindBackend(vm, _rng())


def _share(vm, **cols) -> SharedRelation:
    return share_dataframe(vm, pd.DataFrame({k: np.asarray(v, np.int64) for k, v in cols.items()}))


# ----------------------------------------------------------------- shuffle
def test_oblivious_shuffle_is_permutation(vm):
    rel = _share(vm, k=[5, 1, 9, 3], v=[50, 10, 90, 30])
    [(out, perm)] = P.oblivious_shuffle(vm, [rel], _rng())
    got = reveal_relation(vm, out)
    assert sorted(got["k"]) == [1, 3, 5, 9]
    # rows stay aligned across columns
    assert set(zip(got["k"], got["v"])) == {(5, 50), (1, 10), (9, 90), (3, 30)}


@pytest.mark.parametrize("n_cols", [1, 2, 5])
def test_oblivious_shuffle_rounds_do_not_grow_with_columns(vm, n_cols):
    """All columns share one hidden permutation: p rounds for any column
    count, and the bytes of one column per column."""
    rel = _share(vm, **{f"c{i}": np.arange(10) for i in range(n_cols)})
    meter = vm.meter
    r0, b0 = meter.rounds, meter.bytes_sent
    P.oblivious_shuffle(vm, [rel], _rng())
    assert meter.rounds - r0 == vm.n_parties
    assert meter.bytes_sent - b0 == n_cols * 10 * 8 * vm.n_parties * (vm.n_parties - 1)


@pytest.mark.parametrize("n_cols", [1, 2, 5])
def test_select_rows_rounds_do_not_grow_with_columns(vm, n_cols):
    """Oblivious indexing sorts the index records once for all columns
    and reads the columns side by side: the rounds of one column for any
    column count, and per column only the linear part's bytes."""
    rel = _share(vm, **{f"c{i}": np.arange(10) for i in range(n_cols)})
    idx = np.array([9, 0, 0, 4, 7, 3])
    meter = vm.meter
    r0, b0 = meter.rounds, meter.bytes_sent
    _backend(vm).select_rows([(rel, idx)])
    records, pairs = 10 + 6, vm.n_parties * (vm.n_parties - 1)
    assert meter.rounds - r0 == 4 + 2 * vm.n_parties  # ⌈log₂ 16⌉ + 2p
    assert meter.bytes_sent - b0 == records * (4 + 2 * n_cols) * 8 * pairs


# -------------------------------------------------------------------- sort
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 17, 64, 100])
@pytest.mark.parametrize("descending", [False, True])
def test_oblivious_sort(vm, n, descending):
    g = np.random.default_rng(n)
    keys = g.integers(-50, 50, n)
    vals = np.arange(n)
    rel = _share(vm, k=keys, v=vals)
    got = reveal_relation(vm, P.oblivious_sort(vm, rel, "k", descending=descending))
    order = np.argsort(-keys if descending else keys, kind="stable")
    np.testing.assert_array_equal(np.sort(got["k"].to_numpy()),
                                  np.sort(keys[order]))
    # sortedness
    diffs = np.diff(got["k"].to_numpy())
    assert (diffs >= 0).all() if not descending else (diffs <= 0).all()
    # rows stay aligned: (k, v) pairs preserved
    assert set(zip(got["k"], got["v"])) == set(zip(keys, vals))


def test_batcher_pairs_sort_network_cleartext():
    """The generated network must sort any input (checked directly)."""
    for n in [2, 4, 8, 16, 32]:
        g = np.random.default_rng(n)
        for _ in range(5):
            x = g.integers(0, 100, n)
            for i_idx, j_idx in P._batcher_pairs(n):
                lo = np.minimum(x[i_idx], x[j_idx])
                hi = np.maximum(x[i_idx], x[j_idx])
                x[i_idx], x[j_idx] = lo, hi
            assert (np.diff(x) >= 0).all()


def _batcher_pairs_reference(n: int):
    """Loop form of Batcher's odd-even mergesort layers (the reference the
    vectorized ``P._batcher_pairs`` must reproduce exactly)."""
    p = 1
    while p < n:
        k = p
        while k >= 1:
            i_list, j_list = [], []
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        i_list.append(i + j)
                        j_list.append(i + j + k)
            if i_list:
                yield np.array(i_list), np.array(j_list)
            k //= 2
        p *= 2


@pytest.mark.parametrize("n", [2**e for e in range(1, 13)])
def test_batcher_pairs_match_reference(n):
    got = list(P._batcher_pairs(n))
    want = list(_batcher_pairs_reference(n))
    assert len(got) == len(want)
    for (gi, gj), (wi, wj) in zip(got, want):
        np.testing.assert_array_equal(gi, wi)
        np.testing.assert_array_equal(gj, wj)


def _compare_exchange(keys, rows, layers, descending):
    """Run compare-exchange ``layers`` over ``keys`` in the clear, as
    ``P.oblivious_sort`` does (swap only when strictly out of order), and
    return the row ids in their final order."""
    keys, rows = keys.copy(), rows.copy()
    for i, j in layers:
        swap = keys[i] < keys[j] if descending else keys[j] < keys[i]
        si, sj = i[swap], j[swap]
        keys[si], keys[sj] = keys[sj], keys[si]
        rows[si], rows[sj] = rows[sj], rows[si]
    return rows


def _padded_network_rows(keys, descending):
    """Row order of the padded network: ``keys`` padded to a power of two
    with a sentinel no real key passes, the full network run, the padding
    dropped. ``P.oblivious_sort`` ran this before the padding was pruned."""
    n = len(keys)
    n2 = 1 << (n - 1).bit_length()
    sentinel = -(2**62) if descending else 2**62
    padded = np.concatenate([keys, np.full(n2 - n, sentinel, np.int64)])
    rows = _compare_exchange(
        padded, np.arange(n2), _batcher_pairs_reference(n2), descending
    )
    assert (rows[n:] >= n).all()  # the sentinels never moved up
    return rows[:n]


@pytest.mark.parametrize("descending", [False, True])
def test_pruned_network_sorts_like_the_padded_one(descending):
    """For any n, the pruned network sorts (checked against ``np.sort``)
    and leaves the rows, ties included, in the padded network's order."""
    g = np.random.default_rng(7 + descending)
    for _ in range(300):
        n = int(g.integers(2, 301))
        keys = g.integers(-int(g.integers(1, 2 * n)), int(g.integers(1, 2 * n)), n)
        rows = _compare_exchange(keys, np.arange(n), P._batcher_pairs(n), descending)
        want = np.sort(keys)[::-1] if descending else np.sort(keys)
        np.testing.assert_array_equal(keys[rows], want)
        np.testing.assert_array_equal(rows, _padded_network_rows(keys, descending))


@pytest.mark.parametrize("n", [3, 5, 100, 257, 300])
@pytest.mark.parametrize("descending", [False, True])
def test_oblivious_sort_order_equals_padded_network(vm, n, descending):
    g = np.random.default_rng(n)
    keys = g.integers(-20, 20, n)  # many ties
    got = reveal_relation(
        vm, P.oblivious_sort(vm, _share(vm, k=keys, v=np.arange(n)), "k",
                             descending=descending)
    )
    want = _padded_network_rows(keys, descending)
    np.testing.assert_array_equal(got["v"], want)
    np.testing.assert_array_equal(got["k"], keys[want])


def test_sort_comparators_counts_the_pruned_network():
    for n in (0, 1, 2, 3, 100, 1000, 1024, 11_744):
        pairs = [len(i) for i, _ in P._batcher_pairs(n)]
        assert P.sort_comparators(n) == sum(pairs)
        assert all(pairs)  # no empty layer
    # fewer than over n padded to a power of two, unless n is one already
    assert P.sort_comparators(11_744) == 540_146 < P.sort_comparators(16_384)
    assert P.sort_comparators(1024) == sum(
        len(i) for i, _ in _batcher_pairs_reference(1024)
    )


@pytest.mark.parametrize("n_cols", [1, 2, 5])
def test_oblivious_sort_swaps_all_columns_in_one_round(n_cols):
    """A layer costs one batched comparison and one Beaver round, however
    many columns it swaps; the bytes still grow with the columns."""
    vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=1)
    g = np.random.default_rng(n_cols)
    rel = _share(vm, **{f"c{c}": g.integers(0, 9, 100) for c in range(n_cols)})
    r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
    P.oblivious_sort(vm, rel, "c0")
    layers = list(P._batcher_pairs(100))
    assert vm.meter.rounds - r0 == len(layers) * (8 + 1)
    comparators = P.sort_comparators(100)
    # a comparison moves 5 words per party pair, a Beaver mul opens 2
    assert vm.meter.bytes_sent - b0 == comparators * (5 + 2 * n_cols) * 8 * 3 * 2


# ------------------------------------------------------------------- merge
def _random_runs(g) -> list[int]:
    """One to six run lengths, empty and one-row runs among them."""
    return [int(g.choice([0, 1, int(g.integers(2, 40))]))
            for _ in range(int(g.integers(1, 7)))]


def _run_keys(g, runs, descending=False) -> np.ndarray:
    """Keys with ties and negative values, each run sorted on its own."""
    parts = [np.sort(g.integers(-6, 6, r)) for r in runs]
    return np.concatenate([p[::-1] if descending else p for p in parts])


@pytest.mark.parametrize("descending", [False, True])
def test_merge_of_sorted_runs_sorts(descending):
    """The merge of runs of random lengths sorts like ``np.sort`` and keeps
    every row whole."""
    g = np.random.default_rng(21 + descending)
    for _ in range(60):
        runs = _random_runs(g)
        keys = _run_keys(g, runs, descending)
        vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=2)
        rel = _share(vm, k=keys, v=np.arange(len(keys)))
        got = reveal_relation(
            vm, P.oblivious_sort(vm, rel, "k", descending=descending, runs=runs)
        )
        want = np.sort(keys)[::-1] if descending else np.sort(keys)
        np.testing.assert_array_equal(got["k"], want)
        # each row once, with its own key
        np.testing.assert_array_equal(np.sort(got["v"]), np.arange(len(keys)))
        np.testing.assert_array_equal(keys[got["v"]], got["k"])


def test_merge_charges_the_comparators_of_two_rows(monkeypatch):
    """The lt elements a merge charges are ``sort_comparators(n, runs)``,
    each layer one comparison batch and one multiplication round, and the
    charges are the same for any keys in runs of the same lengths."""
    lt, counted = SecretSharingVM.lt, []

    def counting_lt(self, a, b):
        counted.append(len(a))
        return lt(self, a, b)

    monkeypatch.setattr(SecretSharingVM, "lt", counting_lt)
    g = np.random.default_rng(8)
    for _ in range(30):
        runs = _random_runs(g)
        n = sum(runs)
        charges = []
        for seed in (1, 2):
            vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=seed)
            keys = _run_keys(np.random.default_rng(seed), runs)
            rel = _share(vm, k=keys, v=keys * 3)
            counted.clear()
            r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
            P.oblivious_sort(vm, rel, "k", runs=runs)
            charges.append((list(counted), vm.meter.rounds - r0, vm.meter.bytes_sent - b0))
        assert charges[0] == charges[1]
        assert sum(charges[0][0]) == P.sort_comparators(n, runs)
        assert charges[0][1] == len(charges[0][0]) * (8 + 1)


@pytest.mark.parametrize("runs", [[9], [0, 9, 0], [1], []])
def test_one_run_is_not_sorted(vm, runs):
    """Rows in one run are in order already: no layer runs, nothing is
    charged and the relation comes back as it is."""
    rel = _share(vm, k=np.arange(sum(runs)))
    cost = (vm.meter.rounds, vm.meter.bytes_sent)
    assert P.oblivious_sort(vm, rel, "k", runs=runs) is rel
    assert (vm.meter.rounds, vm.meter.bytes_sent) == cost
    assert P.sort_comparators(sum(runs), runs) == 0


def test_merge_network_of_three_runs_is_pinned():
    """Three runs of about 3.9k rows (the hhi-mpc parts at seed 1) merge in
    27 layers and 141,121 comparators; the whole sort takes 105 layers and
    540,203."""
    runs, n = [3928, 3916, 3901], 11_745
    assert len(list(P._sort_layers(n, runs)[0])) == 27
    assert len(list(P._batcher_pairs(n))) == 105
    assert P.sort_comparators(n, runs) == 141_121
    assert P.sort_comparators(n) == 540_203


@pytest.mark.parametrize("op", ["aggregate", "distinct_count", "sort_by"])
def test_gc_charges_the_merge_the_vm_runs(monkeypatch, op):
    """Every GC sort over runs is charged one compare-and-swap circuit per
    comparator the secret-sharing merge compares."""
    runs = [7, 0, 12, 1, 5]
    keys = _run_keys(np.random.default_rng(4), runs)
    lt, counted = SecretSharingVM.lt, []
    monkeypatch.setattr(SecretSharingVM, "lt",
                        lambda self, a, b: counted.append(len(a)) or lt(self, a, b))
    vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=1)
    P.oblivious_sort(vm, _share(vm, k=keys, v=keys), "k", runs=runs)

    gc = GCBackend(Meter())
    rel = gc.input_rel(pd.DataFrame({"k": keys, "v": keys}))
    n, width = len(keys), 2 * BIT_WIDTH
    (eq, _), (add, _), (mux, _) = (gate_counts(c, BIT_WIDTH) for c in ("eq", "add", "mux"))
    g0 = gc.meter.gc_and_gates
    if op == "aggregate":
        gc.aggregate(rel, ["k"], [("sum", "v", "s")], runs=runs)
        scan = n * (eq + add + 2 * mux)
    elif op == "distinct_count":
        gc.distinct_count(rel, "k", "d", runs=runs)
        scan, width = n * (eq + add), BIT_WIDTH
    else:
        gc.sort_by(rel, "k", True, runs=runs)
        scan = 0
    swap, _ = gate_counts("cmp_swap", width)
    assert gc.meter.gc_and_gates - g0 == scan + sum(counted) * swap


def test_protocol_costs_are_pinned():
    """Simulated rounds and bytes of sort, grouped sum and masked distinct
    count on fixed inputs. Any change here is a cost-model change."""
    g = np.random.default_rng(0)
    vm = SecretSharingVM()
    rel = share_dataframe(
        vm,
        pd.DataFrame({"k": g.integers(0, 37, 1000), "v": g.integers(-100, 100, 1000)}),
    )

    def cost(fn):
        r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
        fn()
        return vm.meter.rounds - r0, vm.meter.bytes_sent - b0

    assert cost(lambda: P.oblivious_sort(vm, rel, "k")) == (495, 10_161_072)
    assert cost(
        lambda: P.aggregate_sum_by_key(vm, rel, "k", "v", np.random.default_rng(1))
    ) == (525, 10_878_720)
    key = vm.share(np.sort(g.integers(0, 37, 1000)))
    mask = vm.share(g.integers(0, 2, 1000))
    assert cost(lambda: P.distinct_count_sorted(vm, key, mask)) == (35, 861_648)


# ------------------------------------------------------------------- scans
def test_segmented_scan_sum(vm):
    vals = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    same = np.array([0, 1, 0, 1, 1], dtype=np.int64)  # segments [1,2],[3,4,5]
    (out,) = P.segmented_scan_sum(vm, [vm.share(vals)], vm.share(same))
    np.testing.assert_array_equal(vm.reveal(out), [1, 3, 3, 7, 12])


def _scan_reference(vals, same, op):
    out = np.array(vals, dtype=np.int64)
    for i in range(1, len(out)):
        if same[i]:
            out[i] = op(out[i - 1], out[i])
    return out


def test_segmented_scans_match_a_cleartext_reference():
    """Every n from 1 to 300, random segment flags (and one segment over
    all rows): two columns summed in one scan."""
    vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=2)
    g = np.random.default_rng(7)
    for n in range(1, 301):
        same = g.integers(0, 2, n) if n % 5 else np.ones(n, np.int64)
        same[0] = 0
        vals, bits = g.integers(-1000, 1000, n), g.integers(0, 2, n)
        sums = P.segmented_scan_sum(vm, [vm.share(vals), vm.share(bits)], vm.share(same))
        np.testing.assert_array_equal(
            vm.reveal(sums[0]), _scan_reference(vals, same, np.add), err_msg=str(n))
        np.testing.assert_array_equal(
            vm.reveal(sums[1]), _scan_reference(bits, same, np.add), err_msg=str(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 100, 1000, 1024, 1025])
def test_segmented_scan_rounds_per_step(n):
    """A Brent–Kung scan has an up-sweep step for every power of two d
    with 2d <= n and a down-sweep step for every d with 3d <= n. A step
    is one Beaver round, for any number of columns."""
    steps = sum(2 * d <= n for d in (2 ** e for e in range(12)))
    steps += sum(3 * d <= n for d in (2 ** e for e in range(12)))
    vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=3)
    ones, same = vm.share(np.ones(n, np.int64)), vm.share(np.ones(n, np.int64))

    def rounds(fn):
        r0 = vm.meter.rounds
        fn()
        return vm.meter.rounds - r0

    assert rounds(lambda: P.segmented_scan_sum(vm, [ones], same)) == steps
    assert rounds(lambda: P.segmented_scan_sum(vm, [ones, ones, ones], same)) == steps


@pytest.mark.parametrize("op", ["sum", "distinct"])
@pytest.mark.parametrize("n", [100, 1000])
def test_segmented_scan_bytes_grow_linearly(op, n):
    """O(n) Beaver products: four times the rows cost at most 4.2 times
    the bytes (a Hillis–Steele scan, O(n log n), costs 4.9–5.4 times),
    for the scan and for the masked distinct count over a secret key
    built on it."""
    def cost(rows):
        vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=4)
        ones = vm.share(np.ones(rows, np.int64))
        if op == "sum":
            P.segmented_scan_sum(vm, [ones], ones)
        else:
            P.distinct_count_sorted(vm, ones, ones)
        return vm.meter.bytes_sent

    assert cost(4 * n) <= 4.2 * cost(n)


# ------------------------------------------------------------- aggregation
@pytest.mark.parametrize("n,n_keys", [(1, 1), (10, 3), (64, 5), (100, 100)])
def test_aggregate_sum_by_key(vm, n, n_keys):
    g = np.random.default_rng(n)
    keys = g.integers(0, n_keys, n)
    vals = g.integers(-100, 100, n)
    rel = _share(vm, k=keys, v=vals)
    got = reveal_relation(vm, P.aggregate_sum_by_key(vm, rel, "k", "v", _rng()))
    expected = pd.DataFrame({"k": keys, "v": vals}).groupby("k", as_index=False).sum()
    got = got.sort_values("k").reset_index(drop=True)
    expected = expected.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def test_aggregate_sum_by_key_presorted_skips_sort(vm):
    keys = np.array([1, 1, 2, 2, 2, 9], dtype=np.int64)
    vals = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
    rel = _share(vm, k=keys, v=vals)
    r0 = vm.meter.rounds
    got = reveal_relation(
        vm, P.aggregate_sum_by_key(vm, rel, "k", "v", _rng(), runs=[6])
    )
    rounds_sorted = vm.meter.rounds - r0
    got = got.sort_values("k").reset_index(drop=True)
    np.testing.assert_array_equal(got["k"], [1, 2, 9])
    np.testing.assert_array_equal(got["v"], [3, 12, 6])
    # and the unsorted path must cost strictly more rounds
    vm2 = SecretSharingVM(n_parties=3, meter=Meter(), seed=1)
    rel2 = _share(vm2, k=keys, v=vals)
    P.aggregate_sum_by_key(vm2, rel2, "k", "v", _rng())
    assert vm2.meter.rounds > rounds_sorted


def test_aggregate_sum_total_is_local(vm):
    rel = _share(vm, v=[1, 2, 3, 4])
    r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
    out = _backend(vm).aggregate(rel, [], [("sum", "v", "s")])
    assert vm.meter.rounds == r0 and vm.meter.bytes_sent == b0
    assert vm.reveal(out.columns["s"])[0] == 10


# -------------------------------------------------------------------- join
def test_join_cartesian_matches_pandas(vm):
    g = np.random.default_rng(2)
    left = pd.DataFrame(
        {"k": g.integers(0, 10, 30), "a": g.integers(0, 100, 30)}
    ).astype(np.int64)
    right = pd.DataFrame(
        {"k": g.integers(0, 10, 20), "b": g.integers(0, 100, 20)}
    ).astype(np.int64)
    lrel, rrel = share_dataframe(vm, left), share_dataframe(vm, right)
    got = reveal_relation(vm, _backend(vm).join(lrel, rrel, "k", "k"))
    expected = left.merge(right, on="k")
    got = got.sort_values(["k", "a", "b"]).reset_index(drop=True)
    expected = expected.sort_values(["k", "a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def test_join_cartesian_empty_result(vm):
    lrel = _share(vm, k=[1, 2], a=[1, 1])
    rrel = _share(vm, k=[3, 4], b=[2, 2])
    got = reveal_relation(vm, _backend(vm).join(lrel, rrel, "k", "k"))
    assert len(got) == 0


def test_join_cartesian_quadratic_cost(vm):
    cost = []
    for n in (20, 40):
        vm_i = SecretSharingVM(n_parties=3, meter=Meter(), seed=1)
        rel_l = share_dataframe(
            vm_i, pd.DataFrame({"k": np.arange(n), "a": np.arange(n)})
        )
        rel_r = share_dataframe(
            vm_i, pd.DataFrame({"k": np.arange(n), "b": np.arange(n)})
        )
        b0 = vm_i.meter.bytes_sent
        _backend(vm_i).join(rel_l, rel_r, "k", "k")
        cost.append(vm_i.meter.bytes_sent - b0)
    # doubling n should ~quadruple the dominant comparison bytes
    assert cost[1] > 3 * cost[0]


def test_join_cartesian_simulated_oom():
    meter = Meter(memory_cap_bytes=1 << 20)  # 1 MiB cap
    vm = SecretSharingVM(n_parties=3, meter=meter, seed=1)
    n = 400  # 400*400*8*3 bytes > 1 MiB
    rel_l = share_dataframe(vm, pd.DataFrame({"k": np.arange(n)}))
    rel_r = share_dataframe(vm, pd.DataFrame({"k": np.arange(n)}))
    with pytest.raises(SimulatedOOM):
        _backend(vm).join(rel_l, rel_r, "k", "k")


def _dense_pairs(lk: np.ndarray, rk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reference matcher: the positions of the n×m equality matrix's
    ones, in (left, right) order."""
    return np.nonzero(lk[:, None] == rk[None, :])


def test_join_index_pairs_equal_the_dense_reference():
    """Over random key arrays (empty sides, duplicate keys on both sides,
    negative keys) the matcher returns the reference's pairs: in the same
    (left, right) order with ``by_key=False``, and with ``by_key=True`` in
    the reference's pairs sorted by (key, left, right)."""
    g = np.random.default_rng(17)
    cases = [(np.zeros(0, np.int64), np.zeros(0, np.int64)),
             (np.zeros(0, np.int64), np.array([1, -1])),
             (np.array([3, 3, -2]), np.zeros(0, np.int64))]
    for _ in range(500):
        n, m = g.integers(0, 40, 2)
        lo = -int(g.integers(0, 20))
        hi = lo + 1 + int(g.integers(0, 30))
        cases.append((g.integers(lo, hi, n), g.integers(lo, hi, m)))
    for lk, rk in cases:
        want_l, want_r = _dense_pairs(lk, rk)
        got_l, got_r = P.join_index_pairs(lk, rk, by_key=False)
        np.testing.assert_array_equal(got_l, want_l)
        np.testing.assert_array_equal(got_r, want_r)
        order = np.lexsort((want_r, want_l, lk[want_l]))
        got_l, got_r = P.join_index_pairs(lk, rk)
        np.testing.assert_array_equal(got_l, want_l[order])
        np.testing.assert_array_equal(got_r, want_r[order])


def test_cartesian_join_pairs_hold_no_pair_matrix():
    """Finding the pairs of a 5,000 × 5,000 Cartesian join allocates far
    less host memory than the n·m bytes of a dense equality matrix (its
    simulated memory charge is separate)."""
    n = 5000
    vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=1)
    keys = np.arange(n, dtype=np.int64)
    lk, rk = vm.share(keys), vm.share(keys[::-1].copy())
    tracemalloc.start()
    try:
        li, ri = P.cartesian_join_pairs(vm, lk, rk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(li, keys)
    np.testing.assert_array_equal(ri, n - 1 - keys)
    assert peak < n * n / 20


# ----------------------------------------------------------- select/filter
def test_select_by_public_index(vm):
    rel = _share(vm, a=[10, 20, 30], b=[1, 2, 3])
    [sel] = P.select_by_public_index(vm, [(rel, np.array([2, 0]))])
    got = reveal_relation(vm, sel)
    np.testing.assert_array_equal(got["a"], [30, 10])
    np.testing.assert_array_equal(got["b"], [3, 1])


def test_filter_eq_flags(vm):
    col = vm.share(np.array([5, 7, 5, 9], dtype=np.int64))
    flags = P.filter_eq_flags(vm, col, 5)
    np.testing.assert_array_equal(vm.reveal(flags), [1, 0, 1, 0])


# ----------------------------------------------------------- distinct count
@pytest.mark.parametrize(
    "keys,mask,expected",
    [
        ([1, 1, 2, 3, 3, 3], None, 3),
        ([1, 1, 2, 3, 3, 3], [1, 1, 0, 1, 0, 1], 2),
        ([4], None, 1),
        ([4], [0], 0),
        ([1, 1, 1], [0, 1, 1], 1),
    ],
)
def test_distinct_count_sorted(vm, keys, mask, expected):
    key = vm.share(np.array(keys, dtype=np.int64))
    m = vm.share(np.array(mask, dtype=np.int64)) if mask is not None else None
    assert vm.reveal(P.distinct_count_sorted(vm, key, m))[0] == expected


def test_public_distinct_count_cost_depends_on_the_groups_alone():
    """Over a public key, a masked distinct count is one equality batch
    over the G group sums: ``_CMP_ROUNDS`` rounds and G comparisons'
    bytes, whatever the row count, the group sizes or the mask. With no
    mask the count is the public G, free."""
    def cost(keys, mask):
        vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=8)
        key, m = vm.public(np.array(keys, np.int64)), vm.share(np.array(mask, np.int64))
        r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
        cnt = P.distinct_count_public(vm, key, m)
        spent = (vm.meter.rounds - r0, vm.meter.bytes_sent - b0)
        return (vm.reveal(cnt)[0], *spent)

    g = 4
    want_bytes = g * _CMP_WORDS_PER_ELEM * 8 * 3 * 2
    assert cost([1, 2, 3, 4], [1, 1, 1, 1]) == (4, _CMP_ROUNDS, want_bytes)
    assert cost([9, 9, 9, 9, 9, 9, 1, 5, 7], [0] * 9) == (0, _CMP_ROUNDS, want_bytes)
    assert cost([3, 1, 3, 2, 1, 7, 7, 2], [1, 0, 0, 0, 1, 1, 0, 1]) == (
        4, _CMP_ROUNDS, want_bytes)
    vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=8)
    got = P.distinct_count_public(vm, vm.public(np.array([3, 1, 3], np.int64)))
    assert got.public and vm.public_values(got)[0] == 2
    assert (vm.meter.rounds, vm.meter.bytes_sent) == (0, 0)


# ------------------------------------------------------------------- top-k
def _top_k(vm, limit: int, **cols) -> pd.DataFrame:
    """ORDER BY cnt DESC LIMIT ``limit`` as the engine runs it: a descending
    oblivious sort, then a public-position limit."""
    be = _backend(vm)
    top = be.limit(be.sort_by(_share(vm, **cols), "cnt", ascending=False), limit)
    return be.reveal(top, "p0")


def test_top_k_by(vm):
    got = _top_k(vm, 2, k=[1, 2, 3, 4], cnt=[10, 40, 20, 30])
    np.testing.assert_array_equal(got["cnt"], [40, 30])
    np.testing.assert_array_equal(got["k"], [2, 4])


def test_top_k_larger_than_relation(vm):
    got = _top_k(vm, 10, k=[1, 2], cnt=[5, 9])
    np.testing.assert_array_equal(got["cnt"], [9, 5])
    np.testing.assert_array_equal(got["k"], [2, 1])
