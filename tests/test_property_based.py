"""Property-based tests (hypothesis) for the MPC substrates: algebraic
laws of the secret-sharing VM, sorting-network correctness on arbitrary
inputs, the hybrid aggregation against pandas, and garbled-vs-cleartext
circuit agreement."""
import numpy as np
import pandas as pd
from hypothesis import assume, example, given, settings, strategies as st

from repro.backends.sharemind_sim import MASK, SharemindBackend
from repro.mpc import circuits as C
from repro.mpc import protocols as P
from repro.mpc.accounting import Meter
from repro.mpc.garbled import Garbler, evaluate_garbled
from repro.mpc.secret_sharing import SecretSharingVM
from repro.mpc.shared_rel import share_dataframe

from .reference import bits_to_int, int_to_bits, reveal_relation

_vals = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=40
)


def _vm(seed=0):
    return SecretSharingVM(3, Meter(), seed=seed)


@settings(max_examples=30, deadline=None)
@given(_vals, st.integers(0, 2**31))
def test_share_reveal_identity(vals, seed):
    vm = _vm(seed % 1000)
    x = np.array(vals, dtype=np.int64)
    np.testing.assert_array_equal(vm.reveal(vm.share(x)), x)


@settings(max_examples=30, deadline=None)
@given(_vals)
def test_addition_homomorphism(vals):
    vm = _vm(1)
    x = np.array(vals, dtype=np.int64)
    a, b = vm.share(x), vm.share(x[::-1].copy())
    np.testing.assert_array_equal(vm.reveal(vm.add(a, b)), x + x[::-1])


@settings(max_examples=30, deadline=None)
@given(_vals)
def test_beaver_mul_matches_numpy(vals):
    vm = _vm(2)
    x = np.array(vals, dtype=np.int64) % 100_000
    a, b = vm.share(x), vm.share((x + 3) % 100_000)
    np.testing.assert_array_equal(
        vm.reveal(vm.mul(a, b)), x * ((x + 3) % 100_000)
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=70), st.booleans())
def test_oblivious_sort_sorts_anything(keys, descending):
    vm = _vm(3)
    rel = share_dataframe(
        vm, pd.DataFrame({"k": np.array(keys, np.int64),
                          "v": np.arange(len(keys), dtype=np.int64)})
    )
    got = reveal_relation(vm, P.oblivious_sort(vm, rel, "k", descending=descending))
    assert got["k"].tolist() == sorted(keys, reverse=descending)
    assert set(zip(got["k"], got["v"])) == set(
        zip(keys, range(len(keys)))
    )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(-50, 50)),
             min_size=1, max_size=30)
)
def test_grouped_sum_matches_pandas(rows):
    vm = _vm(4)
    pdf = pd.DataFrame(rows, columns=["k", "v"]).astype(np.int64)
    rel = share_dataframe(vm, pdf)
    got = reveal_relation(
        vm, P.aggregate_sum_by_key(vm, rel, "k", "v", np.random.default_rng(4))
    ).sort_values("k").reset_index(drop=True)
    expected = pdf.groupby("k", as_index=False)["v"].sum()
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=25))
def test_distinct_count_matches_set(keys):
    vm = _vm(5)
    arr = np.sort(np.array(keys, np.int64))
    cnt = vm.reveal(P.distinct_count_sorted(vm, vm.share(arr)))[0]
    assert cnt == len(set(keys))


@st.composite
def _keys_and_mask(draw):
    keys = draw(st.lists(st.integers(-3, 8), max_size=25))
    mask = draw(st.none() | st.lists(st.integers(0, 1), min_size=len(keys),
                                     max_size=len(keys)))
    return keys, mask


@settings(max_examples=40, deadline=None)
@given(_keys_and_mask())
@example(([], None))                       # no rows
@example(([], []))
@example(([3, 1, 3, 2], [0, 0, 0, 0]))     # every row masked out
@example(([5] * 7, [0, 1, 0, 0, 1, 0, 0]))  # one group
@example(([4, 0, 7, 2, 9], [1, 0, 1, 1, 0]))  # all-singleton groups
@example(([2, 2, 1, 0, 2], None))          # no mask
def test_public_distinct_count_matches_np_unique(keys_mask):
    """The public-key distinct count over unsorted keys, masked or not."""
    keys, mask = (np.array(x, np.int64) if x is not None else None for x in keys_mask)
    vm = _vm(6)
    m = vm.share(mask) if mask is not None else None
    cnt = vm.reveal(P.distinct_count_public(vm, vm.public(keys), m))[0]
    kept = keys if mask is None else keys[mask == 1]
    assert cnt == len(np.unique(kept))


_BIG = 2**62 - 3


@st.composite
def _hybrid_agg_rows(draw):
    """Group keys, values (some near ±2⁶², so the prefix sums wrap), a
    fixed-point column and perhaps a filter mask, all of one length."""
    n = draw(st.integers(0, 30))
    rows = lambda elems: st.lists(elems, min_size=n, max_size=n)  # noqa: E731
    keys = draw(rows(st.integers(0, 6)))
    vals = draw(rows(st.integers(-1000, 1000) | st.sampled_from([_BIG, -_BIG])))
    fixed = draw(rows(st.integers(-(2**20), 2**20)))
    mask = draw(st.none() | rows(st.integers(0, 1)))
    return keys, vals, fixed, mask


@settings(max_examples=40, deadline=None)
@given(_hybrid_agg_rows())
@example(([], [], [], None))                                  # no rows
@example(([4] * 5, [1, -2, 3, _BIG, -_BIG], [1] * 5, None))   # one group
@example(([5, 0, 3, 1], [7, -1, 2, 9], [3, 2, 1, 0], None))   # all singletons
@example(([0, 0, 1, 1, 2], [_BIG, _BIG, _BIG, _BIG, -_BIG], [0] * 5, None))  # wraps
@example(([2, 1, 2, 0, 1], [5, 6, 7, 8, 9], [1] * 5, [1, 0, 1, 1, 0]))  # a group emptied
def test_hybrid_aggregation_matches_pandas(rows):
    """The §5.3 hybrid aggregation's SUM, COUNT and fixed-point SUM of the
    rows a filter kept equal pandas' groupby; a group the filter emptied is
    dropped."""
    keys, vals, fixed, mask = rows
    pdf = pd.DataFrame({"k": keys, "v": vals, "f": fixed}, dtype=np.int64)
    kept = pdf if mask is None else pdf[np.array(mask, bool)]
    # a group's SUM must fit in int64, as in SQL; the prefixes need not
    assume(all(abs(sum(map(int, g))) < 2**63 for _, g in kept.groupby("k")["v"]))
    vm = _vm(7)
    be = SharemindBackend(vm, np.random.default_rng(7))
    rel = be.input_rel(pdf)
    cols = dict(rel.columns)
    if mask is not None:
        cols[MASK] = vm.share(np.array(mask, np.int64))
    # "f" holds fixed-point values with 4 fraction bits
    rel = rel.with_columns(cols)
    rel.scales["f"] = 4
    out = be.aggregate(rel, ["k"], [("sum", "v", "s"), ("count", None, "c"),
                                    ("sum", "f", "t")], stp="c")
    got = be.reveal(out, "a").sort_values("k").reset_index(drop=True)
    expected = kept.groupby("k", as_index=False).agg(
        s=("v", "sum"), c=("v", "size"), t=("f", "sum"))
    expected["t"] = expected["t"] / 16
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_garbled_eq_all_byte_pairs(x, y):
    b = C.Builder()
    circ = C.BUILDERS["eq"](b, 8)
    g = Garbler(circ)
    bits = int_to_bits(x, 8) + int_to_bits(y, 8)
    got, _ = evaluate_garbled(g.garbled, g.encode_inputs(bits))
    assert got == [int(x == y)]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_garbled_add_16bit(x, y):
    b = C.Builder()
    circ = C.BUILDERS["add"](b, 16)
    g = Garbler(circ)
    bits = int_to_bits(x, 16) + int_to_bits(y, 16)
    got, _ = evaluate_garbled(g.garbled, g.encode_inputs(bits))
    assert bits_to_int(got) == (x + y) % (1 << 16)
