"""Unit tests for the additive-secret-sharing VM (Sharemind substrate)."""
import numpy as np
import pytest

from repro.mpc.accounting import Meter
from repro.mpc.secret_sharing import SecretSharingVM, SharedVector

from .laud_reference import deal, parallel_read, read_permutation
from .reference import add_public


@pytest.fixture()
def vm() -> SecretSharingVM:
    return SecretSharingVM(n_parties=3, meter=Meter(), seed=42)


@pytest.mark.parametrize("n_parties", [2, 3, 4])
@pytest.mark.parametrize(
    "values",
    [
        np.array([0, 1, -1, 2**40, -(2**40)], dtype=np.int64),
        np.arange(-50, 50, dtype=np.int64),
        np.array([7], dtype=np.int64),
    ],
)
def test_share_reconstruct_roundtrip(n_parties, values):
    vm = SecretSharingVM(n_parties=n_parties, meter=Meter(), seed=1)
    sv = vm.share(values)
    assert sv.n_parties == n_parties
    np.testing.assert_array_equal(vm.reveal(sv), values)


def test_single_party_share_is_uniformish(vm):
    """No proper subset of shares should reveal the secret: each party's
    share of a constant vector must look uniform over the ring."""
    secret = np.zeros(4000, dtype=np.int64)
    sv = vm.share(secret)
    for party_share in sv.shares:
        # top byte of a uniform 64-bit value is uniform over 0..255
        top = (party_share >> np.uint64(56)).astype(np.int64)
        counts = np.bincount(top, minlength=256)
        assert counts.max() < 4 * counts.mean()
        # share of constant-zero vector must not itself be constant
        assert len(np.unique(party_share)) > 3900


@pytest.mark.parametrize("a,b", [(3, 4), (-3, 4), (2**30, 2**30), (0, 9)])
def test_add_sub(vm, a, b):
    av = vm.share(np.array([a], dtype=np.int64))
    bv = vm.share(np.array([b], dtype=np.int64))
    assert vm.reveal(vm.add(av, bv))[0] == a + b
    assert vm.reveal(vm.sub(av, bv))[0] == a - b


def test_linear_ops_cost_no_communication(vm):
    av = vm.share(np.arange(100, dtype=np.int64))
    bv = vm.share(np.arange(100, dtype=np.int64))
    before_rounds, before_bytes = vm.meter.rounds, vm.meter.bytes_sent
    vm.add(av, bv)
    vm.sub(av, bv)
    vm.mul_public(av, 17)
    add_public(vm, av, 5)
    vm.sum(av)
    vm.public(np.array([1, -1], dtype=np.int64))
    assert vm.meter.rounds == before_rounds
    assert vm.meter.bytes_sent == before_bytes


def test_add_public_mul_public(vm):
    av = vm.share(np.array([5, -2, 100], dtype=np.int64))
    np.testing.assert_array_equal(vm.reveal(add_public(vm, av, 10)), [15, 8, 110])
    np.testing.assert_array_equal(vm.reveal(vm.mul_public(av, -3)), [-15, 6, -300])
    np.testing.assert_array_equal(
        vm.reveal(vm.mul_public(av, np.array([1, 2, 3]))), [5, -4, 300]
    )


def test_public_constant_is_a_trivial_sharing(vm):
    c = vm.public(np.array([7, -1, 0], dtype=np.int64))
    assert c.n_parties == 3
    assert all((s == 0).all() for s in c.shares[1:])
    np.testing.assert_array_equal(vm.reveal(c), [7, -1, 0])
    av = vm.share(np.array([1, 2, 3], dtype=np.int64))
    np.testing.assert_array_equal(vm.reveal(vm.mul(av, c)), [7, -2, 0])


def test_beaver_multiplication_correct(vm):
    g = np.random.default_rng(0)
    a = g.integers(-(2**20), 2**20, 500)
    b = g.integers(-(2**20), 2**20, 500)
    av, bv = vm.share(a), vm.share(b)
    np.testing.assert_array_equal(vm.reveal(vm.mul(av, bv)), a * b)


@pytest.mark.parametrize("n_parties", [2, 3, 4])
def test_beaver_product_shares_are_uniformish(n_parties):
    """Each party's share of a product of public zeros looks uniform: the
    dealer's shares mask it, including the remainder the last party gets."""
    vm = SecretSharingVM(n_parties=n_parties, meter=Meter(), seed=3)
    zero = vm.public(np.zeros(4000, dtype=np.int64))
    z = vm.mul(zero, zero)
    np.testing.assert_array_equal(vm.reveal(z), 0)
    for party_share in z.shares:
        top = (party_share >> np.uint64(56)).astype(np.int64)
        counts = np.bincount(top, minlength=256)
        assert counts.max() < 4 * counts.mean()
        assert len(np.unique(party_share)) > 3900


def test_beaver_multiplication_holds_few_vectors(vm):
    """The dealer's shares are drawn party by party and each product
    share is built in place: a multiplication of n elements holds at most
    ten vectors of n words at a time (its three output shares included)."""
    import tracemalloc

    n = 50_000
    av, bv = vm.share(np.arange(n, dtype=np.int64)), vm.share(np.ones(n, np.int64))
    tracemalloc.start()
    try:
        vm.mul(av, bv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10.1 * n * 8


def test_beaver_multiplication_charges_communication(vm):
    av = vm.share(np.arange(1000, dtype=np.int64))
    r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
    vm.mul(av, av)
    assert vm.meter.rounds == r0 + 1  # batched: one opening round
    assert vm.meter.bytes_sent > b0 + 1000 * 8  # at least the openings


def test_sum(vm):
    av = vm.share(np.array([1, 2, 3, 4, 5], dtype=np.int64))
    assert vm.reveal(vm.sum(av))[0] == 15


def test_sum_per_segment_is_share_local(vm):
    av = vm.share(np.array([1, 2, 3, 4, -5], dtype=np.int64))
    r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
    sums = vm.sum(av, starts=np.array([0, 2, 3]))
    empty = vm.sum(vm.take(av, slice(0, 0)), starts=np.array([], np.int64))
    assert (vm.meter.rounds, vm.meter.bytes_sent) == (r0, b0)
    np.testing.assert_array_equal(vm.reveal(sums), [3, 3, -1])
    assert len(empty) == 0


def test_only_trivial_sharings_are_public(vm):
    """The public mark: set by ``vm.public``, kept by ``take`` and by a
    ``concat`` of public vectors only, refused on a secret sharing; the
    values of a secret vector cannot be read."""
    pub = vm.public(np.array([4, 5, 6], dtype=np.int64))
    sec = vm.share(np.array([1, 2, 3], dtype=np.int64))
    assert pub.public and not sec.public
    np.testing.assert_array_equal(vm.public_values(pub), [4, 5, 6])
    assert vm.take(pub, np.array([2, 0])).public
    assert vm.take(pub, slice(1, 3)).public
    assert vm.concat([pub, pub]).public
    np.testing.assert_array_equal(
        vm.public_values(vm.concat([pub, vm.take(pub, slice(0, 1))])), [4, 5, 6, 4])
    secret = {
        "concat_with_secret": vm.concat([pub, sec]),
        "take_of_secret": vm.take(sec, slice(0, 2)),
        "add": vm.add(pub, pub),
        "sub": vm.sub(pub, pub),
        "mul_public": vm.mul_public(pub, 2),
        "sum": vm.sum(pub),
        "mul": vm.mul(pub, pub),
        "eq": vm.eq(pub, pub),
        "lt": vm.lt(pub, pub),
        "div_fixed": vm.div_fixed(pub, pub, 4),
        "permute_public": vm.permute_public(pub, np.array([2, 1, 0])),
        "shuffle": vm.oblivious_permute([([pub], np.array([2, 1, 0]))])[0][0],
        "gather": vm.gather([([pub], np.array([0, 2]))])[0][0],
    }
    for name, v in secret.items():
        assert not v.public, name
        with pytest.raises(ValueError):
            vm.public_values(v)
    with pytest.raises(ValueError):
        SharedVector(sec.shares, public=True)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ([1, 5, -3, 0], [2, 5, -4, 0], [1, 0, 0, 0]),
        ([2**40], [2**41], [1]),
    ],
)
def test_lt(vm, a, b, expected):
    av = vm.share(np.array(a, dtype=np.int64))
    bv = vm.share(np.array(b, dtype=np.int64))
    np.testing.assert_array_equal(vm.reveal(vm.lt(av, bv)), expected)


def test_eq(vm):
    a = np.array([1, 2, 3, -7], dtype=np.int64)
    b = np.array([1, 0, 3, 7], dtype=np.int64)
    np.testing.assert_array_equal(
        vm.reveal(vm.eq(vm.share(a), vm.share(b))), [1, 0, 1, 0]
    )


def test_div_fixed(vm):
    num = vm.share(np.array([10, 7, 0], dtype=np.int64))
    den = vm.share(np.array([4, 2, 5], dtype=np.int64))
    out = vm.reveal(vm.div_fixed(num, den, scale=1000))
    np.testing.assert_array_equal(out, [2500, 3500, 0])


def test_div_fixed_by_zero_yields_zero(vm):
    out = vm.reveal(
        vm.div_fixed(
            vm.share(np.array([5], dtype=np.int64)),
            vm.share(np.array([0], dtype=np.int64)),
            scale=10,
        )
    )
    assert out[0] == 0


def test_permutations_and_gather(vm):
    a = np.array([10, 20, 30, 40], dtype=np.int64)
    av = vm.share(a)
    perm = np.array([2, 0, 3, 1])
    np.testing.assert_array_equal(vm.reveal(vm.permute_public(av, perm)), a[perm])
    [[pv]] = vm.oblivious_permute([([av], perm)])
    np.testing.assert_array_equal(vm.reveal(pv), a[perm])
    idx = np.array([3, 3, 0])
    [[gv]] = vm.gather([([av], idx)])
    np.testing.assert_array_equal(vm.reveal(gv), a[idx])


@pytest.mark.parametrize("n_parties", [2, 3, 4])
@pytest.mark.parametrize("n,m", [(1, 1), (10, 3), (7, 0), (100, 250), (1000, 1000)])
def test_gather_charges_the_laud_read(n_parties, n, m):
    """``gather`` of k = 1..6 columns charges what the reference's steps
    of Laud's parallel read cost, whose rows are the ones it reads: both
    kinds of read, the one whose index records the parties sort and the
    one whose permutation an STP deals (``dealer``)."""
    g = np.random.default_rng(n + m)
    vm = SecretSharingVM(n_parties=n_parties, meter=Meter(), seed=3)
    idx = g.integers(0, n, m)
    for dealer, deal_rng in ((None, None), (0, np.random.default_rng(5))):
        for k in range(1, 7):
            cols = [g.integers(-(2**40), 2**40, n) for _ in range(k)]
            shared = [vm.share(c) for c in cols]
            r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
            [got] = vm.gather([(shared, idx)], dealer)
            rounds, bytes_sent = vm.meter.rounds - r0, vm.meter.bytes_sent - b0
            read, steps = parallel_read(
                [c.view(np.uint64) for c in cols], idx, n_parties, deal_rng
            )
            for c, rv, gv in zip(cols, read, got):
                np.testing.assert_array_equal(rv.view(np.int64), c[idx])
                np.testing.assert_array_equal(vm.reveal(gv), c[idx])
            assert rounds == sum(s.rounds for s in steps)
            assert bytes_sent == pytest.approx(
                sum(s.words for s in steps) * 8 * n_parties * (n_parties - 1),
                rel=1e-12,
            )


def test_dealt_pieces_do_not_depend_on_the_indexes():
    """The pieces an STP deals to the other parties are drawn from its
    coins alone: at one seed they are the same for two index vectors of
    one length, and only the STP's own piece, which completes the read
    permutation, differs."""
    n, n_parties = 50, 3
    g = np.random.default_rng(1)
    a, b = g.integers(0, n, 40), g.integers(0, n, 40)
    sigmas = [read_permutation(n, idx) for idx in (a, b)]
    assert not np.array_equal(*sigmas)
    dealt = [deal(s, n_parties, np.random.default_rng(9)) for s in sigmas]
    for pieces, sigma in zip(dealt, sigmas):
        composed = np.arange(len(sigma))
        for piece in pieces:
            composed = composed[piece]
        np.testing.assert_array_equal(composed, sigma)
    for other_a, other_b in zip(dealt[0][:-1], dealt[1][:-1]):
        np.testing.assert_array_equal(other_a, other_b)
    assert not np.array_equal(dealt[0][-1], dealt[1][-1])


def test_oblivious_permute_produces_fresh_shares(vm):
    a = np.arange(16, dtype=np.int64)
    av = vm.share(a)
    perm = np.arange(16)  # identity
    [[out]] = vm.oblivious_permute([([av], perm)])
    # identity permutation must still re-randomize every party's share
    for before, after in zip(av.shares, out.shares):
        assert not np.array_equal(before, after)


def test_concat_and_take(vm):
    a = vm.share(np.array([1, 2], dtype=np.int64))
    b = vm.share(np.array([3], dtype=np.int64))
    c = vm.concat([a, b])
    np.testing.assert_array_equal(vm.reveal(c), [1, 2, 3])
    np.testing.assert_array_equal(vm.reveal(vm.take(c, np.array([2, 0]))), [3, 1])
    np.testing.assert_array_equal(vm.reveal(vm.take(c, slice(0, 2))), [1, 2])
