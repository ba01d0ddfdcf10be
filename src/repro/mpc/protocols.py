"""MPC relational operators over secret-shared relations.

These implement the sub-protocols the paper's operators rely on (§5.3,
§5.4, §6):

* oblivious shuffle (resharing-based permutation),
* oblivious sort — a real Batcher odd-even mergesort network executed
  with oblivious compare-exchanges (``lt`` + Beaver multiplications),
* sort-based grouped aggregation (Jónsson et al. [39]) with an oblivious
  work-efficient segmented scan, and the §5.3 hybrid aggregation's group
  sums: share-local prefix sums and one read of the group ends, which the
  STP deals,
* the Cartesian-product join's matching step (the paper's standard MPC
  join, O(n·m) nonlinear operations; leaks output size, as the paper's
  Sharemind baseline does),
* oblivious indexing ("select", Laud [45]) used by the hybrid join,
* oblivious filtering, and distinct count: over a secret key by a scan
  of the key-sorted rows, over a public key by share-local sums of the
  public groups and one equality batch.

All operators take the :class:`SecretSharingVM` whose meter accumulates
the communication they would cost in a real deployment.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .secret_sharing import (
    _CMP_ROUNDS, _CMP_WORDS_PER_ELEM, SecretSharingVM, SharedVector, _from_ring,
)
from .shared_rel import SharedRelation


# ----------------------------------------------------------------- shuffle
def oblivious_shuffle(
    vm: SecretSharingVM, rels: list[SharedRelation], rng: np.random.Generator
) -> list[tuple[SharedRelation, np.ndarray]]:
    """Obliviously shuffle each relation, all of its columns by one
    hidden permutation of its own. The relations are independent, so one
    resharing pass shuffles them all.

    Returns each shuffled relation with its permutation (held by the
    simulation driver only — no party learns it)."""
    perms = [rng.permutation(r.n_rows) for r in rels]
    cols = vm.oblivious_permute(
        [(list(r.columns.values()), perm) for r, perm in zip(rels, perms)]
    )
    return [(r.with_columns(dict(zip(r.columns, c))), perm)
            for r, c, perm in zip(rels, cols, perms)]


# -------------------------------------------------------------------- sort
def _batcher_pairs(n: int, first: int = 1):
    """Compare-exchange layers of Batcher's odd-even mergesort on n rows,
    from the merge of ``first``-blocks up (a power of two; 1 is the whole
    sort). Yields (i_idx, j_idx) index arrays per layer, with i < j.

    Layer (p, k) pairs x with x + k for every x in [k % p, n - k) that
    starts a k-block at offset k % p and stays inside its 2p-block. For n
    not a power of two these are the pairs with j < n of the network over
    n rounded up to a power of two, and a layer left empty is dropped: a
    padded row would hold a key no real key passes, so no comparator
    touching one would swap."""
    p = first
    while p < n:
        k = p
        while k >= 1:
            r = k % p
            x = np.arange(r, n - k)
            x = x[((x - r) % (2 * k) < k) & (x // (2 * p) == (x + k) // (2 * p))]
            if len(x):
                yield x, x + k
            k //= 2
        p *= 2


def _merge_pairs(at: np.ndarray, block: int):
    """Batcher's odd-even merge of sorted runs, one run per ``block``
    positions of ``at`` (the row at each position, -1 at a pad; a pad
    sorts after every row). Yields each layer's comparators of two rows
    as (i_idx, j_idx) row arrays. A comparator of a pad and a later row
    always moves the row up: it is done on ``at`` in place, since where
    the pads are is public, and costs nothing."""
    for i, j in _batcher_pairs(len(at), block):
        ri, rj = _merge_step(at, i, j)
        if len(ri):
            yield ri, rj


def _merge_step(at: np.ndarray, i: np.ndarray, j: np.ndarray):
    """One layer of :func:`_merge_pairs`: move rows up past pads in ``at``,
    return the comparators of two rows (disjoint from the moves). Its
    temporaries, as long as the layer, are gone before the caller
    compares."""
    ri, rj = at[i], at[j]
    up = (ri < 0) & (rj >= 0)
    at[i[up]], at[j[up]] = rj[up], -1
    both = (ri >= 0) & (rj >= 0)
    return ri[both], rj[both]


def _sort_layers(n: int, runs: Sequence[int] | None):
    """The layers :func:`oblivious_sort` runs on ``n`` rows, and the array
    its :func:`_merge_pairs` updates (None for the whole sort).

    ``runs`` None is the whole pruned sort. Otherwise the rows are sorted
    runs of these lengths, in order: each non-empty run is laid out in a
    block of the next power of two at or above the longest, the blocks
    padded to a power of two with empty ones, and only the merge levels
    above the block run. The layout is public bookkeeping: no share is
    padded."""
    if runs is None:
        return _batcher_pairs(n), None
    if sum(runs) != n:
        raise ValueError(f"runs {list(runs)} do not cover {n} rows")
    runs = [r for r in runs if r]
    block = 1 << max(0, int(max(runs, default=0)) - 1).bit_length()
    at = np.full(block << max(0, len(runs) - 1).bit_length(), -1, np.int32)
    starts = np.cumsum(runs) - runs
    for t, (s, r) in enumerate(zip(starts, runs)):
        at[t * block:t * block + r] = np.arange(s, s + r)
    return _merge_pairs(at, block), at


def sort_comparators(n: int, runs: Sequence[int] | None = None) -> int:
    """Compare-exchanges :func:`oblivious_sort` runs on ``n`` rows, or on
    sorted ``runs`` of these lengths."""
    return sum(len(i) for i, _ in _sort_layers(n, runs)[0])


def _own(v: SharedVector) -> SharedVector:
    """A private copy of ``v`` that a protocol may update in place."""
    return SharedVector(tuple(s.copy() for s in v.shares))


def oblivious_sort(
    vm: SecretSharingVM,
    rel: SharedRelation,
    key: str,
    *,
    descending: bool = False,
    runs: Sequence[int] | None = None,
) -> SharedRelation:
    """Sort a shared relation by one column with a Batcher network of
    oblivious compare-exchanges over its n rows: O(n log² n) comparisons.
    Each layer compares its pairs' keys in one batch, then swaps every
    column of every out-of-order pair with one batched Beaver
    multiplication, so one round per layer, whatever the column count.

    With ``runs`` (public lengths of consecutive runs already in the
    order asked for, summing to n) only the merge levels of the network
    run (:func:`_sort_layers`): with k runs of at most L rows, k and L
    rounded up to powers of two, log₂k·(log₂L + 1) + log₂k·(log₂k − 1)/2
    layers at most instead of the whole sort's; a single run is returned
    as it is. Only comparators of two rows are charged, and which ones
    depends on the run lengths alone. A row keeps its slot in the share
    arrays: a comparator that touches a pad only changes which slot
    stands at which position of the layout, and at the end a public
    permutation (share-local) reads the slots in position order."""
    if rel.n_rows <= 1 or (runs is not None and np.count_nonzero(runs) <= 1):
        return rel
    cols = {name: _own(v) for name, v in rel.columns.items()}
    layers, at = _sort_layers(rel.n_rows, runs)
    for i_idx, j_idx in layers:
        ki = vm.take(cols[key], i_idx)
        kj = vm.take(cols[key], j_idx)
        # swap if out of order, once per column
        swap = vm.lt(kj, ki) if not descending else vm.lt(ki, kj)
        swap = vm.concat([swap] * len(cols))
        diffs = vm.concat([
            vm.sub(kj, ki) if name == key
            else vm.sub(vm.take(v, j_idx), vm.take(v, i_idx))
            for name, v in cols.items()
        ])
        # only the multiplication's operands are held while it runs
        del ki, kj
        delta = vm.mul(swap, diffs)
        # the comparators of one layer are disjoint, so updating in place
        # reads no value this layer has already written
        m = len(i_idx)
        for c, v in enumerate(cols.values()):
            part = slice(c * m, (c + 1) * m)
            for s, d in zip(v.shares, delta.shares):
                s[i_idx] += d[part]
                s[j_idx] -= d[part]
    if at is not None:
        # the pads end last, so the rows' final order is ``at`` without them
        order = at[at >= 0]
        for name in cols:
            cols[name] = vm.take(cols[name], order)
    return rel.with_columns(cols)


# ---------------------------------------------------------- segmented scan
def segmented_scan_sum(
    vm: SecretSharingVM, cols: list[SharedVector], same_seg: SharedVector
) -> list[SharedVector]:
    """Inclusive segmented prefix sum of each of ``cols`` (Brent–Kung,
    work-efficient: about 2n Beaver products per column and n for the
    flags, in about 2 log n steps). ``same_seg[i] = [row i is in the same
    segment as row i-1]`` (``same_seg[0] = 0``).

    A step folds row ``i - d`` into row ``i`` with the pair operator
    (f₁, v₁)∘(f₂, v₂) = (f₁f₂, v₂ + f₂·v₁), ``f`` starting as
    ``same_seg``. The up-sweep folds every row i ≡ 2d−1 (mod 2d), for
    d = 1, 2, 4, …, updating ``f`` too; the down-sweep then folds every row
    i ≡ d−1 (mod 2d) with i ≥ 3d−1, from the top d down, updating the
    values only. A step's products, for every column, are one batched
    Beaver multiplication (one round); a step with no rows costs
    nothing."""
    n = len(same_seg)
    vs, f = [_own(c) for c in cols], _own(same_seg)

    def fold(hi: slice, lo: slice, with_f: bool) -> None:
        f_hi = vm.take(f, hi)
        m = len(f_hi)
        if not m:
            return
        targets = vs + [f] if with_f else vs
        prods = vm.mul(vm.concat([f_hi] * len(targets)),
                       vm.concat([vm.take(t, lo) for t in targets]))
        new = [vm.take(prods, slice(c * m, (c + 1) * m)) for c in range(len(targets))]
        new[:len(vs)] = [vm.add(vm.take(v, hi), p) for v, p in zip(vs, new)]
        # every new value is computed before the first write
        for t, x in zip(targets, new):
            for s, xs in zip(t.shares, x.shares):
                s[hi] = xs

    d = 1
    while 2 * d <= n:
        fold(slice(2 * d - 1, n, 2 * d), slice(d - 1, n - d, 2 * d), True)
        d *= 2
    d //= 2
    while d:
        fold(slice(3 * d - 1, n, 2 * d), slice(2 * d - 1, n - d, 2 * d), False)
        d //= 2
    return vs


def _same_key_flags(vm: SecretSharingVM, key: SharedVector) -> SharedVector:
    """same[i] = [key[i] == key[i-1]] (shared), same[0] = 0."""
    n = len(key)
    if n <= 1:
        return vm.public(np.zeros(n, np.int64))
    inner = vm.eq(vm.take(key, np.arange(1, n)), vm.take(key, np.arange(0, n - 1)))
    zero = vm.public(np.zeros(1, np.int64))
    return vm.concat([zero, inner])


def _group_ends(vm: SecretSharingVM, same: SharedVector) -> SharedVector:
    """end[i] = [row i is the last of its group], share-local from the
    same-key flags: the next row starts a new group. same[0] = 0, so
    rolling the flags by one gives the last row 0 and makes it an end."""
    n = len(same)
    next_same = vm.take(same, np.roll(np.arange(n), -1))
    return vm.sub(vm.public(np.ones(n, np.int64)), next_same)


# ------------------------------------------------------------- aggregation
def aggregate_sum_by_key(
    vm: SecretSharingVM,
    rel: SharedRelation,
    key: str,
    values: str | list[str],
    rng: np.random.Generator,
    *,
    runs: Sequence[int] | None = None,
    count: str | None = None,
) -> SharedRelation:
    """Sort-based grouped SUM (Jónsson et al.) of one value column or
    several: sort by key, obliviously accumulate each group into its last
    row, every value column in the same multiplications, shuffle, reveal
    group-end flags, keep group ends. Leaks the number of distinct keys
    (the paper's protocol does not pad either, §7.4 comorbidity).

    With ``runs`` (the lengths of the runs the rows come in, each already
    in key order) the sort is only a merge of the runs, or skipped for one
    run — the §5.4 sort elimination. ``count`` names a 0/1 column (a
    filter mask, or one of ``values``): it is summed in the same
    multiplications as ``values``, and a group whose sum of it is 0 is
    dropped (see :func:`keep_group_ends`)."""
    values = [values] if isinstance(values, str) else values
    work = rel.project([key, *values] + ([count] if count not in (None, *values) else []))
    work = oblivious_sort(vm, work, key, runs=runs)
    same = _same_key_flags(vm, work.columns[key])
    summed = [c for c in work.column_names if c != key]
    sums = segmented_scan_sum(vm, [work.columns[c] for c in summed], same)
    return keep_group_ends(
        vm, work.with_columns({key: work.columns[key], **dict(zip(summed, sums))}),
        _group_ends(vm, same), rng, count=count,
    )


def keep_group_ends(
    vm: SecretSharingVM,
    rel: SharedRelation,
    is_end: SharedVector,
    rng: np.random.Generator,
    *,
    count: str | None = None,
) -> SharedRelation:
    """Last step of a sort-based aggregation: shuffle the rows together
    with their shared group-end flags, reveal the flags and keep the
    group-end rows. The shuffle hides which sorted position (so which
    group) each kept row came from; the number of groups is revealed.

    With ``count`` (the column holding each group's number of rows a
    filter kept), a group whose count is 0 is dropped too
    (:func:`drop_empty_groups` over the kept rows, which are shuffled)."""
    staged = rel.with_columns({**rel.columns, "__end": is_end})
    [(shuffled, _)] = oblivious_shuffle(vm, [staged], rng)
    flags = vm.reveal(shuffled.columns["__end"])
    keep = np.nonzero(flags == 1)[0]
    kept = rel.with_columns({n: vm.take(shuffled.columns[n], keep) for n in rel.columns})
    return kept if count is None else drop_empty_groups(vm, kept, count)


def drop_empty_groups(
    vm: SecretSharingVM, rel: SharedRelation, count: str
) -> SharedRelation:
    """Drop the groups (rows of ``rel``) whose ``count`` is 0: one batched
    equality, opened to every party. The rows must come shuffled, so that
    the opened flags show only how many groups are empty, not which."""
    zero = vm.public(np.zeros(rel.n_rows, np.int64))
    empty = vm.reveal(vm.eq(rel.columns[count], zero))
    keep = np.nonzero(empty == 0)[0]
    return rel.with_columns({n: vm.take(v, keep) for n, v in rel.columns.items()})


def sum_sorted_groups(
    vm: SecretSharingVM, rel: SharedRelation, ends: np.ndarray, dealer: str
) -> SharedRelation:
    """The sum of every column of ``rel`` over each group of its rows,
    which come in group order, for the §5.3 hybrid aggregation. ``ends``
    are the groups' last rows, e₁ < … < e_G, which only ``dealer`` (the
    STP, which sorted the group column in the clear) holds.

    Each party takes the inclusive prefix sums P of its shares, share-
    local (they wrap mod 2^64, and so do the values'). One oblivious read
    of the rows ``ends`` (:meth:`SecretSharingVM.gather`), whose read
    permutation the dealer deals, gives P[e_g] for every column, and each
    group's sum is P[e_g] − P[e_{g−1}] (P[e₀] = 0), share-local again. So
    the sums cost 1 + 2p rounds and (n + G)(1/p + 2·cols) words per party
    pair, with no segmented scan; the parties learn G, and random pieces
    of the read permutation."""
    prefixes = [vm.cumsum(v) for v in rel.columns.values()]
    (at_ends,) = vm.gather([(prefixes, ends)], dealer)
    zero = vm.public(np.zeros(1, np.int64))
    # P[e_{g−1}]: the read prefixes one group down, 0 before the first
    return rel.with_columns({
        name: vm.sub(p, vm.take(vm.concat([zero, p]), slice(0, len(ends))))
        for name, p in zip(rel.columns, at_ends)
    })


# -------------------------------------------------------------------- join
def join_index_pairs(
    lkeys: np.ndarray, rkeys: np.ndarray, *, by_key: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate the ``(left position, right position)`` pairs of an
    equi-join of two int64 key arrays: the one matcher of every join (a
    public join's party, a hybrid join's STP, the Cartesian and GC joins).

    The pairs come ordered by (key, left, right), or by (left, right) when
    ``by_key`` is false. The right keys are sorted with a stable
    ``np.argsort``, and so are the left keys when ``by_key`` is true
    (otherwise the left rows are taken in position order).
    ``np.searchsorted`` finds each left row's run of equal right keys,
    and ``np.repeat`` expands the runs into pairs. Within a run the right
    positions ascend (the sort is stable), so the pairs need no sort.
    """
    rorder = np.argsort(rkeys, kind="stable")
    lorder = np.argsort(lkeys, kind="stable") if by_key else np.arange(len(lkeys))
    rsorted, lsorted = rkeys[rorder], lkeys[lorder]
    start = np.searchsorted(rsorted, lsorted, side="left")
    counts = np.searchsorted(rsorted, lsorted, side="right") - start
    # each pair's offset inside its left row's run of equal right keys
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(lorder, counts), rorder[np.repeat(start, counts) + within]


def cartesian_join_pairs(
    vm: SecretSharingVM, left_key: SharedVector, right_key: SharedVector
) -> tuple[np.ndarray, np.ndarray]:
    """The matching step of the standard MPC join: O(n·m) oblivious
    equality tests over the Cartesian product. Returns the (left, right)
    positions of the matching pairs, which the join then reads from each
    side with oblivious indexing.

    Cost model: the all-pairs equality flags are charged as an ABB batch
    of n·m comparisons (the dominant cost that makes Figure 1b/6
    quadratic). The number of pairs is leaked (as in the paper's
    Sharemind baseline join, §7.3). The pairs the flags mark are found
    with :func:`join_index_pairs`, in (left, right) order."""
    n, m = len(left_key), len(right_key)
    # memory for the n·m pair flags (one ring word per share per pair)
    vm.meter.charge_memory(
        "mpc cartesian join pair flags", float(n) * m * 8 * vm.n_parties
    )
    # ABB: the equality-flag batch, charged at full O(n·m) comparison
    # cost; the pairs it marks are computed from the opened keys
    vm._abb(np.zeros(0, np.int64), rounds=_CMP_ROUNDS,
            words_per_elem=_CMP_WORDS_PER_ELEM, n_elems=n * m)
    lk, rk = (_from_ring(vm._reconstruct_ring(k)) for k in (left_key, right_key))
    return join_index_pairs(lk, rk, by_key=False)


def select_by_public_index(
    vm: SecretSharingVM, batches: list[tuple[SharedRelation, np.ndarray]],
    dealer: str | None = None,
) -> list[SharedRelation]:
    """Oblivious indexing (hybrid join step 6): the rows ``idx`` of each
    batch's relation ``(rel, idx)``. The indexes were produced over
    *shuffled* row identities (by the STP, or by the Cartesian join's
    equality flags), so applying them is charged as the Laud-style select
    protocol, one read of every column; independent relations are read
    side by side. ``dealer`` names the party that holds the indexes in
    the clear (the hybrid join's STP): it deals the read permutation, so
    the parties sort no index record (:meth:`SecretSharingVM.gather`)."""
    cols = vm.gather([(list(r.columns.values()), idx) for r, idx in batches],
                     dealer)
    return [r.with_columns(dict(zip(r.columns, c)))
            for (r, _), c in zip(batches, cols)]


# ------------------------------------------------------------------ filter
def filter_eq_flags(
    vm: SecretSharingVM, col: SharedVector, constant: int
) -> SharedVector:
    """Shared 0/1 flags [col == constant] for a public constant."""
    n = len(col)
    const = vm.public(np.full(n, constant, np.int64))
    return vm.eq(col, const)


# ----------------------------------------------------------- distinct count
def distinct_count_sorted(
    vm: SecretSharingVM,
    key: SharedVector,
    mask: SharedVector | None = None,
) -> SharedVector:
    """Count distinct key values (optionally only among rows with
    ``mask=1``) given the relation is already sorted by ``key`` — the
    post-sort-elimination form of a distinct count over a secret key.

    Unmasked, each group's first row counts 1: Σ (1 − same). Masked, the
    segmented SUM scan leaves each group's kept-row count in its last
    row, and one batched equality finds the groups with a count:
    Σ is_end · (1 − [sum = 0]). That is the same-key equality, the scan,
    one equality and one Beaver multiplication over the n rows."""
    n = len(key)
    if n == 0:
        return vm.public(np.zeros(1, np.int64))
    one = vm.public(np.ones(n, np.int64))
    same = _same_key_flags(vm, key)
    if mask is None:
        # first row of each group contributes 1
        return vm.sum(vm.sub(one, same))
    (kept,) = segmented_scan_sum(vm, [mask], same)
    nonzero = vm.sub(one, vm.eq(kept, vm.public(np.zeros(n, np.int64))))
    return vm.sum(vm.mul(_group_ends(vm, same), nonzero))


def distinct_count_public(
    vm: SecretSharingVM,
    key: SharedVector,
    mask: SharedVector | None = None,
) -> SharedVector:
    """Count distinct values of a *public* key (:attr:`SharedVector.public`:
    every party holds it in the clear, as after a §5.3 public join),
    optionally only among rows with ``mask=1``. The rows need no order.

    Every party knows the G groups, so unmasked the count is the public
    constant G. Masked, each party sums its mask shares per group (share-
    local), one batched equality over the G sums finds the groups the
    mask emptied, and the count is G − Σ [sum = 0]: ``_CMP_ROUNDS``
    rounds and G comparisons, whatever the row count."""
    keys = vm.public_values(key)
    order = np.argsort(keys, kind="stable")
    # each group's first position in key order
    _, starts = np.unique(keys[order], return_index=True)
    groups = vm.public(np.array([len(starts)], np.int64))
    if mask is None or not len(starts):
        return groups
    sums = vm.sum(vm.take(mask, order), starts=starts)
    empty = vm.eq(sums, vm.public(np.zeros(len(starts), np.int64)))
    return vm.sub(groups, vm.sum(empty))
