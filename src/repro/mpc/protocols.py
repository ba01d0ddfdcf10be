"""MPC relational operators over secret-shared relations.

These implement the sub-protocols the paper's operators rely on (§5.3,
§5.4, §6):

* oblivious shuffle (resharing-based permutation),
* oblivious sort — a real Batcher odd-even mergesort network executed
  with oblivious compare-exchanges (``lt`` + Beaver multiplications),
* sort-based grouped aggregation (Jónsson et al. [39]) with an oblivious
  segmented log-scan,
* Cartesian-product join (the paper's standard MPC join, O(n·m)
  nonlinear operations; leaks output size, as the paper's Sharemind
  baseline does),
* oblivious indexing ("select", Laud [45]) used by the hybrid join,
* oblivious filtering and distinct-count.

All operators take the :class:`SecretSharingVM` whose meter accumulates
the communication they would cost in a real deployment.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

from .secret_sharing import SecretSharingVM, SharedVector, _from_ring
from .shared_rel import SharedRelation

_SENTINEL = np.int64(2**62)  # sort padding key, larger than any data value


# ----------------------------------------------------------------- shuffle
def oblivious_shuffle(
    vm: SecretSharingVM, rel: SharedRelation, rng: np.random.Generator
) -> tuple[SharedRelation, np.ndarray]:
    """Obliviously shuffle all columns with one hidden permutation.

    Returns the shuffled relation and the permutation (held by the
    simulation driver only — no party learns it)."""
    perm = rng.permutation(rel.n_rows)
    return (
        SharedRelation(
            {n: vm.oblivious_permute(v, perm) for n, v in rel.columns.items()}
        ),
        perm,
    )


# -------------------------------------------------------------------- sort
def _batcher_pairs(n: int):
    """Compare-exchange layers of Batcher's odd-even mergesort for n a
    power of two. Yields (i_idx, j_idx) index arrays per layer.

    Layer (p, k) pairs x with x + k for every x in [k % p, n - k) that
    starts a k-block at offset k % p and stays inside its 2p-block."""
    p = 1
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


def _own(v: SharedVector) -> SharedVector:
    """A private copy of ``v`` that a protocol may update in place."""
    return SharedVector(tuple(s.copy() for s in v.shares))


def oblivious_sort(
    vm: SecretSharingVM,
    rel: SharedRelation,
    key: str,
    *,
    descending: bool = False,
) -> SharedRelation:
    """Sort a shared relation by one column with a Batcher network of
    oblivious compare-exchanges: O(n log² n) comparisons, each followed by
    two Beaver multiplications per column to swap conditionally."""
    n = rel.n_rows
    if n <= 1:
        return rel
    n2 = 1 << (n - 1).bit_length()
    cols = dict(rel.columns)
    if n2 != n:
        pad_key = np.full(n2 - n, _SENTINEL if not descending else -_SENTINEL)
        for name, v in cols.items():
            pad = vm.share(pad_key if name == key else np.zeros(n2 - n, np.int64))
            cols[name] = vm.concat([v, pad])
    cols = {name: _own(v) for name, v in cols.items()}
    for i_idx, j_idx in _batcher_pairs(n2):
        ki = vm.take(cols[key], i_idx)
        kj = vm.take(cols[key], j_idx)
        # swap if out of order
        swap = vm.lt(kj, ki) if not descending else vm.lt(ki, kj)
        # the comparators of one layer are disjoint, so updating in place
        # reads no value this layer has already written
        for v in cols.values():
            vi = vm.take(v, i_idx)
            vj = vm.take(v, j_idx)
            delta = vm.mul(swap, vm.sub(vj, vi))
            for s, d in zip(v.shares, delta.shares):
                s[i_idx] += d
                s[j_idx] -= d
    return SharedRelation({name: vm.take(v, slice(0, n)) for name, v in cols.items()})


# ------------------------------------------------------ segmented log-scan
def segmented_scan(
    vm: SecretSharingVM,
    vals: SharedVector,
    same_seg: SharedVector,
    combine: Callable[[SecretSharingVM, SharedVector, SharedVector], SharedVector],
) -> SharedVector:
    """Inclusive segmented scan (Hillis–Steele, O(log n) levels of
    vectorized Beaver muls). ``same_seg[i] = [row i is in the same segment
    as row i-1]`` (``same_seg[0] = 0``). At level d, each row i >= d sets
    ``v[i] = combine(vm, v[i], f[i] * v[i-d])`` and ``f[i] = f[i] * f[i-d]``,
    with ``f`` starting as ``same_seg``."""
    n = len(vals)
    v, f = _own(vals), _own(same_seg)
    d = 1
    while d < n:
        hi, lo = slice(d, n), slice(0, n - d)
        f_hi = vm.take(f, hi)
        carried = vm.mul(f_hi, vm.take(v, lo))
        v_new = combine(vm, vm.take(v, hi), carried)
        f_new = vm.mul(f_hi, vm.take(f, lo))
        for s, new in zip(v.shares + f.shares, v_new.shares + f_new.shares):
            s[hi] = new
        d *= 2
    return v


def _or(vm: SecretSharingVM, a: SharedVector, b: SharedVector) -> SharedVector:
    """or(a, b) = a + b - a*b over shared 0/1 values."""
    return vm.sub(vm.add(a, b), vm.mul(a, b))


def segmented_scan_sum(
    vm: SecretSharingVM, vals: SharedVector, same_seg: SharedVector
) -> SharedVector:
    """Inclusive segmented prefix sum."""
    return segmented_scan(vm, vals, same_seg, SecretSharingVM.add)


def segmented_scan_or(
    vm: SecretSharingVM, bits: SharedVector, same_seg: SharedVector
) -> SharedVector:
    """Inclusive segmented prefix OR over shared 0/1 values."""
    return segmented_scan(vm, bits, same_seg, _or)


def _same_key_flags(vm: SecretSharingVM, key: SharedVector) -> SharedVector:
    """same[i] = [key[i] == key[i-1]] (shared), same[0] = 0."""
    n = len(key)
    if n == 1:
        return vm.share(np.zeros(1, np.int64))
    inner = vm.eq(vm.take(key, np.arange(1, n)), vm.take(key, np.arange(0, n - 1)))
    zero = vm.share(np.zeros(1, np.int64))
    return vm.concat([zero, inner])


# ------------------------------------------------------------- aggregation
def aggregate_sum_by_key(
    vm: SecretSharingVM,
    rel: SharedRelation,
    key: str,
    value: str,
    rng: np.random.Generator,
    *,
    input_sorted: bool = False,
) -> SharedRelation:
    """Sort-based grouped SUM (Jónsson et al.): sort by key, obliviously
    accumulate each group into its last row, shuffle, reveal group-end
    flags, keep group ends. Leaks the number of distinct keys (the paper's
    protocol does not pad either, §7.4 comorbidity).

    With ``input_sorted=True`` the oblivious sort is skipped — the §5.4
    sort-elimination optimization."""
    work = rel.project([key, value])
    if not input_sorted and work.n_rows > 1:
        work = oblivious_sort(vm, work, key)
    same = _same_key_flags(vm, work.columns[key])
    sums = segmented_scan_sum(vm, work.columns[value], same)
    n = work.n_rows
    # group end: next row starts a new group (or last row)
    if n > 1:
        next_same = vm.concat(
            [vm.take(same, np.arange(1, n)), vm.share(np.zeros(1, np.int64))]
        )
    else:
        next_same = vm.share(np.zeros(1, np.int64))
    one = vm.share(np.ones(n, np.int64))
    is_end = vm.sub(one, next_same)
    staged = SharedRelation(
        {key: work.columns[key], value: sums, "__end": is_end}
    )
    shuffled, _ = oblivious_shuffle(vm, staged, rng)
    flags = vm.reveal(shuffled.columns["__end"])
    keep = np.nonzero(flags == 1)[0]
    return SharedRelation(
        {
            key: vm.take(shuffled.columns[key], keep),
            value: vm.take(shuffled.columns[value], keep),
        }
    )


def aggregate_sum_total(
    vm: SecretSharingVM, rel: SharedRelation, value: str
) -> SharedRelation:
    """Ungrouped SUM — share-local additions, no communication."""
    return SharedRelation({value: vm.sum(rel.columns[value])})


# -------------------------------------------------------------------- join
def join_cartesian(
    vm: SecretSharingVM,
    left: SharedRelation,
    right: SharedRelation,
    left_key: str,
    right_key: str,
    rng: np.random.Generator,
) -> SharedRelation:
    """Standard MPC join: O(n·m) oblivious equality tests over the
    Cartesian product, then oblivious selection of the matching rows.

    Cost model: the all-pairs equality flags are charged as an ABB batch
    of n·m comparisons (the dominant cost that makes Figure 1b/6
    quadratic); the matching pairs are then fetched with the oblivious
    indexing protocol. Output size is leaked (as in the paper's Sharemind
    baseline join, §7.3)."""
    n, m = left.n_rows, right.n_rows
    # memory for the n·m pair flags (one ring word per share per pair)
    vm.meter.charge_memory(
        "mpc cartesian join pair flags", float(n) * m * 8 * vm.n_parties
    )
    # ABB: the equality-flag batch. Computed via a cleartext index match
    # internally; charged at full O(n·m) comparison cost.
    lk = _from_ring(vm._reconstruct_ring(left.columns[left_key]))
    rk = _from_ring(vm._reconstruct_ring(right.columns[right_key]))
    vm._abb(np.zeros(0, np.int64), rounds=8, words_per_elem=5, n_elems=n * m)
    li, ri = np.nonzero(lk[:, None] == rk[None, :])
    out: dict[str, SharedVector] = {left_key: vm.gather(left.columns[left_key], li)}
    for name, v in left.columns.items():
        if name != left_key:
            out[name] = vm.gather(v, li)
    for name, v in right.columns.items():
        if name != right_key:
            out[name] = vm.gather(v, ri)
    joined = SharedRelation(out)
    shuffled, _ = oblivious_shuffle(vm, joined, rng) if joined.n_rows else (joined, None)
    return shuffled


def select_by_public_index(
    vm: SecretSharingVM, rel: SharedRelation, idx: np.ndarray
) -> SharedRelation:
    """Oblivious indexing (hybrid join step 6): the indexes were produced
    by the STP over *shuffled* row identities, so applying them is charged
    as the Laud-style select protocol."""
    return SharedRelation({n: vm.gather(v, idx) for n, v in rel.columns.items()})


# ------------------------------------------------------------------ filter
def filter_eq_flags(
    vm: SecretSharingVM, col: SharedVector, constant: int
) -> SharedVector:
    """Shared 0/1 flags [col == constant] for a public constant."""
    n = len(col)
    const = vm.share(np.full(n, constant, np.int64))
    return vm.eq(col, const)


def apply_filter_oblivious(
    vm: SecretSharingVM, rel: SharedRelation, flags: SharedVector
) -> SharedRelation:
    """Zero out non-matching rows (size-preserving oblivious filter)."""
    return SharedRelation(
        {n: vm.mul(v, flags) for n, v in rel.columns.items()}
    )


# ----------------------------------------------------------- distinct count
def distinct_count_sorted(
    vm: SecretSharingVM,
    key: SharedVector,
    mask: SharedVector | None = None,
) -> SharedVector:
    """Count distinct key values (optionally only among rows with
    ``mask=1``) given the relation is already sorted by ``key`` — the
    post-sort-elimination form used by the aspirin-count query.

    distinct = Σ_i mask_i · (1 − prefixOR of mask over earlier same-key
    rows); all operations are vectorized oblivious arithmetic."""
    n = len(key)
    same = _same_key_flags(vm, key)
    if mask is None:
        one = vm.share(np.ones(n, np.int64))
        # first row of each group contributes 1
        contrib = vm.sub(one, same)
        return vm.sum(contrib)
    scan = segmented_scan_or(vm, mask, same)
    # seen-before(i) = OR of mask over earlier rows in the segment
    # = (scan shifted by one within segment) = same[i] * scan[i-1]
    if n > 1:
        shifted = vm.concat(
            [vm.share(np.zeros(1, np.int64)), vm.take(scan, np.arange(0, n - 1))]
        )
    else:
        shifted = vm.share(np.zeros(1, np.int64))
    seen_before = vm.mul(same, shifted)
    one = vm.share(np.ones(n, np.int64))
    contrib = vm.mul(mask, vm.sub(one, seen_before))
    return vm.sum(contrib)


# ------------------------------------------------------------------- limit
def top_k_by(
    vm: SecretSharingVM,
    rel: SharedRelation,
    key: str,
    k: int,
) -> SharedRelation:
    """ORDER BY key DESC LIMIT k under MPC: oblivious sort descending,
    then take the first k rows (positions are public)."""
    sorted_rel = oblivious_sort(vm, rel, key, descending=True)
    k = min(k, sorted_rel.n_rows)
    return SharedRelation(
        {n: vm.take(v, slice(0, k)) for n, v in sorted_rel.columns.items()}
    )
