"""Sharemind-style MPC stage executor over the secret-sharing VM.

Adapts the protocol library (:mod:`repro.mpc.protocols`) to the
engine's needs. It owns the format of the engine's MPC relations: a
:class:`SharedRelation` whose per-column fixed-point *scales* (power-of-
two exponents) keep division/multiplication chains in the integer ring
and are divided out on reveal, plus an optional oblivious filter mask
column ``__mask``.
"""
from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np
import pandas as pd

from ..mpc import protocols as P
from ..mpc.secret_sharing import SecretSharingVM
from ..mpc.shared_rel import SharedRelation, share_dataframe

#: fixed-point fraction bits for secret-shared division
FP_BITS = 20
MASK = "__mask"


class SharemindBackend:
    """One MPC session across the parties, Sharemind-style.

    Every MPC aggregation is one :meth:`aggregate` call and every MPC join
    one :meth:`join` call; the §5.3 hybrid aggregation and hybrid join are
    the same calls with the STP named."""

    name = "sharemind"

    def __init__(self, vm: SecretSharingVM, rng: np.random.Generator):
        self.vm = vm
        self.rng = rng

    # -------------------------------------------------------------- I/O
    def input_rel(self, pdf: pd.DataFrame, public: Sequence[str] = ()) -> SharedRelation:
        """inputToMPC of a frame; the ``public`` columns, which every
        party holds in the clear already, enter as trivial sharings."""
        return share_dataframe(self.vm, pdf, public)

    def reveal(self, r: SharedRelation, party: str) -> pd.DataFrame:
        """Open to ``party``, de-scaling fixed-point columns to float. A
        filter's mask is opened to every party first (this leaks the
        filtered cardinality — authorized at output time, the recipients
        see the rows anyway), since each party takes the kept rows
        share-locally; only they are then opened to ``party``, all columns
        in one round."""
        names = [c for c in r.column_names if c != MASK]
        if MASK in r.columns:
            r = self.take(r, np.nonzero(self.vm.reveal(r.columns[MASK]) == 1)[0])
        vals = self.vm.reveal_to([r.columns[c] for c in names], party)
        return pd.DataFrame({
            c: v / float(1 << r.scale_of(c)) if r.scale_of(c) else v
            for c, v in zip(names, vals)
        })

    # -------------------------------------------------------- operators
    def concat(self, rels: list[SharedRelation]) -> SharedRelation:
        scales = rels[0].scales
        for r in rels[1:]:
            if r.scales != scales:
                raise ValueError("concat scale mismatch")
        if any(MASK in r.columns for r in rels):
            # an unfiltered part keeps every row: a free all-ones mask
            rels = [r if MASK in r.columns else r.with_columns(
                {**r.columns, MASK: self.vm.public(np.ones(r.n_rows, np.int64))}
            ) for r in rels]
        return rels[0].with_columns({
            n: self.vm.concat([r.columns[n] for r in rels])
            for n in rels[0].column_names
        })

    def project(self, r: SharedRelation, cols: list[str]) -> SharedRelation:
        """Keep ``cols``, and the filter mask if ``r`` has one."""
        keep = [c for c in cols if c != MASK] + ([MASK] if MASK in r.columns else [])
        return r.project(keep)

    def filter_eq(self, r: SharedRelation, col: str, value: int) -> SharedRelation:
        flags = P.filter_eq_flags(self.vm, r.columns[col], value)
        if MASK in r.columns:
            flags = self.vm.mul(flags, r.columns[MASK])
        return r.with_columns({**r.columns, MASK: flags})

    def arith(
        self, r: SharedRelation, out: str, left: str, op: str, right
    ) -> SharedRelation:
        lv = r.columns[left]
        ls = r.scale_of(left)
        cols = dict(r.columns)
        scales = dict(r.scales)
        if op == "*":
            if isinstance(right, str):
                cols[out] = self.vm.mul(lv, r.columns[right])
                scales[out] = ls + r.scale_of(right)
            else:
                cols[out] = self.vm.mul_public(lv, int(right))
                scales[out] = ls
        elif op == "/":
            if isinstance(right, str):
                rv = r.columns[right]
                rs = r.scale_of(right)
            else:
                rv = self.vm.public(np.full(r.n_rows, int(right), np.int64))
                rs = 0
            cols[out] = self.vm.div_fixed(lv, rv, 1 << FP_BITS)
            scales[out] = ls - rs + FP_BITS
        else:  # pragma: no cover
            raise ValueError(op)
        return SharedRelation(cols, scales)

    def aggregate(
        self, r: SharedRelation, group: list[str], aggs: list[tuple[str, str | None, str]],
        *, runs: Sequence[int] | None = None, stp: str | None = None,
        shuffled: bool = False,
    ) -> SharedRelation:
        """The SUM and COUNT outputs ``(op, over, out_col)`` of the rows a
        filter kept, grouped by at most one column, all in one pass.
        Ungrouped, share-local sums; grouped, the sort-based aggregation
        (:func:`P.aggregate_sum_by_key`), which scans every output's values
        in the same multiplications (a COUNT scans ones, free to make; a
        filtered one, the filter mask) and sums the mask with them to drop
        the groups a filter emptied. ``runs`` are the lengths of the runs
        the rows come in, each in group-key order (see
        :func:`P.oblivious_sort`).

        With ``stp`` it is the §5.3 hybrid aggregation: the columns it
        reads are shuffled (not with ``shuffled``, which says that they
        come in a hidden random order nothing has opened since: the
        closing shuffle of an MPC join that this aggregation alone reads),
        the group column is revealed to the STP, and the STP's clear sort
        replaces the oblivious sort. The STP sends the
        sort order in the clear (each party reorders its shares locally),
        breaking ties between equal keys at random, so the order every
        party sees is a uniformly random permutation, whatever the group
        sizes. The STP knows where each group ends, so the sums come from
        share-local prefix sums and one read of the group ends whose
        permutation it deals (:func:`P.sum_sorted_groups`). In the deal's
        round it secret-shares the G group keys and, with no filter, the
        G group sizes, which are the COUNTs. A filtered aggregation shuffles
        its G rows before the groups the filter emptied are found and
        dropped (:func:`P.drop_empty_groups`)."""
        if len(group) > 1:
            raise NotImplementedError("multi-column group-by")
        # the column each output sums; None: it counts rows
        overs = [None if op == "count" else over for op, over, _ in aggs]
        summed = [o for o in overs if o is not None]
        keys = None
        if stp is not None:
            # only the columns read below (and the mask) go on
            r = self.project(r, group + list(dict.fromkeys(summed)))
            if not shuffled:
                (r,) = self.shuffle([r])
            (keys,) = self.reveal_col_to([(r, group[0])], stp)
            # STP: sort in the clear, ties in random order (a stable sort
            # would keep each group's rows in place and show its size)
            order = np.lexsort((self.rng.random(len(keys)), keys))
            # the order travels to every party in the clear
            self.vm.meter.charge_comm(
                rounds=1, bytes_sent=float(len(order)) * self.vm.n_parties * 8
            )
            r = self.reorder_public(r, order)
            keys = keys[order]
        n, mask = r.n_rows, r.columns.get(MASK)
        vals = [r.columns[o] for o in summed]
        if mask is not None and vals:
            # every summed column times the mask, in one multiplication
            prod = self.vm.mul(self.vm.concat(vals), self.vm.concat([mask] * len(vals)))
            vals = [self.vm.take(prod, slice(i * n, (i + 1) * n)) for i in range(len(vals))]
        # a COUNT sums the filter mask itself, or ones where nothing is
        # filtered (the STP's group sizes, in the hybrid aggregation)
        counted = mask
        if counted is None and None in overs and keys is None:
            counted = self.vm.public(np.ones(n, np.int64))
        vals, cols, scales = iter(vals), {}, {}
        for o, (_, _, out) in zip(overs, aggs):
            cols[out] = counted if o is None else next(vals)
            if o is not None and r.scale_of(o):
                scales[out] = r.scale_of(o)
        if not group:
            return SharedRelation({c: self.vm.sum(v) for c, v in cols.items()}, scales)
        key, outs = group[0], list(cols)
        # the column whose group sum counts the rows a filter kept
        count = None
        if mask is not None:
            count = next((out for o, (_, _, out) in zip(overs, aggs) if o is None), MASK)
        if count == MASK:
            cols[MASK] = mask
        if keys is None:
            return P.aggregate_sum_by_key(
                self.vm, SharedRelation({key: r.columns[key], **cols}, scales), key,
                outs, self.rng, runs=runs, count=count,
            ).project([key] + outs)
        # STP: each group's key, size and last row
        group_keys, sizes = np.unique(keys, return_counts=True)
        counts = [c for c, v in cols.items() if v is None]
        read = SharedRelation({c: v for c, v in cols.items() if v is not None}, scales)
        with self.vm.meter.together():
            shared = {key: self.vm.share(group_keys)}
            if counts:
                shared.update(dict.fromkeys(counts, self.vm.share(sizes)))
            sums = P.sum_sorted_groups(self.vm, read, np.cumsum(sizes) - 1, stp)
        out = sums.with_columns({**shared, **sums.columns})
        if count is not None:
            # shuffled, the opened empty flags do not sit at a group's key rank
            (out,) = self.shuffle([out])
            out = P.drop_empty_groups(self.vm, out, count)
        return out.project([key] + outs)

    def join(
        self, left: SharedRelation, right: SharedRelation, lk: str, rk: str,
        *, cols: Sequence[str] | None = None, stp: str | None = None,
    ) -> SharedRelation:
        """Equi-join. The matching (left, right) row pairs come from the
        Cartesian product's equality flags (:func:`P.cartesian_join_pairs`)
        or, with ``stp``, from the §5.3 hybrid join (Figure 3): the
        shuffled sides' key columns are revealed to the STP, which joins
        them in the clear. Each side is then cut to the output columns
        ``cols`` the plan's later nodes read (None: every column), the keys
        included only if named, so the steps after the match carry no
        other. Oblivious indexing rebuilds the matching rows under MPC,
        both sides' masks kept, and a last shuffle hides the pair order. In
        the hybrid join the STP, which holds the index pairs, deals each
        side's read permutation in place of the parties' oblivious sort of
        the index records; nothing else is secret-shared. Steps where
        neither side reads the other's result run side by side."""
        if not lk:  # cross join: broadcast a 1-row right side
            if right.n_rows != 1:
                raise NotImplementedError("cross join needs a scalar right side")
            idx = np.zeros(left.n_rows, dtype=np.int64)
            joined = self.concat_columns(left, self.take(right, idx))
            return joined if cols is None else self.project(joined, list(cols))
        if stp is not None:
            left, right = self.shuffle([left, right])
            li, ri = P.join_index_pairs(
                *self.reveal_col_to([(left, lk), (right, rk)], stp), by_key=False
            )
        else:
            li, ri = P.cartesian_join_pairs(self.vm, left.columns[lk], right.columns[rk])
        right = self.project(right, [c for c in right.column_names if c != rk])
        if cols is not None:
            left, right = (self.project(s, [c for c in s.column_names if c in cols])
                           for s in (left, right))
        # a side that keeps no column (and no mask) adds nothing to read
        picked = self.select_rows(
            [(s, i) for s, i in ((left, li), (right, ri)) if s.columns], stp)
        return self.shuffle([reduce(self.concat_columns, picked)])[0]

    def distinct_count(
        self, r: SharedRelation, col: str, out_col: str, *,
        runs: Sequence[int] | None = None,
    ) -> SharedRelation:
        """COUNT(DISTINCT col) over the rows a filter kept; ``runs`` as in
        :meth:`aggregate`. A public key (a public join's) needs no sort:
        :func:`P.distinct_count_public` counts its public groups."""
        key = r.columns[col]
        mask = r.columns.get(MASK)
        if key.public:
            return SharedRelation({out_col: P.distinct_count_public(self.vm, key, mask)})
        work = P.oblivious_sort(self.vm, self.project(r, [col]), col, runs=runs)
        cnt = P.distinct_count_sorted(self.vm, work.columns[col], work.columns.get(MASK))
        return SharedRelation({out_col: cnt})

    def sort_by(
        self, r: SharedRelation, col: str, ascending: bool, *,
        runs: Sequence[int] | None = None,
    ) -> SharedRelation:
        """ORDER BY col; ``runs`` as in :meth:`aggregate`, in this order."""
        if MASK in r.columns:
            raise NotImplementedError("sort over filtered MPC relations")
        return P.oblivious_sort(self.vm, r, col, descending=not ascending, runs=runs)

    def take(self, r: SharedRelation, idx) -> SharedRelation:
        """Rows at public positions ``idx`` (an index array or a slice):
        share-local, free."""
        return r.with_columns({c: self.vm.take(v, idx) for c, v in r.columns.items()})

    def limit(self, r: SharedRelation, n: int) -> SharedRelation:
        if MASK in r.columns:
            raise NotImplementedError("limit over filtered MPC relations")
        return self.take(r, slice(0, n))

    # ------------------------------------------------ hybrid sub-protocols
    # Each takes a list of independent relations and runs them side by
    # side: the rounds of one, the bytes of all.
    def shuffle(self, rels: list[SharedRelation]) -> list[SharedRelation]:
        return [rel for rel, _ in P.oblivious_shuffle(self.vm, rels, self.rng)]

    def reveal_col_to(
        self, cols: list[tuple[SharedRelation, str]], party: str
    ) -> list[np.ndarray]:
        """Open column ``col`` of each ``(r, col)`` to ``party``."""
        return self.vm.reveal_to([r.columns[c] for r, c in cols], party)

    def select_rows(
        self, batches: list[tuple[SharedRelation, np.ndarray]], stp: str | None = None,
    ) -> list[SharedRelation]:
        """The rows ``idx`` of each ``(r, idx)``, by oblivious indexing;
        ``stp`` names the party that holds the indexes in the clear and
        deals the read permutations."""
        return P.select_by_public_index(self.vm, batches, stp)

    def reorder_public(self, r: SharedRelation, order: np.ndarray) -> SharedRelation:
        return r.with_columns(
            {c: self.vm.permute_public(v, order) for c, v in r.columns.items()}
        )

    def concat_columns(self, a: SharedRelation, b: SharedRelation) -> SharedRelation:
        """The columns of ``a`` and ``b`` (same row count) side by side; a
        row is kept only where both sides' filter masks keep it."""
        cols = {**a.columns, **b.columns}
        if MASK in a.columns and MASK in b.columns:
            cols[MASK] = self.vm.mul(a.columns[MASK], b.columns[MASK])
        return SharedRelation(cols, {**a.scales, **b.scales})
