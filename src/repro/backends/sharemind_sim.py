"""Sharemind-style MPC stage executor over the secret-sharing VM.

Adapts the protocol library (:mod:`repro.mpc.protocols`) to the
engine's needs. It owns the format of the engine's MPC relations: a
:class:`SharedRelation` whose per-column fixed-point *scales* (power-of-
two exponents) keep division/multiplication chains in the integer ring
and are divided out on reveal, plus an optional oblivious filter mask
column ``__mask``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..mpc import protocols as P
from ..mpc.secret_sharing import SecretSharingVM, SharedVector
from ..mpc.shared_rel import SharedRelation, share_dataframe

#: fixed-point fraction bits for secret-shared division
FP_BITS = 20
MASK = "__mask"


class SharemindBackend:
    """One MPC session across the parties, Sharemind-style."""

    name = "sharemind"

    def __init__(self, vm: SecretSharingVM, rng: np.random.Generator):
        self.vm = vm
        self.rng = rng

    # -------------------------------------------------------------- I/O
    def input_rel(self, pdf: pd.DataFrame) -> SharedRelation:
        return share_dataframe(self.vm, pdf)

    def reveal(self, r: SharedRelation) -> pd.DataFrame:
        """Open to all parties, de-scaling fixed-point columns to float
        and dropping masked-out rows (mask reveal leaks the filtered
        cardinality — authorized at output time, the recipients see the
        rows anyway)."""
        out = {}
        mask = None
        if MASK in r.columns:
            mask = self.vm.reveal(r.columns[MASK]) == 1
        for name, vec in r.columns.items():
            if name == MASK:
                continue
            vals = self.vm.reveal(vec)
            if mask is not None:
                vals = vals[mask]
            s = r.scale_of(name)
            out[name] = vals / float(1 << s) if s else vals
        return pd.DataFrame(out)

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

    def _masked_value(
        self, r: SharedRelation, over: str | None, agg_op: str
    ) -> tuple[SharedVector, int]:
        """The value vector to aggregate — the `over` column for SUM, ones
        for COUNT — multiplied by the filter mask if present, and the
        scale the aggregate keeps (the `over` column's, for SUM)."""
        if agg_op == "count" or over is None:
            v = self.vm.public(np.ones(r.n_rows, np.int64))
            scale = 0
        else:
            v = r.columns[over]
            scale = r.scale_of(over)
        if MASK in r.columns:
            v = self.vm.mul(v, r.columns[MASK])
        return v, scale

    def aggregate(
        self, r: SharedRelation, group: list[str], agg_op: str, over: str | None,
        out_col: str, *, input_sorted: bool = False,
    ) -> SharedRelation:
        if not group:
            val, scale = self._masked_value(r, over, agg_op)
            return SharedRelation({out_col: self.vm.sum(val)},
                                  {out_col: scale} if scale else {})
        if len(group) != 1:
            raise NotImplementedError("multi-column group-by")
        work, count = self._grouped_input(r, group[0], agg_op, over, out_col)
        return P.aggregate_sum_by_key(
            self.vm, work, group[0], out_col, self.rng,
            input_sorted=input_sorted, count=count,
        ).project([group[0], out_col])

    def _grouped_input(
        self, r: SharedRelation, group: str, agg_op: str, over: str | None,
        out_col: str,
    ) -> tuple[SharedRelation, str | None]:
        """The relation a grouped aggregation sums per group — the group
        column, the masked value as ``out_col`` and, for a filtered SUM,
        the mask — and the column whose group sum counts the rows the
        filter kept: the masked ones themselves for COUNT, the mask for
        SUM, None without a filter."""
        val, scale = self._masked_value(r, over, agg_op)
        cols = {group: r.columns[group], out_col: val}
        count = None
        if MASK in r.columns:
            count = out_col if agg_op == "count" or over is None else MASK
            cols.setdefault(count, r.columns[MASK])
        return SharedRelation(cols, {out_col: scale} if scale else {}), count

    def join(
        self, left: SharedRelation, right: SharedRelation, lk: str, rk: str
    ) -> SharedRelation:
        if MASK in left.columns or MASK in right.columns:
            raise NotImplementedError("join over filtered MPC relations")
        if not lk:  # cross join: broadcast a 1-row right side
            if right.n_rows != 1:
                raise NotImplementedError("cross join needs a scalar right side")
            idx = np.zeros(left.n_rows, dtype=np.int64)
            return self.concat_columns(left, self.take(right, idx))
        return P.join_cartesian(self.vm, left, right, lk, rk, self.rng)

    def distinct_count(
        self, r: SharedRelation, col: str, out_col: str, *, input_sorted: bool
    ) -> SharedRelation:
        key = r.columns[col]
        mask = r.columns.get(MASK)
        if not input_sorted:
            work_cols = {col: key}
            if mask is not None:
                work_cols[MASK] = mask
            work = P.oblivious_sort(self.vm, SharedRelation(work_cols), col)
            key = work.columns[col]
            mask = work.columns.get(MASK)
        cnt = P.distinct_count_sorted(self.vm, key, mask)
        return SharedRelation({out_col: cnt})

    def sort_by(self, r: SharedRelation, col: str, ascending: bool) -> SharedRelation:
        if MASK in r.columns:
            raise NotImplementedError("sort over filtered MPC relations")
        return P.oblivious_sort(self.vm, r, col, descending=not ascending)

    def take(self, r: SharedRelation, idx) -> SharedRelation:
        """Rows at public positions ``idx`` (an index array or a slice):
        share-local, free."""
        return r.with_columns({c: self.vm.take(v, idx) for c, v in r.columns.items()})

    def limit(self, r: SharedRelation, n: int) -> SharedRelation:
        if MASK in r.columns:
            raise NotImplementedError("limit over filtered MPC relations")
        return self.take(r, slice(0, n))

    # ------------------------------------------------ hybrid sub-protocols
    def shuffle(self, r: SharedRelation) -> SharedRelation:
        rel, _ = P.oblivious_shuffle(self.vm, r, self.rng)
        return rel

    def reveal_col_to(self, r: SharedRelation, col: str, party: str) -> np.ndarray:
        return self.vm.reveal_to(r.columns[col], party)

    def select_rows(self, r: SharedRelation, idx: np.ndarray) -> SharedRelation:
        return P.select_by_public_index(self.vm, r, idx)

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

    def hybrid_aggregate(
        self, r: SharedRelation, group: str, agg_op: str, over: str | None,
        out_col: str, same: np.ndarray,
    ) -> SharedRelation:
        """MPC half of the §5.3 hybrid aggregation. ``r`` is in the order of
        the STP's clear sort by ``group``, and ``same[i]`` is the STP's flag
        [row i has the key of row i-1]; the STP secret-shares it and the
        group-end flags. An oblivious segmented scan sums each group into
        its last row, and the group ends of the groups a filter left rows
        in are kept."""
        shared_same = self.vm.share(same)
        work, count = self._grouped_input(r, group, agg_op, over, out_col)
        sums = P.sum_groups(self.vm, work, group, shared_same)
        is_end = np.ones(len(same), dtype=np.int64)
        is_end[:-1] = 1 - same[1:]
        return P.keep_group_ends(
            self.vm, sums, self.vm.share(is_end), self.rng, count=count
        ).project([group, out_col])
