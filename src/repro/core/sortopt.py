"""§5.4: oblivious-sort reduction via sort-order tracking.

Walks the DAG tracking which column each intermediate relation is sorted
by (if any). Order-preserving operators (filter, projection that keeps
the column, arithmetic, limit) propagate the order; shuffling operators
(MPC aggregation output, hybrid join, concat) reset it. The public join
emits its result sorted by the join key (the clear-side join sorts for
free). When a sort-based MPC aggregation or distinct-count sees input
already sorted by its key, its ``input_sorted`` flag is set and the
engine skips the oblivious sort — the optimization that reduces the
aspirin-count MPC from O(n log n) to O(n) (§7.4).
"""
from __future__ import annotations

from . import dag as D


def _pinned(n: D.Node, kind: str) -> bool:
    """Whether a §5.3 rewrite pinned ``n`` to run as ``kind``."""
    return n.forced_site is not None and n.forced_site[0] == kind


def track_sort_orders(dag: D.Dag, *, enabled: bool = True) -> None:
    for n in dag.topo_order():
        n.input_sorted = False
        if isinstance(n, D.Input):
            n.sorted_by = None
        elif isinstance(n, D.Join) and _pinned(n, "public"):
            n.sorted_by = n.left_key if enabled else None
        elif isinstance(n, (D.Filter, D.Arith, D.Limit, D.Output)):
            n.sorted_by = n.parents[0].sorted_by
        elif isinstance(n, D.Project):
            p = n.parents[0].sorted_by
            n.sorted_by = p if p in n.cols else None
        elif isinstance(n, D.SortBy):
            n.sorted_by = n.col
        elif isinstance(n, D.Aggregate):
            p = n.parents[0].sorted_by
            if (
                enabled
                and not _pinned(n, "hybrid")
                and len(n.group_cols) == 1
                and p == n.group_cols[0]
            ):
                n.input_sorted = True
            # sort-based MPC aggregation shuffles its output; local clear
            # and hybrid aggregation give no order guarantee either
            n.sorted_by = None
        elif isinstance(n, D.DistinctCount):
            if enabled and n.parents[0].sorted_by == n.col:
                n.input_sorted = True
            n.sorted_by = None
        else:  # Concat, MPC or hybrid Join
            n.sorted_by = None
