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

A sort-based MPC operator keyed on one column — a grouped, non-hybrid
aggregation, a distinct-count or an order-by — whose input is an MPC
concat of parts that are each clear at a party, read by this operator
alone, has ``input_sorted`` set too, and the concat gets a ``presort``
of the operator's key and direction. (Filters, projections and
arithmetic between them are never left there: the §5.2 push-down moves
them into each party's part.) Each party then sorts its
own part by that key, in the operator's direction, before inputToMPC
(§5.2: the work moves to the party's clear stage), and under MPC the
operator runs only the merge levels of the Batcher network over these
runs. A party ordering its own rows reveals nothing, and the run lengths
are the part sizes inputToMPC makes public.

Runs after site assignment, which it reads.
"""
from __future__ import annotations

from . import dag as D


def _pinned(n: D.Node, kind: str) -> bool:
    """Whether a §5.3 rewrite pinned ``n`` to run as ``kind``."""
    return n.forced_site is not None and n.forced_site[0] == kind


def _sort_key(n: D.Node) -> tuple[str, bool] | None:
    """The column an MPC operator sorts its input by and whether
    descending, or None if it does not sort."""
    if n.site != ("mpc",):
        return None
    if isinstance(n, D.Aggregate) and len(n.group_cols) == 1:
        return n.group_cols[0], False
    if isinstance(n, D.DistinctCount):
        return n.col, False
    if isinstance(n, D.SortBy):
        return n.col, not n.ascending
    return None


def _mark_merge(n: D.Node, cons: dict[int, list[D.Node]]) -> bool:
    """Whether a sort-based MPC operator ``n`` merges its input's parts:
    it does when its input is an MPC concat of clear parts read by ``n``
    alone, which then gets ``n``'s key and direction as its ``presort``."""
    sort = _sort_key(n)
    p = n.parents[0] if sort else None
    if (
        isinstance(p, D.Concat)
        and p.site == ("mpc",)
        and len(cons[id(p)]) == 1
        and all(q.site[0] == "clear" for q in p.parents)
    ):
        p.presort = sort
        return True
    return False


def track_sort_orders(dag: D.Dag, *, enabled: bool = True) -> None:
    cons = dag.consumers()
    for n in dag.topo_order():
        n.input_sorted = False
        if isinstance(n, D.Concat):
            n.presort = None
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
        if enabled and not n.input_sorted:
            n.input_sorted = _mark_merge(n, cons)
