"""§5.2: MPC-frontier push-down and push-up rewrites.

Push-down moves work out of MPC into local per-party preprocessing:

* ``concat`` is pushed below operators that are distributive over its
  input partitions (``project``, ``filter``, column arithmetic), so the
  per-party halves run in the clear on each party's own data;
* aggregations over a ``concat`` are split into per-party local
  pre-aggregations plus a small *secondary* aggregation under MPC. This
  changes MPC input cardinalities (each party's distinct-group count
  leaks), so it requires party consent
  (``allow_cardinality_leaking_pushdown``) per the paper's §5.2.

Push-up moves reversible post-processing out of MPC to the recipient:
scalar multiplication/division and reordering projections are reversible
(the output determines the input), arithmetic over columns the recipient
receives anyway reveals nothing new, and a leaf COUNT aggregation is
rewritten into an MPC projection of the group columns plus a cleartext
count at the recipient.

Before both, sibling aggregations (one input, the same group columns)
merge into one aggregation with several outputs, so the input is sorted
and scanned once.
"""
from __future__ import annotations

from . import dag as D


_DISTRIBUTIVE = (D.Project, D.Filter, D.Arith)


def _projection(parent: D.Node, cols: list[str]) -> D.Project:
    return D.Project([parent], list(cols), cols=list(cols))


def _clone_unary(op: D.Node, parent: D.Node) -> D.Node:
    """Copy a distributive unary operator onto a new parent. The clone
    inherits the parent's owner so the fixpoint loop sees fresh
    ownership without a full re-propagation."""
    if isinstance(op, D.Project):
        clone = _projection(parent, op.cols)
    elif isinstance(op, D.Filter):
        clone = D.Filter(
            [parent], list(op.out_cols), col=op.col, op=op.op, value=op.value
        )
    elif isinstance(op, D.Arith):
        clone = D.Arith(
            [parent], list(op.out_cols),
            out_col=op.out_col, left=op.left, op=op.op, right=op.right,
        )
    else:  # pragma: no cover
        raise TypeError(type(op))
    clone.owner = parent.owner
    return clone


def push_down_concat(dag: D.Dag) -> int:
    """Swap ``concat → distributive-op`` into ``per-party op → concat``
    until fixpoint. Returns the number of rewrites applied."""
    applied = 0
    changed = True
    while changed:
        changed = False
        for concat in dag.nodes_of_type(D.Concat):
            if any(p.owner is None for p in concat.parents):
                continue
            consumers = dag.consumers().get(id(concat), [])
            if len(consumers) != 1 or not isinstance(consumers[0], _DISTRIBUTIVE):
                continue
            op = consumers[0]
            locals_ = [_clone_unary(op, p) for p in concat.parents]
            new_concat = D.Concat(locals_, list(op.out_cols))
            dag.replace_node(op, new_concat)
            applied += 1
            changed = True
            break  # topo/consumer maps are stale; restart scan
    return applied


def split_aggregations(dag: D.Dag) -> int:
    """Split ``concat → aggregate`` into per-party local aggregates, a
    concat of the partials, and a secondary MPC aggregate. COUNT partials
    combine via SUM. Returns the number of splits."""
    applied = 0
    changed = True
    while changed:
        changed = False
        for agg in dag.nodes_of_type(D.Aggregate):
            if agg.secondary or agg.forced_site is not None:
                continue
            parent = agg.parents[0]
            if not isinstance(parent, D.Concat):
                continue
            if any(p.owner is None for p in parent.parents):
                continue
            locals_ = []
            for p in parent.parents:
                la = D.Aggregate(
                    [p], list(agg.out_cols),
                    group_cols=list(agg.group_cols), aggs=list(agg.aggs),
                )
                la.owner = p.owner
                locals_.append(la)
            partials = D.Concat(locals_, list(agg.out_cols))
            secondary = D.Aggregate(
                [partials], list(agg.out_cols),
                group_cols=list(agg.group_cols),
                aggs=[D.Agg(D.SUM, a.out_col, a.out_col) for a in agg.aggs],
                secondary=True,
            )
            dag.replace_node(agg, secondary)
            applied += 1
            changed = True
            break
    return applied


def merge_aggregations(dag: D.Dag) -> int:
    """Merge sibling aggregations (same parent, same group columns) into
    one ``Aggregate`` with all their outputs, so the input is sorted and
    scanned once; each sibling becomes a projection of the merged node. A
    join of two projections of one aggregation on its single group column
    pairs each group with itself, so it becomes a projection too. Returns
    the number of merged nodes."""
    applied = 0
    siblings: dict[tuple, list[D.Aggregate]] = {}
    for agg in dag.nodes_of_type(D.Aggregate):
        siblings.setdefault((id(agg.parents[0]), tuple(agg.group_cols)), []).append(agg)
    for group in siblings.values():
        aggs = [a for agg in group for a in agg.aggs]
        if len(group) < 2 or len({a.out_col for a in aggs}) < len(aggs):
            continue
        first = group[0]
        merged = D.Aggregate(
            list(first.parents), first.group_cols + [a.out_col for a in aggs],
            group_cols=list(first.group_cols), aggs=aggs,
        )
        for agg in group:
            dag.replace_node(agg, _projection(merged, agg.out_cols))
        applied += 1
    for join in dag.nodes_of_type(D.Join):
        left, right = join.parents
        agg = left.parents[0] if isinstance(left, D.Project) else None
        if (
            isinstance(agg, D.Aggregate)
            and isinstance(right, D.Project)
            and right.parents[0] is agg
            and agg.group_cols == [join.left_key] == [join.right_key]
        ):
            dag.replace_node(join, _projection(agg, join.out_cols))
    return applied


def push_up(dag: D.Dag) -> int:
    """Lift reversible leaf operators out of MPC to the recipient, and
    rewrite leaf COUNT aggregations into MPC-projection + clear count.
    Column arithmetic is lifted when every column of its input reaches
    the recipient anyway: the recipient computes it from what it gets."""
    applied = 0
    for out in dag.outputs:
        recipient = out.recipients[0].name
        cur = out.parents[0]
        while True:
            if cur.owner is not None:
                break  # already clear
            if isinstance(cur, D.Arith) and (
                set(cur.parents[0].out_cols) <= set(out.out_cols)
                if isinstance(cur.right, str)
                else not (cur.op == "/" and cur.right == 0)
            ):
                cur.forced_site = ("clear", recipient)
                applied += 1
                cur = cur.parents[0]
                continue
            if isinstance(cur, D.Project) and set(cur.cols) == set(
                cur.parents[0].out_cols
            ):
                # reordering projection: reversible
                cur.forced_site = ("clear", recipient)
                applied += 1
                cur = cur.parents[0]
                continue
            if (
                isinstance(cur, D.Aggregate)
                and all(a.op == D.COUNT for a in cur.aggs)
                and cur.group_cols
                and not cur.secondary
                and cur.forced_site is None  # not a §5.3 hybrid aggregation
            ):
                cur.parents = [_projection(cur.parents[0], cur.group_cols)]
                cur.forced_site = ("clear", recipient)
                applied += 1
                break
            break
    return applied
