"""§5.3: hybrid operator rewrites.

Conclave replaces an MPC join/aggregation with a hybrid operator *only*
when the propagated trust sets authorize it:

* **hybrid join** — both key columns' trust sets share a party (the
  STP), who learns both key columns (and result cardinality);
* **public join** — both key columns are public (trust set = all
  parties); any party may compute the join in the clear;
* **hybrid aggregation** — the single group-by column's trust set
  contains an STP, who learns the (shuffled) group-by column. The
  protocol groups by one key, so a multi-column group-by stays in MPC.

The chosen STP is the deterministic minimum of the authorized set, so
all parties compile identical plans.
"""
from __future__ import annotations

from .columns import Party
from . import dag as D


def apply_hybrid_rewrites(
    dag: D.Dag,
    parties: list[Party],
    *,
    enable_hybrid: bool = True,
    enable_public_join: bool = True,
) -> int:
    all_names = frozenset(p.name for p in parties)
    applied = 0
    for n in dag.topo_order():
        if isinstance(n, D.Join) and n.owner is None and n.left_key:
            lt = n.parents[0].trust[n.left_key]
            rt = n.parents[1].trust[n.right_key]
            authorized = lt & rt
            if authorized == all_names and enable_public_join:
                new = D.PublicJoin(
                    list(n.parents), list(n.out_cols),
                    left_key=n.left_key, right_key=n.right_key,
                    at=min(all_names),
                )
            elif authorized and enable_hybrid:
                new = D.HybridJoin(
                    list(n.parents), list(n.out_cols),
                    left_key=n.left_key, right_key=n.right_key,
                    stp=min(authorized),
                )
            else:
                continue
            # the replacement computes the same relation: carry the
            # analysis annotations so later rewrites in this pass see them
            new.trust, new.owner = dict(n.trust), n.owner
            dag.replace_node(n, new)
            applied += 1
        elif (
            isinstance(n, D.Aggregate)
            and enable_hybrid
            and n.owner is None
            and len(n.group_cols) == 1
            and not n.clear_count_at
        ):
            authorized = n.parents[0].trust[n.group_cols[0]]
            if not authorized:
                continue
            new = D.HybridAggregate(
                list(n.parents), list(n.out_cols),
                group_cols=list(n.group_cols), agg_op=n.agg_op,
                over=n.over, out_col=n.out_col, stp=min(authorized),
            )
            new.trust, new.owner = dict(n.trust), n.owner
            dag.replace_node(n, new)
            applied += 1
    return applied
