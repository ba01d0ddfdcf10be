"""§5.3: hybrid operator rewrites.

Conclave runs an MPC join/aggregation as a hybrid operator *only* when
the propagated trust sets authorize it. The rewrite builds no node: it
pins the ``Join`` or ``Aggregate`` itself (``forced_site``), and the
engine reads the site to pick the protocol.

* **public join** ``("public", party)`` — both key columns are public
  (trust set = all parties) and each input is held in the clear (owned,
  or a concat of owned parts), so any party may compute the join in the
  clear;
* **hybrid join** ``("hybrid", stp)`` — both key columns' trust sets
  share a party (the STP), who learns both key columns (and result
  cardinality);
* **hybrid aggregation** ``("hybrid", stp)`` — the single group-by
  column's trust set contains an STP, who learns the (shuffled)
  group-by column. The protocol groups by one key, so a multi-column
  group-by stays in MPC.

The chosen party is the deterministic minimum of the authorized set, so
all parties compile identical plans.
"""
from __future__ import annotations

from .columns import Party
from . import dag as D


def _in_clear(n: D.Node) -> bool:
    """Whether a public join can take ``n``'s rows from the parties'
    clear data: ``n`` is owned, or a concat of owned parts."""
    if n.owner is not None:
        return True
    return isinstance(n, D.Concat) and all(p.owner is not None for p in n.parents)


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
        if n.owner is not None or n.forced_site is not None:
            continue
        if isinstance(n, D.Join) and n.left_key:
            authorized = (n.parents[0].trust[n.left_key]
                          & n.parents[1].trust[n.right_key])
            if (authorized == all_names and enable_public_join
                    and all(_in_clear(p) for p in n.parents)):
                n.forced_site = ("public", min(all_names))
            elif authorized and enable_hybrid:
                n.forced_site = ("hybrid", min(authorized))
        elif (isinstance(n, D.Aggregate) and enable_hybrid
              and len(n.group_cols) == 1):
            authorized = n.parents[0].trust[n.group_cols[0]]
            if authorized:
                n.forced_site = ("hybrid", min(authorized))
        applied += n.forced_site is not None
    return applied
