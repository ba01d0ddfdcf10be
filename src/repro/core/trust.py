"""§5.1 pass 2: trust-set propagation.

For each operator's result column *c*, the trust set of *c* is the
intersection of the trust sets of every operand column that contributes
to *c* — both columns whose rows feed *c* directly and columns that
determine how rows are combined, filtered or reordered (join keys,
group-by columns, filter columns, sort columns).

Security invariant (asserted in tests): propagation never *widens* a
trust set relative to the operand columns it depends on, so Conclave
only ever reveals a column to a party entitled to derive it from inputs
it was explicitly trusted with.
"""
from __future__ import annotations

from .columns import Party
from . import dag as D


def propagate_trust(dag: D.Dag, parties: list[Party]) -> None:
    for n in dag.topo_order():
        if isinstance(n, D.Input):
            n.trust = {
                c.name: c.trust_set(n.party, parties) for c in n.schema
            }
        elif isinstance(n, D.Concat):
            n.trust = {}
            for col in n.out_cols:
                sets = [p.trust[col] for p in n.parents]
                n.trust[col] = frozenset.intersection(*sets)
        elif isinstance(n, D.Project):
            n.trust = {c: n.parents[0].trust[c] for c in n.cols}
        elif isinstance(n, D.Filter):
            pt = n.parents[0].trust
            fcol = pt[n.col]
            n.trust = {c: pt[c] & fcol for c in n.out_cols}
        elif isinstance(n, D.Arith):
            pt = n.parents[0].trust
            t = pt[n.left]
            if isinstance(n.right, str):
                t = t & pt[n.right]
            n.trust = dict(pt)
            n.trust[n.out_col] = t
        elif isinstance(n, D.Aggregate):
            pt = n.parents[0].trust
            n.trust = {g: pt[g] for g in n.group_cols}
            for a in n.aggs:
                agg_t = pt[a.over] if a.over is not None else frozenset(
                    p.name for p in parties
                )
                # COUNT's values derive only from row multiplicities, which
                # the group-by columns determine
                for g in n.group_cols:
                    agg_t = agg_t & pt[g]
                n.trust[a.out_col] = agg_t
        elif isinstance(n, D.Join):
            lt, rt = n.parents[0].trust, n.parents[1].trust
            if n.left_key:
                key_t = lt[n.left_key] & rt[n.right_key]
            else:  # cross join: no key dependency
                key_t = frozenset(p.name for p in parties)
            n.trust = {}
            for c in n.out_cols:
                base = lt[c] if c in lt else rt[c]
                n.trust[c] = base & key_t
        elif isinstance(n, D.DistinctCount):
            n.trust = {n.out_col: n.parents[0].trust[n.col]}
        elif isinstance(n, (D.SortBy, D.Limit)):
            pt = n.parents[0].trust
            if isinstance(n, D.SortBy):
                scol = pt[n.col]
                n.trust = {c: pt[c] & scol for c in n.out_cols}
            else:
                n.trust = dict(pt)
        elif isinstance(n, D.Output):
            n.trust = dict(n.parents[0].trust)
        else:  # pragma: no cover
            raise NotImplementedError(type(n))
