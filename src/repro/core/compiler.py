"""The six-stage Conclave query compiler (§5).

``compile_query`` runs the paper's pipeline over a frontend-built DAG:

1. sibling aggregations (same input, same group columns) merged into
   one multi-output aggregation; ownership propagation (§5.1 pass 1);
2. MPC-frontier push-down: concat push-down + aggregation splitting
   (§5.2) — cardinality-leaking splits only with party consent;
3. trust-set propagation (§5.1 pass 2);
4. hybrid-operator rewrites where trust annotations authorize them
   (§5.3): a join or aggregation is pinned to ``("hybrid", stp)`` or
   ``("public", party)`` in place;
5. push-up of reversible leaf operators, column arithmetic over columns
   the recipient receives anyway included (§5.2);
6. site assignment — every node is pinned to ``("clear", party)``,
   ``("mpc",)``, ``("hybrid", stp)`` or ``("public", party)``: a site
   pinned by step 4 or 5 first, else ``("clear", owner)``, else MPC —
   then sort-order tracking / oblivious-sort elimination (§5.4), which
   reads the sites, and column pruning: each join outside the clear
   keeps only the columns some later node reads, so the MPC steps that
   rebuild and shuffle its rows carry no other; the runtime engine
   interprets the annotated DAG in topological order, entering/leaving
   MPC at site transitions.

All passes are deterministic, so every party derives the identical plan
(the paper's requirement that parties agree on the computation).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .columns import Party
from . import dag as D
from .frontier import (
    merge_aggregations, push_down_concat, push_up, split_aggregations,
)
from .hybrid import apply_hybrid_rewrites
from .ownership import propagate_ownership
from .sortopt import track_sort_orders
from .trust import propagate_trust


@dataclass
class CompileOptions:
    parties: list[Party] = field(default_factory=list)
    #: party consent for push-downs that leak per-party cardinalities
    allow_cardinality_leaking_pushdown: bool = True
    enable_hybrid: bool = True
    enable_public_join: bool = True
    enable_sort_elimination: bool = True
    enable_push_up: bool = True


@dataclass
class Plan:
    """The compiled physical plan: the annotated DAG plus stats."""

    dag: D.Dag
    options: CompileOptions
    rewrites: dict[str, int] = field(default_factory=dict)

    def nodes(self) -> list[D.Node]:
        return self.dag.topo_order()


def _assign_sites(dag: D.Dag) -> None:
    for n in dag.topo_order():
        if isinstance(n, D.Input):
            n.site = ("clear", n.party.name)
        elif isinstance(n, D.Output):
            n.site = ("clear", n.recipients[0].name)
        elif n.forced_site is not None:
            n.site = n.forced_site
        elif n.owner is not None:
            n.site = ("clear", n.owner)
        else:
            n.site = ("mpc",)


def _reads(n: D.Node, need: set[str], i: int) -> set[str]:
    """The columns of ``n``'s ``i``-th parent that ``n`` reads when the
    nodes after it read ``need`` of its own columns."""
    parent = n.parents[i]
    if isinstance(n, (D.Filter, D.SortBy)):
        return need | {n.col}
    if isinstance(n, D.Limit):
        return need
    if isinstance(n, D.Arith):
        right = {n.right} if isinstance(n.right, str) else set()
        return (need - {n.out_col}) | {n.left} | right
    if isinstance(n, D.Aggregate):
        return set(n.group_cols) | {a.over for a in n.aggs if a.over is not None}
    if isinstance(n, D.DistinctCount):
        return {n.col}
    if isinstance(n, D.Project):
        return set(n.cols)
    if isinstance(n, D.Join):
        key = (n.left_key, n.right_key)[i]
        return (need & set(parent.out_cols)) | ({key} if key else set())
    return set(parent.out_cols)  # a concat's parts and an output keep all


def _prune_join_columns(dag: D.Dag) -> None:
    """Narrow each join outside the clear to the columns some later node
    reads (at least one, so that its rows stay counted); an output keeps
    every column it has. A clear join is a Spark join, whose optimizer
    prunes columns itself. The filters, sorts, limits and arithmetic
    after a narrowed join then list only the columns they get."""
    order = dag.topo_order()
    needs: dict[int, set[str]] = {}
    for n in reversed(order):
        need = needs.get(id(n), set())
        if isinstance(n, D.Join) and n.site[0] != "clear":
            n.out_cols = [c for c in n.out_cols if c in need] or n.out_cols[:1]
            need = set(n.out_cols)
        for i, p in enumerate(n.parents):
            needs.setdefault(id(p), set()).update(_reads(n, need, i))
    for n in order:
        if isinstance(n, (D.Filter, D.SortBy, D.Limit, D.Arith)):
            got = set(n.parents[0].out_cols)
            if isinstance(n, D.Arith):
                got.add(n.out_col)
            n.out_cols = [c for c in n.out_cols if c in got]


def compile_query(
    outputs: list[D.Output] | D.Output, options: CompileOptions
) -> Plan:
    if isinstance(outputs, D.Output):
        outputs = [outputs]
    dag = D.Dag(outputs)
    rewrites: dict[str, int] = {}

    # 1: sibling aggregations merged, so that the split and the hybrid
    # authorization below see one node; ownership over the query
    rewrites["aggregation_merge"] = merge_aggregations(dag)
    propagate_ownership(dag)

    # 2: frontier push-down
    rewrites["concat_pushdown"] = push_down_concat(dag)
    propagate_ownership(dag)
    if options.allow_cardinality_leaking_pushdown:
        rewrites["aggregation_split"] = split_aggregations(dag)
        propagate_ownership(dag)
        # local pre-aggregations may expose new concat push-down chances
        rewrites["concat_pushdown"] += push_down_concat(dag)
        propagate_ownership(dag)

    # 3: trust propagation over the rewritten DAG
    propagate_trust(dag, options.parties)

    # 4: hybrid rewrites (authorization from propagated trust sets)
    rewrites["hybrid"] = apply_hybrid_rewrites(
        dag,
        options.parties,
        enable_hybrid=options.enable_hybrid,
        enable_public_join=options.enable_public_join,
    )

    # 5: push-up
    if options.enable_push_up:
        rewrites["push_up"] = push_up(dag)
        propagate_ownership(dag)
        propagate_trust(dag, options.parties)

    # 6: site assignment, then sort tracking and column pruning, which
    # read the sites
    _assign_sites(dag)
    track_sort_orders(dag, enabled=options.enable_sort_elimination)
    _prune_join_columns(dag)
    return Plan(dag=dag, options=options, rewrites=rewrites)
