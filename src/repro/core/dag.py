"""The relational operator DAG that Conclave compiles (§4, §5).

Nodes carry the results of the analysis passes:

* ``owner`` — the party that can derive the relation locally, or None
  for a partitioned/combined relation (§5.1 pass 1);
* ``trust`` — per-column trust sets (§5.1 pass 2);
* ``site`` — where the compiled plan executes the node:
  ``("clear", party)``, ``("mpc",)``, ``("hybrid", stp)`` or
  ``("public", party)``;
* ``forced_site`` — a site a rewrite pinned, which site assignment
  takes over ownership;
* ``sorted_by`` / ``input_sorted`` / ``presort`` — sort-order tracking
  for the §5.4 sort-elimination optimization: ``input_sorted`` is True
  when a sort-based MPC operator's input comes in its key order, as one
  run or as the parts of a concat whose ``presort`` has each party
  order its part before inputToMPC, so the sort is only a merge.

The §5.2 push-down rewrites replace nodes. The §5.3 hybrid rewrites and
the §5.2 push-up only pin sites: a hybrid or public join is a ``Join``
and a hybrid aggregation an ``Aggregate`` whose site says how it runs.
The physical plan is simply the annotated DAG in topological order,
interpreted by the runtime engine.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .columns import Column, Party

_ids = itertools.count()

SUM = "sum"
COUNT = "count"


@dataclass(eq=False)
class Node:
    """Base operator node. ``parents`` are upstream nodes; ``out_cols``
    is the output schema (column names, all int-typed under MPC)."""

    parents: list["Node"]
    out_cols: list[str]
    name: str = ""
    # analysis annotations
    owner: str | None = None
    trust: dict[str, frozenset[str]] = field(default_factory=dict)
    site: tuple | None = None
    #: pinned by a rewrite, ahead of ownership: ``("public", party)`` or
    #: ``("hybrid", stp)`` on a join or aggregation by the §5.3 hybrid
    #: rewrites, ``("clear", recipient)`` by the §5.2 push-up
    forced_site: tuple | None = None
    sorted_by: str | None = None
    input_sorted: bool = False

    def __post_init__(self):
        if not self.name:
            self.name = f"{type(self).__name__.lower()}_{next(_ids)}"


@dataclass(eq=False)
class Input(Node):
    """A party's input relation (``newTable``)."""

    party: Party = None  # type: ignore[assignment]
    schema: list[Column] = field(default_factory=list)


@dataclass(eq=False)
class Concat(Node):
    """Duplicate-preserving union of same-schema relations (possibly
    owned by different parties) — the paper's multi-party input builder.
    Under MPC, ``presort`` (key, descending) has each party sort its part
    by the key before inputToMPC, for the operator that merges the parts
    as sorted runs, whose lengths inputToMPC makes public."""

    presort: tuple[str, bool] | None = None


@dataclass(eq=False)
class Project(Node):
    cols: list[str] = field(default_factory=list)


@dataclass(eq=False)
class Filter(Node):
    col: str = ""
    op: str = "=="  # ==, !=, <, >, <=, >=
    value: int = 0


@dataclass(eq=False)
class Arith(Node):
    """out_col = left <op> right, appended to the schema. ``right`` is a
    column name or an int scalar; op in {*, /}. Division under MPC is
    fixed-point (engine tracks scales); in the clear it is float."""

    out_col: str = ""
    left: str = ""
    op: str = "*"
    right: str | int = 1


class Agg(NamedTuple):
    """One output of an aggregation: ``out_col = op(over)`` per group
    (``over`` is None for COUNT)."""

    op: str
    over: str | None
    out_col: str


@dataclass(eq=False)
class Aggregate(Node):
    """Grouped or scalar SUM/COUNT outputs over one pass of the input.
    Output schema: group_cols + each output's out_col. Under MPC, site
    ``("hybrid", stp)`` runs the §5.3 hybrid aggregation."""

    group_cols: list[str] = field(default_factory=list)
    aggs: list[Agg] = field(default_factory=list)
    # set by the §5.2 aggregation-split rewrite on the MPC-side combiner
    secondary: bool = False


@dataclass(eq=False)
class Join(Node):
    """Inner equi-join on single key columns; output key column keeps the
    left name. Empty keys = cross join (used for scalar broadcast). Under
    MPC, site ``("hybrid", stp)`` runs the §5.3 hybrid join and
    ``("public", party)`` the public join."""

    left_key: str = ""
    right_key: str = ""


@dataclass(eq=False)
class DistinctCount(Node):
    col: str = ""
    out_col: str = "distinct_count"


@dataclass(eq=False)
class SortBy(Node):
    col: str = ""
    ascending: bool = True


@dataclass(eq=False)
class Limit(Node):
    n: int = 10


@dataclass(eq=False)
class Output(Node):
    """writeToCSV(to=...): reveal the result to the recipient parties."""

    recipients: list[Party] = field(default_factory=list)


class Dag:
    """A query DAG: the output nodes plus traversal helpers."""

    def __init__(self, outputs: list[Output]):
        self.outputs = outputs

    def topo_order(self) -> list[Node]:
        seen: dict[int, Node] = {}
        order: list[Node] = []

        def visit(n: Node):
            if id(n) in seen:
                return
            seen[id(n)] = n
            for p in n.parents:
                visit(p)
            order.append(n)

        for o in self.outputs:
            visit(o)
        return order

    def consumers(self) -> dict[int, list[Node]]:
        cons: dict[int, list[Node]] = {}
        for n in self.topo_order():
            for p in n.parents:
                cons.setdefault(id(p), []).append(n)
        return cons

    def replace_node(self, old: Node, new: Node) -> None:
        """Point every consumer of ``old`` (and the output list) at ``new``."""
        for n in self.topo_order():
            n.parents = [new if p is old else p for p in n.parents]
        self.outputs = [new if o is old else o for o in self.outputs]  # type: ignore[misc]

    def nodes_of_type(self, cls) -> list[Node]:
        return [n for n in self.topo_order() if isinstance(n, cls)]
