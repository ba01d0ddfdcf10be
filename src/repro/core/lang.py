"""LINQ-style query frontend (§4.2, Listings 1 & 2).

Analysts build queries against :class:`Rel` handles as though all data
sat in one database; the only multi-party artifacts are the ``at=``
owner annotation on input tables, optional ``trust=`` / ``public=``
column annotations, and the ``to=`` recipients on outputs.

Example (the paper's credit-card query, Listing 1)::

    pA, pB, pC = Party("regulator"), Party("bank1"), Party("bank2")
    demo = newTable([Column("ssn"), Column("zip")], at=pA)
    bank = [Column("ssn", trust=(pA,)), Column("score")]
    scores = concat([newTable(bank, at=pB), newTable(bank, at=pC)])
    joined = demo.join(scores, left="ssn", right="ssn")
    ...
"""
from __future__ import annotations

from .columns import Column, Party
from . import dag as D


class Rel:
    """A relation handle wrapping a DAG node; every method appends an
    operator node and returns a new handle."""

    def __init__(self, node: D.Node):
        self.node = node

    # ----------------------------------------------------------- unary ops
    def project(self, cols: list[str]) -> "Rel":
        missing = set(cols) - set(self.node.out_cols)
        if missing:
            raise ValueError(f"unknown columns {missing}")
        return Rel(D.Project([self.node], list(cols), cols=list(cols)))

    def filter(self, col: str, op: str, value: int) -> "Rel":
        if col not in self.node.out_cols:
            raise ValueError(f"unknown column {col}")
        return Rel(
            D.Filter([self.node], list(self.node.out_cols), col=col, op=op, value=value)
        )

    def aggregate(
        self,
        out_col: str,
        agg_op: str,
        *,
        group: list[str] | None = None,
        over: str | None = None,
    ) -> "Rel":
        group = list(group or [])
        if agg_op not in (D.SUM, D.COUNT):
            raise ValueError(f"unknown aggregation {agg_op!r}")
        if agg_op == D.SUM and over is None:
            raise ValueError("SUM needs an `over` column")
        return Rel(
            D.Aggregate(
                [self.node],
                group + [out_col],
                group_cols=group,
                aggs=[D.Agg(agg_op, over, out_col)],
            )
        )

    def multiply(self, out_col: str, left: str, right: str | int) -> "Rel":
        return Rel(
            D.Arith(
                [self.node],
                list(self.node.out_cols) + [out_col],
                out_col=out_col, left=left, op="*", right=right,
            )
        )

    def divide(self, out_col: str, left: str, *, by: str | int) -> "Rel":
        return Rel(
            D.Arith(
                [self.node],
                list(self.node.out_cols) + [out_col],
                out_col=out_col, left=left, op="/", right=by,
            )
        )

    def join(self, other: "Rel", *, left: str = "", right: str = "") -> "Rel":
        lcols = self.node.out_cols
        rcols = other.node.out_cols
        out = list(lcols) + [c for c in rcols if c != right]
        dup = set(lcols) & (set(rcols) - {right})
        if dup:
            raise ValueError(f"join would duplicate columns {dup}; rename first")
        return Rel(
            D.Join([self.node, other.node], out, left_key=left, right_key=right)
        )

    def cross(self, other: "Rel") -> "Rel":
        out = list(self.node.out_cols) + list(other.node.out_cols)
        return Rel(D.Join([self.node, other.node], out, left_key="", right_key=""))

    def distinct_count(self, col: str, out_col: str = "distinct_count") -> "Rel":
        return Rel(D.DistinctCount([self.node], [out_col], col=col, out_col=out_col))

    def sort_by(self, col: str, *, ascending: bool = True) -> "Rel":
        return Rel(
            D.SortBy([self.node], list(self.node.out_cols), col=col, ascending=ascending)
        )

    def limit(self, n: int) -> "Rel":
        return Rel(D.Limit([self.node], list(self.node.out_cols), n=n))

    # --------------------------------------------------------------- output
    def collect(self, to: list[Party]) -> D.Output:
        """Terminal: reveal this relation to ``to`` (writeToCSV analog)."""
        return D.Output([self.node], list(self.node.out_cols), recipients=list(to))


def newTable(schema: list[Column], *, at: Party, name: str = "") -> Rel:
    node = D.Input(
        [], [c.name for c in schema], party=at, schema=list(schema),
        name=name or f"input_{at.name}_{len(schema)}",
    )
    return Rel(node)


def concat(rels: list[Rel]) -> Rel:
    cols0 = rels[0].node.out_cols
    for r in rels[1:]:
        if r.node.out_cols != cols0:
            raise ValueError("concat requires identical schemas")
    return Rel(D.Concat([r.node for r in rels], list(cols0)))
