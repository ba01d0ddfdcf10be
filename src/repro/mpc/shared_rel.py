"""Secret-shared relations: the unit of data inside an MPC stage.

A ``SharedRelation`` is a named, ordered set of :class:`SharedVector`
columns of equal length. Row count is public (consistent with the paper:
MPC input sizes are public; intermediate sizes are hidden unless a
rewrite reveals them with authorization). Columns computed by fixed-point
division carry a power-of-two *scale* that the backend divides out on
reveal; every protocol that rebuilds a relation keeps the scales.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pandas as pd

from .secret_sharing import SecretSharingVM, SharedVector


@dataclass
class SharedRelation:
    """Column-oriented secret-shared relation. ``scales`` maps a
    fixed-point column to its fraction bits (absent: an integer column)."""

    columns: dict[str, SharedVector]
    scales: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        lens = {len(v) for v in self.columns.values()}
        if len(lens) > 1:
            raise ValueError(f"ragged shared relation: {lens}")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    @property
    def column_names(self) -> list[str]:
        return list(self.columns.keys())

    def scale_of(self, col: str) -> int:
        return self.scales.get(col, 0)

    def with_columns(self, columns: dict[str, SharedVector]) -> "SharedRelation":
        """A relation over ``columns`` that keeps this one's scales of the
        columns it still has (for rebuilding the same columns)."""
        return SharedRelation(
            columns, {c: s for c, s in self.scales.items() if c in columns}
        )

    def project(self, names: list[str]) -> "SharedRelation":
        return self.with_columns({n: self.columns[n] for n in names})


def share_dataframe(
    vm: SecretSharingVM, pdf: pd.DataFrame, public: Sequence[str] = ()
) -> SharedRelation:
    """inputToMPC: secret-share every column of a cleartext pandas frame,
    all columns sent in the same round. A ``public`` column, which every
    party holds in the clear already, enters as its trivial sharing
    (:meth:`SecretSharingVM.public`), free.

    All MPC-resident columns must be integral (the compiler guarantees
    this: money is cents, codes are int-encoded).
    """
    cols: dict[str, SharedVector] = {}
    with vm.meter.together():
        for name in pdf.columns:
            vals = pdf[name].to_numpy()
            if not np.issubdtype(vals.dtype, np.integer):
                raise TypeError(
                    f"MPC column {name!r} must be integer, got {vals.dtype}"
                )
            vals = vals.astype(np.int64)
            cols[name] = vm.public(vals) if name in public else vm.share(vals)
    return SharedRelation(cols)

