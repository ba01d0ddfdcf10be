"""Secret-shared relations: the unit of data inside an MPC stage.

A ``SharedRelation`` is a named, ordered set of :class:`SharedVector`
columns of equal length. Row count is public (consistent with the paper:
MPC input sizes are public; intermediate sizes are hidden unless a
rewrite reveals them with authorization).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .secret_sharing import SecretSharingVM, SharedVector


@dataclass
class SharedRelation:
    """Column-oriented secret-shared relation."""

    columns: dict[str, SharedVector]

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

    def project(self, names: list[str]) -> "SharedRelation":
        return SharedRelation({n: self.columns[n] for n in names})

    def rename(self, mapping: dict[str, str]) -> "SharedRelation":
        return SharedRelation(
            {mapping.get(n, n): v for n, v in self.columns.items()}
        )


def share_dataframe(vm: SecretSharingVM, pdf: pd.DataFrame) -> SharedRelation:
    """inputToMPC: secret-share every column of a cleartext pandas frame.

    All MPC-resident columns must be integral (the compiler guarantees
    this: money is cents, codes are int-encoded).
    """
    cols: dict[str, SharedVector] = {}
    for name in pdf.columns:
        vals = pdf[name].to_numpy()
        if not np.issubdtype(vals.dtype, np.integer):
            raise TypeError(
                f"MPC column {name!r} must be integer, got {vals.dtype}"
            )
        cols[name] = vm.share(vals.astype(np.int64))
    return SharedRelation(cols)


def reveal_relation(vm: SecretSharingVM, rel: SharedRelation) -> pd.DataFrame:
    """Open every column of a shared relation to all parties."""
    return pd.DataFrame({n: vm.reveal(v) for n, v in rel.columns.items()})
