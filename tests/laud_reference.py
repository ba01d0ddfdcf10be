"""Reference model of Laud's oblivious parallel read (*Parallel oblivious
array access for secret sharing and applications to graph algorithms*,
PoPETs 2015), the protocol ``SecretSharingVM.gather`` charges for.

:func:`parallel_read` runs the protocol's steps on cleartext ring values
and counts each step's rounds and words per party pair, so a test can
check both that the steps read the right rows and that the VM's charge
is what they cost. Reading the rows ``idx`` (m of them) of k columns of
n rows:

1. *Index part, once per index vector.* Make n+m records: array position
   j for each row, then read position ``idx[i]`` for each read. Sort
   them by (position, array-before-read) into a permutation σ, prepared
   for reuse. An oblivious sort of n+m records: ⌈log₂(n+m)⌉ rounds and
   (n+m)·log₂(n+m) words.
2. *Linear part, per column.* Locally replace each row by its difference
   from the previous row and give each read record 0. Apply σ, so each
   read record follows the row it reads. Take a local prefix sum, which
   gives each read record that row's value. Apply σ⁻¹ and keep the read
   records. Applying a prepared permutation is a resharing pass of each
   party in turn: p rounds, n+m words per column. The columns run side
   by side, so each application is p rounds for all of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Step:
    what: str
    rounds: int
    words: float  # ring words per ordered pair of parties


def parallel_read(
    columns: list[np.ndarray], idx: np.ndarray, n_parties: int
) -> tuple[list[np.ndarray], list[Step]]:
    """The rows ``idx`` of each of ``columns`` (uint64 ring values), read
    by the protocol's steps, and the steps with their costs."""
    n, m, k = len(columns[0]), len(idx), len(columns)
    records = n + m
    position = np.concatenate([np.arange(n), idx])
    is_read = np.concatenate([np.zeros(n, bool), np.ones(m, bool)])
    sigma = np.lexsort((is_read, position))  # record order after the sort
    log_records = max(1.0, math.log2(max(2, records)))
    steps = [Step("sort the index records", math.ceil(log_records),
                  records * log_records)]
    out = []
    for col in columns:
        diffs = np.concatenate([np.diff(col, prepend=np.uint64(0)),
                                np.zeros(m, np.uint64)])
        sums = np.cumsum(diffs[sigma], dtype=np.uint64)
        back = np.empty_like(sums)
        back[sigma] = sums
        out.append(back[n:])
    steps += [Step("apply sigma", n_parties, records * k),
              Step("apply sigma inverse", n_parties, records * k)]
    return out, steps
