"""Reference model of Laud's oblivious parallel read (*Parallel oblivious
array access for secret sharing and applications to graph algorithms*,
PoPETs 2015), the protocol ``SecretSharingVM.gather`` charges for.

:func:`parallel_read` runs the protocol's steps on cleartext ring values
and counts each step's rounds and words per party pair, so a test can
check both that the steps read the right rows and that the VM's charge
is what they cost. Reading the rows ``idx`` (m of them) of k columns of
n rows:

1. *Index part, once per index vector.* Make n+m records: array position
   j for each row, then read position ``idx[i]`` for each read. Order
   them by (position, array-before-read) into a permutation σ
   (:func:`read_permutation`), prepared for reuse. Either the parties
   sort the records obliviously: ⌈log₂(n+m)⌉ rounds and
   (n+m)·log₂(n+m) words. Or an STP that holds ``idx`` in the clear
   computes σ and deals it (:func:`deal`): each other party's piece is
   drawn at random, the STP's completes σ. The STP sends each of the
   p−1 others its piece in one round, n+m words each: (n+m)/p words per
   ordered pair of parties.
2. *Linear part, per column.* Locally replace each row by its difference
   from the previous row and give each read record 0. Apply σ, so each
   read record follows the row it reads. Take a local prefix sum, which
   gives each read record that row's value. Apply σ⁻¹ and keep the read
   records. Applying a prepared permutation is a resharing pass of each
   party in turn, each applying its piece: p rounds, n+m words per
   column. The columns run side by side, so each application is p rounds
   for all of them.
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


def read_permutation(n: int, idx: np.ndarray) -> np.ndarray:
    """σ: the order of the n+m index records by (position,
    array-before-read)."""
    position = np.concatenate([np.arange(n), idx])
    is_read = np.concatenate([np.zeros(n, bool), np.ones(len(idx), bool)])
    return np.lexsort((is_read, position))


def deal(sigma: np.ndarray, n_parties: int, rng: np.random.Generator) -> list[np.ndarray]:
    """σ split into ``n_parties`` pieces, applied in party order
    (``x[p₁][p₂]…``): the first p−1 drawn from ``rng`` alone, the last,
    the STP's, the one that makes their composition σ."""
    pieces = [rng.permutation(len(sigma)) for _ in range(n_parties - 1)]
    drawn = np.arange(len(sigma))
    for piece in pieces:
        drawn = drawn[piece]
    # drawn[last] = σ
    return pieces + [np.argsort(drawn)[sigma]]


def parallel_read(
    columns: list[np.ndarray], idx: np.ndarray, n_parties: int,
    rng: np.random.Generator | None = None,
) -> tuple[list[np.ndarray], list[Step]]:
    """The rows ``idx`` of each of ``columns`` (uint64 ring values), read
    by the protocol's steps, and the steps with their costs. With ``rng``
    an STP deals σ from pieces it draws; without, the parties sort."""
    n, m, k = len(columns[0]), len(idx), len(columns)
    records = n + m
    sigma = read_permutation(n, idx)
    if rng is None:
        # the sort leaves σ prepared; how it is split is not modelled
        pieces = [sigma]
        log_records = max(1.0, math.log2(max(2, records)))
        steps = [Step("sort the index records", math.ceil(log_records),
                      records * log_records)]
    else:
        pieces = deal(sigma, n_parties, rng)
        steps = [Step("deal sigma", 1, records / n_parties)]
    out = []
    for col in columns:
        x = np.concatenate([np.diff(col, prepend=np.uint64(0)), np.zeros(m, np.uint64)])
        for piece in pieces:
            x = x[piece]
        x = np.cumsum(x, dtype=np.uint64)
        for piece in reversed(pieces):
            back = np.empty_like(x)
            back[piece] = x
            x = back
        out.append(x[n:])
    steps += [Step("apply sigma", n_parties, records * k),
              Step("apply sigma inverse", n_parties, records * k)]
    return out, steps
