"""Helpers only the tests reach: a public add on shares, opening a whole
shared relation, and the bit encoding of the circuit evaluator's inputs
and outputs."""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.mpc.secret_sharing import SecretSharingVM, SharedVector
from repro.mpc.shared_rel import SharedRelation


def add_public(vm: SecretSharingVM, a: SharedVector, c: np.ndarray | int) -> SharedVector:
    """``a`` plus a public constant or vector, share-local."""
    c = np.broadcast_to(np.asarray(c, dtype=np.int64), (len(a),))
    return vm.add(a, vm.public(c))


def reveal_relation(vm: SecretSharingVM, rel: SharedRelation) -> pd.DataFrame:
    """Open every column of a shared relation to all parties."""
    return pd.DataFrame({n: vm.reveal(v) for n, v in rel.columns.items()})


def int_to_bits(x: int, k: int) -> list[int]:
    """The k low bits of ``x``, least significant first."""
    return [(x >> i) & 1 for i in range(k)]


def bits_to_int(bits: list[int]) -> int:
    """The integer whose bits, least significant first, are ``bits``."""
    return sum(b << i for i, b in enumerate(bits))
