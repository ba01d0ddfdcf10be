"""The benchmark's workloads: which paper query, which compiler options,
which input sizes, and which layers each one stresses or bypasses.

Each workload is chosen so that a layer a later optimisation targets does
most of the work in one workload and almost none in another (see
``perfbench/README.md`` for the predictions).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import ModuleType

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class Workload:
    name: str
    query: str  # module under repro.queries
    sizes: dict  # keyword arguments of the query's gen_inputs
    options: dict = field(default_factory=dict)  # CompileOptions overrides
    stresses: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()
    why: str = ""

    def module(self) -> ModuleType:
        import importlib

        return importlib.import_module(f"repro.queries.{self.query}")

    def gen(self, seed: int, scale: float = 1.0) -> dict[str, pd.DataFrame]:
        sizes = {k: max(8, int(v * scale)) if isinstance(v, int) else v
                 for k, v in self.sizes.items()}
        return self.module().gen_inputs(seed=seed, **sizes)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # not in BENCHMARK.json, whose run budget fits three workloads
        # (see README.md); kept for runs by hand and the self-test
        Workload(
            "hhi-pushdown", "market_concentration", {"n_per_party": 100_000},
            stresses=("spark", "core"),
            bypasses=("sharemind", "protocols", "vm"),
            why="HHI (s7.1) with the s5.2 split: Spark pre-aggregates every "
                "row, 9 rows enter MPC; bypass case for mpc.* changes",
        ),
        Workload(
            "hhi-mpc", "market_concentration", {"n_per_party": 4_000},
            options={"allow_cardinality_leaking_pushdown": False,
                     "enable_push_up": False},
            stresses=("vm", "protocols", "sharemind"),
            bypasses=("spark",),
            why="HHI wholly under MPC: Batcher sort padded to a power of two, "
                "share draws and Beaver muls dominate; Spark does little",
        ),
        Workload(
            "aspirin-public", "aspirin",
            {"n_per_party": 20_000, "overlap_frac": 0.02},
            stresses=("spark", "engine"),
            bypasses=("protocols",),
            why="aspirin count (s7.4) as a public join: every input row is "
                "collected from Spark to pandas, only joined rows enter MPC",
        ),
        Workload(
            "credit-hybrid", "credit_card", {"n_holders": 10_000},
            stresses=("sharemind", "protocols", "vm", "spark", "engine"),
            why="credit regulation (s7.3): hybrid join and two hybrid "
                "aggregations, STP round trips through Spark, shuffles",
        ),
    )
}


def input_rows(gen: dict[str, pd.DataFrame]) -> int:
    return sum(len(df) for df in gen.values())


def check_result(got: pd.DataFrame, expected: pd.DataFrame) -> str | None:
    """None if ``got`` equals the oracle's ``expected``, else a reason.

    Integer columns must match exactly; float columns (HHI, the credit
    average: fixed-point division under MPC) within 1e-4.
    """
    if set(got.columns) != set(expected.columns):
        return f"columns {sorted(got.columns)} != {sorted(expected.columns)}"
    if len(got) != len(expected):
        return f"{len(got)} rows != {len(expected)}"
    exact = [c for c in expected.columns
             if np.issubdtype(expected[c].dtype, np.integer)]
    if exact:
        got = got.sort_values(exact).reset_index(drop=True)
        expected = expected.sort_values(exact).reset_index(drop=True)
    for c in expected.columns:
        g = got[c].to_numpy(dtype=np.float64)
        e = expected[c].to_numpy(dtype=np.float64)
        if c in exact:
            if not np.array_equal(g, e):
                return f"column {c} differs"
        elif not np.allclose(g, e, rtol=0.0, atol=1e-4, equal_nan=True):
            return f"column {c} off by {np.nanmax(np.abs(g - e))}"
    return None
