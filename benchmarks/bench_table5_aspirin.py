"""Benchmark for Table T5 (Figure 7a): aspirin count — Conclave (public
join + slicing + sort elimination) vs SMCQL (sliced ObliVM MPCs)."""
from repro.bench_util import format_table, sweep
from repro.tables import table5_aspirin


def test_table5_aspirin(benchmark, spark):
    points = benchmark.pedantic(
        lambda: sweep(spark, table5_aspirin, quick=True), rounds=1, iterations=1
    )
    print("\n" + format_table("T5 (Fig.7a): aspirin count (quick)", points))
    by = {(p.system, p.n): p for p in points}
    # paper: 3.7 s (Conclave) vs 14.3 min (SMCQL) at 40k rows/party —
    # the gap must be at least an order of magnitude
    assert by[("conclave", 40_000)].seconds * 10 < by[("smcql", 40_000)].seconds
    # SMCQL's per-slice sessions put 40k in the >10-minute regime
    assert by[("smcql", 40_000)].seconds > 300
