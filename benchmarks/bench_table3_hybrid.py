"""Benchmark for Table T3 (Figure 5): hybrid operator microbenchmarks —
MPC vs hybrid vs public join; MPC vs hybrid aggregation."""
from repro.bench_util import format_table, sweep
from repro.tables import table3_hybrid


def test_table3_hybrid(benchmark, spark):
    points = benchmark.pedantic(
        lambda: sweep(spark, table3_hybrid, quick=True), rounds=1, iterations=1
    )
    print("\n" + format_table("T3 (Fig.5): hybrid operators (quick)", points))
    by = {(p.system, p.n): p for p in points}
    # hybrid join is asymptotically better than the MPC join (§7.2)
    assert by[("hybrid-join", 10_000)].sim < by[("mpc-join", 1000)].sim * 100
    assert by[("hybrid-join", 1000)].sim < by[("mpc-join", 1000)].sim
    # the public join is cheapest of all
    assert by[("public-join", 10_000)].sim < by[("hybrid-join", 10_000)].sim
    # hybrid aggregation beats MPC aggregation at the same size
    assert by[("hybrid-agg", 10_000)].sim < by[("mpc-agg", 10_000)].sim
