"""Benchmark for Table T2 (Figure 4): market-concentration query —
Conclave vs pure-Sharemind vs insecure Spark."""
from repro.bench_util import format_table, sweep
from repro.tables import table2_market


def test_table2_market(benchmark, spark):
    points = benchmark.pedantic(
        lambda: sweep(spark, table2_market, quick=True), rounds=1, iterations=1
    )
    print("\n" + format_table("T2 (Fig.4): market concentration (quick)", points))
    by = {(p.system, p.n): p for p in points}
    # Conclave beats whole-query MPC by a widening margin
    assert by[("conclave", 10_000)].seconds < by[("sharemind", 10_000)].seconds
    ratio_small = by[("sharemind", 1000)].seconds / by[("conclave", 1000)].seconds
    ratio_big = by[("sharemind", 10_000)].seconds / by[("conclave", 10_000)].seconds
    assert ratio_big > ratio_small
