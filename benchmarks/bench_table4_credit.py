"""Benchmark for Table T4 (Figure 6): credit-card regulation query —
Conclave's hybrid operators vs whole-query Sharemind MPC."""
from repro.bench_util import format_table, sweep
from repro.tables import table4_credit


def test_table4_credit(benchmark, spark):
    points = benchmark.pedantic(
        lambda: sweep(spark, table4_credit, quick=True), rounds=1, iterations=1
    )
    print("\n" + format_table("T4 (Fig.6): credit-card regulation (quick)", points))
    by = {(p.system, p.n): p for p in points}
    assert by[("conclave-hybrid", 3000)].sim < by[("sharemind", 3000)].sim
    # the MPC join's quadratic cost dominates the pure-Sharemind curve
    assert by[("sharemind", 3000)].sim > 5 * by[("sharemind", 300)].sim
