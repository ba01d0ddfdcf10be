"""Benchmark for Table T6 (Figure 7b): comorbidity — identical split-
aggregation plan on Conclave's secret-sharing backend vs SMCQL's
ObliVM-style garbled circuits."""
from repro.bench_util import format_table, sweep
from repro.tables import table6_comorbidity


def test_table6_comorbidity(benchmark, spark):
    points = benchmark.pedantic(
        lambda: sweep(spark, table6_comorbidity, quick=True), rounds=1, iterations=1
    )
    print("\n" + format_table("T6 (Fig.7b): comorbidity (quick)", points))
    by = {(p.system, p.n): p for p in points}
    # the backend gap grows with data size (paper: SMCQL >1h at the
    # 20k-entering-MPC mark while Conclave finishes in minutes)
    assert by[("conclave", 20_000)].sim < by[("smcql", 20_000)].sim
    gap_small = by[("smcql", 2000)].sim / max(by[("conclave", 2000)].sim, 1e-9)
    gap_big = by[("smcql", 20_000)].sim / max(by[("conclave", 20_000)].sim, 1e-9)
    assert gap_big > gap_small
