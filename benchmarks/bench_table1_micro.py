"""Benchmark for Table T1 (Figure 1): single-operator scalability of
Sharemind-sim / Obliv-C-sim / Spark. Runs the quick sweep and checks
the paper's shape: MPC operators are orders of magnitude slower than
cleartext Spark, and the GC join hits its memory cliff."""
from repro.bench_util import format_table, sweep
from repro.tables import table1_micro


def test_table1_micro(benchmark, spark):
    points = benchmark.pedantic(
        lambda: sweep(spark, table1_micro, quick=True), rounds=1, iterations=1
    )
    print("\n" + format_table("T1 (Fig.1): single-operator scalability (quick)", points))
    by = {(p.system, p.n): p for p in points}
    # Obliv-C's join OOMs in the tens-of-thousands regime (paper: 30k)
    assert by[("oblivc/join", 40_000)].status == "oom"
    # MPC is orders of magnitude slower than cleartext Spark at 10k
    assert (
        by[("sharemind/agg", 10_000)].seconds
        > 10 * by[("spark/agg", 10_000)].seconds or
        by[("sharemind/agg", 10_000)].seconds > 1.0
    )
    # join cost grows superlinearly under secret sharing
    assert (
        by[("sharemind/join", 3000)].seconds
        > 3 * by[("sharemind/join", 1000)].seconds
    )
