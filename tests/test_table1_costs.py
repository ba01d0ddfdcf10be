"""The simulated cost of every T1 MPC point at n=100 and n=1000.

Each T1 point runs one operator on one MPC backend. These pins cover
rounds, bytes, garbled AND gates and peak memory; any change here is a
cost-model change."""
import pytest

from repro.tables import table1_micro

#: (system, n) -> (rounds, bytes_sent, gc_and_gates, peak_mem_bytes)
PINNED = {
    ("sharemind/agg", 100): (277, 550_640.0, 0.0, 0.0),
    ("sharemind/agg", 1000): (526, 10_910_720.0, 0.0, 0.0),
    ("sharemind/join", 100): (27, 2616049.043986503, 0.0, 240_000.0),
    ("sharemind/join", 1000): (30, 242912162.34952632, 0.0, 24_000_000.0),
    ("sharemind/project", 100): (2, 4_800.0, 0.0, 0.0),
    ("sharemind/project", 1000): (2, 48_000.0, 0.0, 0.0),
    # GC sorts charge the pruned network the secret-sharing backend runs,
    # and the aggregate stages its projected input (8 × n·32·64 B)
    ("oblivc/agg", 100): (1, 12_146_304.0, 369_972.0, 1_638_400.0),
    ("oblivc/agg", 1000): (1, 248_469_696.0, 7_668_678.0, 16_384_000.0),
    ("oblivc/join", 100): (2, 41_254_400.0, 1_270_000.0, 1_459_200.0),
    ("oblivc/join", 1000): (2, 4_070_144_000.0, 127_000_000.0, 72_192_000.0),
    ("oblivc/project", 100): (2, 307_600.0, 0.0, 1_433_600.0),
    ("oblivc/project", 1000): (2, 3_076_000.0, 0.0, 14_336_000.0),
}


@pytest.mark.parametrize("system,n", list(PINNED))
def test_table1_point_cost_is_pinned(spark, system, n):
    m = table1_micro.point(spark, system, n)
    assert (m.rounds, m.bytes_sent, m.gc_and_gates, m.peak_mem_bytes) == PINNED[
        (system, n)
    ]
