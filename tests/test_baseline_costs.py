"""The paper's baselines keep their full oblivious sort.

T2's whole-query ``sharemind`` line and every T3 mode compile with §5.4
sort elimination off, so an MPC aggregation over the parties' concat
sorts every row under MPC instead of merging pre-sorted parts. Their
quick points' simulated cost is pinned (it would move with the merge);
any change here is a cost-model change.

T3's ``mpc-join`` (no STP, so the Cartesian join's matching) reads its
rows with the oblivious indexing whose index records the parties sort;
only a hybrid join's STP deals the read permutation. Its pin fails if
the deal reaches a join with no STP."""
import pytest

from repro.tables import table2_market, table3_hybrid

#: (table, system, n) -> (rounds, bytes_sent)
PINNED = {
    (table2_market, "sharemind", 10_000): (1_139, 700_429_728.0),
    (table3_hybrid, "mpc-agg", 10_000): (1_121, 469_729_056.0),
    (table3_hybrid, "mpc-join", 1_000): (30, 242_960_834.34952632),
}


@pytest.mark.parametrize("table,system,n", list(PINNED),
                         ids=[f"{s}-{n}" for _, s, n in PINNED])
def test_baseline_point_cost_is_pinned(spark, table, system, n):
    m = table.point(spark, system, n)
    assert (m.rounds, m.bytes_sent) == PINNED[(table, system, n)]

