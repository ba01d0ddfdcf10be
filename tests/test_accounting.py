"""Tests for the cost-accounting meter and hybrid clock."""
import time

import pytest

from repro.mpc.accounting import (
    BANDWIDTH_BPS,
    RTT_SECONDS,
    Meter,
    SimulatedOOM,
)


def test_comm_charges_accumulate():
    m = Meter()
    m.charge_comm(rounds=3, bytes_sent=1000)
    m.charge_comm(rounds=2, bytes_sent=500)
    assert m.rounds == 5
    assert m.bytes_sent == 1500


def test_charges_together_overlap_their_rounds():
    """Independent sends in one block: bytes add up, the block costs the
    rounds of its longest step, and a block inside it joins it."""
    m = Meter()
    m.charge_comm(rounds=2, bytes_sent=10)
    with m.together():
        m.charge_comm(rounds=1, bytes_sent=100)
        with m.together():
            m.charge_comm(rounds=3, bytes_sent=100)
        m.charge_comm(rounds=1, bytes_sent=100)
    m.charge_comm(rounds=1, bytes_sent=10)
    assert (m.rounds, m.bytes_sent) == (2 + 3 + 1, 320)


def test_network_seconds_formula():
    m = Meter()
    m.charge_comm(rounds=10, bytes_sent=BANDWIDTH_BPS / 8)  # 1 s of bytes
    assert m.network_seconds() == pytest.approx(10 * RTT_SECONDS + 1.0)


def test_gate_seconds_uses_meter_rate():
    fast = Meter(gc_gates_per_second=1e6)
    slow = Meter(gc_gates_per_second=1e3)
    for m in (fast, slow):
        m.charge_gates(and_gates=1e6)
    assert fast.gate_seconds() == pytest.approx(1.0)
    assert slow.gate_seconds() == pytest.approx(1000.0)


def test_charge_gates_also_moves_table_bytes():
    m = Meter()
    b0 = m.bytes_sent
    m.charge_gates(and_gates=100)
    assert m.bytes_sent > b0


def test_memory_cap_raises():
    m = Meter(memory_cap_bytes=100)
    m.charge_memory("small", 50)
    assert m.peak_mem_bytes == 50
    with pytest.raises(SimulatedOOM) as ei:
        m.charge_memory("big", 200)
    assert ei.value.need_bytes == 200
    assert "big" in str(ei.value)


def test_extra_seconds_in_hybrid_clock():
    m = Meter()
    m.charge_extra(5.0)
    assert m.sim_seconds() == pytest.approx(5.0)
    assert m.hybrid_seconds() >= 5.0


def test_wall_clock_restart():
    m = Meter()
    time.sleep(0.01)
    assert m.wall_seconds() >= 0.01
    m.restart_wall()
    assert m.wall_seconds() < 0.01


def test_hybrid_seconds_combines_all_components():
    m = Meter(gc_gates_per_second=1e6)
    m.charge_comm(rounds=100, bytes_sent=0)
    m.charge_gates(and_gates=1e6)
    m.charge_extra(2.0)
    expected_sim = 100 * RTT_SECONDS + m.bytes_sent * 8 / BANDWIDTH_BPS + 1.0 + 2.0
    assert m.sim_seconds() == pytest.approx(expected_sim, rel=1e-6)
    # hybrid clock = sim + wall; wall advances between calls, so bound it
    assert m.hybrid_seconds() >= expected_sim
    assert m.hybrid_seconds() == pytest.approx(expected_sim, abs=0.5)
