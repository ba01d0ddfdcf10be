"""Cost accounting for the simulated MPC substrates.

The paper's runtimes are dominated by costs a single-box simulation does
not pay: network rounds and bytes for secret-sharing MPC (Sharemind), and
garbled-gate throughput plus wire-label memory for garbled-circuit MPC
(Obliv-C / ObliVM). Every simulated protocol therefore *meters* the work
it would have caused, and reported runtimes are

    hybrid_seconds = wall_seconds + network_seconds + gate_seconds

with the constants below (documented in DESIGN.md §2.1). Cleartext Spark
stages are pure wall time. This preserves the *shape* of the paper's
curves (who wins, growth rates, crossovers), which is the reproduction
target; absolute numbers differ from the authors' testbed.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# --- simulated deployment constants -----------------------------------------
#: One WAN-ish round trip between MPC parties (the paper's parties are
#: separate orgs; 1 ms models a fast inter-VM link like the authors' EC2-ish
#: testbed).
RTT_SECONDS = 1e-3
#: Inter-party bandwidth (bits/sec). 1 Gb/s, as in a typical cloud testbed.
BANDWIDTH_BPS = 1e9
#: Garbled-circuit throughput. Obliv-C-era systems garble/evaluate on the
#: order of 10M AND gates per second.
GC_GATES_PER_SECOND = 10e6
#: Bytes per wire label (128-bit labels).
GC_LABEL_BYTES = 16
#: Bytes of garbled-table material per AND gate (half-gates: 2 ciphertexts).
GC_AND_TABLE_BYTES = 2 * GC_LABEL_BYTES
#: Simulated MPC-VM memory cap. The paper's Sharemind VM had 8 GB; the
#: SMCQL experiments used 32 GB VMs (overridden there).
DEFAULT_MEMORY_CAP_BYTES = 8 << 30


class SimulatedOOM(RuntimeError):
    """Raised when a simulated MPC backend exceeds its memory cap.

    Mirrors the paper's "Obliv-C runs out of memory at 30k records" /
    "Sharemind runs out of memory during the hybrid join at 2M" outcomes.
    """

    def __init__(self, what: str, need_bytes: float, cap_bytes: float):
        super().__init__(
            f"simulated OOM in {what}: needs {need_bytes / (1 << 30):.2f} GiB, "
            f"cap {cap_bytes / (1 << 30):.2f} GiB"
        )
        self.what = what
        self.need_bytes = need_bytes
        self.cap_bytes = cap_bytes


@dataclass
class Meter:
    """Accumulates simulated cost alongside real wall time.

    One ``Meter`` is threaded through a single query execution; benchmarks
    read ``hybrid_seconds()`` at the end.
    """

    rounds: int = 0
    bytes_sent: float = 0.0
    gc_and_gates: float = 0.0
    peak_mem_bytes: float = 0.0
    memory_cap_bytes: float = DEFAULT_MEMORY_CAP_BYTES
    #: Per-meter gate throughput: Obliv-C-class engines garble ~10M
    #: AND/s; ObliVM (Java, used by SMCQL) is orders of magnitude slower.
    gc_gates_per_second: float = GC_GATES_PER_SECOND
    #: Fixed simulated seconds (e.g. per-MPC-session setup: SMCQL spawns
    #: one ObliVM circuit per slice, ~1 s each — the dominant cost of its
    #: sliced execution at scale).
    extra_seconds: float = 0.0
    _wall_start: float = field(default_factory=time.perf_counter)
    #: the rounds before the open :meth:`together` block, None outside one
    _together_from: int | None = field(default=None, init=False, repr=False)

    # -- secret-sharing style costs ------------------------------------
    def charge_comm(self, *, rounds: int, bytes_sent: float) -> None:
        """Record a communication step: ``rounds`` sequential round trips
        carrying ``bytes_sent`` total bytes between the parties. Inside a
        :meth:`together` block the step's rounds overlap the block's."""
        if self._together_from is None:
            self.rounds += rounds
        else:
            self.rounds = max(self.rounds, self._together_from + rounds)
        self.bytes_sent += bytes_sent

    @contextmanager
    def together(self):
        """The steps charged in the block are independent sends that go out
        at once, as the parties' inputToMPC of one MPC boundary does: their
        bytes add up, and the block costs the rounds of its longest step. A
        block opened inside another one joins it."""
        if self._together_from is not None:
            yield
            return
        self._together_from = self.rounds
        try:
            yield
        finally:
            self._together_from = None

    # -- garbled-circuit style costs -----------------------------------
    def charge_gates(self, *, and_gates: float) -> None:
        """Record garbling+evaluation of a circuit chunk's AND gates
        (free-XOR: XORs cost no cryptographic work or table bytes)."""
        self.gc_and_gates += and_gates
        # Garbled tables cross the network once (garbler -> evaluator).
        self.bytes_sent += and_gates * GC_AND_TABLE_BYTES

    def charge_memory(self, what: str, live_bytes: float) -> None:
        """Record peak live memory of a protocol step; raise SimulatedOOM
        if it exceeds the simulated VM's cap."""
        self.peak_mem_bytes = max(self.peak_mem_bytes, live_bytes)
        if live_bytes > self.memory_cap_bytes:
            raise SimulatedOOM(what, live_bytes, self.memory_cap_bytes)

    # -- reading the clock ---------------------------------------------
    def wall_seconds(self) -> float:
        return time.perf_counter() - self._wall_start

    def network_seconds(self) -> float:
        return self.rounds * RTT_SECONDS + (self.bytes_sent * 8) / BANDWIDTH_BPS

    def gate_seconds(self) -> float:
        return self.gc_and_gates / self.gc_gates_per_second

    def charge_extra(self, seconds: float) -> None:
        self.extra_seconds += seconds

    def sim_seconds(self) -> float:
        """All simulated (non-wall) cost components."""
        return self.network_seconds() + self.gate_seconds() + self.extra_seconds

    def hybrid_seconds(self) -> float:
        """Wall time plus all simulated components — the number every
        results table reports."""
        return self.wall_seconds() + self.sim_seconds()

    def restart_wall(self) -> None:
        self._wall_start = time.perf_counter()
