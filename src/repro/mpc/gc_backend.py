"""Garbled-circuit relational backend (the Obliv-C / ObliVM substrate).

Executes relational operators "under 2-party garbled circuits": results
are computed semantically (bit-for-bit what the circuits in
:mod:`repro.mpc.circuits` compute), while **time** is charged from the
exact AND-gate counts of those circuits and **memory** from retained
wire-label state. Exceeding the simulated VM's memory cap raises
:class:`~repro.mpc.accounting.SimulatedOOM` — reproducing the paper's
"Obliv-C runs out of memory at 30k records (join) / 300k (projection)"
observations (§2.3).

:class:`GCBackend` is the engine's Obliv-C backend for MPC stages and,
at ObliVM's gate rate, the MPC backend of the SMCQL baseline; T1 and T6
reach it only through the engine's backend interface. A filter keeps
every row and adds a ``__mask`` column that later operators honour and
:meth:`GCBackend.reveal` applies; a sort or limit over a filtered
relation, and a group-by on more than one column, raise
``NotImplementedError`` as on the secret-sharing backend. The paper's
hybrid protocols are built on the secret-sharing backend: a
:meth:`GCBackend.join` or :meth:`GCBackend.aggregate` that names an STP
raises ``NotImplementedError``. Every sort is charged one
compare-and-swap circuit per comparator of the Batcher network the
secret-sharing backend runs on the real rows
(:func:`repro.mpc.protocols.sort_comparators`).

Calibration constants (documented in DESIGN.md §2.1):

* ``BIT_WIDTH = 32`` — Obliv-C's default obliv int;
* ``WIRE_BYTES=64`` — 16-byte labels × 4 for allocator/bookkeeping
  overhead, calibrated so the OOM thresholds land in the paper's regime;
* input staging holds 3 label copies (garbler's two + evaluator's one).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd

from .accounting import GC_LABEL_BYTES, Meter
from .circuits import gate_counts
from .protocols import join_index_pairs, sort_comparators

BIT_WIDTH = 32
WIRE_BYTES = 4 * GC_LABEL_BYTES
#: Bytes moved per evaluator input bit (oblivious transfer, ~3 labels).
OT_BYTES_PER_BIT = 3 * GC_LABEL_BYTES
#: ObliVM (SMCQL's backend, Java) is far slower than Obliv-C (§7.4):
#: calibrated so 20k-row MPC aggregation+sort lands in the >1 h regime.
OBLIVM_GATES_PER_SECOND = 1e5
MASK = "__mask"


@dataclass
class GCRelation:
    """A relation held inside the garbled computation.

    ``pdf`` is the semantic value (what the circuit wires encode); all
    columns are int64. Its wire-label memory is charged to the meter by
    the operator that holds it."""

    pdf: pd.DataFrame

    @property
    def n_rows(self) -> int:
        return len(self.pdf)

    @property
    def n_cols(self) -> int:
        return len(self.pdf.columns)

    def kept(self) -> pd.DataFrame:
        """The rows a filter kept (mask=1), without the mask column."""
        pdf = self.pdf
        return pdf[pdf[MASK] == 1].drop(columns=MASK) if MASK in pdf.columns else pdf


class GCBackend:
    """One 2-party garbled-circuit session with metered cost."""

    name = "oblivc"

    def __init__(self, meter: Meter):
        self.meter = meter

    # ------------------------------------------------------------ helpers
    def _bits(self, n_rows: int, n_cols: int) -> float:
        return float(n_rows) * n_cols * BIT_WIDTH

    def _charge_live(self, what: str, bits: float) -> None:
        self.meter.charge_memory(what, bits * WIRE_BYTES)

    # -------------------------------------------------------------- input
    def input_rel(self, pdf: pd.DataFrame, public: Sequence[str] = ()) -> GCRelation:
        """Encode a cleartext relation into wire labels (garbler side) /
        receive labels via OT (evaluator side). ``public`` is ignored:
        every column is encoded."""
        pdf = pdf.reset_index(drop=True).astype(np.int64)
        bits = self._bits(len(pdf), len(pdf.columns))
        self._charge_live("gc input staging", bits * 3)
        self.meter.charge_comm(rounds=1, bytes_sent=bits * OT_BYTES_PER_BIT)
        return GCRelation(pdf)

    def reveal(self, rel: GCRelation, _party: str) -> pd.DataFrame:
        """Decode output wires to cleartext at one party (sends it the
        decode bits), dropping masked-out rows."""
        self.meter.charge_comm(
            rounds=1, bytes_sent=self._bits(rel.n_rows, rel.n_cols) / 8
        )
        return rel.kept().reset_index(drop=True)

    # ---------------------------------------------------------- operators
    def concat(self, rels: list[GCRelation]) -> GCRelation:
        pdf = pd.concat([r.pdf for r in rels], ignore_index=True)
        if MASK in pdf.columns:  # an unfiltered part keeps every row
            pdf[MASK] = pdf[MASK].fillna(1).astype(np.int64)
        return GCRelation(pdf)

    def take(self, rel: GCRelation, idx: np.ndarray) -> GCRelation:
        """Rows at public positions ``idx``: wire selection, no ANDs."""
        return GCRelation(rel.pdf.iloc[idx].reset_index(drop=True))

    def concat_columns(self, a: GCRelation, b: GCRelation) -> GCRelation:
        """The columns of ``a`` and ``b`` (same row count) side by side, a
        row kept only where both sides' filter masks keep it: rewiring."""
        cols = {c: v.to_numpy() for c, v in [*a.pdf.items(), *b.pdf.items()]}
        if MASK in a.pdf.columns and MASK in b.pdf.columns:
            cols[MASK] = a.pdf[MASK].to_numpy() * b.pdf[MASK].to_numpy()
        return GCRelation(pd.DataFrame(cols))

    def project(self, rel: GCRelation, cols: list[str]) -> GCRelation:
        """Projection, keeping the filter mask: wire rewiring only (no
        ANDs), but the full input must be staged — this is what OOMs
        Obliv-C at ~300k records."""
        keep = [c for c in cols if c != MASK] + (
            [MASK] if MASK in rel.pdf.columns else []
        )
        self._charge_live(
            "gc project",
            self._bits(rel.n_rows, rel.n_cols) * 3
            + self._bits(rel.n_rows, len(keep)),
        )
        return GCRelation(rel.pdf[keep].copy())

    def filter_eq(self, rel: GCRelation, col: str, const: int) -> GCRelation:
        """Oblivious filter: eq-compare each row against the constant.
        Size-preserving in the real circuit; the mask is tracked
        semantically by zeroing non-matching rows' payloads."""
        eq_and, _ = gate_counts("eq", BIT_WIDTH)
        n = rel.n_rows
        self.meter.charge_gates(and_gates=n * eq_and)
        self._charge_live("gc filter", self._bits(n, rel.n_cols + 1))
        mask = (rel.pdf[col].to_numpy() == const).astype(np.int64)
        out = rel.pdf.copy()
        out[MASK] = mask if MASK not in out.columns else mask * out[MASK].to_numpy()
        return GCRelation(out)

    def arith(self, rel: GCRelation, out: str, left: str, op: str, right) -> GCRelation:
        raise NotImplementedError(
            "garbled-circuit backend supports relational ops only in this "
            "reproduction; arithmetic-heavy queries run on Sharemind (§7.4)"
        )

    def join(
        self, left: GCRelation, right: GCRelation, lk: str, rk: str,
        *, cols: Sequence[str] | None = None, stp: str | None = None,
    ) -> GCRelation:
        """Cartesian-product join: n·m equality circuits plus muxes for
        the output columns ``cols`` (None: every column; a filter mask is
        kept). The n·m match flags are retained wire state — this is what
        OOMs Obliv-C at ~30k records; the pairs they mark come from
        :func:`join_index_pairs`. The §5.3 hybrid join (``stp``) needs
        the secret-sharing backend."""
        if stp is not None:
            raise NotImplementedError("hybrid operators need the secret-sharing backend")
        if not lk:
            raise NotImplementedError("cross join unsupported on GC backend")
        n, m = left.n_rows, right.n_rows
        eq_and, _ = gate_counts("eq", BIT_WIDTH)
        mux_and, _ = gate_counts("mux", BIT_WIDTH)
        lkeep, rkeep = (
            [c for c in r.pdf.columns
             if c != drop and (cols is None or c in cols or c == MASK)]
            for r, drop in ((left, None), (right, rk))
        )
        self._charge_live(
            "gc join pair flags",
            float(n) * m + self._bits(n, left.n_cols) + self._bits(m, right.n_cols),
        )
        self.meter.charge_gates(
            and_gates=float(n) * m * (eq_and + mux_and * (len(lkeep) + len(rkeep)))
        )
        li, ri = join_index_pairs(
            left.pdf[lk].to_numpy(), right.pdf[rk].to_numpy(), by_key=False
        )
        return self.concat_columns(self.take(GCRelation(left.pdf[lkeep]), li),
                                   self.take(GCRelation(right.pdf[rkeep]), ri))

    def aggregate(
        self, rel: GCRelation, group: list[str], aggs: list[tuple[str, str | None, str]],
        *, runs: Sequence[int] | None = None, stp: str | None = None,
        shuffled: bool = False,
    ) -> GCRelation:
        """The SUM and COUNT outputs ``(op, over, out_col)`` of mask=1
        rows, grouped by at most one column, all in one circuit.

        Ungrouped, an adder chain per output. Grouped, a sort-based
        grouped sum (Jónsson et al. in circuits) over the projected
        (key, values) records, each output's value widening the record by
        ``BIT_WIDTH``: a Batcher sorting network, only its merge levels
        when the input comes in sorted ``runs`` (none for one run), then
        a linear oblivious scan of an eq and, per value, an add and two
        muxes. The output is unpadded (leaks the group
        count), matching SMCQL/Conclave behaviour (§7.4). The §5.3 hybrid
        aggregation (``stp``) needs the secret-sharing backend, so
        ``shuffled``, which only lets it skip its shuffle, is ignored."""
        if stp is not None:
            raise NotImplementedError("hybrid operators need the secret-sharing backend")
        # the column each output sums; a COUNT sums ones
        overs = ["__ones" if op == "count" else over for op, over, _ in aggs]
        if "__ones" in overs:
            pdf = rel.pdf.copy()
            pdf["__ones"] = np.int64(1)
            rel = GCRelation(pdf)
        add_and, _ = gate_counts("add", BIT_WIDTH)
        outs = {out: o for o, (_, _, out) in zip(overs, aggs)}
        if not group:
            self.meter.charge_gates(and_gates=rel.n_rows * add_and * len(aggs))
            kept = rel.kept()
            return GCRelation(pd.DataFrame(
                {out: [np.int64(kept[o].sum())] for out, o in outs.items()}
            ))
        if len(group) != 1:
            raise NotImplementedError("multi-column group-by")
        key, k = group[0], len(aggs)
        rel = self.project(rel, [key, *dict.fromkeys(overs)])
        n = rel.n_rows
        eq_and, _ = gate_counts("eq", BIT_WIDTH)
        mux_and, _ = gate_counts("mux", BIT_WIDTH)
        swap_and, _ = gate_counts("cmp_swap", (1 + k) * BIT_WIDTH)
        gates = n * (eq_and + k * (add_and + 2 * mux_and))
        gates += sort_comparators(n, runs) * swap_and
        self.meter.charge_gates(and_gates=gates)
        self._charge_live("gc aggregation", self._bits(n, 2 + k) * 2)
        sums = rel.kept().groupby(key, as_index=False)
        return GCRelation(sums.agg(**{out: (o, "sum") for out, o in outs.items()}))

    def distinct_count(
        self, rel: GCRelation, col: str, out_col: str, *,
        runs: Sequence[int] | None = None,
    ) -> GCRelation:
        """COUNT(DISTINCT col) (over mask=1 rows if filtered): sort
        network (``runs`` as in :meth:`aggregate`) + eq-scan + counter
        adds."""
        n = rel.n_rows
        eq_and, _ = gate_counts("eq", BIT_WIDTH)
        add_and, _ = gate_counts("add", BIT_WIDTH)
        swap_and, _ = gate_counts("cmp_swap", BIT_WIDTH)
        gates = n * (eq_and + add_and) + sort_comparators(n, runs) * swap_and
        self.meter.charge_gates(and_gates=gates)
        self._charge_live("gc distinct", self._bits(n, 2))
        return GCRelation(pd.DataFrame({out_col: [np.int64(rel.kept()[col].nunique())]}))

    def sort_by(
        self, rel: GCRelation, col: str, ascending: bool, *,
        runs: Sequence[int] | None = None,
    ) -> GCRelation:
        """ORDER BY col: a sorting network over the records (``runs`` as
        in :meth:`aggregate`, in this order)."""
        if MASK in rel.pdf.columns:
            raise NotImplementedError("sort over filtered MPC relations")
        n = rel.n_rows
        swap_and, _ = gate_counts("cmp_swap", 2 * BIT_WIDTH)
        self.meter.charge_gates(and_gates=sort_comparators(n, runs) * swap_and)
        self._charge_live("gc sort", self._bits(n, rel.n_cols) * 2)
        out = rel.pdf.sort_values(col, ascending=ascending, kind="stable")
        return GCRelation(out.reset_index(drop=True))

    def limit(self, rel: GCRelation, n: int) -> GCRelation:
        """The first ``n`` positions: public, no ANDs."""
        if MASK in rel.pdf.columns:
            raise NotImplementedError("limit over filtered MPC relations")
        return GCRelation(rel.pdf.head(n).reset_index(drop=True))
