"""Multi-party execution engine for compiled Conclave plans.

Interprets the annotated DAG in topological order, exactly mirroring the
paper's deployment model:

* each simulated party's local data lives in Spark DataFrames, and every
  ``("clear", party)`` node runs as Spark DataFrame transformations on
  that party's data (§4.1: "optionally, a parallel data processing
  system");
* ``("mpc",)`` nodes run on the selected MPC backend (Sharemind-style
  secret sharing or Obliv-C-style garbled circuits) over secret-shared
  state, entered via ``inputToMPC`` (``DataFrame.toPandas`` → share) and
  left via ``revealTo`` (reveal → ``spark.createDataFrame``);
* a ``("hybrid", stp)`` join or aggregation (§5.3) is an MPC step like
  any other: the backend's ``join`` or ``aggregate`` with the STP named,
  which runs the STP's clear key join (:func:`join_index_pairs`) or sort
  in numpy on the driver;
* ``("public", party)`` nodes execute the public join: key columns move
  in the clear and are joined in numpy on the driver
  (:func:`join_index_pairs`), and only matching rows re-enter MPC (or,
  when nothing downstream needs MPC, the result is assembled in the
  clear).

Inputs enter as they were loaded: an ``Input`` node, or a clear
``Project`` that keeps the columns as they are, hands on the frame itself
and makes no new Spark plan. Every clear frame an MPC, hybrid or public
node will collect is noted as it is made, and the first collect of a run
takes all noted frames in one concurrent batch (:meth:`Engine._collect`,
one thread per frame), as the parties' own clusters would send their
``inputToMPC`` at once; the batch finishes before the backend call of
the node that asked for it.

A concat compiled with a ``presort`` (§5.4) has each party sort its
collected frame by the key before inputToMPC, and the parts' lengths are
the runs that the sort-based operator reading the concat merges.

The engine itself holds only Spark and cleartext work: every step under
MPC is a call on one backend object, which owns the format of its MPC
relations. All MPC/communication work is charged to one :class:`Meter`.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..backends.sharemind_sim import SharemindBackend
from ..backends.spark_clear import exec_clear_node, select_cols, to_spark
from ..core import dag as D
from ..core.compiler import Plan
from ..mpc.accounting import Meter
from ..mpc.gc_backend import GCBackend
from ..mpc.protocols import join_index_pairs
from ..mpc.secret_sharing import SecretSharingVM


@dataclass
class ClearVal:
    """A relation in the clear, as one Spark DataFrame per party that
    holds a part of it: one part is a relation held at that party,
    several the parts of a concat that feeds a public join."""

    parts: dict[str, DataFrame]


class Engine:
    """Executes a compiled plan across simulated parties."""

    def __init__(
        self,
        spark: SparkSession,
        parties: list[str],
        *,
        backend: str = "sharemind",
        meter: Meter | None = None,
        seed: int = 17,
    ):
        self.spark = spark
        self.parties = list(parties)
        self.meter = meter if meter is not None else Meter()
        self.rng = np.random.default_rng(seed)
        if backend == "sharemind":
            vm = SecretSharingVM(n_parties=len(parties), meter=self.meter, seed=seed)
            self.backend = SharemindBackend(vm, self.rng)
        elif backend == "oblivc":
            self.backend = GCBackend(self.meter)
        else:  # pragma: no cover
            raise ValueError(backend)
        # state of one run: the plan's consumer map; boundary frames made
        # but not collected yet, and collected frames no node has asked
        # for yet, both by id of the Spark frame
        self._cons: dict[int, list[D.Node]] = {}
        self._noted: dict[int, DataFrame] = {}
        self._held: dict[int, pd.DataFrame] = {}
        # the §5.4 merge: each presorted concat's parts' lengths, by id
        self._run_lengths: dict[int, list[int]] = {}

    # ------------------------------------------------------------ helpers
    def _to_spark(self, pdf: pd.DataFrame) -> DataFrame:
        if len(pdf.columns) == 0:
            raise ValueError("empty schema")
        return to_spark(self.spark, pdf)

    def _charge_transfer(self, n_rows: int, n_cols: int) -> None:
        self.meter.charge_comm(rounds=1, bytes_sent=float(n_rows) * n_cols * 8)

    def _collect(self, dfs: list[DataFrame]) -> list[pd.DataFrame]:
        """``toPandas`` of each frame, in order; a frame listed twice is
        collected once. Frames not yet collected go in one batch with
        every noted boundary frame, one thread per frame (the pool is
        closed before this returns); results not asked for now are held
        for the node that will ask."""
        todo = {id(df): df for df in dfs if id(df) not in self._held}
        if todo:
            todo.update(self._noted)
            self._noted.clear()
            frames = list(todo.values())
            if len(frames) < 2:
                pdfs = [df.toPandas() for df in frames]
            else:
                with ThreadPoolExecutor(len(frames)) as pool:
                    pdfs = list(pool.map(lambda df: df.toPandas(), frames))
            self._held.update(zip(todo, pdfs))
        got = {k: self._held.pop(k) for k in {id(df) for df in dfs}}
        return [got[id(df)] for df in dfs]

    @staticmethod
    def _frames(val) -> list[DataFrame]:
        """The clear frames of a value, parts in party order; none for an
        MPC value."""
        if isinstance(val, ClearVal):
            return [df for _, df in sorted(val.parts.items())]
        return []

    def _ensure_mpc_all(self, vals: list, presort: tuple[str, bool] | None = None) -> list:
        """inputToMPC for every parent of a node: collect all their clear
        frames in one batch, then secret-share them in parent and party
        order, every frame in the same round. A clear value of several
        parts is shared part by part and concatenated; an MPC value
        passes through. With ``presort`` (key, descending), each party
        first sorts its frame by the key, stably."""
        frames = [self._frames(v) for v in vals]
        pdfs = self._collect([df for fs in frames for df in fs])
        if presort is not None:
            key, descending = presort
            pdfs = [pdf.sort_values(key, ascending=not descending,
                                    kind="stable", ignore_index=True)
                    for pdf in pdfs]
        with self.meter.together():
            shares = iter([self._share(pdf) for pdf in pdfs])
        out = []
        for v, fs in zip(vals, frames):
            if fs:
                shared = [next(shares) for _ in fs]
                v = shared[0] if len(shared) == 1 else self.backend.concat(shared)
            out.append(v)
        return out

    def _share(self, pdf: pd.DataFrame, public: tuple[str, ...] = ()):
        """inputToMPC of one collected frame, its ``public`` columns as
        trivial sharings. MPC holds integers, so a fractional column is
        refused rather than truncated."""
        for col, dtype in pdf.dtypes.items():
            if dtype.kind == "f":
                raise NotImplementedError(
                    f"fractional column {col!r} ({dtype}) cannot enter MPC"
                )
        return self.backend.input_rel(pdf.astype(np.int64), public=public)

    def _as_clear_at(self, val, party: str) -> DataFrame:
        """``val`` in the clear at ``party``: an MPC value is opened to it
        (revealTo); each part of a clear value that another party holds
        is sent to it, and the parts are unioned."""
        if not isinstance(val, ClearVal):
            return self._to_spark(self.backend.reveal(val, party))
        for p, df in val.parts.items():
            if p != party:
                self._charge_transfer(df.count(), len(df.columns))
        return reduce(DataFrame.unionByName, val.parts.values())

    def _stays_partitioned(self, n: D.Node) -> bool:
        """An MPC concat stays partitioned in the clear when it feeds a
        public join, which shares only the matching rows. A clear concat
        is a Spark union at its party: all its parents sit at that party,
        so a partitioned value would hold the same one part."""
        cons = self._cons.get(id(n), [])
        return (isinstance(n, D.Concat) and n.site == ("mpc",)
                and any(c.site[0] == "public" for c in cons))

    def _collects(self, n: D.Node) -> bool:
        """Whether ``n`` collects its clear parents' frames (inputToMPC,
        or the public join's parts)."""
        return n.site[0] != "clear" and not self._stays_partitioned(n)

    def _downstream_has_mpc(self, node: D.Node) -> bool:
        """Whether an MPC or hybrid node consumes ``node``'s result,
        directly or further down: a public join with none assembles its
        result in the clear."""
        stack, seen = list(self._cons.get(id(node), [])), set()
        while stack:
            n = stack.pop()
            if id(n) in seen:
                continue
            seen.add(id(n))
            if n.site and n.site[0] in ("mpc", "hybrid"):
                return True
            stack.extend(self._cons.get(id(n), []))
        return False

    # ---------------------------------------------------------------- run
    def run(self, plan: Plan, inputs: dict[str, DataFrame]) -> DataFrame:
        """Execute the plan; returns the recipient's result DataFrame."""
        self.meter.restart_wall()
        dag = plan.dag
        self._cons = dag.consumers()
        values: dict[int, object] = {}
        unread = {k: len(c) for k, c in self._cons.items()}
        try:
            for n in dag.topo_order():
                val = values[id(n)] = self._exec_node(n, inputs, values)
                if any(self._collects(c) for c in self._cons.get(id(n), [])):
                    self._noted.update((id(df), df) for df in self._frames(val))
                # a value is dropped once every consumer has read it
                for p in n.parents:
                    unread[id(p)] -= 1
                    if not unread[id(p)]:
                        del values[id(p)]
        finally:
            self._noted.clear()
            self._held.clear()
            self._run_lengths.clear()
        [out] = values[id(dag.outputs[0])].parts.values()
        return out

    # ----------------------------------------------------------- dispatch
    def _exec_node(self, n: D.Node, inputs, values):
        pvals = [values[id(p)] for p in n.parents]
        if isinstance(n, D.Input):
            return ClearVal({n.party.name: select_cols(inputs[n.name], n.out_cols)})
        if isinstance(n, D.Output):
            party = n.recipients[0].name
            return ClearVal({party: self._as_clear_at(pvals[0], party)})
        site = n.site
        assert site is not None, f"uncompiled node {n.name}"
        if self._stays_partitioned(n):
            parts: dict[str, DataFrame] = {}
            for v in pvals:
                for p, df in v.parts.items():
                    parts[p] = df if p not in parts else parts[p].unionByName(df)
            return ClearVal(parts)
        if site[0] == "clear":
            dfs = [self._as_clear_at(v, site[1]) for v in pvals]
            return ClearVal({site[1]: exec_clear_node(n, dfs)})
        if site[0] == "public":
            return self._exec_public_join(n, pvals)
        return self._exec_mpc(n, pvals)

    # --------------------------------------------------------------- mpc
    def _exec_mpc(self, n: D.Node, pvals):
        be = self.backend
        if isinstance(n, D.Concat):
            args = self._ensure_mpc_all(pvals, n.presort)
            if n.presort:
                self._run_lengths[id(n)] = [a.n_rows for a in args]
            return be.concat(args)
        args = self._ensure_mpc_all(pvals)
        stp = n.site[1] if n.site[0] == "hybrid" else None
        runs = self._runs(n, args[0])
        if isinstance(n, D.Project):
            return be.project(args[0], n.cols)
        if isinstance(n, D.Filter):
            if n.op != "==":
                raise NotImplementedError(f"MPC filter op {n.op}")
            return be.filter_eq(args[0], n.col, n.value)
        if isinstance(n, D.Arith):
            return be.arith(args[0], n.out_col, n.left, n.op, n.right)
        if isinstance(n, D.Aggregate):
            return be.aggregate(
                args[0], n.group_cols, n.aggs, runs=runs, stp=stp,
                shuffled=self._comes_shuffled(n),
            )
        if isinstance(n, D.Join):
            return be.join(args[0], args[1], n.left_key, n.right_key,
                           cols=n.out_cols, stp=stp)
        if isinstance(n, D.DistinctCount):
            return be.distinct_count(args[0], n.col, n.out_col, runs=runs)
        if isinstance(n, D.SortBy):
            return be.sort_by(args[0], n.col, n.ascending, runs=runs)
        if isinstance(n, D.Limit):
            return be.limit(args[0], n.n)
        raise NotImplementedError(type(n))  # pragma: no cover

    def _comes_shuffled(self, n: D.Node) -> bool:
        """Whether ``n``'s MPC input comes in a hidden random order that
        nothing has opened since: the closing shuffle of an MPC or hybrid
        equi-join that ``n`` alone reads. It reads only the plan's shape,
        so the charges do not depend on the data."""
        p = n.parents[0]
        return (isinstance(p, D.Join) and bool(p.left_key)
                and p.site[0] in ("mpc", "hybrid") and len(self._cons[id(p)]) == 1)

    def _runs(self, n: D.Node, rel) -> list[int] | None:
        """The lengths of the sorted runs ``n``'s MPC input ``rel`` comes
        in: its concat's parts for a §5.4 merge, one run when it is
        sorted already, None otherwise."""
        if not n.input_sorted:
            return None
        return self._run_lengths.get(id(n.parents[0]), [rel.n_rows])

    # ------------------------------------------------------- public join
    def _exec_public_join(self, n: D.Join, pvals):
        """§5.3 public join. Key columns are public: they travel in the
        clear to the site's party, which computes matching row-id pairs
        with a numpy equi-join on the driver (:func:`join_index_pairs`),
        ordered by (key, left row id, right row id) so that a §5.4
        sort-eliminated consumer sees its key in order. Only matching rows
        then re-enter MPC (or, with no MPC downstream, the result is
        assembled in the clear)."""
        # every part of both sides in one batch, each side in party order
        lframes, rframes = (self._frames(v) for v in pvals)
        pdfs = self._collect(lframes + rframes)
        parts_l, parts_r = pdfs[:len(lframes)], pdfs[len(lframes):]

        # the parts' key columns in part order: a key's position is its row id
        lkeys, rkeys = (
            np.concatenate([pdf[key].to_numpy(np.int64) for pdf in parts])
            for parts, key in ((parts_l, n.left_key), (parts_r, n.right_key))
        )
        # the key columns cross the network in the clear
        self._charge_transfer(len(lkeys) + len(rkeys), 2)
        # clear join at the chosen party
        lgid, rgid = join_index_pairs(lkeys, rkeys)
        to_mpc = self._downstream_has_mpc(n)
        # index pairs go back to every party, with their key if the key enters MPC
        key_in = to_mpc and n.left_key in n.out_cols
        self._charge_transfer(len(lgid) * len(self.parties), 3 if key_in else 2)

        if not to_mpc:
            # assemble the join result in the clear at the site's party
            # (reaches the recipient anyway; §7.2 "public join avoids MPC")
            lfull = pd.concat(parts_l, ignore_index=True)
            rfull = pd.concat(parts_r, ignore_index=True)
            self._charge_transfer(len(lfull), len(lfull.columns))
            self._charge_transfer(len(rfull), len(rfull.columns))
            left_sel = lfull.iloc[lgid].reset_index(drop=True)
            right_sel = (
                rfull.iloc[rgid]
                .drop(columns=[n.right_key])
                .reset_index(drop=True)
            )
            out = pd.concat([left_sel, right_sel], axis=1)
            return ClearVal({n.site[1]: self._to_spark(out[n.out_cols])})

        # share only the matching rows of each partition into MPC
        def matched_shared(parts, gids: np.ndarray, drop_col: str | None,
                           public: tuple[str, ...] = ()):
            """Share the rows ``gids`` names, each once, in row-id order,
            only the columns the join keeps, the ``public`` ones as trivial
            sharings; also return each pair's position among the shared
            rows."""
            needed, pos = np.unique(gids, return_inverse=True)
            cols = [c for c in parts[0].columns if c != drop_col and c in n.out_cols]
            shared, offset = [], 0
            for pdf in parts:
                local = needed[(needed >= offset) & (needed < offset + len(pdf))]
                shared.append(self._share(pdf.iloc[local - offset][cols], public))
                offset += len(pdf)
            return self.backend.concat(shared), pos

        # the matching rows of both sides go out in the same round
        with self.meter.together():
            left_shared, li = matched_shared(parts_l, lgid, None, (n.left_key,))
            right_shared, ri = matched_shared(parts_r, rgid, n.right_key)
        # public indices: selection is share-local (free)
        left_sel = self.backend.take(left_shared, li)
        right_sel = self.backend.take(right_shared, ri)
        return self.backend.concat_columns(left_sel, right_sel)
