"""Outside-in span tracer for the benchmark.

Wraps public functions of the program's layers where callers look them
up (module attributes and class attributes), records one span per call
and turns the spans into per-layer metrics. Nothing under ``src/`` is
changed: the wrappers are installed for a traced run and removed after.

A span records its name, start, end, parent span, run id, the rows or
elements it produced, and the rounds and bytes it charged to the meter
(read before and after the call from the meter that the call charges).
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

# ---------------------------------------------------------------- targets
#: SharemindBackend methods traced as ``sharemind.<m>``
SHAREMIND_METHODS = (
    "input_rel", "reveal", "aggregate", "distinct_count", "filter_eq",
    "arith", "shuffle", "select_rows", "reorder_public", "reveal_col_to",
)
#: repro.mpc.protocols functions traced as ``protocols.<f>``
PROTOCOL_FUNCS = (
    "oblivious_sort", "oblivious_shuffle", "segmented_scan_sum",
    "aggregate_sum_by_key", "select_by_public_index", "distinct_count_sorted",
    "filter_eq_flags",
)
#: SecretSharingVM methods traced as ``vm.<m>``
VM_METHODS = (
    "share", "mul", "lt", "eq", "take", "concat", "oblivious_permute",
    "permute_public", "reveal", "reveal_to",
)
#: DataFrame methods that run a Spark job and move its result to Python
SPARK_ACTIONS = ("toPandas", "collect", "count")
MPC_LAYERS = ("sharemind", "protocols", "vm")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    run_id: int
    rounds: int
    bytes: float
    size: int  # rows or elements produced; input rows for input_rel,
    # createDataFrame and oblivious_sort

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


# size hooks: (args, result) -> int
def _result_len(args, result) -> int:
    return _len(result)


def _first_arg_len(args, result) -> int:
    return _len(args[1]) if len(args) > 1 else 0


def _rel_rows(args, result) -> int:
    return args[1].n_rows


class Tracer:
    """Collects spans while installed; one instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = 0

    # ------------------------------------------------------- recording
    def _wrap(self, fn, name, meter_of, size_of, *, outermost=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and tracer._stack and tracer.spans[
                tracer._stack[-1]
            ].name.startswith("spark."):
                # toPandas may fall back to collect: count the job once
                return fn(*args, **kwargs)
            meter = meter_of(args) if meter_of is not None else None
            r0, b0 = (meter.rounds, meter.bytes_sent) if meter is not None else (0, 0.0)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.run_id,
                        0, 0.0, 0)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if meter is not None:
                    span.rounds = meter.rounds - r0
                    span.bytes = meter.bytes_sent - b0
            span.size = size_of(args, result) if size_of else 0
            return result

        return traced

    def _patch(self, owner, attr, name, meter_of=None, size_of=None, **kw):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, name, meter_of, size_of, **kw))

    def install(self) -> None:
        """Wrap every traced function; :meth:`uninstall` restores them."""
        from pyspark.sql.classic.dataframe import DataFrame
        from pyspark.sql.session import SparkSession

        from repro.backends.sharemind_sim import SharemindBackend
        from repro.core import compiler
        from repro.mpc import protocols
        from repro.mpc.secret_sharing import SecretSharingVM
        from repro.runtime.engine import Engine

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(compiler, "compile_query", "core.compile")
        self._patch(Engine, "run", "engine.run", lambda a: a[0].meter)
        # not a public name, but the only place the engine charges the
        # meter itself; tracing it lets the self-test attribute every charge
        self._patch(Engine, "_charge_transfer", "engine.charge_transfer",
                    lambda a: a[0].meter)
        for m in SHAREMIND_METHODS:
            size = _first_arg_len if m == "input_rel" else _result_len
            self._patch(SharemindBackend, m, f"sharemind.{m}",
                        lambda a: a[0].vm.meter, size)
        for f in PROTOCOL_FUNCS:
            size = _rel_rows if f == "oblivious_sort" else None
            self._patch(protocols, f, f"protocols.{f}", lambda a: a[0].meter, size)
        for m in VM_METHODS:
            self._patch(SecretSharingVM, m, f"vm.{m}", lambda a: a[0].meter,
                        _result_len)
        for m in SPARK_ACTIONS:
            self._patch(DataFrame, m, f"spark.{m}", None, _result_len,
                        outermost=True)
        self._patch(SparkSession, "createDataFrame", "spark.createDataFrame",
                    None, _first_arg_len, outermost=True)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------- reporting
    def run_spans(self, run_id: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.run_id == run_id]

    def dump(self) -> list[dict]:
        return [
            {"i": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run": s.run_id, "rounds": s.rounds,
             "bytes": s.bytes, "size": s.size}
            for i, s in enumerate(self.spans)
        ]


def self_seconds(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {i: s.seconds for i, s in spans}
    for _, s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own


def _pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else n


#: unit of each per-call quantity
QUANTITY_UNITS = {"s": "s", "calls": "count", "rounds": "count", "mb": "MB",
                  "elems": "count"}


def layer_metrics(spans: list[tuple[int, Span]], meter, wall_s: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``name: (value, unit)``
    (names as in BENCHMARK.json)."""
    own = self_seconds(spans)
    out: dict[str, float] = {}
    units: dict[str, str] = {}

    def new(key: str, unit: str) -> None:
        out[key] = 0.0
        units[key] = unit

    def add(key: str, v: float) -> None:
        out[key] += v

    for prefix, names, quantities in (
        ("sharemind", SHAREMIND_METHODS, ("s", "calls", "rounds", "mb")),
        ("protocols", PROTOCOL_FUNCS, ("s", "calls", "rounds", "mb")),
        ("vm", VM_METHODS, ("s", "calls", "elems")),
    ):
        for n in names:
            for q in quantities:
                new(f"{prefix}.{n}.{q}", QUANTITY_UNITS[q])
    for layer in MPC_LAYERS:
        new(f"{layer}.self_s", "s")
    for key in ("core.compile_s", "engine.run.s", "engine.run.self_s",
                "spark.action.s", "spark.create_df.s"):
        new(key, "s")
    for key in ("spark.action.calls", "spark.to_pandas.rows",
                "spark.create_df.rows"):
        new(key, "count")
    sort_rows = sort_pad = 0
    for i, s in spans:
        layer, _, fn = s.name.partition(".")
        if layer in MPC_LAYERS:
            key = f"{layer}.{fn}"
            add(f"{key}.s", s.seconds)
            add(f"{key}.calls", 1)
            add(f"{layer}.self_s", own[i])
            if layer == "vm":
                add(f"{key}.elems", s.size)
            else:
                add(f"{key}.rounds", s.rounds)
                add(f"{key}.mb", s.bytes / 1e6)
            if s.name == "protocols.oblivious_sort":
                sort_rows += _pow2(s.size)
                sort_pad += _pow2(s.size) - s.size
        elif s.name == "core.compile":
            add("core.compile_s", s.seconds)
        elif s.name == "engine.run":
            add("engine.run.s", s.seconds)
            add("engine.run.self_s", own[i])
        elif s.name == "spark.createDataFrame":
            add("spark.create_df.s", s.seconds)
            add("spark.create_df.rows", s.size)
        elif layer == "spark":
            add("spark.action.s", s.seconds)
            add("spark.action.calls", 1)
            if fn == "toPandas":
                add("spark.to_pandas.rows", s.size)
    shared = sum(s.size for _, s in spans if s.name == "sharemind.input_rel")
    collected = out["spark.to_pandas.rows"]
    spark_s = out["spark.action.s"] + out["spark.create_df.s"]
    values = {k: (v, units[k]) for k, v in out.items()}
    values.update({
        "spark.shared_per_collected": (shared / collected if collected else 0.0,
                                       "ratio"),
        "protocols.oblivious_sort.pad_frac": (
            sort_pad / sort_rows if sort_rows else 0.0, "ratio"),
        "split.sim_s": (meter.sim_seconds(), "s"),
        "split.spark_s": (spark_s, "s"),
        "split.python_s": (wall_s - spark_s, "s"),
        "mpc_rounds": (float(meter.rounds), "count"),
        "mpc_mb": (meter.bytes_sent / 1e6, "MB"),
    })
    return values
