"""Compiled plans whose MPC steps run on either engine backend
(``sharemind`` or ``oblivc``), checked against DuckDB, and the traced
benchmark's tracer run over a compiled plan."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core import dag as D
from repro.core.columns import Column, Party
from repro.core.compiler import CompileOptions, compile_query
from repro.core.lang import newTable
from repro.oracle import assert_equivalent
from repro.queries.base import gen_to_spark
from repro.runtime.engine import Engine

BACKENDS = ["sharemind", "oblivc"]


def _pdf(**cols):
    return pd.DataFrame({k: np.asarray(v, np.int64) for k, v in cols.items()})


def _run(spark, out, parties, gen, backend):
    plan = compile_query(out, CompileOptions(parties=parties))
    eng = Engine(spark, [p.name for p in parties], backend=backend)
    return plan, eng.run(plan, gen_to_spark(spark, gen))


def _join(lcols, rcols):
    a, b = Party("a"), Party("b")
    left = newTable([Column(c) for c in lcols], at=a, name="l")
    right = newTable([Column(c) for c in rcols], at=b, name="r")
    return [a, b], left.join(right, left="k", right="k")


# ------------------------------------------ grouped aggregate after a filter
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("agg_op,sql_agg", [(D.SUM, "SUM(r.v)"), (D.COUNT, "COUNT(*)")])
def test_grouped_aggregate_after_mpc_filter(spark, backend, agg_op, sql_agg):
    """The aggregate counts only the rows the MPC filter keeps."""
    parties, joined = _join(["k", "g"], ["k", "x", "v"])
    over = "v" if agg_op == D.SUM else None
    out = (
        joined.filter("x", "==", 5)
        .aggregate("s", agg_op, group=["g"], over=over)
        .collect(to=[parties[0]])
    )
    gen = {"l": _pdf(k=[1, 2, 3, 4], g=[1, 1, 2, 2]),
           "r": _pdf(k=[1, 2, 3, 4], x=[5, 6, 5, 7], v=[10, 20, 30, 40])}
    plan, df = _run(spark, out, parties, gen, backend)
    assert all(n.site == ("mpc",) for n in plan.dag.nodes_of_type(D.Filter))
    assert_equivalent(
        df,
        f"SELECT l.g AS g, {sql_agg} AS s FROM l JOIN r ON l.k = r.k "
        "WHERE r.x = 5 GROUP BY l.g",
        **gen,
    )


# ---------------------------------------------------- empty MPC result
@pytest.mark.parametrize("backend", BACKENDS)
def test_mpc_join_with_no_match_reveals_empty_frame(spark, backend):
    """A join with no matching keys reveals zero rows, with the schema of
    a join that matches."""
    parties, joined = _join(["k", "g"], ["k", "v"])
    out = joined.collect(to=[parties[0]])
    left = _pdf(k=[1, 2], g=[7, 8])
    _, one = _run(spark, out, parties, {"l": left, "r": _pdf(k=[2, 3], v=[5, 6])},
                  backend)
    _, none = _run(spark, out, parties, {"l": left, "r": _pdf(k=[3, 4], v=[5, 6])},
                   backend)
    assert one.count() == 1 and none.count() == 0
    assert none.dtypes == one.dtypes == [("k", "bigint"), ("g", "bigint"),
                                         ("v", "bigint")]


def test_public_join_on_gc_backend(spark):
    """The aspirin plan's public join shares the matching rows into the
    garbled-circuit backend and rebuilds the joined rows there."""
    from repro.queries import aspirin

    gen = aspirin.gen_inputs(n_per_party=200, overlap_frac=0.2, seed=1)
    spec = aspirin.build()
    plan, df = _run(spark, spec.output, spec.parties, gen, "oblivc")
    assert plan.dag.nodes_of_type(D.PublicJoin)
    assert_equivalent(df, spec.oracle_sql, **gen)


# ------------------------------------------------------ benchmark tracer
def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks the module up
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_a_compiled_credit_run(spark):
    """Every name the benchmark's tracer patches still exists, and the
    ``engine.run`` span charges what the run's meter holds."""
    from repro.core import compiler
    from repro.queries import credit_card

    tracer = _load_tracer().Tracer()
    gen = credit_card.gen_inputs(n_holders=30, seed=1)
    spec = credit_card.build()
    tracer.install()
    try:
        plan = compiler.compile_query(spec.output, CompileOptions(parties=spec.parties))
        eng = Engine(spark, [p.name for p in spec.parties])
        eng.run(plan, gen_to_spark(spark, gen))
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names.count("core.compile") == 1
    assert "sharemind.shuffle" in names and "protocols.oblivious_shuffle" in names
    (run,) = [s for s in tracer.spans if s.name == "engine.run"]
    assert run.rounds == eng.meter.rounds > 0
    assert run.bytes == eng.meter.bytes_sent
