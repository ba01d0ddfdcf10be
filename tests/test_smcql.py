"""Tests for the SMCQL baseline: slicing semantics and the §7.4 runners
(comorbidity on both MPC backends), all checked against DuckDB on the
cleartext union."""
import time

import numpy as np
import pandas as pd
import pytest

import duckdb

from repro.core.compiler import CompileOptions, compile_query
from repro.mpc.accounting import Meter
from repro.queries import aspirin, comorbidity
from repro.queries.base import gen_to_spark
from repro.runtime.engine import Engine
from repro.smcql.runners import (
    run_aspirin_conclave,
    run_aspirin_smcql,
    oblivm_meter,
    run_comorbidity,
    slice_aspirin,
)


def _oracle_count(gen) -> int:
    con = duckdb.connect()
    try:
        for name, pdf in gen.items():
            con.register(name, pdf)
        return int(con.execute(aspirin.build().oracle_sql).fetchdf()["rx_cnt"][0])
    finally:
        con.close()


# ---------------------------------------------------------------- slicing
def _inputs(diag_h1, diag_h2, med_h1=(), med_h2=()) -> dict[str, pd.DataFrame]:
    """Aspirin inputs that hold only the given patient IDs."""
    ids = {"diag_h1": diag_h1, "diag_h2": diag_h2, "med_h1": med_h1, "med_h2": med_h2}
    return {name: pd.DataFrame({"patient_id": np.asarray(k, np.int64)})
            for name, k in ids.items()}


def test_slice_by_key_partitions_rows():
    gen = _inputs([1, 2, 3], [3, 4])
    gen["diag_h1"]["v"], gen["diag_h2"]["v"] = [10, 20, 30], [33, 44]
    single, shared = slice_aspirin(gen)
    shared_keys = np.unique(pd.concat(shared.values())["patient_id"])
    assert list(shared_keys) == [3]
    assert single["diag_h1"]["patient_id"].tolist() == [1, 2]
    assert shared["diag_h1"]["patient_id"].tolist() == [3]
    assert shared["diag_h2"]["patient_id"].tolist() == [3]
    assert single["diag_h2"]["patient_id"].tolist() == [4]
    assert shared["diag_h2"]["v"].tolist() == [33]


def test_slice_uses_cross_relation_key_locations():
    """A key is MPC-bound if it appears at both parties in ANY relation."""
    single, _ = slice_aspirin(_inputs([1], [9], med_h1=[9], med_h2=[1]))
    # both keys exist at both parties (via the other relation)
    assert len(single["diag_h1"]) == 0 and len(single["diag_h2"]) == 0


# ---------------------------------------------------------------- aspirin
@pytest.mark.parametrize("overlap", [0.0, 0.05, 0.5])
def test_aspirin_smcql_matches_oracle(spark, overlap):
    gen = aspirin.gen_inputs(n_per_party=200, overlap_frac=overlap, seed=11)
    got, meter = run_aspirin_smcql(spark, gen)
    assert got == _oracle_count(gen)


@pytest.mark.parametrize("overlap", [0.0, 0.05, 0.5])
def test_aspirin_conclave_matches_oracle(spark, overlap):
    gen = aspirin.gen_inputs(n_per_party=200, overlap_frac=overlap, seed=12)
    got, meter = run_aspirin_conclave(spark, gen)
    assert got == _oracle_count(gen)


def _held_at(gen, party: str) -> set:
    return set(gen[f"diag_{party}"]["patient_id"]) | set(gen[f"med_{party}"]["patient_id"])


def _compiled_aspirin(spark, gen):
    spec = aspirin.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    eng = Engine(spark, [p.name for p in spec.parties])
    df = eng.run(plan, gen_to_spark(spark, gen)).toPandas()
    return int(df["rx_cnt"].iloc[0]), eng.meter


def test_aspirin_conclave_is_the_compiled_plan(spark):
    """With every patient at both hospitals the single-party slices are
    empty, and the runner is exactly compile_query + Engine.run."""
    gen = aspirin.gen_inputs(n_per_party=300, overlap_frac=1.0, seed=4)
    both = _held_at(gen, "h1") & _held_at(gen, "h2")
    gen = {k: v[v["patient_id"].isin(both)].reset_index(drop=True) for k, v in gen.items()}
    got, meter = run_aspirin_conclave(spark, gen)
    want, eng_meter = _compiled_aspirin(spark, gen)
    assert got == want == _oracle_count(gen)
    assert meter.rounds == eng_meter.rounds > 0
    assert meter.bytes_sent == eng_meter.bytes_sent


def test_aspirin_conclave_cost_is_pinned(spark):
    """The T5 Conclave point's result and simulated rounds and bytes on
    fixed inputs. Any change here is a cost-model change."""
    gen = aspirin.gen_inputs(n_per_party=300, overlap_frac=0.2, seed=1)
    got, meter = run_aspirin_conclave(spark, gen)
    assert got == _oracle_count(gen) == 49
    assert (meter.rounds, meter.bytes_sent) == (29, 62_600.0)


def test_aspirin_conclave_one_empty_shared_slice(spark):
    """Shared patients without medication rows at h2: h2's shared
    medication slice has no rows, the other three shared slices do."""
    gen = aspirin.gen_inputs(n_per_party=200, overlap_frac=0.2, seed=12)
    med = gen["med_h2"]
    both = _held_at(gen, "h1") & _held_at(gen, "h2")
    gen["med_h2"] = med[~med["patient_id"].isin(both)].reset_index(drop=True)
    _, sliced = slice_aspirin(gen)
    shared = [len(sliced[f"{rel}_{p}"]) for rel in ("diag", "med") for p in ("h1", "h2")]
    assert shared[3] == 0 and min(shared[:3]) > 0
    got, meter = run_aspirin_conclave(spark, gen)
    assert got == _oracle_count(gen)
    assert meter.rounds > 0


def test_aspirin_conclave_clock_spans_the_whole_run(spark):
    """The hybrid clock covers slicing and the local Spark counts, not
    just the engine (whose run restarts its own meter's wall clock)."""
    gen = aspirin.gen_inputs(n_per_party=2000, overlap_frac=0.05, seed=3)
    t0 = time.perf_counter()
    _, meter = run_aspirin_conclave(spark, gen)
    wall = time.perf_counter() - t0
    assert meter.wall_seconds() >= 0.9 * wall


def test_aspirin_conclave_beats_smcql_cost(spark):
    """The paper's headline: Conclave's public join + Sharemind backend
    is far cheaper than SMCQL's per-slice garbled circuits."""
    gen = aspirin.gen_inputs(n_per_party=2000, overlap_frac=0.02, seed=13)
    _, m_smcql = run_aspirin_smcql(spark, gen)
    _, m_conclave = run_aspirin_conclave(spark, gen)
    assert (
        m_conclave.network_seconds() + m_conclave.gate_seconds()
        < (m_smcql.network_seconds() + m_smcql.gate_seconds()) / 2
    )


def test_aspirin_smcql_mpc_work_tracks_overlap(spark):
    gates = {}
    for overlap in (0.02, 0.5):
        gen = aspirin.gen_inputs(n_per_party=1000, overlap_frac=overlap, seed=3)
        _, m = run_aspirin_smcql(spark, gen)
        gates[overlap] = m.gc_and_gates
    assert gates[0.02] < gates[0.5] / 5


# ------------------------------------------------------------ comorbidity
def _comorbidity_oracle_counts(gen) -> list[int]:
    con = duckdb.connect()
    try:
        for name, pdf in gen.items():
            con.register(name, pdf)
        return con.execute(comorbidity.build().oracle_sql).fetchdf()["cnt"].tolist()
    finally:
        con.close()


def test_comorbidity_smcql_matches_oracle(spark):
    gen = comorbidity.gen_inputs(n_per_party=400, distinct_key_frac=0.05, seed=2)
    got, meter = run_comorbidity(spark, gen, backend="oblivc", meter=oblivm_meter())
    assert sorted(got["cnt"].tolist(), reverse=True) == _comorbidity_oracle_counts(gen)


def test_comorbidity_conclave_matches_oracle(spark):
    gen = comorbidity.gen_inputs(n_per_party=400, distinct_key_frac=0.05, seed=2)
    got, meter = run_comorbidity(spark, gen)
    assert sorted(got["cnt"].tolist(), reverse=True) == _comorbidity_oracle_counts(gen)


def test_comorbidity_backends_agree(spark):
    gen = comorbidity.gen_inputs(n_per_party=300, distinct_key_frac=0.08, seed=7)
    smcql, _ = run_comorbidity(spark, gen, backend="oblivc", meter=oblivm_meter())
    conclave, _ = run_comorbidity(spark, gen)
    assert sorted(smcql["cnt"]) == sorted(conclave["cnt"].astype(int))


def test_comorbidity_conclave_faster_backend(spark):
    """Same plan, different MPC backend: Sharemind-style secret sharing
    beats ObliVM-style garbled circuits (§7.4, Figure 7b)."""
    gen = comorbidity.gen_inputs(n_per_party=2000, distinct_key_frac=0.1, seed=5)
    _, m_smcql = run_comorbidity(spark, gen, backend="oblivc", meter=oblivm_meter())
    _, m_conclave = run_comorbidity(spark, gen)
    sim_smcql = m_smcql.network_seconds() + m_smcql.gate_seconds()
    sim_conclave = m_conclave.network_seconds() + m_conclave.gate_seconds()
    assert sim_conclave < sim_smcql / 2
