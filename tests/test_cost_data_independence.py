"""The simulated cost depends only on what a plan may reveal.

The VM computes every ABB operation in the clear, so a charge that
depends on a secret value would pass every result test. These tests run
each plan on pairs of inputs with the same public shape: the same sizes
and the same revealed counts (join sizes, a public join's match count,
group counts, the number of output rows a filter keeps), with the join
or group keys relabelled by a bijection, the rows of each party permuted
and the other values changed. The sequence of charges — communication
(rounds, bytes), simulated memory (what, live bytes) and garbled AND
gates — must be identical within a pair.
"""
import numpy as np
import pandas as pd
import pytest

from repro.backends.sharemind_sim import MASK, SharemindBackend
from repro.core import dag as D
from repro.core.columns import Column, Party
from repro.core.compiler import CompileOptions, compile_query
from repro.core.lang import newTable
from repro.mpc.accounting import Meter
from repro.queries import aspirin, comorbidity, credit_card, market_concentration
from repro.queries.base import gen_to_spark
from repro.runtime.engine import Engine
from repro.tables.table3_hybrid import _agg_query, _join_query


def _pdf(**cols):
    return pd.DataFrame({k: np.asarray(v, np.int64) for k, v in cols.items()})


def _twin(gen, key, changed, seed):
    """``gen`` with column ``key`` relabelled by one bijection across all
    tables, the rows of each table permuted and the ``changed`` columns
    redrawn from their range."""
    g = np.random.default_rng(seed)
    keys = np.unique(np.concatenate([df[key] for df in gen.values() if key in df]))
    relabel = g.choice(10 * len(keys) + 10, len(keys), replace=False)
    out = {}
    for name, df in gen.items():
        df = df.sample(frac=1, random_state=seed).reset_index(drop=True)
        if key in df:
            df[key] = relabel[np.searchsorted(keys, df[key])]
        for c in changed:
            if c in df:
                df[c] = g.integers(df[c].min(), df[c].max() + 1, len(df))
        out[name] = df
    return out


def _credit():
    spec = credit_card.build()
    gen = credit_card.gen_inputs(n_holders=60, seed=1)
    return spec.output, spec.parties, {}, gen, _twin(gen, "ssn", ["score"], seed=2)


def _aspirin():
    """The public join on patient ids: the twin keeps its match count."""
    spec = aspirin.build()
    gen = aspirin.gen_inputs(n_per_party=60, overlap_frac=0.2, seed=1)
    twin = _twin(gen, "patient_id", ["diag", "med"], seed=2)
    return spec.output, spec.parties, {}, gen, twin


def _hhi():
    """HHI wholly under MPC, as the hhi-mpc benchmark runs it. The zero
    fares are filtered in each party's Spark stage, so the twin keeps them
    and redraws only the fares that enter MPC."""
    spec = market_concentration.build()
    gen = market_concentration.gen_inputs(n_per_party=40, seed=1)
    twin = _twin(gen, "companyID", [], seed=2)
    for df in twin.values():
        paid = df["price"] > 0
        df.loc[paid, "price"] = np.random.default_rng(3).integers(1, 9000, paid.sum())
    opts = {"allow_cardinality_leaking_pushdown": False, "enable_push_up": False}
    return spec.output, spec.parties, opts, gen, twin


def _comorbidity():
    """Each party's twin holds the same set of diagnosis codes, relabelled,
    with new multiplicities: the group counts stay, the counts the top-k
    sort compares change. The parties share half their codes, so the
    relabelling also changes how the codes of the two parties' pre-sorted
    runs interleave in the combiner's merge."""
    spec = comorbidity.build()
    gen = comorbidity.gen_inputs(n_per_party=80, distinct_key_frac=0.2, seed=1)
    gen["cdiag_h2"]["diag"] += 8
    twin = _twin(gen, "diag", [], seed=2)
    g = np.random.default_rng(3)
    for df in twin.values():
        codes = np.unique(df["diag"])
        df["diag"] = np.concatenate([codes, g.choice(codes, len(df) - len(codes))])
    return spec.output, spec.parties, {}, gen, twin


_T3_OPTS = {"allow_cardinality_leaking_pushdown": False}


def _t3_agg(mode):
    """T3's grouped SUM over two parties, under MPC or hybrid."""
    out, parties = _agg_query(mode)
    g = np.random.default_rng(5)
    gen = {n: _pdf(k=g.integers(1, 8, 40), v=g.integers(0, 1000, 40)) for n in ("ga", "gb")}
    return out, parties, _T3_OPTS, gen, _twin(gen, "k", ["v"], seed=6)


def _hybrid_join():
    """T3's hybrid join: the key trusted to party c, the STP."""
    out, parties = _join_query("hybrid")
    g = np.random.default_rng(3)
    gen = {"jl": _pdf(k=g.integers(1, 40, 50), v=g.integers(0, 1000, 50)),
           "jr": _pdf(k=g.integers(1, 40, 50), w=g.integers(0, 1000, 50))}
    return out, parties, _T3_OPTS, gen, _twin(gen, "k", ["v", "w"], seed=4)


def _filtered_join():
    """A join after an MPC filter. In the twin, the rows with no partner
    in ``t`` pass the filter too: how many rows the filter keeps is
    secret (only the joined rows are revealed)."""
    a, b, c = Party("a"), Party("b"), Party("c")
    l, r, t = (newTable([Column("k"), Column(x)], at=p, name=n)
               for p, x, n in ((a, "f", "l"), (b, "v", "r"), (c, "w", "t")))
    out = (l.join(r, left="k", right="k").filter("f", "==", 1)
           .join(t, left="k", right="k").collect(to=[a]))
    gen = {"l": _pdf(k=[1, 2, 3, 4, 5, 6], f=[1, 0, 1, 1, 0, 0]),
           "r": _pdf(k=[1, 2, 3, 4, 5, 6], v=[10, 20, 30, 40, 50, 60]),
           "t": _pdf(k=[1, 2, 3, 4, 7], w=[7, 8, 9, 10, 11])}
    twin = _twin(gen, "k", ["v", "w"], seed=5)
    twin["l"]["f"] = np.where(np.isin(twin["l"]["k"], twin["t"]["k"]),
                              twin["l"]["f"], 1)
    return out, [a, b, c], {}, gen, twin


def _two_hybrid_aggs():
    """A hybrid join read by two hybrid aggregations with different group
    columns, each of which shuffles (their results go to two outputs)."""
    a, b, c = Party("a"), Party("b"), Party("c")
    left = newTable([Column(n, trust=(c,)) for n in "kgh"], at=a, name="ql")
    right = newTable([Column("k", trust=(c,)), Column("v")], at=b, name="qr")
    joined = left.join(right, left="k", right="k")
    outs = [joined.aggregate("s", D.SUM, group=[g], over="v").collect(to=[a])
            for g in "gh"]
    g = np.random.default_rng(7)
    gen = {"ql": _pdf(k=np.arange(30), g=g.integers(0, 5, 30), h=g.integers(0, 3, 30)),
           "qr": _pdf(k=g.integers(0, 45, 40), v=g.integers(0, 1000, 40))}
    return outs, [a, b, c], {}, gen, _twin(gen, "k", ["v"], seed=8)


#: a case whose name ends so runs on the garbled-circuit backend
_GC = "-oblivc"
CASES = {
    "credit": _credit, "aspirin": _aspirin, "hhi": _hhi, "comorbidity": _comorbidity,
    "mpc_agg": lambda: _t3_agg("mpc"), "hybrid_agg": lambda: _t3_agg("hybrid"),
    "hybrid_join": _hybrid_join, "filtered_join": _filtered_join,
    "two_hybrid_aggs": _two_hybrid_aggs,
    "comorbidity" + _GC: _comorbidity,
}
_CHARGES = ("charge_comm", "charge_memory", "charge_gates")


def _charges(spark, monkeypatch, out, parties, opts, gen, backend="sharemind"):
    """Every charge a run of the compiled plan makes, as (kind, what,
    amounts) in order, and its result's row count."""
    charges, originals = [], {name: getattr(Meter, name) for name in _CHARGES}

    def recorder(name):
        def record(self, *args, **kw):
            charges.append((name, args, tuple(sorted(kw.items()))))
            originals[name](self, *args, **kw)
        return record

    for name in _CHARGES:
        monkeypatch.setattr(Meter, name, recorder(name))
    plan = compile_query(out, CompileOptions(parties=parties, **opts))
    eng = Engine(spark, [p.name for p in parties], backend=backend)
    rows = eng.run(plan, gen_to_spark(spark, gen)).count()
    for name, fn in originals.items():
        monkeypatch.setattr(Meter, name, fn)
    return charges, rows


@pytest.mark.parametrize("case", sorted(CASES))
def test_charges_do_not_depend_on_the_data(spark, monkeypatch, case):
    out, parties, opts, gen, twin = CASES[case]()
    backend = "oblivc" if case.endswith(_GC) else "sharemind"
    got, rows = _charges(spark, monkeypatch, out, parties, opts, gen, backend)
    got_twin, rows_twin = _charges(spark, monkeypatch, out, parties, opts, twin, backend)
    assert rows == rows_twin > 0
    comm = [c for c in got if c[0] == "charge_comm"]
    if case == "hybrid_join":
        # the STP matches the keys in the clear and deals the read inside
        # the oblivious indexing's charge, and the 3-column reveal is one
        # charge, so this plan makes exactly nine
        assert len(comm) == 9
    elif case == "hybrid_agg":
        # four input columns, then the shuffle, the key reveal to the STP,
        # its order, its share of the group keys and the dealt read of the
        # group ends, and the output reveal
        assert len(comm) == 10
    elif case.endswith(_GC):
        # two inputs (staging memory and OT each), then the combining
        # aggregation (projection memory, gates, memory), the top-k sort
        # (gates, memory) and the output's decode bits
        assert (len(got), len(comm)) == (10, 3)
    else:
        assert len(comm) > 10
    assert got == got_twin


def test_a_charge_that_counts_a_mask_fails(spark, monkeypatch):
    """A planted charge of one byte per row the filter keeps makes the
    twin's charges differ, so the check above would catch it."""
    filter_eq = SharemindBackend.filter_eq

    def planted(self, r, col, value):
        out = filter_eq(self, r, col, value)
        kept = int((self.vm._reconstruct_ring(out.columns[MASK]) == 1).sum())
        self.vm.meter.charge_comm(rounds=0, bytes_sent=float(kept))
        return out

    monkeypatch.setattr(SharemindBackend, "filter_eq", planted)
    out, parties, opts, gen, twin = _filtered_join()
    got, rows = _charges(spark, monkeypatch, out, parties, opts, gen)
    got_twin, rows_twin = _charges(spark, monkeypatch, out, parties, opts, twin)
    assert rows == rows_twin
    assert got != got_twin


def test_a_memory_charge_that_counts_a_mask_fails(spark, monkeypatch):
    """A planted memory charge of one word per row the filter keeps (no
    communication) makes the twin's charges differ too."""
    filter_eq = SharemindBackend.filter_eq

    def planted(self, r, col, value):
        out = filter_eq(self, r, col, value)
        kept = int((self.vm._reconstruct_ring(out.columns[MASK]) == 1).sum())
        self.vm.meter.charge_memory("planted", 8.0 * kept)
        return out

    monkeypatch.setattr(SharemindBackend, "filter_eq", planted)
    out, parties, opts, gen, twin = _filtered_join()
    got, rows = _charges(spark, monkeypatch, out, parties, opts, gen)
    got_twin, rows_twin = _charges(spark, monkeypatch, out, parties, opts, twin)
    assert rows == rows_twin
    comm = [c for c in got if c[0] == "charge_comm"]
    assert comm == [c for c in got_twin if c[0] == "charge_comm"]
    assert got != got_twin
