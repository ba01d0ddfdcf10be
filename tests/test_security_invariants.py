"""Security-invariant tests (§3.2, §5.1, Appendix A).

These assert the compiler-level guarantees the paper proves:
* hybrid operators fire only with an authorization derivable from the
  input trust annotations (Corollary A.5's premise);
* the STP assignment is always a member of the propagated trust set;
* MPC-frontier push-downs leak only cardinalities, never values —
  every value revealed in the clear at a party is covered by that
  party's trust set;
* single-party views of secret shares carry no information.
"""
import numpy as np
import pytest

from repro.core import dag as D
from repro.core.columns import Column, Party
from repro.core.compiler import CompileOptions, compile_query
from repro.core.lang import concat, newTable
from repro.mpc.accounting import Meter
from repro.mpc.secret_sharing import SecretSharingVM
from repro.queries import aspirin, comorbidity, credit_card, market_concentration

ALL_SPECS = [
    market_concentration.build,
    credit_card.build,
    aspirin.build,
    comorbidity.build,
]


def _run_as(plan, cls, kind):
    """The plan's nodes of type ``cls`` whose site is ``(kind, party)``."""
    return [n for n in plan.dag.nodes_of_type(cls) if n.site[0] == kind]


@pytest.mark.parametrize("build", ALL_SPECS)
def test_hybrid_ops_only_with_authorization(build):
    spec = build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    for j in _run_as(plan, D.Join, "hybrid"):
        lt = j.parents[0].trust[j.left_key]
        rt = j.parents[1].trust[j.right_key]
        assert j.site[1] in (lt & rt), "STP not authorized for both key columns"
    for a in _run_as(plan, D.Aggregate, "hybrid"):
        assert a.site[1] in a.parents[0].trust[a.group_cols[0]]
    for p in _run_as(plan, D.Join, "public"):
        all_parties = {q.name for q in spec.parties}
        assert p.parents[0].trust[p.left_key] == all_parties
        assert p.parents[1].trust[p.right_key] == all_parties


@pytest.mark.parametrize("build", ALL_SPECS)
def test_clear_sites_are_covered_by_trust(build):
    """Any non-input node executed in the clear at party P must have all
    its columns' trust sets containing P (P is allowed to see the
    values) — the §5.1 propagation invariant."""
    spec = build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    for n in plan.nodes():
        if isinstance(n, (D.Input, D.Output, D.Concat)):
            continue
        if n.site and n.site[0] == "clear":
            party = n.site[1]
            for col, ts in n.trust.items():
                # recipients of the output are implicitly trusted (§4.3)
                recipients = {p.name for o in plan.dag.outputs
                              for p in o.recipients}
                assert party in (ts | recipients), (n.name, col, party, ts)


def test_no_stp_no_hybrid_anywhere():
    pa, pb = Party("a"), Party("b")
    mk = lambda: [Column("k"), Column("v")]  # noqa: E731
    t = concat([newTable(mk(), at=pa, name="na"), newTable(mk(), at=pb, name="nb")])
    out = (
        t.join(concat([newTable(mk(), at=pa, name="ma"),
                       newTable(mk(), at=pb, name="mb")]).project(["k"]),
               left="k", right="k")
        .aggregate("s", D.SUM, group=["k"], over="v")
        .collect(to=[pa])
    )
    plan = compile_query(out, CompileOptions(parties=[pa, pb]))
    assert not _run_as(plan, D.Join, "hybrid")
    assert not _run_as(plan, D.Aggregate, "hybrid")
    assert not _run_as(plan, D.Join, "public")


def test_annotating_one_side_only_is_not_enough():
    """A hybrid join needs an STP trusted with BOTH key columns."""
    pa, pb, pc = Party("a"), Party("b"), Party("c")
    left = newTable([Column("k", trust=(pc,)), Column("v")], at=pa, name="l")
    right = newTable([Column("k"), Column("w")], at=pb, name="r")
    out = left.join(right, left="k", right="k").collect(to=[pa])
    plan = compile_query(out, CompileOptions(parties=[pa, pb, pc]))
    assert not _run_as(plan, D.Join, "hybrid")


def test_filter_narrows_downstream_trust():
    """Filtering on a private column makes downstream columns depend on
    it: a party trusted with the data column but not the filter column
    must drop out of the trust set."""
    pa, pb, pc = Party("a"), Party("b"), Party("c")
    t = newTable(
        [Column("x", trust=(pc,)), Column("secret")], at=pa, name="ft"
    )
    out = t.filter("secret", "==", 1).collect(to=[pa])
    plan = compile_query(out, CompileOptions(parties=[pa, pb, pc]))
    f = plan.dag.nodes_of_type(D.Filter)[0]
    assert "c" not in f.trust["x"]  # c may not see x post-filter


def test_shares_of_distinct_secrets_indistinguishable():
    """A single party's share distribution must not depend on the
    secret: shares of 0-vectors and big-value vectors look alike."""
    vm = SecretSharingVM(3, Meter(), seed=1)
    a = vm.share(np.zeros(5000, dtype=np.int64))
    b = vm.share(np.full(5000, 2**55, dtype=np.int64))
    for sv in (a, b):
        for share in sv.shares[:-1]:
            top = (share >> np.uint64(56)).astype(np.int64)
            counts = np.bincount(top, minlength=256)
            assert counts.max() < 4 * counts.mean()
    # means of single shares are statistically indistinguishable between
    # the two secrets (both ~uniform over the ring)
    m_a = float(np.mean(a.shares[0].astype(np.float64)))
    m_b = float(np.mean(b.shares[0].astype(np.float64)))
    ring_mean = 2.0**63
    assert abs(m_a - ring_mean) < 0.05 * ring_mean
    assert abs(m_b - ring_mean) < 0.05 * ring_mean


def test_abb_results_are_freshly_shared():
    """Nonlinear-op outputs must be re-randomized — a party's share of
    the result must not equal any function of its input shares alone."""
    vm = SecretSharingVM(3, Meter(), seed=2)
    x = vm.share(np.arange(100, dtype=np.int64))
    y = vm.share(np.arange(100, dtype=np.int64))
    eq = vm.eq(x, y)
    # result is all-ones but each party's share must look uniform
    for share in eq.shares[:-1]:
        assert len(np.unique(share)) > 95


def test_pushdown_changes_only_cardinalities(spark):
    """Theorem A.2's leakage: with vs without push-down, the MPC sees
    different input *lengths* but the revealed output is identical."""
    from repro.core.compiler import CompileOptions, compile_query
    from repro.queries.base import gen_to_spark
    from repro.runtime.engine import Engine

    gen = market_concentration.gen_inputs(n_per_party=80)
    outs = {}
    for allow in (True, False):
        spec = market_concentration.build()
        plan = compile_query(
            spec.output,
            CompileOptions(parties=spec.parties,
                           allow_cardinality_leaking_pushdown=allow),
        )
        eng = Engine(spark, [p.name for p in spec.parties])
        outs[allow] = eng.run(plan, gen_to_spark(spark, gen)).toPandas()
    assert outs[True]["hhi"].iloc[0] == pytest.approx(
        outs[False]["hhi"].iloc[0], abs=1e-4
    )
