"""The credit-card regulation query — §2.1, Listing 1, evaluated in
§7.3 / Figure 6 (our Table T4).

The regulator (party a) holds ssn→zip demographics; two credit agencies
(b, c) hold ssn→score portfolios and annotate their ssn columns with
``trust=[a]``, making the regulator an STP. Conclave then compiles the
join into a §5.3 *hybrid join*. The per-ZIP SUM and COUNT are sibling
aggregations of the joined relation with the same group column, so they
merge into one *hybrid aggregation* over one clear sort of the relation
at the STP, and the join on ``zip`` that put them side by side becomes
a projection. The average is computed in the clear at the regulator
(push-up of the final division): the regulator receives ``total`` and
``cnt`` anyway.
"""
from __future__ import annotations

import pandas as pd

from .. import synth_data
from ..core import dag as D
from ..core.columns import Column, Party
from ..core.lang import concat, newTable
from .base import QuerySpec


def build(*, with_trust: bool = True) -> QuerySpec:
    pA, pB, pC = Party("a"), Party("b"), Party("c")
    demo = newTable(
        [Column("ssn"), Column("zip")], at=pA, name="demographics"
    )
    bank_trust = (pA,) if with_trust else ()
    bank_schema = lambda: [Column("ssn", trust=bank_trust), Column("score")]  # noqa: E731
    scores1 = newTable(bank_schema(), at=pB, name="scores_b")
    scores2 = newTable(bank_schema(), at=pC, name="scores_c")
    scores = concat([scores1, scores2])
    joined = demo.join(scores, left="ssn", right="ssn")
    total = joined.aggregate("total", D.SUM, group=["zip"], over="score")
    by_zip = joined.aggregate("cnt", D.COUNT, group=["zip"])
    avg = total.join(by_zip, left="zip", right="zip").divide(
        "avg_score", "total", by="cnt"
    )
    out = avg.collect(to=[pA])
    sql = """
        WITH scores AS (
            SELECT * FROM scores_b UNION ALL SELECT * FROM scores_c
        ),
        joined AS (
            SELECT d.zip AS zip, s.score AS score
            FROM demographics d JOIN scores s ON d.ssn = s.ssn
        )
        SELECT zip,
               SUM(score) AS total,
               COUNT(*) AS cnt,
               SUM(score) * 1.0 / COUNT(*) AS avg_score
        FROM joined GROUP BY zip
    """
    return QuerySpec(
        name="credit_card",
        parties=[pA, pB, pC],
        output=out,
        oracle_sql=sql,
        input_names=["demographics", "scores_b", "scores_c"],
    )


def gen_inputs(*, n_holders: int, n_per_bank: int | None = None, seed: int = 0
               ) -> dict[str, pd.DataFrame]:
    """Regulator demographics over ``n_holders`` SSNs; each bank holds
    scores for roughly half of them."""
    n_per_bank = n_per_bank or n_holders // 2
    return {
        "demographics": synth_data.credit_demographics(n=n_holders, seed=seed),
        "scores_b": synth_data.credit_scores(
            n=n_per_bank, ssn_universe=n_holders, seed=seed + 1
        ),
        "scores_c": synth_data.credit_scores(
            n=n_per_bank, ssn_universe=n_holders, seed=seed + 2
        ),
    }
