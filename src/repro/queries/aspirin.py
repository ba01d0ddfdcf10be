"""The SMCQL *aspirin count* query — §7.4 / Figure 7a (our Table T5).

Two hospitals hold diagnosis and medication events partitioned by
patient. Patient IDs are public (anonymized, per SMCQL's HealthLNK
setting); diagnosis and medication codes are private. The query joins
diagnoses to medications per patient, filters for a c.diff diagnosis
and an aspirin prescription, and counts distinct patients.

Under Conclave the join compiles to a §5.3 *public join* (keys public),
so only rows for patient IDs present at both hospitals enter MPC, and
the patient ID enters it public. The distinct count then needs no sort
or scan: each party sums the filter mask per patient share-locally, and
one equality batch over the patients finds those the filters emptied
(beyond the paper's Conclave, which scans the rows the clear join left
sorted by patient ID, §5.4).
"""
from __future__ import annotations

import pandas as pd

from .. import synth_data
from ..core.columns import Column, Party
from ..core.lang import concat, newTable
from .base import QuerySpec


def build() -> QuerySpec:
    h1, h2 = Party("h1"), Party("h2")
    diag_schema = lambda: [Column("patient_id", public=True), Column("diag")]  # noqa: E731
    med_schema = lambda: [Column("patient_id", public=True), Column("med")]  # noqa: E731
    diags = concat(
        [
            newTable(diag_schema(), at=h1, name="diag_h1"),
            newTable(diag_schema(), at=h2, name="diag_h2"),
        ]
    )
    meds = concat(
        [
            newTable(med_schema(), at=h1, name="med_h1"),
            newTable(med_schema(), at=h2, name="med_h2"),
        ]
    )
    joined = diags.join(meds, left="patient_id", right="patient_id")
    filtered = joined.filter("diag", "==", synth_data.CDIFF_CODE).filter(
        "med", "==", synth_data.ASPIRIN_CODE
    )
    rx = filtered.distinct_count("patient_id", "rx_cnt")
    out = rx.collect(to=[h1])
    sql = f"""
        WITH diags AS (SELECT * FROM diag_h1 UNION ALL SELECT * FROM diag_h2),
        meds AS (SELECT * FROM med_h1 UNION ALL SELECT * FROM med_h2)
        SELECT COUNT(DISTINCT d.patient_id) AS rx_cnt
        FROM diags d JOIN meds m ON d.patient_id = m.patient_id
        WHERE d.diag = {synth_data.CDIFF_CODE}
          AND m.med = {synth_data.ASPIRIN_CODE}
    """
    return QuerySpec(
        name="aspirin_count",
        parties=[h1, h2],
        output=out,
        oracle_sql=sql,
        input_names=["diag_h1", "diag_h2", "med_h1", "med_h2"],
    )


def gen_inputs(*, n_per_party: int, overlap_frac: float = 0.02, seed: int = 0
               ) -> dict[str, pd.DataFrame]:
    ids1, ids2 = synth_data.health_patient_ids(
        n_per_party=max(1, n_per_party), overlap_frac=overlap_frac, seed=seed
    )
    return {
        "diag_h1": synth_data.health_diagnoses(
            patient_ids=ids1, n=n_per_party, seed=seed
        ),
        "diag_h2": synth_data.health_diagnoses(
            patient_ids=ids2, n=n_per_party, seed=seed + 1
        ),
        "med_h1": synth_data.health_medications(
            patient_ids=ids1, n=n_per_party, seed=seed + 2
        ),
        "med_h2": synth_data.health_medications(
            patient_ids=ids2, n=n_per_party, seed=seed + 3
        ),
    }
