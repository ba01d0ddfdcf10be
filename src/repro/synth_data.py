"""Synthetic stand-ins for the Conclave paper's datasets (DESIGN.md §2.1).

NYC taxi trips (§7.1), credit-card regulation data (§2.1/§7.3) and
HealthLNK-like diagnoses/medications (§7.4), one pandas frame per party.
Sizes are row counts chosen by the caller; every generator is
deterministic in ``seed`` so the DuckDB oracle sees identical input.
All MPC-bound columns are int64 (money in cents, codes int-encoded).
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


ASPIRIN_CODE = 7001
CDIFF_CODE = 4123


def taxi_trips(
    *, n: int, n_companies: int = 3, company_offset: int = 0,
    zero_fare_frac: float = 0.02, seed: int = 0,
) -> pd.DataFrame:
    """One VFH company's share of NYC-taxi-like trips: (companyID,
    price) with price in cents. A small fraction of zero-fare trips is
    included so the query's price>0 filter has work to do (the paper
    filters zero-fare trips from the TLC data)."""
    g = _rng(seed)
    company = g.integers(company_offset, company_offset + n_companies, n)
    price = g.integers(250, 9000, n)
    zero = g.random(n) < zero_fare_frac
    price = np.where(zero, 0, price)
    return pd.DataFrame(
        {"companyID": company.astype(np.int64), "price": price.astype(np.int64)}
    )


def credit_demographics(*, n: int, n_zip: int | None = None, seed: int = 0) -> pd.DataFrame:
    """Regulator-side data: ssn -> zip for `n` card holders."""
    g = _rng(seed)
    n_zip = n_zip or max(1, n // 50)
    return pd.DataFrame(
        {
            "ssn": np.arange(1, n + 1, dtype=np.int64),
            "zip": g.integers(10000, 10000 + n_zip, n).astype(np.int64),
        }
    )


def credit_scores(
    *, n: int, ssn_universe: int, seed: int = 1
) -> pd.DataFrame:
    """One credit agency's portfolio: (ssn, score). SSNs are drawn
    without replacement from the regulator's universe so the join is
    ~1:1 (a card holder appears at most once per agency)."""
    g = _rng(seed)
    ssn = g.choice(np.arange(1, ssn_universe + 1), size=min(n, ssn_universe),
                   replace=False)
    return pd.DataFrame(
        {
            "ssn": ssn.astype(np.int64),
            "score": g.integers(300, 851, len(ssn)).astype(np.int64),
        }
    )


def health_patient_ids(
    *, n_per_party: int, overlap_frac: float = 0.02, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Two hospitals' patient-ID pools with ``overlap_frac`` of IDs
    shared (the HealthLNK-like 2% overlap of §7.4)."""
    n_shared = int(n_per_party * overlap_frac)
    shared = np.arange(1, n_shared + 1)
    a_only = np.arange(1_000_000, 1_000_000 + n_per_party - n_shared)
    b_only = np.arange(2_000_000, 2_000_000 + n_per_party - n_shared)
    return (
        np.concatenate([shared, a_only]).astype(np.int64),
        np.concatenate([shared, b_only]).astype(np.int64),
    )


def health_diagnoses(
    *, patient_ids: np.ndarray, n: int, cdiff_frac: float = 0.3,
    n_codes: int = 50, seed: int = 0,
) -> pd.DataFrame:
    """(patient_id, diag) events; ``cdiff_frac`` carry the c.diff code."""
    g = _rng(seed)
    pid = g.choice(patient_ids, size=n)
    diag = g.integers(1, n_codes + 1, n).astype(np.int64)
    diag = np.where(g.random(n) < cdiff_frac, CDIFF_CODE, diag)
    return pd.DataFrame({"patient_id": pid.astype(np.int64), "diag": diag})


def health_medications(
    *, patient_ids: np.ndarray, n: int, aspirin_frac: float = 0.3,
    n_codes: int = 50, seed: int = 1,
) -> pd.DataFrame:
    """(patient_id, med) prescriptions; ``aspirin_frac`` are aspirin."""
    g = _rng(seed)
    pid = g.choice(patient_ids, size=n)
    med = g.integers(10_000, 10_000 + n_codes, n).astype(np.int64)
    med = np.where(g.random(n) < aspirin_frac, ASPIRIN_CODE, med)
    return pd.DataFrame({"patient_id": pid.astype(np.int64), "med": med})


def keyed(n: int, *, seed: int, n_keys: int, value: str = "v") -> pd.DataFrame:
    """``n`` rows of a key ``k`` drawn from 1..``n_keys`` and a column
    ``value`` drawn from 0..999: the single-operator benchmarks' input."""
    g = _rng(seed)
    return pd.DataFrame({
        "k": g.integers(1, n_keys + 1, n).astype(np.int64),
        value: g.integers(0, 1000, n).astype(np.int64),
    })


def comorbidity_diagnoses(
    *, n: int, distinct_key_frac: float = 0.1, seed: int = 0
) -> pd.DataFrame:
    """Diagnosis events for the comorbidity query: the number of distinct
    diagnosis codes is ``distinct_key_frac`` of the row count (§7.4)."""
    g = _rng(seed)
    n_keys = max(1, int(n * distinct_key_frac))
    return pd.DataFrame(
        {"diag": g.integers(1, n_keys + 1, n).astype(np.int64)}
    )
