"""Tests for the synthetic stand-ins of the paper's datasets."""
import numpy as np
import pytest

from repro import synth_data as S


@pytest.mark.parametrize("n", [1, 100, 5000])
def test_taxi_trips_shape_and_types(n):
    pdf = S.taxi_trips(n=n, seed=1)
    assert len(pdf) == n
    assert pdf["companyID"].dtype == np.int64
    assert pdf["price"].dtype == np.int64
    assert (pdf["price"] >= 0).all()


def test_taxi_trips_has_zero_fares_to_filter():
    pdf = S.taxi_trips(n=20_000, zero_fare_frac=0.05, seed=2)
    zero_frac = (pdf["price"] == 0).mean()
    assert 0.02 < zero_frac < 0.1


def test_taxi_trips_deterministic_in_seed():
    a = S.taxi_trips(n=100, seed=7)
    b = S.taxi_trips(n=100, seed=7)
    c = S.taxi_trips(n=100, seed=8)
    assert a.equals(b)
    assert not a.equals(c)


def test_credit_demographics_unique_ssns():
    pdf = S.credit_demographics(n=1000, seed=1)
    assert pdf["ssn"].is_unique
    assert (pdf["zip"] >= 10000).all()


def test_credit_scores_ssns_within_universe_and_unique():
    pdf = S.credit_scores(n=500, ssn_universe=1000, seed=3)
    assert pdf["ssn"].is_unique
    assert pdf["ssn"].between(1, 1000).all()
    assert pdf["score"].between(300, 850).all()


def test_credit_scores_capped_at_universe():
    pdf = S.credit_scores(n=100, ssn_universe=10, seed=3)
    assert len(pdf) == 10


@pytest.mark.parametrize("overlap", [0.0, 0.02, 0.5, 1.0])
def test_health_patient_ids_overlap(overlap):
    ids1, ids2 = S.health_patient_ids(
        n_per_party=1000, overlap_frac=overlap, seed=1
    )
    assert len(ids1) == len(ids2) == 1000
    shared = set(ids1) & set(ids2)
    assert len(shared) == int(1000 * overlap)


def test_health_diagnoses_cdiff_fraction():
    ids, _ = S.health_patient_ids(n_per_party=100, seed=1)
    pdf = S.health_diagnoses(patient_ids=ids, n=10_000, cdiff_frac=0.3, seed=2)
    frac = (pdf["diag"] == S.CDIFF_CODE).mean()
    assert 0.25 < frac < 0.35


def test_health_medications_aspirin_fraction():
    ids, _ = S.health_patient_ids(n_per_party=100, seed=1)
    pdf = S.health_medications(patient_ids=ids, n=10_000, aspirin_frac=0.2, seed=2)
    frac = (pdf["med"] == S.ASPIRIN_CODE).mean()
    assert 0.15 < frac < 0.25


def test_comorbidity_distinct_key_fraction():
    pdf = S.comorbidity_diagnoses(n=10_000, distinct_key_frac=0.1, seed=1)
    assert pdf["diag"].nunique() <= 1000
    assert pdf["diag"].nunique() > 900  # nearly all keys drawn at 10k rows
