"""Tests for the real garbled-circuit engine (free-XOR, point-and-permute)."""
import numpy as np
import pytest

from repro.mpc import circuits as C
from repro.mpc.garbled import Garbler, evaluate_garbled, run_two_party

from .reference import int_to_bits


def _rng():
    return np.random.default_rng(13)


@pytest.mark.parametrize("k", [1, 4, 8, 16])
@pytest.mark.parametrize("op", ["eq", "lt", "add"])
def test_garbled_matches_cleartext(op, k):
    b = C.Builder()
    circ = C.BUILDERS[op](b, k)
    g = _rng()
    for _ in range(5):
        bits = [int(x) for x in g.integers(0, 2, circ.n_inputs)]
        expected = C.evaluate(circ, bits)
        garbler = Garbler(circ)
        got, _ = evaluate_garbled(garbler.garbled, garbler.encode_inputs(bits))
        assert got == expected


def test_two_party_split_inputs():
    """Garbler holds x, evaluator holds y; both learn x == y only."""
    b = C.Builder()
    circ = C.BUILDERS["eq"](b, 8)
    assert run_two_party(circ, int_to_bits(42, 8), int_to_bits(42, 8)) == [1]
    assert run_two_party(circ, int_to_bits(42, 8), int_to_bits(43, 8)) == [0]


def test_evaluator_sees_exactly_one_valid_label_per_wire():
    """Security invariant: the evaluator's label for every wire is one of
    the two valid labels, and it never holds both."""
    b = C.Builder()
    circ = C.BUILDERS["cmp_swap"](b, 4)
    g = _rng()
    bits = [int(x) for x in g.integers(0, 2, circ.n_inputs)]
    garbler = Garbler(circ)
    _, seen = evaluate_garbled(garbler.garbled, garbler.encode_inputs(bits))
    for w, label in seen.items():
        l0 = garbler.zero_labels[w]
        l1 = bytes(a ^ b for a, b in zip(l0, garbler.R))
        assert label in (l0, l1)


def test_garbled_tables_are_input_independent():
    """The garbled circuit (table sizes/structure) must not depend on the
    input values — only the input labels differ."""
    b = C.Builder()
    circ = C.BUILDERS["lt"](b, 8)
    garbler = Garbler(circ)
    sizes = {gi: [len(r) for r in rows] for gi, rows in garbler.garbled.tables.items()}
    for rows in sizes.values():
        assert rows == [16, 16, 16, 16]
    # same garbling evaluates correctly on two different inputs
    for x, y in [(3, 200), (200, 3)]:
        bits = int_to_bits(x, 8) + int_to_bits(y, 8)
        got, _ = evaluate_garbled(garbler.garbled, garbler.encode_inputs(bits))
        assert got == [int(x < y)]


def test_free_xor_offset_has_odd_lsb():
    b = C.Builder()
    circ = C.BUILDERS["eq"](b, 2)
    garbler = Garbler(circ)
    assert garbler.R[0] & 1 == 1


def test_encode_rejects_wrong_width():
    b = C.Builder()
    circ = C.BUILDERS["eq"](b, 4)
    garbler = Garbler(circ)
    with pytest.raises(ValueError):
        garbler.encode_inputs([0, 1])


def test_and_gate_count_equals_tables():
    b = C.Builder()
    circ = C.BUILDERS["add"](b, 8)
    garbler = Garbler(circ)
    assert len(garbler.garbled.tables) == circ.n_and
