"""Tests for the boolean circuit builders and cleartext evaluator."""
import numpy as np
import pytest

from repro.mpc import circuits as C

from .reference import bits_to_int, int_to_bits


def _rng():
    return np.random.default_rng(9)


@pytest.mark.parametrize("k", [1, 4, 8, 16, 32])
@pytest.mark.parametrize("op", ["eq", "lt", "add"])
def test_primitive_circuits_match_python(op, k):
    b = C.Builder()
    circ = C.BUILDERS[op](b, k)
    g = _rng()
    for _ in range(20):
        x = int(g.integers(0, 1 << k))
        y = int(g.integers(0, 1 << k))
        got = C.evaluate(circ, int_to_bits(x, k) + int_to_bits(y, k))
        if op == "eq":
            assert got == [int(x == y)]
        elif op == "lt":
            assert got == [int(x < y)]
        else:
            assert bits_to_int(got) == (x + y) % (1 << k)


@pytest.mark.parametrize("k", [4, 8, 16])
def test_cmp_swap_circuit(k):
    b = C.Builder()
    circ = C.BUILDERS["cmp_swap"](b, k)
    g = _rng()
    for _ in range(20):
        x = int(g.integers(0, 1 << k))
        y = int(g.integers(0, 1 << k))
        out = C.evaluate(circ, int_to_bits(x, k) + int_to_bits(y, k))
        lo, hi = bits_to_int(out[:k]), bits_to_int(out[k:])
        assert (lo, hi) == (min(x, y), max(x, y))


@pytest.mark.parametrize("k", [1, 8, 32])
def test_mux_circuit(k):
    b = C.Builder()
    circ = C.BUILDERS["mux"](b, k)
    g = _rng()
    for _ in range(10):
        s = int(g.integers(0, 2))
        x = int(g.integers(0, 1 << k))
        y = int(g.integers(0, 1 << k))
        out = C.evaluate(circ, [s] + int_to_bits(x, k) + int_to_bits(y, k))
        assert bits_to_int(out) == (y if s else x)


def test_bits_roundtrip():
    for v in [0, 1, 5, 255, 2**31 - 1]:
        assert bits_to_int(int_to_bits(v, 32)) == v


def test_gate_counts_scale_with_width():
    a8, _ = C.gate_counts("eq", 8)
    a32, _ = C.gate_counts("eq", 32)
    assert a32 > a8
    # eq over k bits needs k-1 ANDs for the tree + k NOT-free XNORs
    assert a8 == 7 and a32 == 31
    lt_and, _ = C.gate_counts("lt", 32)
    assert lt_and >= 32  # at least one AND per borrow stage


def test_gate_counts_cached():
    assert C.gate_counts("add", 16) is C.gate_counts("add", 16) or (
        C.gate_counts("add", 16) == C.gate_counts("add", 16)
    )


def test_inputs_must_precede_gates():
    b = C.Builder()
    xs = b.input_bits(2)
    b.xor(xs[0], xs[1])
    with pytest.raises(RuntimeError):
        b.input_bits(1)


def test_evaluate_rejects_wrong_width():
    b = C.Builder()
    circ = C.BUILDERS["eq"](b, 4)
    with pytest.raises(ValueError):
        C.evaluate(circ, [0, 1])
