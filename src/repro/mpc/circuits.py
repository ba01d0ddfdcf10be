"""Boolean circuit IR and builders for the garbled-circuit substrate.

Circuits are built once per (operation, bit-width) and serve two roles:

1. the **real garbling engine** (:mod:`repro.mpc.garbled`) garbles and
   evaluates them gate-by-gate — proven correct in unit tests;
2. the **Obliv-C/ObliVM relational backend**
   (:mod:`repro.mpc.gc_backend`) reads their exact AND/XOR gate counts
   to charge time and memory for large bulk operations that would be
   infeasible to garble gate-by-gate in Python.

Gate set: XOR, AND, NOT (NOT is free under free-XOR garbling; XOR is
free; only AND carries cryptographic cost). Values are little-endian bit
vectors. Comparisons treat inputs as unsigned — callers offset-encode
signed data (the relational layer shifts by 2^62).
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Circuit:
    """A gate list over numbered wires.

    Wires ``0 .. n_inputs-1`` are inputs; gates append new wires. The
    constant-one wire (for NOT) is allocated lazily as an extra input.
    """

    n_inputs: int
    gates: list[tuple[str, int, int, int]] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    n_wires: int = 0
    one_wire: int | None = None

    @property
    def n_and(self) -> int:
        return sum(1 for g in self.gates if g[0] == "AND")

    @property
    def n_xor(self) -> int:
        return sum(1 for g in self.gates if g[0] in ("XOR", "NOT"))


class Builder:
    """Convenience constructor for circuits over k-bit integers."""

    def __init__(self):
        self.c = Circuit(n_inputs=0)
        self.c.n_wires = 0

    # -- wires ----------------------------------------------------------
    def input_bits(self, k: int) -> list[int]:
        if self.c.gates:
            raise RuntimeError("declare all inputs before adding gates")
        start = self.c.n_inputs
        self.c.n_inputs += k
        self.c.n_wires = self.c.n_inputs
        return list(range(start, start + k))

    def _new_wire(self) -> int:
        w = self.c.n_wires
        self.c.n_wires += 1
        return w

    # -- primitive gates ------------------------------------------------
    def xor(self, a: int, b: int) -> int:
        w = self._new_wire()
        self.c.gates.append(("XOR", a, b, w))
        return w

    def and_(self, a: int, b: int) -> int:
        w = self._new_wire()
        self.c.gates.append(("AND", a, b, w))
        return w

    def not_(self, a: int) -> int:
        w = self._new_wire()
        self.c.gates.append(("NOT", a, a, w))
        return w

    def or_(self, a: int, b: int) -> int:
        # a | b = ~(~a & ~b): one AND
        return self.not_(self.and_(self.not_(a), self.not_(b)))

    # -- arithmetic / comparison blocks ---------------------------------
    def add(self, xs: list[int], ys: list[int]) -> list[int]:
        """Ripple-carry adder, k-bit wraparound. 2 ANDs per full adder
        (carry = (x&y) | (c&(x^y)) with the OR costing one more AND)."""
        assert len(xs) == len(ys)
        out, carry = [], None
        for x, y in zip(xs, ys):
            s = self.xor(x, y)
            if carry is None:
                out.append(s)
                carry = self.and_(x, y)
            else:
                out.append(self.xor(s, carry))
                carry = self.or_(self.and_(x, y), self.and_(carry, s))
        return out

    def eq(self, xs: list[int], ys: list[int]) -> int:
        """Equality bit: AND-tree over bitwise XNOR — k-1 ANDs."""
        assert len(xs) == len(ys)
        bits = [self.not_(self.xor(x, y)) for x, y in zip(xs, ys)]
        while len(bits) > 1:
            nxt = [
                self.and_(bits[i], bits[i + 1]) for i in range(0, len(bits) - 1, 2)
            ]
            if len(bits) % 2:
                nxt.append(bits[-1])
            bits = nxt
        return bits[0]

    def lt(self, xs: list[int], ys: list[int]) -> int:
        """Unsigned x < y via ripple borrow: borrow_out of x - y."""
        assert len(xs) == len(ys)
        borrow = None
        for x, y in zip(xs, ys):
            nx = self.not_(x)
            if borrow is None:
                borrow = self.and_(nx, y)
            else:
                # borrow' = (~x & y) | (borrow & ~(x ^ y))
                t1 = self.and_(nx, y)
                t2 = self.and_(borrow, self.not_(self.xor(x, y)))
                borrow = self.or_(t1, t2)
        return borrow

    def mux(self, sel: int, xs: list[int], ys: list[int]) -> list[int]:
        """Per-bit select: sel ? ys : xs. One AND per bit
        (out = x ^ (sel & (x ^ y)))."""
        assert len(xs) == len(ys)
        return [self.xor(x, self.and_(sel, self.xor(x, y))) for x, y in zip(xs, ys)]

    def set_outputs(self, wires: list[int]) -> Circuit:
        self.c.outputs = list(wires)
        return self.c


def evaluate(circuit: Circuit, input_bits: list[int]) -> list[int]:
    """Cleartext reference evaluation (ground truth for garbling tests)."""
    if len(input_bits) != circuit.n_inputs:
        raise ValueError("input width mismatch")
    wires = dict(enumerate(input_bits))
    for op, a, b, out in circuit.gates:
        if op == "XOR":
            wires[out] = wires[a] ^ wires[b]
        elif op == "AND":
            wires[out] = wires[a] & wires[b]
        elif op == "NOT":
            wires[out] = 1 - wires[a]
        else:  # pragma: no cover
            raise ValueError(op)
    return [wires[w] for w in circuit.outputs]


# ---------------------------------------------------------- gate counting
def _count(build_fn, k: int) -> tuple[int, int]:
    b = Builder()
    circ = build_fn(b, k)
    return circ.n_and, circ.n_xor


def _build_eq(b: Builder, k: int) -> Circuit:
    xs, ys = b.input_bits(k), b.input_bits(k)
    return b.set_outputs([b.eq(xs, ys)])


def _build_lt(b: Builder, k: int) -> Circuit:
    xs, ys = b.input_bits(k), b.input_bits(k)
    return b.set_outputs([b.lt(xs, ys)])


def _build_add(b: Builder, k: int) -> Circuit:
    xs, ys = b.input_bits(k), b.input_bits(k)
    return b.set_outputs(b.add(xs, ys))


def _build_cmp_swap(b: Builder, k: int) -> Circuit:
    """Sorting-network comparator: 2 k-bit values in, min/max out."""
    xs, ys = b.input_bits(k), b.input_bits(k)
    swap = b.lt(ys, xs)
    lo = b.mux(swap, xs, ys)
    hi = b.mux(swap, ys, xs)
    return b.set_outputs(lo + hi)


def _build_mux(b: Builder, k: int) -> Circuit:
    s = b.input_bits(1)[0]
    xs, ys = b.input_bits(k), b.input_bits(k)
    return b.set_outputs(b.mux(s, xs, ys))


BUILDERS = {
    "eq": _build_eq,
    "lt": _build_lt,
    "add": _build_add,
    "cmp_swap": _build_cmp_swap,
    "mux": _build_mux,
}

_COUNT_CACHE: dict[tuple[str, int], tuple[int, int]] = {}


def gate_counts(op: str, k: int) -> tuple[int, int]:
    """(AND gates, XOR gates) of the named k-bit primitive — the exact
    counts the GC cost model multiplies by element counts."""
    key = (op, k)
    if key not in _COUNT_CACHE:
        _COUNT_CACHE[key] = _count(BUILDERS[op], k)
    return _COUNT_CACHE[key]
