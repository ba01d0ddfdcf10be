"""Simulated additive-secret-sharing MPC VM (the "Sharemind" substrate).

Values live in the ring Z_2^64 (numpy ``uint64``). A value ``x`` is split
into ``n_parties`` additive shares that sum to ``x`` mod 2^64; any proper
subset of shares is uniformly distributed and reveals nothing (tested in
``tests/test_secret_sharing.py``).

Protocol fidelity, per DESIGN.md §2.1:

* **Linear ops** (add, sub, negate, public-scalar multiply, public add)
  are genuinely share-local — each "party"'s share array is transformed
  independently, no communication.
* **Multiplication** runs the real Beaver-triple protocol: a trusted
  dealer (standard semi-honest preprocessing model) hands out triple
  shares; parties open the masked differences ``d = x - a`` and
  ``e = y - b`` (metered communication) and linearly combine.
* **Comparisons / equality / division** run as ideal arithmetic-black-box
  (ABB) functionalities: the VM reconstructs internally, computes, and
  re-shares a fresh sharing of the result, while charging the
  communication a real bit-decomposition protocol would cost. The fresh
  re-sharing keeps the share-level security invariant (any single party's
  view stays uniform).

All ops are vectorized over numpy arrays; communication *rounds* are
charged per batched op (Sharemind is SIMD-batched), *bytes* per element.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import Meter

RING_BITS = 64
_DTYPE = np.uint64
_WORD_BYTES = 8
#: Byte blow-up factor for ABB comparison/equality (bit-decomposition-style
#: protocols move a few ring elements per input bit; 5 words/element is in
#: the right regime for Sharemind-era protocols).
_CMP_WORDS_PER_ELEM = 5
#: Rounds per batched comparison (log k + constant).
_CMP_ROUNDS = 8
#: Rounds per batched ABB fixed-point division.
_DIV_ROUNDS = 16
_DIV_WORDS_PER_ELEM = 12


@dataclass(frozen=True)
class SharedVector:
    """An additively-shared vector: ``shares[i]`` is party *i*'s share.

    ``public`` marks the trivial sharing of values every party holds in
    the clear (:meth:`SecretSharingVM.public`: party 0's share is the
    values, every other share is zero). The mark is refused on shares
    that are not trivial, and only the share-local ``take`` and
    ``concat`` of public vectors keep it: every other op returns a secret
    vector."""

    shares: tuple[np.ndarray, ...]
    public: bool = False

    def __post_init__(self):
        if self.public and any(s.any() for s in self.shares[1:]):
            raise ValueError("only a trivial sharing can be marked public")

    def __len__(self) -> int:
        return len(self.shares[0])

    @property
    def n_parties(self) -> int:
        return len(self.shares)


def _as_ring(values: np.ndarray) -> np.ndarray:
    """Map signed/unsigned ints into the ring (two's complement)."""
    return np.asarray(values).astype(np.int64).view(_DTYPE).copy()


def _from_ring(values: np.ndarray) -> np.ndarray:
    """Interpret ring elements as signed 64-bit ints."""
    return values.view(np.int64).copy()


class SecretSharingVM:
    """Three-party (by default) additive-sharing MPC virtual machine.

    One VM instance models one MPC session between the parties; all
    communication is charged to ``meter``.
    """

    def __init__(self, n_parties: int = 3, meter: Meter | None = None, seed: int = 7):
        if n_parties < 2:
            raise ValueError("MPC needs at least 2 parties")
        self.n_parties = n_parties
        self.meter = meter if meter is not None else Meter()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ I/O
    def share(self, values: np.ndarray) -> SharedVector:
        """Secret-share a cleartext int vector (inputToMPC).

        The input owner sends one share to each other party: n-1 words per
        element over the network, one round.
        """
        shared = self._reshare(_as_ring(values))
        self.meter.charge_comm(
            rounds=1, bytes_sent=len(shared) * _WORD_BYTES * (self.n_parties - 1)
        )
        return shared

    def public(self, values: np.ndarray) -> SharedVector:
        """The trivial sharing of a public vector: party 0's share is the
        values, every other party's is zero. Every party knows the values
        already, so this is share-local and costs nothing."""
        ring = _as_ring(values)
        return SharedVector(
            (ring,) + tuple(np.zeros_like(ring) for _ in range(self.n_parties - 1)),
            public=True,
        )

    def public_values(self, sv: SharedVector) -> np.ndarray:
        """The values of a public vector (signed int64), which every party
        holds already: free. A secret vector's values are refused."""
        if not sv.public:
            raise ValueError("the values of a secret vector are not public")
        return _from_ring(sv.shares[0])

    def _reshare(self, cleartext_ring: np.ndarray) -> SharedVector:
        """Produce a fresh sharing of an internally-computed result
        (ideal-functionality output). No communication charge here; the
        calling ABB op charges its protocol cost.

        Each share but the last is one raw 64-bit draw, uniform over the
        ring; the last makes the shares sum to the value."""
        draw = self._rng.bit_generator.random_raw
        shares = [draw(len(cleartext_ring)) for _ in range(self.n_parties - 1)]
        last = cleartext_ring - shares[0]
        for s in shares[1:]:
            last -= s
        shares.append(last)
        return SharedVector(tuple(shares))

    def _reconstruct_ring(self, sv: SharedVector) -> np.ndarray:
        total = sv.shares[0].copy()
        for s in sv.shares[1:]:
            total += s
        return total

    def reveal(self, sv: SharedVector) -> np.ndarray:
        """Open a shared vector to all parties (metered) → signed int64."""
        self.meter.charge_comm(
            rounds=1,
            bytes_sent=len(sv) * _WORD_BYTES * self.n_parties * (self.n_parties - 1),
        )
        return _from_ring(self._reconstruct_ring(sv))

    def reveal_to(
        self, vs: list[SharedVector], _party: str | int = 0
    ) -> list[np.ndarray]:
        """Open each of the shared vectors ``vs`` to a single party (e.g.
        the STP), all in the same round."""
        self.meter.charge_comm(
            rounds=1,
            bytes_sent=sum(len(v) for v in vs) * _WORD_BYTES * (self.n_parties - 1),
        )
        return [_from_ring(self._reconstruct_ring(v)) for v in vs]

    # ------------------------------------------------------- linear algebra
    def add(self, a: SharedVector, b: SharedVector) -> SharedVector:
        return SharedVector(tuple(x + y for x, y in zip(a.shares, b.shares)))

    def sub(self, a: SharedVector, b: SharedVector) -> SharedVector:
        return SharedVector(tuple(x - y for x, y in zip(a.shares, b.shares)))

    def mul_public(self, a: SharedVector, c: np.ndarray | int) -> SharedVector:
        cr = _as_ring(np.broadcast_to(np.asarray(c, dtype=np.int64), (len(a),)))
        return SharedVector(tuple(s * cr for s in a.shares))

    def sum(self, a: SharedVector, starts: np.ndarray | None = None) -> SharedVector:
        """Share-local sum over the vector → length-1 shared vector. With
        ``starts`` (the public, strictly ascending first positions of the
        consecutive segments that cover the vector), one sum per segment."""
        if starts is None:
            return SharedVector(
                tuple(np.array([s.sum(dtype=_DTYPE)], dtype=_DTYPE) for s in a.shares)
            )
        return SharedVector(tuple(np.add.reduceat(s, starts) for s in a.shares))

    def cumsum(self, a: SharedVector) -> SharedVector:
        """Share-local inclusive prefix sum. Each party's prefix sums wrap
        mod 2^64 as the values' do, so they share the values' prefixes."""
        return SharedVector(tuple(np.cumsum(s, dtype=_DTYPE) for s in a.shares))

    # ---------------------------------------------------- Beaver multiply
    def mul(self, x: SharedVector, y: SharedVector) -> SharedVector:
        """Real Beaver-triple multiplication. A trusted dealer (semi-honest
        preprocessing) gives each party i shares a_i, b_i, c_i of random a,
        b and c = a·b; the parties open d = x - a and e = y - b, and party i
        takes z_i = c_i + d·b_i + e·a_i, party 0 adding the public d·e.

        The dealer draws the shares party by party, the last party's being
        what remains of a, b and c, and each party's z_i is built in place,
        so the protocol holds about ten vectors of n words at a time, its
        output included."""
        n = len(x)
        draw = self._rng.bit_generator.random_raw
        a, b = draw(n), draw(n)
        c = a * b
        # the opened d = Σ x_i - Σ a_i, as Σ a_i = a; e likewise
        d = self._reconstruct_ring(x)
        d -= a
        e = self._reconstruct_ring(y)
        e -= b
        # Two openings in one round (batched), each n words to each of the
        # other parties from each party.
        self.meter.charge_comm(
            rounds=1,
            bytes_sent=2 * n * _WORD_BYTES * self.n_parties * (self.n_parties - 1),
        )
        z_shares = []
        for _ in range(self.n_parties - 1):
            # the party's shares of b, c and a, each drawn, used and dropped
            # in turn; what remains of a, b and c is the last party's
            share = draw(n)
            zi = d * share
            b -= share
            share = draw(n)
            zi += share
            c -= share
            share = draw(n)
            zi += e * share
            a -= share
            z_shares.append(zi)
        zi = d * b
        zi += c
        zi += e * a
        z_shares.append(zi)
        z_shares[0] += d * e
        return SharedVector(tuple(z_shares))

    # ----------------------------------------------------- ABB nonlinear ops
    def _abb(self, result: np.ndarray, *, rounds: int, words_per_elem: int,
             n_elems: int) -> SharedVector:
        self.meter.charge_comm(
            rounds=rounds,
            bytes_sent=n_elems
            * words_per_elem
            * _WORD_BYTES
            * self.n_parties
            * (self.n_parties - 1),
        )
        return self._reshare(_as_ring(result))

    def lt(self, a: SharedVector, b: SharedVector) -> SharedVector:
        """Shared [a < b] (signed). ABB functionality, bit-decomposition cost."""
        av = _from_ring(self._reconstruct_ring(a))
        bv = _from_ring(self._reconstruct_ring(b))
        return self._abb(
            (av < bv).astype(np.int64),
            rounds=_CMP_ROUNDS, words_per_elem=_CMP_WORDS_PER_ELEM, n_elems=len(a),
        )

    def eq(self, a: SharedVector, b: SharedVector) -> SharedVector:
        """Shared [a == b]. ABB functionality, bit-decomposition cost."""
        av = self._reconstruct_ring(a)
        bv = self._reconstruct_ring(b)
        return self._abb(
            (av == bv).astype(np.int64),
            rounds=_CMP_ROUNDS, words_per_elem=_CMP_WORDS_PER_ELEM, n_elems=len(a),
        )

    def div_fixed(self, num: SharedVector, den: SharedVector, scale: int) -> SharedVector:
        """Fixed-point division: floor(num * scale / den). ABB functionality
        (real secret-shared division is Goldschmidt-style iteration)."""
        nv = _from_ring(self._reconstruct_ring(num)).astype(object)
        dv = _from_ring(self._reconstruct_ring(den)).astype(object)
        out = np.array(
            [int(n * scale) // int(d) if d != 0 else 0 for n, d in zip(nv, dv)],
            dtype=np.int64,
        )
        return self._abb(
            out, rounds=_DIV_ROUNDS, words_per_elem=_DIV_WORDS_PER_ELEM,
            n_elems=len(num),
        )

    # ----------------------------------------------- data-movement protocols
    def permute_public(self, a: SharedVector, perm: np.ndarray) -> SharedVector:
        """Reorder by a *public* permutation — share-local, free."""
        return SharedVector(tuple(s[perm] for s in a.shares))

    def oblivious_permute(
        self, batches: list[tuple[list[SharedVector], np.ndarray]]
    ) -> list[list[SharedVector]]:
        """Apply each batch's permutation, hidden from all parties, to
        every vector of the batch (resharing-based shuffle). The batches
        are independent, so they are reshared in the same p rounds,
        whatever their number and that of their vectors, at O(n) words
        per vector and party pair. Each ``perm`` is drawn from the
        protocol's private coins, which no party sees."""
        n = sum(len(a) for vs, _ in batches for a in vs)
        self.meter.charge_comm(
            rounds=self.n_parties,
            bytes_sent=n * _WORD_BYTES * self.n_parties * (self.n_parties - 1),
        )
        return [[self._reshare(self._reconstruct_ring(a)[perm]) for a in vs]
                for vs, perm in batches]

    def gather(
        self, batches: list[tuple[list[SharedVector], np.ndarray]],
        dealer: str | int | None = None,
    ) -> list[list[SharedVector]]:
        """Oblivious parallel read (Laud, PoPETs 2015): for each batch
        ``(vs, idx)``, pick the rows at secret positions ``idx`` of every
        vector of ``vs`` (all of one length n). The part that depends only
        on the m indexes builds the read permutation σ of the n+m index
        records, once per batch. With no ``dealer`` the parties sort the
        records obliviously into a prepared permutation: ⌈log₂(n+m)⌉
        rounds and (n+m)·log₂(n+m) words per party pair. A ``dealer`` (a
        party that holds every ``idx`` in the clear, as a hybrid join's
        STP does) computes σ itself and deals it as a prepared permutation
        instead: each other party gets a piece drawn at random, whatever
        the indexes, and the dealer keeps the piece that completes σ. The
        deal is one round for all batches, n+m words from the dealer to
        each of the p−1 others, so (n+m)/p words per party pair. Each
        vector then costs the linear part, two applications of σ to its
        n+m records with a local prefix sum between them: 2(n+m) words
        per party pair, in 2p rounds shared by all the vectors.
        Independent batches run side by side: the rounds of the longest,
        the words of all. A batch with no vector reads nothing."""
        rounds, words = 0, 0.0
        for vs, idx in batches:
            if vs:
                records = len(vs[0]) + len(idx)
                if dealer is None:
                    logf = max(1.0, np.log2(max(2, records)))
                    index_rounds, index_words = int(np.ceil(logf)), logf
                else:
                    index_rounds, index_words = 1, 1 / self.n_parties
                rounds = max(rounds, index_rounds + 2 * self.n_parties)
                words += records * (index_words + 2 * len(vs))
        self.meter.charge_comm(
            rounds=rounds,
            bytes_sent=words * _WORD_BYTES * self.n_parties * (self.n_parties - 1),
        )
        return [[self._reshare(self._reconstruct_ring(a)[idx]) for a in vs]
                for vs, idx in batches]

    def concat(self, vs: list[SharedVector]) -> SharedVector:
        """Row-wise concatenation of shared vectors — share-local."""
        return SharedVector(
            tuple(
                np.concatenate([v.shares[i] for v in vs])
                for i in range(vs[0].n_parties)
            ),
            public=all(v.public for v in vs),
        )

    def take(self, a: SharedVector, mask_or_slice) -> SharedVector:
        """Share-local selection by public mask/slice/index array."""
        return SharedVector(tuple(s[mask_or_slice] for s in a.shares), public=a.public)
