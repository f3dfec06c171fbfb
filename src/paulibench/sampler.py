"""Exact batch simulation of both measurement protocols.

No state vectors appear here.  Both circuits are simulated purely on Pauli
labels, which is exact for Pauli noise:

* Channel-estimation round (ancilla-assisted, stabilizer-assisted): the
  channel applies P_a with probability p_a.  The Bell pairs on the first k
  qubits turn the error's k-qubit part directly into the Bell outcome
  v = a_B, and on the remaining m = n-k qubits the stabilizer-basis
  measurement yields the syndrome e_j = <g_j, a_C>, computed for the whole
  batch by `StabilizerGroup.syndromes`.  The induced (v, e) distribution
  is checked against the dense matrix oracle in the suite.

* Benchmarking shot of sequence length m: Pauli gates conjugate Pauli
  errors to themselves up to phase, so the Bell outcome is the XOR of the
  m+1 uniformly random gate labels with every error label drawn along the
  way (preparation, one per gate, measurement).  SPAM noise on the ancilla
  side is folded into the effective preparation/measurement channels: a
  Pauli error (c, d) across a Bell pair shifts the outcome by c XOR d, so
  single n-qubit prep and meas channels lose no generality for Pauli SPAM.

Per-shot work is O(m) label XORs; every sampler is vectorized over shots
and returns uint64 label arrays, so a single shot is a batch of size 1.
Callers own the RNG; see `seeding.derive_rng` for the reproducibility
contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel
from .errors import CapabilityError, UsageError
from .stabilizer import StabilizerGroup

_DIST_ARRAY_LIMIT = 1 << 26


@dataclass(frozen=True)
class NoiseModel:
    """Pauli gate/prep/meas noise for the benchmarking protocol."""

    n: int
    gate: PauliChannel
    prep: PauliChannel
    meas: PauliChannel

    def __post_init__(self):
        for name in ("gate", "prep", "meas"):
            ch = getattr(self, name)
            if ch.n != self.n:
                raise UsageError(f"{name} channel has n={ch.n}, expected {self.n}")

    @classmethod
    def with_depolarizing_spam(cls, gate: PauliChannel, spam_rate: float
                               ) -> "NoiseModel":
        if spam_rate == 0.0:
            spam = PauliChannel.identity(gate.n)
        else:
            spam = PauliChannel.depolarizing(gate.n, spam_rate)
        return cls(gate.n, gate, spam, spam)

    @classmethod
    def noiseless(cls, n: int) -> "NoiseModel":
        ident = PauliChannel.identity(n)
        return cls(n, ident, ident, ident)


def _check_round(ch: PauliChannel, k: int, group: StabilizerGroup):
    if not 0 <= k <= ch.n:
        raise UsageError(f"k={k} out of range for n={ch.n}")
    if group.m != ch.n - k:
        raise UsageError(f"group acts on {group.m} qubits, expected {ch.n - k}")


def simulate_rounds_alg1(ch: PauliChannel, k: int, group: StabilizerGroup,
                         rng: np.random.Generator, rounds: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch of rounds; returns (v, e) uint64 arrays."""
    _check_round(ch, k, group)
    if 2 * ch.n > 64:
        raise CapabilityError("vectorized simulation limited to n <= 32")
    a = np.asarray(ch.sample(rng, size=rounds), dtype=np.uint64)
    v = a & np.uint64((1 << (2 * k)) - 1)
    return v, group.syndromes(a >> np.uint64(2 * k))


def outcome_distribution_alg1(ch: PauliChannel, k: int, group: StabilizerGroup):
    """Exact outcome distribution p(v, e) of one estimation round.

    Returns a (4^k, 2^m) array when that fits in memory, else (for sparse
    channels on large registers) a dict {(v, e): probability}.
    """
    _check_round(ch, k, group)
    m = ch.n - k
    cells = 4**k * 2**m
    if ch.is_sparse:
        labels, probs = ch.support_labels, ch.support_probs
    elif cells > _DIST_ARRAY_LIMIT:
        raise CapabilityError(f"outcome table with {cells} cells too large")
    else:
        labels, probs = np.arange(4**ch.n, dtype=np.uint64), ch.error_rates
    if cells <= _DIST_ARRAY_LIMIT:  # then 2n < 64 and labels are uint64
        v = labels & np.uint64((1 << (2 * k)) - 1)
        e = group.syndromes(labels >> np.uint64(2 * k))
        idx = (v.astype(np.int64) << m) | e.astype(np.int64)
        flat = np.bincount(idx, weights=probs, minlength=cells)
        return flat.reshape(4**k, 2**m)
    out: dict[tuple[int, int], float] = {}
    for lbl, pr in zip(labels, probs):
        a = int(lbl)
        key = (a & ((1 << (2 * k)) - 1), group.syndrome(a >> (2 * k)))
        out[key] = out.get(key, 0.0) + float(pr)
    return out


def simulate_alg2_batch(model: NoiseModel, m: int, rng: np.random.Generator,
                        shots: int) -> dict[str, np.ndarray]:
    """Vectorized batch of shots; returns gate XOR, outcomes, and
    z = v XOR (XOR of gates), all as uint64 arrays of length `shots`."""
    n = model.n
    if 2 * n > 64:
        raise CapabilityError("vectorized simulation limited to n <= 32")
    if m < 0:
        raise UsageError(f"negative sequence length {m}")
    high = 1 << (2 * n)
    # row by row draws the same stream as one (m+1, shots) array, without
    # holding it
    gate_xor = np.zeros(shots, dtype=np.uint64)
    for _ in range(m + 1):
        gate_xor ^= rng.integers(0, high, size=shots, dtype=np.uint64)
    z = np.asarray(model.prep.sample(rng, size=shots), dtype=np.uint64)
    for _ in range(m + 1):
        z ^= np.asarray(model.gate.sample(rng, size=shots), dtype=np.uint64)
    z ^= np.asarray(model.meas.sample(rng, size=shots), dtype=np.uint64)
    return {"gate_xor": gate_xor, "v": gate_xor ^ z, "z": z}
