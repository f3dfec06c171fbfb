"""Exact simulation of both measurement protocols, as shot batches or as
outcome histograms drawn from their exact law.

No state vectors appear here.  Both circuits are simulated purely on Pauli
labels, which is exact for Pauli noise:

* Channel-estimation round (ancilla-assisted, stabilizer-assisted): the
  channel applies P_a with probability p_a.  The Bell pairs on the first k
  qubits turn the error's k-qubit part directly into the Bell outcome
  v = a_B, and on the remaining m = n-k qubits the stabilizer-basis
  measurement yields the syndrome e_j = <g_j, a_C>, computed for the whole
  batch by `StabilizerGroup.syndromes`.  The law of (v, e) is

      p(v, e) = 2^-(n+k) sum_{u, alpha} lambda[u | s_alpha << 2k]
                                        (-1)^(<u,v> + alpha.e),

  one `wht_forward(..., syndrome_digits=m)` call over the group's
  `group_labels` block (`outcome_distribution_alg1`); the suite checks it
  against the dense matrix oracle.

* Benchmarking shot of sequence length m: Pauli gates conjugate Pauli
  errors to themselves up to phase, so the Bell outcome is the XOR of the
  m+1 uniformly random gate labels with every error label drawn along the
  way (preparation, one per gate, measurement).  SPAM noise on the ancilla
  side is folded into the effective preparation/measurement channels: a
  Pauli error (c, d) across a Bell pair shifts the outcome by c XOR d, so
  single n-qubit prep and meas channels lose no generality for Pauli SPAM.
  The statistic depends on a shot only through z = v XOR (XOR of gates),
  the XOR of m+3 independent errors; XOR-convolution is a product in the
  eigenbasis, so z has law wht_inverse(lambda_prep lambda_gate^(m+1)
  lambda_meas) (`outcome_distribution_alg2`).

Both estimators use a batch only through its histogram, so the estimator
draws the histogram in one `draw_histogram` (multinomial) call from the
exact law whenever `law_pays`: the table has no more cells than the batch
has draws, and fits in memory.  Otherwise it samples every shot with
`simulate_rounds_alg1` / `simulate_alg2_batch`, which are vectorized over
shots and return uint64 label arrays, so a single shot is a batch of size
1.  Callers own the RNG; see `seeding.derive_rng` for the reproducibility
contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel, wht_forward, wht_inverse
from .errors import CapabilityError, UsageError
from .stabilizer import StabilizerGroup

_DIST_ARRAY_LIMIT = 1 << 26


def law_pays(cells: int, draws: int) -> bool:
    """The path rule: draw a batch's histogram from its exact law when the
    table has no more cells than the batch has draws and fits under
    `_DIST_ARRAY_LIMIT`; sample every shot otherwise.  With more cells
    than draws, building the law and a multinomial over every cell costs
    more than the shots do."""
    return cells <= draws and cells <= _DIST_ARRAY_LIMIT


def draw_histogram(law: np.ndarray, draws: int, rng: np.random.Generator
                   ) -> np.ndarray:
    """Counts of `draws` independent outcomes from the table `law`, drawn
    in one multinomial call; int64, shaped like `law`.

    Roundoff negatives are clipped to 0 and the rest renormalised.  Only
    cells of positive probability enter the draw, so a cell of probability
    0 never gets a count.
    """
    p = np.ravel(law)
    support = np.flatnonzero(p > 0.0)
    probs = p[support]
    counts = np.zeros(p.size, dtype=np.int64)
    counts[support] = rng.multinomial(draws, probs / probs.sum())
    return counts.reshape(np.shape(law))


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


def group_labels(k: int, group: StabilizerGroup) -> np.ndarray:
    """(4^k, 2^m) int64 labels u | s_alpha << 2k at row u, column alpha:
    the eigenvalues one group's rounds estimate, laid out like the flat
    (u << m) | alpha output of `wht_forward(..., syndrome_digits=m)`."""
    elems = np.asarray(group.elements(), dtype=np.int64)
    return np.arange(4**k, dtype=np.int64)[:, None] | (elems[None, :] << (2 * k))


def outcome_distribution_alg1(ch: PauliChannel, k: int, group: StabilizerGroup,
                              full: np.ndarray | None = None):
    """Exact outcome distribution p(v, e) of one estimation round.

    Returns a (4^k, 2^m) array when that fits in memory, else (for sparse
    channels on large registers) a dict {(v, e): probability}.  Dense
    channels transform the eigenvalues on `full`, the group's
    `group_labels` block (built here when not given); sparse channels bin
    the syndromes of their support.
    """
    _check_round(ch, k, group)
    m = ch.n - k
    cells = 4**k << m
    if not ch.is_sparse:  # n <= DENSE_MAX_QUBITS, so cells <= 4^n fits
        if full is None:
            full = group_labels(k, group)
        law = wht_forward(ch.eigenvalues[full.ravel()], syndrome_digits=m)
        return (law / cells).reshape(4**k, 2**m)
    labels, probs = ch.support_labels, ch.support_probs
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


def _eigenvalue_vector(ch: PauliChannel) -> np.ndarray:
    """All 4^n eigenvalues; a sparse channel transforms its support."""
    if ch.eigenvalues is not None:
        return ch.eigenvalues
    p = np.zeros(4**ch.n)
    p[ch.support_labels.astype(np.intp)] = ch.support_probs
    return wht_forward(p)


def outcome_distribution_alg2(model: NoiseModel, m: int) -> np.ndarray:
    """Exact law of z = v XOR (XOR of gate labels) over all 4^n labels at
    sequence length m: wht_inverse(lambda_prep lambda_gate^(m+1)
    lambda_meas), since z is the XOR of independent prep, gate and meas
    errors."""
    if m < 0:
        raise UsageError(f"negative sequence length {m}")
    if 4**model.n > _DIST_ARRAY_LIMIT:
        raise CapabilityError(f"outcome table with {4**model.n} cells too large")
    lam = (_eigenvalue_vector(model.prep) * _eigenvalue_vector(model.meas)
           * _eigenvalue_vector(model.gate) ** (m + 1))
    return wht_inverse(lam)


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
