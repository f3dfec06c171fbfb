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

  one `wht_forward(..., syndrome_digits=m)` call over the stacked label
  blocks of a sequence of groups (`outcome_distribution_alg1`, a (G, 4^k,
  2^m) stack of laws); the suite checks it against the dense matrix
  oracle.  The estimator passes the chunks of `label_chunks`, so the law
  it samples is the code the oracle checks.

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

Both laws read a channel only through `PauliChannel.eigenvalues`, however
its error rates are stored; above DENSE_MAX_QUBITS that is a
CapabilityError.  Both estimators use a batch only through its histogram,
so they draw histograms from the exact laws whenever `law_pays`: the table
has no more cells than the batch has draws.  One `draw_histograms`
(multinomial) call draws a whole stack of tables, in order, exactly as one
call per table would: channel estimation draws a chunk of groups' laws at
once, benchmarking all its sequence lengths; there are no per-group draws.
Otherwise they sample every shot with `simulate_rounds_alg1` /
`simulate_alg2_batch`, which are vectorized over shots and return uint64
label arrays, so a single shot is a batch of size 1.  Callers own the RNG;
see `seeding.derive_rng` for the reproducibility contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel, wht_forward, wht_inverse
from .errors import CapabilityError, UsageError
from .stabilizer import Covering, StabilizerGroup, element_block

# cells of one stacked label block: 2^16 keeps a chunk at 512 KiB of labels
# and its laws, histograms and transforms at as much again each, where a
# whole n=10 MUB covering (1025 x 1024 cells, 8.4 MB per array) would raise
# the estimator's peak; `estimation.alg1_estimator` keeps the block of a
# covering that fits
LABEL_CHUNK_CELLS = 1 << 16


def law_pays(cells: int, draws: int) -> bool:
    """The path rule: draw a batch's histogram from its exact law when the
    table has no more cells than the batch has draws; sample every shot
    otherwise.  With more cells than draws, building the law and a
    multinomial over every cell costs more than the shots do."""
    return cells <= draws


def draw_histograms(laws: np.ndarray, draws: int, rng: np.random.Generator
                    ) -> np.ndarray:
    """Counts of `draws` independent outcomes from each table of the (G, ...)
    stack `laws`, in table order, drawn in one multinomial call; int64,
    shaped like `laws`.

    Only cells of positive probability enter a table's draw, renormalised
    by their own sum, so roundoff negatives and zeros never get a count.
    The counts and the generator state are those of G one-table draws
    `rng.multinomial(draws, probs / probs.sum())` over each table's support
    `probs`: the multinomial walks a row's cells in order, drawing
    binomial(left, p_j / remaining) for all but the last, which takes the
    remainder.  A cell of p = 0 draws nothing from the bit generator and
    leaves `remaining` as it is, so zeros in front of a row change nothing,
    where zeros behind its last support cell would cost that cell a
    binomial draw.  Each row is therefore packed as its zero cells followed
    by its support, in order.  A row with zero cells is normalised by the
    sum of its support alone, so its probabilities match the one-table
    ones bit for bit.
    """
    p = laws.reshape(len(laws), -1)
    support = p > 0.0
    partial = np.flatnonzero(~support.all(axis=1))
    if partial.size == 0:
        counts = rng.multinomial(draws, p / p.sum(axis=1, keepdims=True))
        return counts.reshape(laws.shape)
    totals = p.sum(axis=1)
    for row in partial:
        totals[row] = p[row, support[row]].sum()
    # per row: the zero cells first, then the support in order
    order = np.argsort(support, axis=1, kind="stable")
    packed = np.take_along_axis(np.where(support, p / totals[:, None], 0.0),
                                order, axis=1)
    counts = np.empty(p.shape, dtype=np.int64)
    np.put_along_axis(counts, order, rng.multinomial(draws, packed), axis=1)
    return counts.reshape(laws.shape)


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


def _check_round(ch: PauliChannel, k: int, group_ms):
    if not 0 <= k <= ch.n:
        raise UsageError(f"k={k} out of range for n={ch.n}")
    wrong = set(group_ms) - {ch.n - k}
    if wrong:
        raise UsageError(f"group acts on {min(wrong)} qubits, expected {ch.n - k}")


def simulate_rounds_alg1(ch: PauliChannel, k: int, group: StabilizerGroup,
                         rng: np.random.Generator, rounds: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch of rounds; returns (v, e) uint64 arrays."""
    _check_round(ch, k, [group.m])
    if 2 * ch.n > 64:
        raise CapabilityError("vectorized simulation limited to n <= 32")
    a = np.asarray(ch.sample(rng, size=rounds), dtype=np.uint64)
    v = a & np.uint64((1 << (2 * k)) - 1)
    return v, group.syndromes(a >> np.uint64(2 * k))


def _label_block(k: int, generators: np.ndarray) -> np.ndarray:
    """(G, 4^k, 2^m) int64 labels u | s_alpha << 2k at [g, u, alpha] of the
    groups generated by the rows of the (G, m) array `generators`, laid out
    like the output of `wht_forward(..., syndrome_digits=m)`."""
    elems = element_block(generators)
    return np.arange(4**k, dtype=np.int64)[:, None] | (elems[:, None, :]
                                                      << (2 * k))


def chunk_groups(k: int, m: int) -> int:
    """Groups in a `label_chunks` chunk: as many as fit LABEL_CHUNK_CELLS."""
    return max(1, LABEL_CHUNK_CELLS // (4**k << m))


def label_chunks(k: int, covering: Covering):
    """Yield (start, block) over the covering's groups in order: `block` is
    the `_label_block` of groups[start:start+G], G = `chunk_groups`, built
    from its rows of `covering.generator_array` as it is reached, so no more
    than one chunk is held."""
    gens = covering.generator_array
    per_chunk = chunk_groups(k, covering.m)
    for start in range(0, len(gens), per_chunk):
        yield start, _label_block(k, gens[start:start + per_chunk])


def outcome_distribution_alg1(ch: PauliChannel, k: int, groups,
                              full: np.ndarray | None = None) -> np.ndarray:
    """Exact outcome laws p(v, e) of one estimation round on each of the G
    `groups`, as a (G, 4^k, 2^m) array: the channel's eigenvalues on
    `full`, the groups' stacked `_label_block` (a chunk of `label_chunks`,
    built here when not given), in one `wht_forward` call."""
    _check_round(ch, k, (grp.m for grp in groups))
    lam = ch.eigenvalues
    m = ch.n - k
    cells = 4**k << m
    if m == 0:  # the trivial group: its labels are the identity order
        lam = np.broadcast_to(lam, (len(groups), cells))
    else:
        if full is None:
            full = _label_block(k, np.array(
                [grp.generators for grp in groups],
                dtype=np.uint64).reshape(len(groups), m))
        lam = lam[full.reshape(-1, cells)]
    law = wht_forward(lam, syndrome_digits=m)
    law /= cells
    return law.reshape(len(groups), 4**k, 2**m)


def outcome_distribution_alg2(model: NoiseModel, m: int) -> np.ndarray:
    """Exact law of z = v XOR (XOR of gate labels) over all 4^n labels at
    sequence length m: wht_inverse(lambda_prep lambda_gate^(m+1)
    lambda_meas), since z is the XOR of independent prep, gate and meas
    errors."""
    if m < 0:
        raise UsageError(f"negative sequence length {m}")
    return wht_inverse(model.prep.eigenvalues * model.meas.eigenvalues
                       * model.gate.eigenvalues ** (m + 1))


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
