"""The experiments behind the paper's separations, as library functions.

* `sweep_min_rounds`  smallest per-group budget at which Alg. 1 with k
                      ancilla qubits meets epsilon on enough random
                      channels (the tight Theta(n 2^(n-k)) bound)
* `discriminate`      shots to tell the fully-depolarizing channel from a
                      random spike channel, with a Bell ancilla or without
                      (the ancilla-free Omega(2^(n/3)) lower bound)
* `spam_sweep`        SPAM-robust benchmarking of one gate under several
                      SPAM models, with the two-sample consistency test

Each function takes validated values and returns plain results.  Every
trial and every SPAM rate draws from its own `derive_rng(seed, ...)` stream
and runs in key order, one after another.  A sweep probe takes a trial's
largest error, as `EstimateSet.max_abs_error` would, from the sums and
counts of one `alg1_estimator` per k, which builds each channel's laws once.

A discrimination trial applies one rule in both modes: a shot keeps the
candidates of its group that commute with its error, the one Bell group
holding every label.  Shots come a block of whole rounds at a time, and a
block's masks, alive counts and log2 ratios take a few array ops, so a
trial stops at the same shot, with the same decision, as a loop that draws
one shot at a time.
"""

from __future__ import annotations

import numpy as np

from .channels import PauliChannel
from .errors import PauliBenchError
from .estimation import (
    alg1_estimator,
    benchmark_alg2,
    kept_law_cells,
    required_samples,
    two_sample_consistency,
)
from .pauli import format_bits, symp_u64
from .sampler import NoiseModel
from .seeding import derive_rng
from .stabilizer import Covering, element_block, mub_covering

DISCRIMINATE_MODES = ("bell", "ancilla-free")
# `discriminate` draws blocks of at most SHOT_BLOCK rounds (one shot per
# group) whose consistency masks hold at most SHOT_BLOCK_CELLS cells.  A
# round has 4^n - 1 cells in either mode, so at n = 6 a block is 4 Bell or
# 260 ancilla-free shots, and from n = 7 on one round.  A Bell block of 16
# at n = 6, with its uint64 temporaries, raised the README `discriminate`
# peak RSS by about 2 MB; this one by 0.1 MB
SHOT_BLOCK = 64
SHOT_BLOCK_CELLS = 1 << 14
# bytes per label of the dense channel a `sweep_min_rounds` trial keeps to
# the end: error rates, eigenvalues and sampling CDF.  Peak RSS of 20- and
# 220-trial sweeps at n = 8, k = 8 (per-shot path) differed by 1536 KiB, 24
# B per label, per trial; at n = 7 and 6, k = 0 (law path, no CDF) by 385
# and 99 KiB, 16 B per label plus the kept laws; rounded up
SWEEP_TRIAL_BYTES_PER_LABEL = 32


def sweep_trial_bytes(n: int, k: int, cov: Covering) -> int:
    """Bytes one `sweep_min_rounds` trial on n qubits at k, with covering
    `cov`, holds to the end: its channel and the laws its estimator keeps
    of it (`kept_law_cells` doubles).  Pure arithmetic, so a sweep can be
    refused before any channel exists."""
    return SWEEP_TRIAL_BYTES_PER_LABEL * 4**n + 8 * kept_law_cells(k, cov)


def sweep_min_rounds(n: int, k: int, cov: Covering, epsilon: float,
                     trials: int, success_fraction: float, alpha: float,
                     seed: int) -> tuple[int, int, int, int]:
    """Fewest rounds per covering group, by bisection, at which at least
    ceil(success_fraction * trials) Dirichlet(alpha) channels are estimated
    within `epsilon`; returns (rounds, successes of a full pass at it,
    probes, trials run), the last two counting the confirmation pass."""
    size = len(cov.groups)
    needed = int(np.ceil(success_fraction * trials))
    channels = [
        PauliChannel.random_dirichlet(n, derive_rng(seed, "sweep-ch", k, t),
                                      alpha)
        for t in range(trials)
    ]
    probes = trials_run = 0
    estimate = alg1_estimator(k, cov)

    def probe(rounds: int, early_stop: bool = True) -> tuple[bool, int]:
        # trials run in order and stop at the one that decides pass/fail
        nonlocal probes, trials_run
        probes += 1
        successes = 0
        for t in range(trials):
            trials_run += 1
            rng = derive_rng(seed, "sweep-shots", k, rounds, t)
            sums, counts = estimate(channels[t], rounds * size, rng)
            error = np.max(np.abs(sums / counts - channels[t].eigenvalues))
            successes += bool(error <= epsilon)
            if early_stop and (successes >= needed
                               or t + 1 - successes > trials - needed):
                break
        return successes >= needed, successes

    base = required_samples(n, k, epsilon, 1.0 - success_fraction, size) // size
    hi = max(base, 2)
    while not probe(hi)[0]:
        hi *= 2
        if hi > base * 64:
            raise PauliBenchError(
                f"sweep-ancilla: no passing budget found below {hi} rounds"
            )
    lo = 1
    if probe(lo)[0]:
        hi = lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid)[0]:
            hi = mid
        else:
            lo = mid
    confirmed = probe(hi, early_stop=False)[1]
    return hi, confirmed, probes, trials_run


def discriminate(n: int, mode: str, trials: int, max_shots: int,
                 seed: int) -> list[tuple[str, str, int]]:
    """(truth, declared, shots) of each of `trials` trials in `mode`."""
    if mode == "bell":
        members = np.arange(1, 4**n, dtype=np.uint64)[None]
    else:
        members = element_block(
            mub_covering(n).generator_array)[:, 1:].astype(np.uint64)
    return [_discriminate_trial(n, mode, seed, t, max_shots, members)
            for t in range(trials)]


def _discriminate_trial(n: int, mode: str, seed: int, trial: int,
                        max_shots: int, members) -> tuple[str, str, int]:
    """Sequential decision between the fully-depolarizing channel and a
    random spike channel; returns (truth, declared, shots).

    The running log-likelihood ratio of the composite spike hypothesis
    against the depolarizing one is log2(sum over alive candidates of
    2^consistent-own-group-shots) + shots-in-favor - log2(4^n - 1); the
    trial stops at the first shot with posterior 0.9, i.e. |log2 ratio| >=
    log2(9), or with no candidate left; `members` as in `_shot_rounds`.
    """
    rng = derive_rng(seed, "discriminate", mode, n, trial)
    spike_truth = bool(rng.integers(0, 2))
    a_true = int(rng.integers(1, 4**n)) if spike_truth else 0
    truth = f"spike:{format_bits(a_true, n)}" if spike_truth else "dep"
    if spike_truth:
        channel = PauliChannel.spike(n, a_true, +1)
    else:
        channel = PauliChannel.fully_depolarizing(n)
    log2_threshold = float(np.log2(9.0))  # posterior 0.9 under equal priors
    for first, total, ratio, alive in _shot_rounds(channel, rng, max_shots,
                                                   members):
        spike = (total == 1) & (ratio >= log2_threshold)
        stop = np.flatnonzero((total == 0) | (ratio <= -log2_threshold)
                              | spike)
        if stop.size:
            i = int(stop[0])
            if not spike[i]:
                return truth, "dep", first + i
            last = int(_alive_members(members, alive, i)[0])
            return truth, f"spike:{format_bits(last, n)}", first + i
    return truth, "undecided", max_shots


def _shot_rounds(channel: PauliChannel, rng: np.random.Generator,
                 max_shots: int, members: np.ndarray):
    """Yield (first shot, alive counts, log2 ratios, alive states) per
    block of whole rounds of shots 1..max_shots: the counts and ratios after
    each shot up to max_shots (the ratio -inf once none is alive), and
    (rounds + 1, G, W) states, the block's starting state, then each
    group's state after its shot of each round.

    Shot s measures group (s - 1) % G of the (G, W) uint64 `members` and
    keeps the members b of that group with <b, a> = 0 for its error a: one
    group of every label with a Bell ancilla, the MUB groups' non-identity
    elements without (their syndrome test is <b, a> by bilinearity).  A
    trial owns its stream, and `sample(rng, B)` reads the uniforms of B
    single draws, so draws past a stopping shot change nothing.

    The groups partition the non-identity labels and an alive candidate
    agreed with every shot of its group.  After a shot of group g, groups
    0..g have had one shot more than the rest, so the log-sum-exp terms
    2^(shots - peak) are 1 and 1/2, and their float sum is exact in any
    order: hi + lo / 2, hi alive in groups 0..g, lo in the rest."""
    n_groups = members.shape[0]
    log2_count = float(np.log2(4**channel.n - 1))
    most = max(1, min(SHOT_BLOCK, SHOT_BLOCK_CELLS // members.size))
    alive = np.ones(members.shape, dtype=bool)
    counts = np.full((1, n_groups), members.shape[1])
    for first in range(1, max_shots + 1, most * n_groups):
        left = max_shots + 1 - first
        rounds = min(most, -(-left // n_groups))
        errors = channel.sample(rng, rounds * n_groups)
        states = np.empty((rounds + 1,) + members.shape, dtype=bool)
        states[0] = alive
        np.equal(symp_u64(members, errors.reshape(rounds, n_groups, 1)), 0,
                 out=states[1:])
        # np.logical_and.accumulate(axis=0) would run its inner loop along
        # the short round axis, several times slower at n = 10
        for r in range(rounds):
            states[r + 1] &= states[r]
        alive = states[-1]
        counts = np.concatenate(
            [counts[-1:], np.count_nonzero(states[1:], axis=2)])
        hi = np.cumsum(counts[1:], axis=1)
        lo = counts[:-1].sum(axis=1, keepdims=True) \
            - np.cumsum(counts[:-1], axis=1)
        total, ahead = hi + lo, hi > 0
        behind = np.arange(rounds)[:, None] + (first - 1) // n_groups
        with np.errstate(divide="ignore"):
            ratio = (behind + ahead) + np.log2(
                np.where(ahead, hi + lo / 2, total)) - log2_count
        shots = min(left, rounds * n_groups)
        yield first, total.ravel()[:shots], ratio.ravel()[:shots], states


def _alive_members(members, states, i: int) -> np.ndarray:
    """The members alive after shot i of a `_shot_rounds` block: groups up
    to the shot's own as of its round, the rest as of the round before."""
    r, g = divmod(i, members.shape[0])
    done = np.arange(members.shape[0])[:, None] <= g
    return members[np.where(done, states[r + 1], states[r])]


def spam_sweep(models: list[tuple[str, NoiseModel]], lengths: list[int],
               shots_per_m: int, seed: int) -> tuple:
    """`benchmark_alg2` of each (rate text, model) pair on its own stream,
    `derive_rng(seed, "benchmark", rate text)`; returns the results and,
    for several pairs, their `two_sample_consistency`."""
    results = [benchmark_alg2(model, lengths, shots_per_m,
                              derive_rng(seed, "benchmark", rate))
               for rate, model in models]
    consistency = two_sample_consistency(
        [res.estimates for res in results]) if len(results) > 1 else None
    return results, consistency
