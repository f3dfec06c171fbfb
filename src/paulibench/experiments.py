"""The experiments behind the paper's separations, as library functions.

* `sweep_min_rounds`  smallest per-group budget at which Alg. 1 with k
                      ancilla qubits meets epsilon on enough random
                      channels (the tight Theta(n 2^(n-k)) bound)
* `discriminate`      shots to tell the fully-depolarizing channel from a
                      random spike channel, with a Bell ancilla or without
                      (the ancilla-free Omega(2^(n/3)) lower bound)
* `spam_sweep`        SPAM-robust benchmarking of one gate across SPAM
                      strengths, with the two-sample consistency test

Each function takes validated values and returns plain results.  Every
trial and every SPAM rate draws from its own `derive_rng(seed, ...)` stream
and runs in key order, one after another.

A discrimination trial draws its shots in blocks and computes each block's
consistency masks in a few array ops; the stopping rule then reads the
shots one at a time, so a trial stops at the same shot, with the same
decision, as a loop that draws one shot at a time.
"""

from __future__ import annotations

import numpy as np

from .channels import PauliChannel
from .errors import PauliBenchError
from .estimation import (
    benchmark_alg2,
    estimate_alg1,
    required_samples,
    two_sample_consistency,
)
from .pauli import format_bits, symp_u64
from .sampler import NoiseModel
from .seeding import derive_rng
from .stabilizer import Covering, element_block, mub_covering

DISCRIMINATE_MODES = ("bell", "ancilla-free")
# `discriminate` draws shots in blocks of at most SHOT_BLOCK shots whose
# consistency masks hold at most SHOT_BLOCK_CELLS cells, and an ancilla-free
# block measures each group at most once: at n = 6 that is 64 ancilla-free
# shots of 63 cells and 4 Bell shots of 4095, one Bell shot from n = 7 on.
# A Bell block of 16 at n = 6, with its uint64 temporaries, raised the
# README `discriminate` peak RSS by about 2 MB; this one by 0.1 MB
SHOT_BLOCK = 64
SHOT_BLOCK_CELLS = 1 << 14


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
    truths = [ch.eigenvalues for ch in channels]
    probes = trials_run = 0

    def probe(rounds: int, early_stop: bool = True) -> tuple[bool, int]:
        # trials run in order and stop at the one that decides pass/fail
        nonlocal probes, trials_run
        probes += 1
        successes = 0
        for t in range(trials):
            trials_run += 1
            rng = derive_rng(seed, "sweep-shots", k, rounds, t)
            est = estimate_alg1(channels[t], k, cov, rounds * size, rng)
            successes += bool(est.max_abs_error(truths[t]) <= epsilon)
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
    groups = None
    if mode == "ancilla-free":
        # column alpha of an element block is element(alpha), so member
        # i of every group has coefficient vector i + 1
        generators = mub_covering(n).generator_array
        groups = (generators, element_block(generators)[:, 1:])
    return [_discriminate_trial(n, mode, seed, t, max_shots, groups)
            for t in range(trials)]


def _shot_blocks(max_shots: int, width: int, most: int):
    """(first shot, block size) pairs that tile shots 1..max_shots in blocks
    of at most `most` shots and SHOT_BLOCK_CELLS mask cells, `width` cells
    per shot."""
    size = max(1, min(most, SHOT_BLOCK_CELLS // width))
    for first in range(1, max_shots + 1, size):
        yield first, min(size, max_shots + 1 - first)


def _discriminate_trial(n: int, mode: str, seed: int, trial: int,
                        max_shots: int, groups) -> tuple[str, str, int]:
    """Sequential decision between the fully-depolarizing channel and a
    random spike channel; returns (truth, declared, shots).

    The running log-likelihood ratio of the composite spike hypothesis
    against the depolarizing one is log2(sum over alive candidates of
    2^consistent-own-group-shots) + shots-in-favor - log2(4^n - 1); the
    trial stops at posterior 0.9, i.e. |log2 ratio| >= log2(9), or when no
    candidate is left.  `groups` is the ancilla-free (generators, members)
    pair of `_ancilla_free_steps`.
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
    steps = _bell_steps(n, channel, rng, max_shots) if mode == "bell" \
        else _ancilla_free_steps(n, channel, rng, max_shots, groups)
    for shot, n_alive, log2_ratio, last in steps:
        if n_alive == 0 or log2_ratio <= -log2_threshold:
            return truth, "dep", shot
        if n_alive == 1 and log2_ratio >= log2_threshold:
            return truth, f"spike:{format_bits(last, n)}", shot
    return truth, "undecided", max_shots


def _bell_steps(n: int, channel: PauliChannel, rng: np.random.Generator,
                max_shots: int):
    """Yield (shot, alive candidates, log2 ratio, the one alive candidate or
    None) after each Bell shot; the ratio is None when none is alive.

    Shots are drawn a block at a time, with their commutation masks in one
    array op; `sample(rng, B)` reads the same uniforms as B single draws,
    and a trial owns its stream, so draws past its stopping shot change
    nothing.  A Bell shot reveals the error label itself, so it keeps the
    candidates commuting with it and every alive one has all shots in its
    favour."""
    labels = np.arange(1, 4**n, dtype=np.uint64)
    alive = np.ones(labels.shape, dtype=bool)
    log2_count = float(np.log2(4**n - 1))
    for first, size in _shot_blocks(max_shots, labels.size, SHOT_BLOCK):
        commuting = symp_u64(labels, channel.sample(rng, size)[:, None]) == 0
        for shot, row in enumerate(commuting, first):
            alive &= row
            n_alive = int(alive.sum())
            if n_alive == 0:
                yield shot, 0, None, None
                continue
            log2_ratio = shot + float(np.log2(n_alive)) - log2_count
            last = int(labels[int(np.argmax(alive))]) if n_alive == 1 \
                else None
            yield shot, n_alive, log2_ratio, last


def _ancilla_free_steps(n: int, channel: PauliChannel,
                        rng: np.random.Generator, max_shots: int, groups):
    """`_bell_steps` without an ancilla: shot s measures the syndrome of
    MUB group (s - 1) % G.  `groups` is the (generators, members) pair of
    (G, n) and (G, 2^n - 1) arrays, members[g, i] having coefficient
    vector i + 1.

    A block's syndromes and consistency masks take a few array ops; the
    state then advances shot by shot.  A candidate is alive while every
    shot of its own group agreed with it, and the MUB groups partition the
    non-identity labels, so the consistent own-group shots of an alive
    candidate are its group's shot count.  Round-robin shots keep every
    group's count within one of the peak: after a shot of group g, groups
    0..g have one shot more than the rest.  The log-sum-exp terms
    2^(count - peak) are therefore 1 and 1/2, and their float sum is exact
    in any order: live_hi + live_lo / 2."""
    generators, members = groups
    n_groups, width = members.shape
    alphas = np.arange(1, 2**n, dtype=np.uint64)
    bits = np.arange(n, dtype=np.uint64)
    log2_count = float(np.log2(4**n - 1))
    alive = np.ones(members.shape, dtype=bool)
    n_live = [width] * n_groups
    total = n_groups * width
    live_hi = 0  # alive candidates in the groups one shot ahead
    for first, size in _shot_blocks(max_shots, width,
                                    min(SHOT_BLOCK, n_groups)):
        group = np.arange(first - 1, first - 1 + size) % n_groups
        a = channel.sample(rng, size)
        # bit j of e is <g_j, a> for the generators of each shot's group
        e = np.bitwise_or.reduce(
            symp_u64(generators[group], a[:, None]) << bits, axis=1)
        consistent = (np.bitwise_count(alphas & e[:, None])
                      & np.uint64(1)) == 0
        # a block's groups are distinct, so each row is its group's state
        # after its shot
        rows = alive[group] & consistent
        for at, (g, live_g) in enumerate(zip(
                group.tolist(), np.count_nonzero(rows, axis=1).tolist())):
            shot = first + at
            total += live_g - n_live[g]
            n_live[g] = live_g
            live_hi = live_g + (live_hi if g else 0)
            if total == 0:
                yield shot, 0, None, None
                continue
            behind = (shot - 1) // n_groups  # shots of groups g+1..G-1
            if live_hi:
                peak, spread = behind + 1, live_hi + (total - live_hi) / 2
            else:
                peak, spread = behind, total
            log2_ratio = peak + float(np.log2(spread)) - log2_count
            last = None
            if total == 1:
                g_last = n_live.index(1)
                seen = np.flatnonzero(group[:at + 1] == g_last)
                row = rows[seen[0]] if seen.size else alive[g_last]
                last = int(members[g_last, int(np.argmax(row))])
            yield shot, total, log2_ratio, last
        alive[group] = rows


def spam_sweep(gate: PauliChannel, rates: list[float], lengths: list[int],
               shots_per_m: int, seed: int, spam: tuple | None = None) -> tuple:
    """`benchmark_alg2` of `gate` under depolarizing SPAM at each rate, or
    under the (prep, meas) channel pair `spam`, one stream per rate; returns
    the results and, for several rates, their `two_sample_consistency`."""
    results = []
    for rate in rates:
        model = NoiseModel.with_depolarizing_spam(gate, rate) if spam is None \
            else NoiseModel(gate.n, gate, *spam)
        rng = derive_rng(seed, "benchmark", "{:.17g}".format(rate))
        results.append(benchmark_alg2(model, lengths, shots_per_m, rng))
    consistency = two_sample_consistency(
        [res.estimates for res in results]) if len(results) > 1 else None
    return results, consistency
