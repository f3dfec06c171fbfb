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
from .stabilizer import Covering, mub_covering

DISCRIMINATE_MODES = ("bell", "ancilla-free")


def sweep_min_rounds(n: int, k: int, cov: Covering, epsilon: float,
                     trials: int, success_fraction: float, alpha: float,
                     seed: int) -> tuple[int, int]:
    """Fewest rounds per covering group, by bisection, at which at least
    ceil(success_fraction * trials) Dirichlet(alpha) channels are estimated
    within `epsilon`; returns (rounds, successes of a full pass at it)."""
    size = len(cov.groups)
    needed = int(np.ceil(success_fraction * trials))
    channels = [
        PauliChannel.random_dirichlet(n, derive_rng(seed, "sweep-ch", k, t),
                                      alpha)
        for t in range(trials)
    ]
    truths = [ch.eigenvalues for ch in channels]

    def probe(rounds: int, early_stop: bool = True) -> tuple[bool, int]:
        # trials run in order and stop at the one that decides pass/fail
        successes = 0
        for t in range(trials):
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
    return hi, probe(hi, early_stop=False)[1]


def discriminate(n: int, mode: str, trials: int, max_shots: int,
                 seed: int) -> list[tuple[str, str, int]]:
    """(truth, declared, shots) of each of `trials` trials in `mode`."""
    groups = None
    if mode == "ancilla-free":
        # elements() is indexed by coefficient vector, so member i + 1 of
        # every group has alpha = i + 1
        groups = [(grp, np.asarray(grp.elements()[1:], dtype=np.int64))
                  for grp in mub_covering(n).groups]
    return [_discriminate_trial(n, mode, seed, t, max_shots, groups)
            for t in range(trials)]


def _discriminate_trial(n: int, mode: str, seed: int, trial: int,
                        max_shots: int, groups) -> tuple[str, str, int]:
    """Sequential decision between the fully-depolarizing channel and a
    random spike channel; returns (truth, declared, shots).

    The running log-likelihood ratio of the composite spike hypothesis
    against the depolarizing one is log2(sum over alive candidates of
    2^consistent-own-group-shots) + shots-in-favor - log2(4^n - 1); the
    trial stops at posterior 0.9, i.e. |log2 ratio| >= log2(9).
    """
    rng = derive_rng(seed, "discriminate", mode, n, trial)
    spike_truth = bool(rng.integers(0, 2))
    a_true = int(rng.integers(1, 4**n)) if spike_truth else 0
    truth = f"spike:{format_bits(a_true, n)}" if spike_truth else "dep"
    if spike_truth:
        channel = PauliChannel.spike(n, a_true, +1)
    else:
        channel = PauliChannel.fully_depolarizing(n)
    count = 4**n - 1
    log2_threshold = float(np.log2(9.0))  # posterior 0.9 under equal priors
    if mode == "bell":
        labels = np.arange(1, 4**n, dtype=np.uint64)
        alive = np.ones(labels.shape, dtype=bool)
        for shot in range(1, max_shots + 1):
            b = np.uint64(channel.sample(rng))
            alive &= symp_u64(labels, b) == 0
            n_alive = int(alive.sum())
            if n_alive == 0:
                return truth, "dep", shot
            log2_ratio = shot + float(np.log2(n_alive)) - float(np.log2(count))
            if log2_ratio <= -log2_threshold:
                return truth, "dep", shot
            if n_alive == 1 and log2_ratio >= log2_threshold:
                winner = int(labels[int(np.argmax(alive))])
                return truth, f"spike:{format_bits(winner, n)}", shot
        return truth, "undecided", max_shots
    alphas = np.arange(1, 2**n, dtype=np.uint64)
    hits = np.zeros(4**n, dtype=np.float64)  # consistent own-group shots
    alive_full = np.ones(4**n, dtype=bool)
    alive_full[0] = False
    for shot in range(1, max_shots + 1):
        grp, members = groups[(shot - 1) % len(groups)]
        e = np.uint64(grp.syndrome(channel.sample(rng)))
        consistent = (np.bitwise_count(alphas & e) & np.uint64(1)) == 0
        alive_full[members[~consistent]] = False
        survivors = members[consistent]
        hits[survivors[alive_full[survivors]]] += 1.0
        live = np.nonzero(alive_full)[0]
        if live.size == 0:
            return truth, "dep", shot
        peak = float(hits[live].max())
        log2_ratio = peak + float(
            np.log2(np.exp2(hits[live] - peak).sum())
        ) - float(np.log2(count))
        if log2_ratio <= -log2_threshold:
            return truth, "dep", shot
        if live.size == 1 and log2_ratio >= log2_threshold:
            return truth, f"spike:{format_bits(int(live[0]), n)}", shot
    return truth, "undecided", max_shots


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
