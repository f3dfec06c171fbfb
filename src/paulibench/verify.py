"""Self-verification suite: fast paths against the dense oracle.

`CHECKS` is the suite, one row per check: its name, its tolerance, the
function that runs it, and its sizes at the quick and at the full level.
A check function takes `(tolerance, seed, *sizes)` and returns
`(ok, detail)`, deciding `ok` against the tolerance it is given;
`run_checks` times each call and reports it as a CheckResult carrying the
row's tolerance.  The CLI `verify` subcommand prints one line per check
and fails the run if any check fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import dense_oracle as oracle
from .channels import PauliChannel, wht_forward, wht_inverse
from .pauli import symp
from .sampler import (
    NoiseModel,
    outcome_distribution_alg1,
    outcome_distribution_alg2,
)
from .seeding import derive_rng
from .stabilizer import mub_covering, pauli_basis_covering, verify_covering


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    tolerance: float
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"[{status}] {self.name}: {self.detail} "
                f"(tol {self.tolerance:g}, {self.seconds:.2f}s)")


def _wht_kernel(tol, seed):
    worst = 0.0
    for n in (1, 2, 3):
        rng = derive_rng(seed, "wht-kernel", n)
        p = rng.dirichlet(np.ones(4**n))
        fast = wht_forward(p)
        brute = np.array([
            sum(p[a] * (-1) ** symp(a, b) for a in range(4**n))
            for b in range(4**n)
        ])
        worst = max(worst, float(np.max(np.abs(fast - brute))))
    return worst < tol, f"max |fast - brute| = {worst:.2e}"


def _wht_roundtrip(tol, seed, max_n):
    worst = 0.0
    for n in range(1, max_n + 1):
        rng = derive_rng(seed, "wht-roundtrip", n)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4**n))
            worst = max(worst, float(np.max(np.abs(wht_inverse(wht_forward(p)) - p))))
    return worst < tol, f"max round-trip deviation = {worst:.2e}"


def _coverings(tol, seed, max_mub, max_pauli):
    # exact: a covering is valid or not, whatever the tolerance
    cases = [("mub", mub_covering, m, 2**m + 1 if m else 1)
             for m in range(max_mub + 1)]
    cases += [("pauli-basis", pauli_basis_covering, m, 3**m)
              for m in range(1, max_pauli + 1)]
    for name, build, m, expected in cases:
        cov = build(m)
        if len(cov.groups) != expected:
            return False, f"{name} m={m}: {len(cov.groups)} groups"
        report = verify_covering(cov)
        if not report.ok:
            return False, f"{name} m={m}: {report}"
    return True, f"mub m<={max_mub}, pauli-basis m<={max_pauli} all valid"


def _alg1_oracle(tol, seed, max_n, channels_per_case):
    worst = 0.0
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            groups = mub_covering(n - k).groups
            stabs = [oracle.stabilizer_state_vectors(g) for g in groups]
            rng = derive_rng(seed, "alg1-oracle", n, k)
            for _ in range(channels_per_case):
                ch = PauliChannel.random_dirichlet(n, rng)
                fast = outcome_distribution_alg1(ch, k, groups)
                for law, group, vecs in zip(fast, groups, stabs):
                    dense = oracle.alg1_distribution_dense(ch, k, group, vecs)
                    worst = max(worst, float(np.max(np.abs(law - dense))))
    return worst < tol, f"max |fast - dense| = {worst:.2e}"


def _alg2_law(tol, seed):
    worst = 0.0
    for n in (1, 2):
        rng = derive_rng(seed, "alg2-law", n)
        gate = PauliChannel.random_dirichlet(n, rng)
        spams = [
            (PauliChannel.identity(n), PauliChannel.identity(n)),
            (PauliChannel.random_dirichlet(n, rng),
             PauliChannel.depolarizing(n, 0.1)),
        ]
        for prep, meas in spams:
            model = NoiseModel(n, gate, prep, meas)
            for m in range(5):
                fast = outcome_distribution_alg2(model, m)
                brute = oracle.alg2_distribution_convolution(model, m)
                worst = max(worst, float(np.max(np.abs(fast - brute))))
    return worst < tol, f"max |fast - convolution| = {worst:.2e}"


def _mutual_info_bound(tol, seed, strategies):
    worst_margin = -np.inf
    cases = [(1, 0), (1, 1), (2, 0), (2, 2)]
    for n, k in cases:
        rng = derive_rng(seed, "mutual-info", n, k)
        for _ in range(max(1, strategies // len(cases))):
            vec, povm = oracle.random_strategy(n, k, rng)
            res = oracle.mutual_info_check(n, k, vec, povm)
            margin = res.info_nats - res.bound
            worst_margin = max(worst_margin, margin)
            if not margin <= tol:
                return False, (f"violation at n={n}, k={k}: I = "
                               f"{res.info_nats:.6f} > bound {res.bound:.6f}")
    return True, f"worst I - bound = {worst_margin:.3e} nats"


def _teleportation(tol, seed, channels):
    worst = 0.0
    prob_dev = 0.0
    for trial in range(channels):
        n = 1 + trial % 2
        rng = derive_rng(seed, "teleport", trial)
        ch = PauliChannel.random_dirichlet(n, rng)
        choi = oracle.choi_state(ch)
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        expected = oracle.apply_pauli_channel(ch, rho)
        probs, states = oracle.teleport_branches(choi, rho)
        prob_dev = max(prob_dev, float(np.max(np.abs(probs - 4.0**-n))))
        for state in states:
            worst = max(worst, float(np.max(np.abs(state - expected))))
    return worst < tol and prob_dev < tol, (
        f"max branch deviation = {worst:.2e}, "
        f"max prob deviation = {prob_dev:.2e}")


def _alg2_dense(tol, seed):
    worst = 0.0
    rng = derive_rng(seed, "alg2-dense")
    cases = [(n, oracle.DenseChannel.from_pauli(
        PauliChannel.random_dirichlet(n, rng, alpha=30.0))) for n in (1, 2)]
    cases.append((1, oracle.DenseChannel.amplitude_damping(0.1)))
    cases.append((2, oracle.DenseChannel.tensor(
        [oracle.DenseChannel.amplitude_damping(0.1),
         oracle.DenseChannel.amplitude_damping(0.25)])))
    lengths = np.array([0, 1, 2, 4])
    for n, gate in cases:
        spam = oracle.DenseChannel.from_pauli(PauliChannel.depolarizing(n, 0.05))
        prep = oracle.noisy_bell_state(n, spam)
        povm = oracle.noisy_bell_povm(n, spam)
        const = oracle.alg2_constants(n, gate, prep, povm)
        exact = oracle.alg2_expectations_dense(n, gate, prep, povm, lengths)
        closed = const * gate.twirl_eigenvalues() ** lengths[:, None]
        worst = max(worst, float(np.max(np.abs(exact - closed))))
    return worst < tol, f"max |E[F] - A lambda^m| = {worst:.2e}"


# (name, tolerance, check, quick sizes, full sizes)
CHECKS = (
    ("wht-kernel-vs-bruteforce", 1e-13, _wht_kernel, (), ()),
    ("wht-roundtrip", 1e-12, _wht_roundtrip, (4,), (6,)),
    ("stabilizer-coverings", 0.0, _coverings, (4, 3), (6, 5)),
    ("alg1-outcome-distribution-vs-oracle", 1e-10, _alg1_oracle,
     (2, 3), (3, 20)),
    ("alg2-outcome-distribution-vs-convolution", 1e-12, _alg2_law, (), ()),
    ("mutual-information-bound", 1e-9, _mutual_info_bound, (50,), (500,)),
    ("teleportation-stretching-identity", 1e-10, _teleportation, (6,), (20,)),
    ("benchmark-expectation-vs-closed-form", 1e-9, _alg2_dense, (), ()),
)


def run_checks(level: str, seed: int) -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    results = []
    for name, tol, check, quick, full in CHECKS:
        start = time.perf_counter()
        ok, detail = check(tol, seed, *(full if level == "full" else quick))
        results.append(CheckResult(name, ok, detail, tol,
                                   time.perf_counter() - start))
    return results
