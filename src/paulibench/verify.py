"""Self-verification suite: fast paths against the dense oracle.

Each check is independent and returns a CheckResult; the CLI `verify`
subcommand prints one line per check and fails the run if any check fails.
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


def _timed(name, tolerance, fn) -> CheckResult:
    start = time.perf_counter()
    ok, detail = fn()
    return CheckResult(name, ok, detail, tolerance, time.perf_counter() - start)


def check_wht_kernel(seed: int = 0) -> CheckResult:
    def run():
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
        return worst < 1e-13, f"max |fast - brute| = {worst:.2e}"

    return _timed("wht-kernel-vs-bruteforce", 1e-13, run)


def check_wht_roundtrip(seed: int = 0, max_n: int = 6) -> CheckResult:
    def run():
        worst = 0.0
        for n in range(1, max_n + 1):
            rng = derive_rng(seed, "wht-roundtrip", n)
            for _ in range(10):
                p = rng.dirichlet(np.ones(4**n))
                worst = max(worst, float(np.max(np.abs(wht_inverse(wht_forward(p)) - p))))
        return worst < 1e-12, f"max round-trip deviation = {worst:.2e}"

    return _timed("wht-roundtrip", 1e-12, run)


def check_coverings(max_mub: int = 6, max_pauli: int = 4) -> CheckResult:
    def run():
        for m in range(max_mub + 1):
            cov = mub_covering(m)
            expected = 1 if m == 0 else 2**m + 1
            if len(cov.groups) != expected:
                return False, f"mub m={m}: {len(cov.groups)} groups"
            report = verify_covering(cov)
            if not report.ok:
                return False, f"mub m={m}: {report}"
        for m in range(1, max_pauli + 1):
            cov = pauli_basis_covering(m)
            if len(cov.groups) != 3**m:
                return False, f"pauli-basis m={m}: {len(cov.groups)} groups"
            report = verify_covering(cov)
            if not report.ok:
                return False, f"pauli-basis m={m}: {report}"
        return True, f"mub m<={max_mub}, pauli-basis m<={max_pauli} all valid"

    return _timed("stabilizer-coverings", 0.0, run)


def check_alg1_oracle(seed: int = 0, max_n: int = 3,
                      channels_per_case: int = 3) -> CheckResult:
    def run():
        worst = 0.0
        for n in range(1, max_n + 1):
            for k in range(n + 1):
                cov = mub_covering(n - k)
                rng = derive_rng(seed, "alg1-oracle", n, k)
                for _ in range(channels_per_case):
                    ch = PauliChannel.random_dirichlet(n, rng)
                    for group in cov.groups:
                        fast = outcome_distribution_alg1(ch, k, group)
                        dense = oracle.alg1_distribution_dense(ch, k, group)
                        worst = max(worst, float(np.max(np.abs(fast - dense))))
        return worst < 1e-10, f"max |fast - dense| = {worst:.2e}"

    return _timed("alg1-outcome-distribution-vs-oracle", 1e-10, run)


def check_alg2_law(seed: int = 0) -> CheckResult:
    def run():
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
        return worst < 1e-12, f"max |fast - convolution| = {worst:.2e}"

    return _timed("alg2-outcome-distribution-vs-convolution", 1e-12, run)


def check_mutual_info_bound(seed: int = 0, strategies: int = 50) -> CheckResult:
    def run():
        worst_margin = -np.inf
        cases = [(1, 0), (1, 1), (2, 0), (2, 2)]
        per_case = max(1, strategies // len(cases))
        for n, k in cases:
            rng = derive_rng(seed, "mutual-info", n, k)
            for _ in range(per_case):
                vec, povm = oracle.random_strategy(n, k, rng)
                res = oracle.mutual_info_check(n, k, vec, povm)
                margin = res.info_nats - res.bound
                worst_margin = max(worst_margin, margin)
                if not res.satisfied:
                    return False, (
                        f"violation at n={n}, k={k}: I = {res.info_nats:.6f}"
                        f" > bound {res.bound:.6f}"
                    )
        return True, f"worst I - bound = {worst_margin:.3e} nats"

    return _timed("mutual-information-bound", 1e-9, run)


def check_teleportation(seed: int = 0, channels: int = 20) -> CheckResult:
    def run():
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
        ok = worst < 1e-10 and prob_dev < 1e-10
        return ok, (f"max branch deviation = {worst:.2e}, "
                    f"max prob deviation = {prob_dev:.2e}")

    return _timed("teleportation-stretching-identity", 1e-10, run)


def check_alg2_dense(seed: int = 0) -> CheckResult:
    def run():
        worst = 0.0
        rng = derive_rng(seed, "alg2-dense")
        cases = []
        for n in (1, 2):
            pauli_gate = oracle.DenseChannel.from_pauli(
                PauliChannel.random_dirichlet(n, rng, alpha=30.0))
            cases.append((n, pauli_gate))
        cases.append((1, oracle.DenseChannel.amplitude_damping(0.1)))
        cases.append((2, oracle.DenseChannel.tensor(
            [oracle.DenseChannel.amplitude_damping(0.1),
             oracle.DenseChannel.amplitude_damping(0.25)])))
        for n, gate in cases:
            spam = oracle.DenseChannel.from_pauli(
                PauliChannel.depolarizing(n, 0.05))
            prep = oracle.noisy_bell_state(n, spam)
            povm = oracle.noisy_bell_povm(n, spam)
            lam = gate.twirl_eigenvalues()
            for a in range(4**n):
                const = oracle.alg2_constant(n, gate, prep, povm, a)
                for m in (0, 1, 2, 4):
                    exact = oracle.alg2_expectation_dense(
                        n, gate, prep, povm, a, m)
                    worst = max(worst, abs(exact - const * lam[a]**m))
        return worst < 1e-9, f"max |E[F] - A lambda^m| = {worst:.2e}"

    return _timed("benchmark-expectation-vs-closed-form", 1e-9, run)


def run_checks(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    full = level == "full"
    return [
        check_wht_kernel(seed),
        check_wht_roundtrip(seed, max_n=6 if full else 4),
        check_coverings(max_mub=6 if full else 4, max_pauli=5 if full else 3),
        check_alg1_oracle(seed, max_n=3 if full else 2,
                          channels_per_case=20 if full else 3),
        check_alg2_law(seed),
        check_mutual_info_bound(seed, strategies=500 if full else 50),
        check_teleportation(seed, channels=20 if full else 6),
        check_alg2_dense(seed),
    ]
