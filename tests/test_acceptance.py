"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output on failure) and enforces the criterion's runtime budget.
"""

import json
import time

import numpy as np

from paulibench import (
    NoiseModel,
    PauliChannel,
    benchmark_alg2,
    estimate_alg1,
    mub_covering,
    pauli_basis_covering,
    required_samples,
    verify_covering,
    wht_forward,
    wht_inverse,
)
from paulibench import dense_oracle as oracle
from paulibench.cli import main as cli_main
from paulibench.pauli import symp
from paulibench.sampler import outcome_distribution_alg1
from paulibench.seeding import derive_rng


class Criterion:
    def __init__(self, num, name, budget_s):
        self.num = num
        self.name = name
        self.budget = budget_s
        self.start = time.perf_counter()

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {self.num} ({self.name}): {detail} "
              f"[{elapsed:.1f}s / budget {self.budget:.0f}s]")
        assert ok, f"criterion {self.num}: {detail}"
        assert elapsed < self.budget, f"criterion {self.num} exceeded budget"


def test_criterion_1_wht_correctness():
    crit = Criterion(1, "WHT correctness", 10)
    worst_rt = 0.0
    for n in range(1, 7):
        rng = derive_rng(101, "wht", n)
        probs = rng.dirichlet(np.ones(4**n), size=100)
        lam = wht_forward(probs)
        back = wht_inverse(lam)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - probs))))
    worst_kernel = 0.0
    for n in (1, 2, 3):
        rng = derive_rng(101, "kernel", n)
        p = rng.dirichlet(np.ones(4**n))
        brute = np.array([
            sum(p[a] * (-1) ** symp(a, b) for a in range(4**n))
            for b in range(4**n)
        ])
        worst_kernel = max(worst_kernel,
                           float(np.max(np.abs(wht_forward(p) - brute))))
    ok = worst_rt < 1e-12 and worst_kernel < 1e-13
    crit.finish(ok, f"round trip {worst_rt:.2e} (< 1e-12), "
                    f"kernel vs brute {worst_kernel:.2e} (< 1e-13)")


def test_criterion_2_covering_validity():
    crit = Criterion(2, "covering validity", 30)
    problems = []
    for m in range(7):
        cov = mub_covering(m)
        expected = 1 if m == 0 else 2**m + 1
        if len(cov.groups) != expected:
            problems.append(f"mub m={m}: {len(cov.groups)} groups")
        if not verify_covering(cov).ok:
            problems.append(f"mub m={m}: invalid")
        if m >= 1:
            seen = np.zeros(4**m, dtype=int)
            for grp in cov.groups:
                for lbl in grp.elements():
                    seen[lbl] += 1
            if not (seen[0] == 2**m + 1 and np.all(seen[1:] == 1)):
                problems.append(f"mub m={m}: not a partition")
    for m in range(1, 6):
        cov = pauli_basis_covering(m)
        if len(cov.groups) != 3**m:
            problems.append(f"pauli-basis m={m}: {len(cov.groups)} groups")
        if not verify_covering(cov).ok:
            problems.append(f"pauli-basis m={m}: uncovered labels")
    crit.finish(not problems,
                problems[0] if problems else
                "MUB m in 0..6 partitions (2^m+1 groups), "
                "pauli-basis m in 1..5 covers (3^m groups)")


def test_criterion_3_oracle_equivalence():
    crit = Criterion(3, "oracle equivalence", 300)
    worst = 0.0
    for n in (1, 2, 3):
        for k in range(n + 1):
            cov = mub_covering(n - k)
            rng = derive_rng(103, n, k)
            for _ in range(20):
                ch = PauliChannel.random_dirichlet(n, rng)
                for group in cov.groups:
                    fast = outcome_distribution_alg1(ch, k, [group])[0]
                    dense = oracle.alg1_distribution_dense(ch, k, group)
                    worst = max(worst, float(np.max(np.abs(fast - dense))))
    crit.finish(worst < 1e-10, f"max |fast - dense| = {worst:.2e} (< 1e-10)")


def test_criterion_4_sample_budget_guarantee():
    crit = Criterion(4, "sample-budget guarantee at n=8", 300)
    n, k, eps, delta = 8, 8, 0.1, 0.05
    total = required_samples(n, k, eps, delta, 1)
    cov = mub_covering(0)
    successes = 0
    trials = 100
    for t in range(trials):
        rng = derive_rng(104, t)
        ch = PauliChannel.random_dirichlet(n, rng)
        est = estimate_alg1(ch, k, cov, total, rng)
        successes += est.max_abs_error(ch.eigenvalues) <= eps
    crit.finish(successes >= 95,
                f"N={total}: {successes}/100 trials within 0.1 (need >= 95)")


def test_criterion_5_ancilla_scaling(tmp_path):
    crit = Criterion(5, "ancilla scaling separation", 1800)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "experiment": "sweep-ancilla", "n": 6, "k_list": [0, 2, 4, 6],
        "epsilon": 0.2, "trials": 20, "seed": 105,
    }))
    out = tmp_path / "sweep-run"
    code = cli_main(["sweep-ancilla", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    n_min = {}
    for line in (out / "sweep.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        n_min[int(parts[0])] = int(parts[3])
    ratios = [n_min[0] / n_min[2], n_min[2] / n_min[4], n_min[4] / n_min[6]]
    overall = n_min[0] / n_min[6]
    ok = all(2.0 <= r <= 8.0 for r in ratios) and overall >= 16.0
    crit.finish(ok, f"N_min={n_min}, consecutive ratios "
                    f"{[round(r, 2) for r in ratios]} (in [2,8]), "
                    f"N(0)/N(6)={overall:.1f} (>= 16)")


def test_criterion_6_mutual_information_bound():
    crit = Criterion(6, "mutual-information bound", 300)
    violations = 0
    total = 0
    worst_margin = -np.inf
    for n, k in [(1, 0), (1, 1), (2, 0), (2, 2)]:
        rng = derive_rng(106, n, k)
        for _ in range(125):
            vec, povm = oracle.random_strategy(n, k, rng)
            res = oracle.mutual_info_check(n, k, vec, povm)
            total += 1
            worst_margin = max(worst_margin, res.info_nats - res.bound)
            if res.info_nats > res.bound + 1e-9:
                violations += 1
    crit.finish(violations == 0 and total >= 500,
                f"{total} strategies, {violations} violations, "
                f"worst I - bound = {worst_margin:.3e} nats")


def test_criterion_7_algorithm2():
    crit = Criterion(7, "benchmarking protocol", 600)
    # (a) dense oracle: E[F(m)] == A_a lambda_a^m for Pauli and
    #     amplitude-damping gate noise, n <= 2, m <= 4
    worst_a = 0.0
    rng = derive_rng(107, "dense")
    cases = []
    for n in (1, 2):
        cases.append((n, oracle.DenseChannel.from_pauli(
            PauliChannel.random_dirichlet(n, rng, alpha=20.0))))
    cases.append((1, oracle.DenseChannel.amplitude_damping(0.1)))
    cases.append((2, oracle.DenseChannel.tensor(
        [oracle.DenseChannel.amplitude_damping(0.1),
         oracle.DenseChannel.amplitude_damping(0.2)])))
    for n, gate in cases:
        spam = oracle.DenseChannel.from_pauli(PauliChannel.depolarizing(n, 0.06))
        prep = oracle.noisy_bell_state(n, spam)
        povm = oracle.noisy_bell_povm(n, spam)
        lam = gate.twirl_eigenvalues()
        const = oracle.alg2_constants(n, gate, prep, povm)
        lengths = np.arange(5)
        values = oracle.alg2_expectations_dense(n, gate, prep, povm, lengths)
        closed = const * lam ** lengths[:, None]
        worst_a = max(worst_a, float(np.max(np.abs(values - closed))))
    ok_a = worst_a < 1e-9

    # (b) Monte Carlo recovery of the gate eigenvalues at n=2, R=1e5
    gate = PauliChannel.tensor([
        PauliChannel.depolarizing(1, 0.02),
        PauliChannel.depolarizing(1, 0.05),
    ])
    lengths = [0, 1, 2, 4, 8, 16]
    shots = 100_000
    results = {}
    for spam_rate in (0.0, 0.05, 0.2):
        model = NoiseModel.with_depolarizing_spam(gate, spam_rate)
        rng = derive_rng(107, "mc", str(spam_rate))
        results[spam_rate] = benchmark_alg2(model, lengths, shots, rng)
    err_b = max(res.estimates.max_abs_error(gate.eigenvalues)
                for res in results.values())
    ok_b = err_b < 0.02

    # (c) SPAM robustness: pairwise two-sample test at significance 1e-3
    crit_z = 3.2905267314918945
    worst_z = 0.0
    rates = list(results)
    for i in range(len(rates)):
        for j in range(i + 1, len(rates)):
            ei = results[rates[i]].estimates
            ej = results[rates[j]].estimates
            diff = np.abs(ei.lambda_hat - ej.lambda_hat)
            se = np.sqrt(ei.stderr**2 + ej.stderr**2)
            z = np.where(diff == 0, 0.0, diff / np.maximum(se, 1e-300))
            worst_z = max(worst_z, float(np.max(z)))
    ok_c = worst_z < crit_z
    crit.finish(ok_a and ok_b and ok_c,
                f"(a) dense |E - A*lam^m| = {worst_a:.2e} (< 1e-9); "
                f"(b) MC max error = {err_b:.4f} (< 0.02); "
                f"(c) SPAM max |z| = {worst_z:.2f} (< {crit_z:.2f})")


def test_criterion_8_teleportation():
    crit = Criterion(8, "teleportation stretching", 60)
    worst_state = 0.0
    worst_prob = 0.0
    for trial in range(20):
        n = 1 + trial % 2
        rng = derive_rng(108, trial)
        ch = PauliChannel.random_dirichlet(n, rng)
        choi = oracle.choi_state(ch)
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        expected = oracle.apply_pauli_channel(ch, rho)
        probs, states = oracle.teleport_branches(choi, rho)
        worst_prob = max(worst_prob, float(np.max(np.abs(probs - 4.0**-n))))
        for state in states:
            worst_state = max(worst_state,
                              float(np.max(np.abs(state - expected))))
    ok = worst_state < 1e-10 and worst_prob < 1e-10
    crit.finish(ok, f"branch deviation {worst_state:.2e} (< 1e-10), "
                    f"probability deviation {worst_prob:.2e} (< 1e-10)")


def test_criterion_9_determinism(tmp_path):
    crit = Criterion(9, "thread-count determinism", 120)
    est_cfg = tmp_path / "est.json"
    est_cfg.write_text(json.dumps({
        "experiment": "estimate", "n": 3, "k": 1,
        "channel": {"kind": "random-dirichlet"}, "samples": 20000, "seed": 109,
    }))
    bench_cfg = tmp_path / "bench.json"
    bench_cfg.write_text(json.dumps({
        "experiment": "benchmark", "n": 2,
        "gate": {"kind": "depolarizing", "rate": 0.05},
        "m_list": [0, 1, 2, 4], "shots_per_m": 20000,
        "spam_sweep": [0.0, 0.1], "seed": 109,
    }))
    blobs = {}
    for threads in ("1", "4"):
        for name, cfg, files in (
            ("est", est_cfg, ["estimates.csv"]),
            ("bench", bench_cfg, ["estimates.csv", "decays.csv"]),
        ):
            out = tmp_path / f"{name}-t{threads}"
            cmd = name if name != "est" else "estimate"
            cmd = "benchmark" if name == "bench" else cmd
            code = cli_main([cmd, "--config", str(cfg), "--out", str(out),
                             "--threads", threads])
            assert code == 0
            for fname in files:
                blobs[(name, fname, threads)] = (out / fname).read_bytes()
    mismatches = [
        (name, fname)
        for name, fname in {(n, f) for n, f, _ in blobs}
        if blobs[(name, fname, "1")] != blobs[(name, fname, "4")]
    ]
    crit.finish(not mismatches,
                f"mismatched files: {mismatches}" if mismatches else
                "estimate + benchmark CSVs byte-identical at threads 1 and 4")
