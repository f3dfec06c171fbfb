"""The benchmark's workloads: CLI invocations, their configs and output checks.

A workload is a fixed sequence of `paulibench` CLI invocations
("operations").  An operation fails when the CLI raises or returns a
non-zero exit code, when its output misses one of the checks below, or when
its primary output differs from the first iteration of the same run.

Every tolerance comes from the statistical guarantee of the protocol and is
set at one false-alarm probability ALPHA per check, never from a seed:

* estimates: the Hoeffding + union bound behind `required_samples` gives
  |lambda_hat_b - lambda_b| <= sqrt(2 ln(2 * 4^n / ALPHA) / N_b) for every
  label b at once, with N_b its shot count;
* decay fits: each lambda_hat lies within z * stderr of the exact
  eigenvalue, z the two-sided normal quantile for ALPHA split over every
  reported label (Bonferroni);
* SPAM sweep: the largest two-sample z over every (rate pair, label) stays
  below the Bonferroni critical value for ALPHA over all comparisons;
* sweep-ancilla: the confirmation pass reaches ceil(success_fraction *
  trials) successes, which the bisection guarantees by construction;
* discriminate: a trial stops at posterior 0.9 under the priors the trial
  draws from, so each decision is right with probability >= 0.9 and the
  successes per (mode, n) cell are at least the (ALPHA / cells)-quantile of
  Binomial(trials, 0.9).

ALPHA = 1e-6 keeps the chance of a false alarm anywhere in a few hundred
benchmark runs below 1e-3.  The estimate protocol's own (epsilon, delta)
promise is reported beside the check but does not gate it: at delta = 0.05
a correct estimator may legitimately miss epsilon in one run out of a few
hundred.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable

from paulibench.cli import build_channel
from paulibench.pauli import format_bits
from paulibench.seeding import derive_rng

ALPHA = 1e-6
DISCRIMINATE_POSTERIOR = 0.9


@dataclass
class Outcome:
    """What one operation left behind, as its check sees it."""

    out_dir: Path
    stdout: str
    seed: int
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Operation:
    name: str
    command: str
    config: dict | None
    check: Callable[["Operation", Outcome], list[str]]
    primary: tuple[str, ...] = ()  # hashed tables; () hashes the report
    flags: tuple[str, ...] = ()

    def argv(self, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        if self.config is None:
            return [self.command, *self.flags, "--seed", str(seed)]
        return [self.command, "--config", str(config_path),
                "--seed", str(seed), "--threads", "1",
                "--out", str(out_dir), *self.flags]

    def digest(self, outcome: Outcome) -> str:
        sha = hashlib.sha256()
        if not self.primary:
            # report lines end in a wall time, which is not part of the result
            sha.update(re.sub(r", [0-9.]+s\)$", ")", outcome.stdout,
                              flags=re.M).encode())
        for name in self.primary:
            sha.update((outcome.out_dir / name).read_bytes())
        return sha.hexdigest()


def cli_seed(workload_seed: int, workload: str) -> int:
    """The CLI `--seed` of a workload run, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}:{workload_seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


# --- output readers -----------------------------------------------------------


def _columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        cols = [list(col) for col in zip(*rows)]
    if not cols:
        cols = [[] for _ in header]
    return dict(zip(header, cols))


def _summary(out_dir: Path) -> dict:
    return json.loads((out_dir / "run.json").read_text()).get("summary", {})


def z_critical(comparisons: int, alpha: float = ALPHA) -> float:
    """Two-sided normal critical value with alpha split over `comparisons`."""
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * max(comparisons, 1)))


def binomial_floor(trials: int, p: float, alpha: float) -> int:
    """Largest s with P(X < s) <= alpha for X ~ Binomial(trials, p)."""
    below = 0.0
    for s in range(trials + 1):
        if below > alpha:
            return s - 1
        below += math.comb(trials, s) * p**s * (1.0 - p) ** (trials - s)
    return trials


# --- checks -----------------------------------------------------------------------


def check_estimate(op: Operation, res: Outcome) -> list[str]:
    cfg = op.config
    n = int(cfg["n"])
    truth = build_channel(cfg["channel"], n,
                          derive_rng(res.seed, "channel")).eigenvalues
    cols = _columns(res.out_dir / "estimates.csv")
    labels = cols.get("label", [])
    if labels != [format_bits(b, n) for b in range(4**n)]:
        return [f"{op.name}: label column is not the {4**n} labels in order"]
    lam = [float(x) for x in cols["lambda_hat"]]
    shots = [int(x) for x in cols["n_shots"]]
    log_term = 2.0 * math.log(2.0 * 4**n / ALPHA)
    problems = []
    worst = 0.0
    for b, (est, true, count) in enumerate(zip(lam, truth, shots)):
        err = abs(est - true)
        worst = max(worst, err)
        if count < 1 or err > math.sqrt(log_term / count):
            problems.append(
                f"{op.name}: label {labels[b]} error {err:.4g} over the "
                f"Hoeffding radius for {count} shots at alpha={ALPHA:g}"
            )
            break
    eps = float(cfg["epsilon"])
    res.notes.append(f"{op.name}: max |lambda_hat - lambda| = {worst:.4f} "
                     f"({'within' if worst <= eps else 'OVER'} epsilon={eps:g} "
                     f"at delta={cfg['delta']:g})")
    return problems


def check_benchmark(op: Operation, res: Outcome) -> list[str]:
    cfg = op.config
    n = int(cfg["n"])
    truth = build_channel(cfg["gate"], n,
                          derive_rng(res.seed, "gate-channel")).eigenvalues
    summary = _summary(res.out_dir)
    problems = []
    if summary.get("fit_errors"):
        problems.append(f"{op.name}: fit errors {summary['fit_errors']}")
    cols = _columns(res.out_dir / "estimates.csv")
    rates = cols["spam_rate"]
    lam = [float(x) for x in cols["lambda_hat"]]
    se = [float(x) for x in cols["stderr"]]
    index = {format_bits(b, n): b for b in range(4**n)}
    if len(lam) != len(cfg["spam_sweep"]) * 4**n:
        problems.append(f"{op.name}: {len(lam)} estimates, expected "
                        f"{len(cfg['spam_sweep'])} x {4**n}")
    z_fit = z_critical(len(lam))
    for rate, lbl, est, err in zip(rates, cols["label"], lam, se):
        if not abs(est - truth[index[lbl]]) <= z_fit * err + 1e-12:
            problems.append(
                f"{op.name}: rate {rate} label {lbl}: lambda_hat {est:.6g} is "
                f"more than {z_fit:.2f} stderr ({err:.3g}) from "
                f"{truth[index[lbl]]:.6g}"
            )
            break
    # two-sample consistency across SPAM strengths, label by label
    by_rate: dict[str, list[tuple[float, float]]] = {}
    for rate, est, err in zip(rates, lam, se):
        by_rate.setdefault(rate, []).append((est, err))
    series = list(by_rate.values())
    worst, comparisons = 0.0, 0
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            for (a, sa), (b, sb) in zip(series[i], series[j]):
                if a != b:
                    comparisons += 1
                    worst = max(worst, abs(a - b) / math.hypot(sa, sb))
    z_sweep = z_critical(comparisons)
    if worst >= z_sweep:
        problems.append(f"{op.name}: SPAM sweep max z {worst:.3f} >= "
                        f"{z_sweep:.3f} over {comparisons} comparisons")
    if "spam_sweep_consistent" in summary:
        res.notes.append(
            f"{op.name}: program spam_sweep_consistent="
            f"{summary['spam_sweep_consistent']} (max z "
            f"{summary['spam_sweep_max_z']:.3f}, uncorrected threshold); "
            f"corrected check: max z {worst:.3f} against {z_sweep:.3f}"
        )
    return problems


def check_sweep(op: Operation, res: Outcome) -> list[str]:
    cfg = op.config
    trials = int(cfg.get("trials", 20))
    needed = math.ceil(float(cfg.get("success_fraction", 0.9)) * trials)
    cols = _columns(res.out_dir / "sweep.csv")
    problems = []
    if [int(k) for k in cols["k"]] != [int(k) for k in cfg["k_list"]]:
        problems.append(f"{op.name}: rows for k={cols['k']}, "
                        f"expected {cfg['k_list']}")
    for k, ok, tot in zip(cols["k"], cols["successes"], cols["trials"]):
        if int(tot) != trials or int(ok) < needed:
            problems.append(f"{op.name}: k={k} has {ok}/{tot} successes, "
                            f"needs {needed}/{trials}")
    return problems


def check_discriminate(op: Operation, res: Outcome) -> list[str]:
    cfg = op.config
    trials = int(cfg["trials"])
    modes = cfg.get("modes", ["bell", "ancilla-free"])
    cells = [(mode, str(n)) for mode in modes for n in cfg["n_list"]]
    floor = binomial_floor(trials, DISCRIMINATE_POSTERIOR, ALPHA / len(cells))
    cols = _columns(res.out_dir / "discriminate.csv")
    problems = []
    for mode, n in cells:
        hits = [c for m, nn, c in zip(cols["mode"], cols["n"], cols["correct"])
                if m == mode and nn == n]
        wins = sum(int(c) for c in hits)
        if len(hits) != trials or wins < floor:
            problems.append(f"{op.name}: {mode} n={n}: {wins}/{len(hits)} "
                            f"correct, floor {floor}/{trials}")
    return problems


def check_verify(op: Operation, res: Outcome) -> list[str]:
    lines = [ln for ln in res.stdout.splitlines() if ln.strip()]
    bad = [ln for ln in lines if not ln.startswith("[PASS]")]
    if not lines:
        return [f"{op.name}: no check lines printed"]
    return [f"{op.name}: {ln}" for ln in bad]


# --- workload definitions ---------------------------------------------------


def _estimate(name: str, n: int, k: int) -> Operation:
    config = {"experiment": "estimate", "n": n, "k": k,
              "channel": {"kind": "random-dirichlet"}, "covering": "mub",
              "epsilon": 0.1, "delta": 0.05}
    return Operation(name, "estimate", config, check_estimate,
                     ("estimates.csv",))


def _benchmark(name: str, config: dict) -> Operation:
    return Operation(name, "benchmark", config, check_benchmark,
                     ("estimates.csv", "decays.csv"))


# The README configs, verbatim; the benchmark's --seed overrides "seed".
README_ESTIMATE = {
    "experiment": "estimate", "n": 3, "k": 1,
    "channel": {"kind": "spike", "label": "XZY", "sign": -1},
    "covering": "mub", "epsilon": 0.1, "delta": 0.05, "seed": 7}
README_BENCHMARK = {
    "experiment": "benchmark", "n": 2,
    "gate": {"kind": "tensor", "factors": [
        {"kind": "depolarizing", "rate": 0.02},
        {"kind": "depolarizing", "rate": 0.05}]},
    "m_list": [0, 1, 2, 4, 8, 16], "shots_per_m": 100000,
    "spam_sweep": [0.0, 0.05, 0.2], "seed": 7}
README_SWEEP = {
    "experiment": "sweep-ancilla", "n": 6, "k_list": [0, 2, 4, 6],
    "epsilon": 0.2, "trials": 20, "seed": 7}
README_DISCRIMINATE = {
    "experiment": "discriminate", "n_list": [2, 4, 6], "trials": 50,
    "max_shots": 100000, "seed": 7}


def workloads(tiny: bool = False) -> dict[str, tuple[Operation, ...]]:
    """Operations of each named workload; `tiny` shrinks every size for the
    self-test."""
    n_est = 4 if tiny else 10
    spam = {"experiment": "benchmark", "n": 3 if tiny else 6,
            "gate": {"kind": "depolarizing", "rate": 0.02},
            "m_list": [0, 1, 2, 4, 8, 16],
            "shots_per_m": 2000 if tiny else 100000,
            "spam_sweep": [0, 0.05, 0.2]}
    readme = [
        Operation("estimate", "estimate", README_ESTIMATE, check_estimate,
                  ("estimates.csv",)),
        _benchmark("benchmark", dict(README_BENCHMARK, shots_per_m=2000)
                   if tiny else README_BENCHMARK),
        Operation("sweep-ancilla", "sweep-ancilla",
                  dict(README_SWEEP, n=3, k_list=[0, 3], trials=5)
                  if tiny else README_SWEEP,
                  check_sweep, ("sweep.csv",), ("--gnuplot",)),
        Operation("discriminate", "discriminate",
                  dict(README_DISCRIMINATE, n_list=[2], trials=10)
                  if tiny else README_DISCRIMINATE,
                  check_discriminate, ("discriminate.csv",)),
        Operation("verify", "verify", None, check_verify, (),
                  ("--level", "quick" if tiny else "full")),
    ]
    # why each workload was chosen: BENCHMARK.json and README.md
    return {
        "estimate-k0": (_estimate("estimate", n_est, 0),),
        "estimate-k10": (_estimate("estimate", n_est, n_est),),
        "benchmark-spam": (_benchmark("benchmark", spam),),
        "readme-cli": tuple(readme),
    }
