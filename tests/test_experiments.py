import ast
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from paulibench import (PauliChannel, UsageError, cli, experiments,
                        mub_covering)
from paulibench.cli import main
from paulibench.pauli import format_bits, symp_u64
from paulibench.seeding import derive_rng


def _cli_rows(tmp_path, command, cfg, table):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    with open(out / table, newline="") as fh:
        return [list(row.values()) for row in csv.DictReader(fh)]


def test_sweep_min_rounds_matches_cli_table(tmp_path):
    n, k_list, epsilon, trials, seed = 3, [0, 2], 0.35, 7, 8
    rows = _cli_rows(tmp_path, "sweep-ancilla", {
        "experiment": "sweep-ancilla", "n": n, "k_list": k_list,
        "epsilon": epsilon, "trials": trials, "seed": seed,
    }, "sweep.csv")
    expected = []
    for k in k_list:
        cov = mub_covering(n - k)
        size = len(cov.groups)
        rounds, confirmed, _, _ = experiments.sweep_min_rounds(
            n, k, cov, epsilon, trials, 0.9, 1.0, seed)
        expected.append([str(v) for v in (k, size, rounds, rounds * size,
                                          confirmed, trials)])
    assert rows == expected


def test_sweep_trial_bytes_plans_the_kept_laws():
    # a trial holds its channel, 32 B per label, and the laws its estimator
    # keeps: a covering's G x 4^k x 2^m doubles when it fits one chunk and
    # m > 0, else none
    channel = 32 * 4**6
    assert [experiments.sweep_trial_bytes(6, k, mub_covering(6 - k))
            for k in (0, 2, 4, 6)] == [channel + 8 * cells for cells in (
                65 * 64, 17 * 16 * 16, 5 * 256 * 4, 0)]
    assert max(experiments.sweep_trial_bytes(6, k, mub_covering(6 - k))
               for k in (0, 2, 4, 6)) == (128 + 40) << 10
    # at n = 8 no covering fits a chunk of 2^16 cells
    assert {experiments.sweep_trial_bytes(8, k, mub_covering(8 - k))
            for k in range(9)} == {2 << 20}


def test_discriminate_matches_cli_table(tmp_path):
    n_list, trials, max_shots, seed = [2, 3], 6, 4000, 2
    rows = _cli_rows(tmp_path, "discriminate", {
        "experiment": "discriminate", "n_list": n_list, "trials": trials,
        "max_shots": max_shots, "seed": seed,
    }, "discriminate.csv")
    expected = []
    for mode in experiments.DISCRIMINATE_MODES:
        for n in n_list:
            for t, (truth, declared, shots) in enumerate(
                    experiments.discriminate(n, mode, trials, max_shots, seed)):
                expected.append([mode, str(n), str(t), truth, declared,
                                 str(int(declared == truth)), str(shots)])
    assert rows == expected


def _per_shot_trial(n, mode, seed, trial, max_shots, groups):
    """The discrimination trial with one draw and one syndrome per shot: the
    unblocked form `experiments._discriminate_trial` must equal.  `groups`
    is a list of (group, non-identity members) pairs."""
    rng = derive_rng(seed, "discriminate", mode, n, trial)
    spike_truth = bool(rng.integers(0, 2))
    a_true = int(rng.integers(1, 4**n)) if spike_truth else 0
    truth = f"spike:{format_bits(a_true, n)}" if spike_truth else "dep"
    if spike_truth:
        channel = PauliChannel.spike(n, a_true, +1)
    else:
        channel = PauliChannel.fully_depolarizing(n)
    count = 4**n - 1
    log2_threshold = float(np.log2(9.0))
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
    hits = np.zeros(4**n, dtype=np.float64)
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


# blocks of the default size, of at most three rounds, and of one round
BLOCKS = [None, 3, "one-round"]


def _set_block(monkeypatch, block):
    if block == "one-round":
        monkeypatch.setattr(experiments, "SHOT_BLOCK_CELLS", 1)
    elif block is not None:
        monkeypatch.setattr(experiments, "SHOT_BLOCK", block)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("mode", experiments.DISCRIMINATE_MODES)
def test_block_trials_equal_per_shot_trials(mode, block, monkeypatch):
    # trials cross block ends; max_shots 3 leaves most trials undecided, 70
    # and 2000 end inside and past a first default block
    _set_block(monkeypatch, block)
    outcomes = set()
    for n in range(1, 5):
        groups = [(grp, np.asarray(grp.elements()[1:], dtype=np.int64))
                  for grp in mub_covering(n).groups]
        for seed in range(3):
            for max_shots in (3, 70, 2000):
                blocked = experiments.discriminate(n, mode, 8, max_shots,
                                                   seed)
                looped = [_per_shot_trial(n, mode, seed, t, max_shots, groups)
                          for t in range(8)]
                assert blocked == looped, (n, seed, max_shots)
                outcomes |= {declared.split(":")[0]
                             for _, declared, _ in blocked}
    assert outcomes == {"dep", "spike", "undecided"}


def _per_shot_steps(n, mode, channel, rng, max_shots, groups):
    """(shot, alive, log2 ratio, last alive) after every shot, computed as
    the per-shot trial does: one draw, one syndrome and, without an
    ancilla, the log-sum-exp over the hits of every live candidate."""
    count = 4**n - 1
    labels = np.arange(1, 4**n, dtype=np.uint64)
    alive = np.ones(labels.shape, dtype=bool)
    alphas = np.arange(1, 2**n, dtype=np.uint64)
    hits = np.zeros(4**n, dtype=np.float64)
    alive_full = np.ones(4**n, dtype=bool)
    alive_full[0] = False
    for shot in range(1, max_shots + 1):
        if mode == "bell":
            alive &= symp_u64(labels, np.uint64(channel.sample(rng))) == 0
            live = labels[alive].astype(np.int64)
            ratio = shot + float(np.log2(live.size)) if live.size else None
        else:
            grp, members = groups[(shot - 1) % len(groups)]
            e = np.uint64(grp.syndrome(channel.sample(rng)))
            consistent = (np.bitwise_count(alphas & e) & np.uint64(1)) == 0
            alive_full[members[~consistent]] = False
            survivors = members[consistent]
            hits[survivors[alive_full[survivors]]] += 1.0
            live = np.nonzero(alive_full)[0]
            ratio = None
            if live.size:
                peak = float(hits[live].max())
                ratio = peak + float(np.log2(np.exp2(hits[live] - peak).sum()))
        if ratio is not None:
            ratio -= float(np.log2(count))
        yield (shot, int(live.size), ratio,
               int(live[0]) if live.size == 1 else None)


def _block_steps(channel, rng, max_shots, members):
    """The blocks of `experiments._shot_rounds` as the per-shot stream of
    `_per_shot_steps`, the last alive candidate read at every shot."""
    for first, total, ratio, states in experiments._shot_rounds(
            channel, rng, max_shots, members):
        for i, (alive, log2_ratio) in enumerate(zip(total.tolist(),
                                                    ratio.tolist())):
            last = int(experiments._alive_members(members, states, i)[0]) \
                if alive == 1 else None
            yield first + i, alive, log2_ratio if alive else None, last


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("mode", experiments.DISCRIMINATE_MODES)
def test_step_streams_equal_per_shot_arithmetic(mode, block, monkeypatch):
    # every shot's alive count, exact log2 ratio and last candidate,
    # also past the point where a trial would stop
    _set_block(monkeypatch, block)
    for n in range(1, 6):
        cover = mub_covering(n).groups
        groups = [(grp, np.asarray(grp.elements()[1:], dtype=np.int64))
                  for grp in cover]
        members = (np.arange(1, 4**n, dtype=np.uint64)[None] if mode == "bell"
                   else np.array([m for _, m in groups], dtype=np.uint64))
        picks = np.random.default_rng(n).integers(1, 4**n, size=3)
        channels = [PauliChannel.fully_depolarizing(n)] + [
            PauliChannel.spike(n, int(a), +1) for a in picks]
        # one shot into a thirteenth round, so the last block is cut short
        max_shots = 12 * len(cover) + 1
        for i, channel in enumerate(channels):
            fast = list(_block_steps(channel, np.random.default_rng(i),
                                     max_shots, members))
            slow = list(_per_shot_steps(n, mode, channel,
                                        np.random.default_rng(i), max_shots,
                                        groups))
            assert fast == slow, (n, i)


def test_probe_stops_at_the_deciding_trial(monkeypatch):
    # every probe but the last (the confirmation pass) must end at the trial
    # that settles pass/fail, and the confirmation pass runs every trial
    n, k, epsilon, trials, frac = 2, 1, 0.5, 10, 0.7
    needed, threshold = 7, 3  # ceil(0.7 * 10); rounds >= 3 pass
    cov = mub_covering(n - k)
    size = len(cov.groups)
    probes = []

    def ok(rounds: int, t: int) -> bool:
        # passing budgets fail two trials, failing ones pass six
        return t not in (1, 4) if rounds >= threshold else t not in (0, 2, 5, 6)

    def stub(channel, total, rng):
        # (sums, counts) whose quotient misses the truth by 0 or by 1
        if not probes or channel is probes[0][0][0]:
            probes.append([])
        rounds = total // size
        probes[-1].append((channel, rounds))
        error = 0.0 if ok(rounds, len(probes[-1]) - 1) else 1.0
        counts = np.ones(4**n, dtype=np.int64)
        return channel.eigenvalues + error, counts

    monkeypatch.setattr(experiments, "alg1_estimator",
                        lambda k_, cov_: stub)
    rounds_min, confirmed, n_probes, trials_run = experiments.sweep_min_rounds(
        n, k, cov, epsilon, trials, frac, 1.0, seed=0)
    assert rounds_min == threshold
    assert n_probes == len(probes)
    assert trials_run == sum(len(calls) for calls in probes)
    assert len(probes) > 3
    *searched, confirmation = probes
    for calls in searched:
        (rounds,) = {r for _, r in calls}
        oks = [ok(rounds, t) for t in range(len(calls))]

        def decided(m: int) -> bool:
            successes = sum(oks[:m])
            return successes >= needed or m - successes > trials - needed

        assert decided(len(calls)) and not decided(len(calls) - 1)
        assert len(calls) < trials
    assert [r for _, r in confirmation] == [threshold] * trials
    assert confirmed == trials - 2


def _never(*args):
    raise AssertionError("work started")


def test_discriminate_refuses_an_unknown_mode(monkeypatch):
    # a mode outside DISCRIMINATE_MODES is refused before any trial runs
    monkeypatch.setattr(experiments, "_discriminate_trial", _never)
    with pytest.raises(UsageError, match="unknown discriminate mode 'bel'"):
        experiments.discriminate(2, "bel", 2, 1000, 0)


def test_sweep_checks_its_budget_before_building_channels(monkeypatch):
    # an epsilon or success fraction that `required_samples` refuses is
    # refused before any trial channel is built
    monkeypatch.setattr(PauliChannel, "random_dirichlet", _never)
    cov = mub_covering(2)
    for epsilon, frac in ((0.0, 0.9), (1.5, 0.9), (0.5, 1.0)):
        with pytest.raises(UsageError):
            experiments.sweep_min_rounds(2, 0, cov, epsilon, 3, frac, 1.0, 0)


def _imported_modules(path: Path, package: str) -> set[str]:
    """Absolute names of the modules and module attributes a file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, (package, base)))
            names.add(base)
            names |= {f"{base}.{alias.name}" for alias in node.names}
    return names


def test_imports_run_from_cli_to_library():
    # the CLI starts no threads, and the experiments never reach back into
    # the CLI
    cli_imports = _imported_modules(Path(cli.__file__), "paulibench")
    assert not {name for name in cli_imports
                if name.split(".")[0] in ("concurrent", "threading")}
    exp_imports = _imported_modules(Path(experiments.__file__), "paulibench")
    assert not {name for name in exp_imports
                if name == "paulibench.cli"
                or name.startswith("paulibench.cli.")}
