import ast
import csv
import json
from pathlib import Path

from paulibench import cli, experiments, mub_covering
from paulibench.cli import main


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
        rounds, confirmed = experiments.sweep_min_rounds(
            n, k, cov, epsilon, trials, 0.9, 1.0, seed)
        expected.append([str(v) for v in (k, size, rounds, rounds * size,
                                          confirmed, trials)])
    assert rows == expected


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


class _StubEstimate:
    def __init__(self, error: float):
        self.error = error

    def max_abs_error(self, truth) -> float:
        return self.error


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

    def stub(channel, k_, cov_, total, rng):
        if not probes or channel is probes[0][0][0]:
            probes.append([])
        rounds = total // size
        probes[-1].append((channel, rounds))
        return _StubEstimate(0.0 if ok(rounds, len(probes[-1]) - 1) else 1.0)

    monkeypatch.setattr(experiments, "estimate_alg1", stub)
    rounds_min, confirmed = experiments.sweep_min_rounds(
        n, k, cov, epsilon, trials, frac, 1.0, seed=0)
    assert rounds_min == threshold
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
