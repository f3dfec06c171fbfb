import csv
import json

import numpy as np

from paulibench import PauliChannel, mub_covering
from paulibench.cli import main
from paulibench.stabilizer import Covering
from paulibench import verify


def run_cli(*args):
    return main(list(args))


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_estimate_identity_channel(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": 3, "k": 3,
        "channel": {"kind": "identity"}, "samples": 400, "seed": 1,
    })
    out = tmp_path / "run"
    assert run_cli("estimate", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "estimates.csv")
    assert len(rows) == 64
    assert all(row["lambda_hat"] == "1" for row in rows)
    meta = json.loads((out / "run.json").read_text())
    assert meta["schema"] == 1 and meta["seed"] == 1
    assert meta["summary"]["covering_size"] == 1


def test_estimate_spike_channel(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": 3, "k": 1,
        "channel": {"kind": "spike", "label": "XZY", "sign": -1},
        "covering": "mub", "samples": 50000,
    })
    out = tmp_path / "run"
    assert run_cli("estimate", "--config", cfg, "--out", str(out),
                   "--seed", "7") == 0
    rows = {row["label"]: float(row["lambda_hat"])
            for row in read_csv(out / "estimates.csv")}
    assert rows["III"] == 1.0
    assert abs(rows["XZY"] + 1.0) < 0.05
    assert abs(rows["IZI"]) < 0.05


def test_estimate_channel_from_file(tmp_path):
    chan_path = tmp_path / "chan.json"
    chan_path.write_text(PauliChannel.depolarizing(2, 0.2).dumps())
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": 2, "k": 2,
        "channel": {"kind": "file", "path": str(chan_path)},
        "samples": 5000,
    })
    out = tmp_path / "run"
    assert run_cli("estimate", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "estimates.csv")
    values = [float(r["lambda_hat"]) for r in rows if r["label"] != "II"]
    assert abs(np.mean(values) - (1 - 0.2 * 16 / 15)) < 0.05


_EST = {"experiment": "estimate", "n": 2, "k": 0,
        "channel": {"kind": "identity"}, "samples": 100}
_BENCH = {"experiment": "benchmark", "n": 1, "gate": {"kind": "identity"},
          "m_list": [0, 1], "shots_per_m": 10}
_SWEEP = {"experiment": "sweep-ancilla", "n": 2, "k_list": [0],
          "epsilon": 0.5, "trials": 2}
_DISC = {"experiment": "discriminate", "n_list": [1], "trials": 2,
         "max_shots": 10}

# (subcommand, config, expected exit code): 2 config error, 3 capability
CONFIG_ERRORS = [
    ("estimate", dict(_EST, bogus=True), 2),
    ("estimate", {key: val for key, val in _EST.items() if key != "samples"}, 2),
    ("estimate", dict(_EST, experiment="benchmark"), 2),
    ("estimate", dict(_EST, n="abc"), 2),
    ("estimate", dict(_EST, n=2.5), 2),
    ("estimate", dict(_EST, k="x"), 2),
    ("estimate", dict(_EST, k=3), 2),
    ("estimate", dict(_EST, k=-1), 2),
    ("estimate", dict(_EST, samples="many"), 2),
    ("estimate", dict(_EST, seed="abc"), 2),
    ("estimate", dict(_EST, seed=-1), 2),
    ("estimate", dict(_EST, channel={"kind": "random-dirichlet", "alpha": 0}),
     2),
    ("estimate", dict(_EST, channel={"kind": "random-dirichlet",
                                     "alpha": float("nan")}), 2),
    ("estimate", dict(_EST, channel={"kind": "file", "path": 3}), 2),
    ("estimate", dict(_EST, channel={"kind": "depolarizing", "rate": "x"}), 2),
    ("estimate", dict(_EST, channel={"kind": "tensor", "factors": [
        {"kind": "identity", "n": "q"}, {"kind": "identity"}]}), 2),
    ("estimate", dict(_EST, channel={"kind": "tensor", "factors": "II"}), 2),
    ("estimate", dict(_EST, n=14, k=14), 3),
    ("benchmark", dict(_BENCH, spam_sweep=[]), 2),
    ("benchmark", dict(_BENCH, spam_sweep=["high"]), 2),
    ("benchmark", dict(_BENCH, m_list=5), 2),
    ("benchmark", dict(_BENCH, m_list=[]), 2),
    ("benchmark", dict(_BENCH, shots_per_m=0), 2),
    ("sweep-ancilla", dict(_SWEEP, k_list=[]), 2),
    ("sweep-ancilla", dict(_SWEEP, k_list=[3]), 2),
    ("sweep-ancilla", dict(_SWEEP, trials=0), 2),
    ("sweep-ancilla", dict(_SWEEP, success_fraction=2), 2),
    ("sweep-ancilla", dict(_SWEEP, success_fraction=1.0), 2),
    ("sweep-ancilla", dict(_SWEEP, channel_alpha=-1), 2),
    ("sweep-ancilla", dict(_SWEEP, n=9), 3),
    ("discriminate", dict(_DISC, n_list=[]), 2),
    ("discriminate", dict(_DISC, n_list=["two"]), 2),
    ("discriminate", dict(_DISC, trials=0), 2),
    ("discriminate", dict(_DISC, modes="bell"), 2),
    ("discriminate", dict(_DISC, modes=["telepathy"]), 2),
    ("discriminate", dict(_DISC, n_list=[11]), 3),
]


def test_config_errors(tmp_path, capsys):
    # every malformed config exits with its code and one line on stderr
    capsys.readouterr()
    for i, (command, cfg, code) in enumerate(CONFIG_ERRORS):
        path = write_config(tmp_path, f"bad{i}.json", cfg)
        got = run_cli(command, "--config", path, "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert got == code, (cfg, got, err)
        prefix = "config error: " if code == 2 else "capability error: "
        assert err.startswith(prefix) and err.count("\n") == 1, (cfg, err)
    assert run_cli("estimate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == 2
    (tmp_path / "garbled.json").write_text("{not a channel")
    path = write_config(tmp_path, "file.json", dict(_EST, channel={
        "kind": "file", "path": str(tmp_path / "garbled.json")}))
    assert run_cli("estimate", "--config", path, "--out", str(tmp_path)) == 2
    assert run_cli("estimate", "--config", path, "--seed", "-1",
                   "--out", str(tmp_path)) == 2
    assert run_cli("verify", "--seed", "-1") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 4 and err.count("config error: ") == 4, err


def test_capability_exit_code(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": 14, "k": 14,
        "channel": {"kind": "identity"}, "samples": 100,
    })
    assert run_cli("estimate", "--config", cfg, "--out", str(tmp_path)) == 3


def test_determinism_same_seed(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": 2, "k": 1,
        "channel": {"kind": "random-dirichlet"}, "samples": 3000, "seed": 3,
    })
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("estimate", "--config", cfg, "--out", str(out)) == 0
        outs.append((out / "estimates.csv").read_bytes())
    assert outs[0] == outs[1]


def test_benchmark_cli(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "benchmark", "n": 1,
        "gate": {"kind": "depolarizing", "rate": 0.05},
        "m_list": [0, 1, 2, 4, 8], "shots_per_m": 20000,
        "spam_sweep": [0.0, 0.2], "seed": 11,
    })
    out = tmp_path / "run"
    assert run_cli("benchmark", "--config", cfg, "--out", str(out)) == 0
    est = read_csv(out / "estimates.csv")
    assert {row["spam_rate"] for row in est} == {"0", "0.20000000000000001"}
    truth = 1 - 0.05 * 4 / 3
    for row in est:
        if row["label"] != "I":
            assert abs(float(row["lambda_hat"]) - truth) < 0.03
    decays = read_csv(out / "decays.csv")
    assert len(decays) == 2 * 4 * 5
    meta = json.loads((out / "run.json").read_text())
    assert meta["summary"]["spam_sweep_consistent"] is True


def test_benchmark_explicit_spam_channels(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "benchmark", "n": 1,
        "gate": {"kind": "identity"},
        "prep": {"kind": "depolarizing", "rate": 0.1},
        "meas": {"kind": "depolarizing", "rate": 0.1},
        "m_list": [0, 1, 2], "shots_per_m": 5000,
    })
    out = tmp_path / "run"
    assert run_cli("benchmark", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "estimates.csv")
    for row in rows:
        assert abs(float(row["lambda_hat"]) - 1.0) < 0.05
    conflict = write_config(tmp_path, "conflict.json", {
        "experiment": "benchmark", "n": 1,
        "gate": {"kind": "identity"},
        "prep": {"kind": "identity"}, "spam_sweep": [0.1],
        "m_list": [0, 1], "shots_per_m": 10,
    })
    assert run_cli("benchmark", "--config", conflict, "--out", str(out)) == 2


def test_sweep_ancilla_cli(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "sweep-ancilla", "n": 3, "k_list": [1, 3],
        "epsilon": 0.35, "trials": 10, "seed": 5,
    })
    out = tmp_path / "run"
    assert run_cli("sweep-ancilla", "--config", cfg, "--out", str(out),
                   "--gnuplot") == 0
    rows = read_csv(out / "sweep.csv")
    assert [row["k"] for row in rows] == ["1", "3"]
    n_min = {row["k"]: int(row["n_min"]) for row in rows}
    assert n_min["1"] > n_min["3"]
    assert (out / "sweep.gp").exists()


def test_sweep_ancilla_threads_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "sweep-ancilla", "n": 3, "k_list": [0, 2],
        "epsilon": 0.35, "trials": 7, "seed": 8,
    })
    tables = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}"
        assert run_cli("sweep-ancilla", "--config", cfg, "--out", str(out),
                       "--threads", threads) == 0
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0] == tables[1]


def test_discriminate_cli(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "discriminate", "n_list": [2], "trials": 16,
        "max_shots": 4000, "seed": 2,
    })
    out = tmp_path / "run"
    assert run_cli("discriminate", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "discriminate.csv")
    assert {row["mode"] for row in rows} == {"bell", "ancilla-free"}
    bell = [r for r in rows if r["mode"] == "bell"]
    assert np.mean([int(r["correct"]) for r in bell]) >= 0.9
    meta = json.loads((out / "run.json").read_text())
    bell_summary = meta["summary"]["bell:n=2"]
    free_summary = meta["summary"]["ancilla-free:n=2"]
    assert bell_summary["median_shots"] < free_summary["median_shots"]


def test_json_output_format(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": 1, "k": 1,
        "channel": {"kind": "identity"}, "samples": 100,
    })
    out = tmp_path / "run"
    assert run_cli("estimate", "--config", cfg, "--out", str(out),
                   "--format", "json") == 0
    rows = json.loads((out / "estimates.json").read_text())
    assert rows[0]["label"] == "I" and rows[0]["lambda_hat"] == 1.0


def test_verify_quick_passes(tmp_path, capsys):
    assert run_cli("verify", "--level", "quick", "--seed", "1",
                   "--out", str(tmp_path / "v")) == 0
    captured = capsys.readouterr()
    assert captured.out.count("[PASS]") == 8
    assert (tmp_path / "v" / "verify.txt").exists()


def test_verify_fails_on_corrupted_covering(monkeypatch, capsys):
    real = verify.mub_covering

    def corrupted(m):
        cov = real(m)
        if m == 2:
            return Covering(2, cov.groups[:-1], "mub")
        return cov

    monkeypatch.setattr(verify, "mub_covering", corrupted)
    assert run_cli("verify", "--level", "quick", "--seed", "1") == 4
    captured = capsys.readouterr()
    assert "[FAIL] stabilizer-coverings" in captured.out


def test_estimate_pauli_basis_covering(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": 2, "k": 0,
        "channel": {"kind": "depolarizing", "rate": 0.1},
        "covering": "pauli-basis", "samples": 27000, "seed": 4,
    })
    out = tmp_path / "run"
    assert run_cli("estimate", "--config", cfg, "--out", str(out)) == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["summary"]["covering_size"] == 9
    rows = {r["label"]: r for r in read_csv(out / "estimates.csv")}
    assert int(rows["II"]["n_shots"]) == 27000
    assert int(rows["XI"]["n_shots"]) == 9000
    truth = 1 - 0.1 * 16 / 15
    assert abs(float(rows["ZZ"]["lambda_hat"]) - truth) < 0.05


def test_benchmark_default_length_ladder(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "benchmark", "n": 1,
        "gate": {"kind": "identity"}, "shots_per_m": 500,
    })
    out = tmp_path / "run"
    assert run_cli("benchmark", "--config", cfg, "--out", str(out)) == 0
    decays = read_csv(out / "decays.csv")
    assert sorted({int(r["m"]) for r in decays}) == [0, 1, 2, 4, 8, 16]


def test_verify_fails_on_wrong_alg2_law(monkeypatch, capsys):
    real = verify.outcome_distribution_alg2

    def one_gate_short(model, m):
        return real(model, m - 1) if m > 0 else real(model, m)

    monkeypatch.setattr(verify, "outcome_distribution_alg2", one_gate_short)
    assert run_cli("verify", "--level", "quick", "--seed", "1") == 4
    captured = capsys.readouterr()
    assert "[FAIL] alg2-outcome-distribution-vs-convolution" in captured.out
