import csv
import functools
import hashlib
import json
import subprocess
import tracemalloc
from itertools import product

import numpy as np
import pytest

from paulibench import PauliChannel, estimate_alg1, mub_covering
from paulibench import cli, experiments
from paulibench.experiments import spam_sweep
from paulibench.cli import build_channel, main
from paulibench.estimation import dense_benchmark_bytes, dense_estimate_bytes
from paulibench.pauli import format_bits
from paulibench.seeding import derive_rng
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
    assert meta["tables"]["estimates.csv"]["rows"] == 64


def test_estimate_table_matches_row_by_row_reference(tmp_path):
    # 4^9 rows span several write chunks; the reference formats row by row
    n, k, samples, seed = 9, 9, 3000, 11
    spec = {"kind": "random-dirichlet"}
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": n, "k": k, "channel": spec,
        "samples": samples,
    })
    channel = build_channel(spec, n, derive_rng(seed, "channel"))
    est = estimate_alg1(channel, k, mub_covering(n - k), samples,
                        derive_rng(seed, "shots"))
    header = ["label", "lambda_hat", "n_shots", "stderr"]
    # label order: qubit 0, the leftmost letter, varies fastest
    names = ["".join(reversed(word)) for word in product("IXZY", repeat=n)]
    rows = list(zip(names, est.lambda_hat.tolist(), est.n_shots.tolist(),
                    est.stderr.tolist()))
    # json.dumps(..., indent=1) of one row's dict, as a template checked
    # against json.dumps itself on the first rows
    json_row = (' {{\n  "label": "{}",\n  "lambda_hat": {!r},\n'
                '  "n_shots": {},\n  "stderr": {!r}\n }}').format
    head = [dict(zip(header, row)) for row in rows[:3]]
    assert "[\n" + ",\n".join(json_row(*row) for row in rows[:3]) + "\n]" \
        == json.dumps(head, indent=1)
    expected = {
        "csv": ",".join(header) + "\n" + "".join(
            f"{name},{lam:.17g},{cnt},{se:.17g}\n"
            for name, lam, cnt, se in rows),
        "json": "[\n" + ",\n".join(json_row(*row) for row in rows)
        + "\n]\n",
    }
    for fmt, text in expected.items():
        out = tmp_path / fmt
        assert run_cli("estimate", "--config", cfg, "--out", str(out),
                       "--seed", str(seed), "--format", fmt) == 0
        assert (out / f"estimates.{fmt}").read_bytes() == text.encode()
        # one shot count, 3000, in every label: every piece is coded
        table = json.loads((out / "run.json").read_text())["tables"][
            f"estimates.{fmt}"]
        assert table["pieces"] == table["coded_pieces"] == 4


@pytest.mark.parametrize("n, k, samples, coded", [
    (4, 4, 100, 4),  # one shot count, 100, 202 bins: every piece coded
    # the identity-syndrome labels 0-3 take 900 shots, the rest 100: the
    # first piece is plain
    (4, 1, 900, 3),
    (4, 4, 1000, 0),  # 2002 bins, over 4 per label of a 64-row piece
])
def test_coded_estimate_write_equals_plain(tmp_path, monkeypatch, n, k,
                                           samples, coded):
    # the estimate table written from its tallies' codes has the bytes of
    # the same table written as plain columns
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 64)
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": n, "k": k, "samples": samples,
        "channel": {"kind": "random-dirichlet"}})
    tally_codes = cli._tally_codes
    for fmt in ("csv", "json"):
        written = {}
        for name, helper in (("coded", tally_codes),
                             ("plain", lambda *args: None)):
            monkeypatch.setattr(cli, "_tally_codes", helper)
            out = tmp_path / f"{name}-{fmt}"
            assert run_cli("estimate", "--config", cfg, "--out", str(out),
                           "--seed", "5", "--format", fmt) == 0
            table = json.loads((out / "run.json").read_text())["tables"][
                f"estimates.{fmt}"]
            written[name] = (out / f"estimates.{fmt}").read_bytes(), table
        (coded_text, coded_table), (plain_text, plain_table) = (
            written["coded"], written["plain"])
        assert coded_text == plain_text
        assert coded_table["pieces"] == plain_table["pieces"] == 4
        assert (coded_table["coded_pieces"], plain_table["coded_pieces"]) \
            == (coded, 0)


@pytest.mark.parametrize("fmt, parent_peak", [("csv", 12_697_930),
                                              ("json", 24_806_588)])
def test_estimate_write_holds_one_piece_of_codes(tmp_path, monkeypatch, fmt,
                                                 parent_peak):
    # the traced peak of an n = 9, k = 9 estimate's write, above what the
    # run holds when the write starts, stays within the plain writer's
    # (12.70 and 24.81 MB, measured before the estimate table was written
    # from its tallies) plus one piece's codes, 0.5 MiB: codes held across
    # the four pieces would exceed it
    write_table, extra = cli.RunWriter.write_table, []

    def write(self, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        path = write_table(self, *args)
        extra.append(tracemalloc.get_traced_memory()[1] - before)
        return path

    monkeypatch.setattr(cli.RunWriter, "write_table", write)
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": 9, "k": 9, "samples": 3000,
        "channel": {"kind": "random-dirichlet"}})
    tracemalloc.start()
    try:
        assert run_cli("estimate", "--config", cfg, "--out", str(tmp_path),
                       "--seed", "11", "--format", fmt) == 0
    finally:
        tracemalloc.stop()
    table = json.loads((tmp_path / "run.json").read_text())["tables"]
    assert table[f"estimates.{fmt}"]["coded_pieces"] == 4
    assert extra[0] < parent_peak + cli._CSV_CHUNK_ROWS * 8


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
    chan_path.write_text(json.dumps(PauliChannel.depolarizing(2, 0.2).to_json()))
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


def test_estimate_tensor_of_sparse_factors(tmp_path):
    # identity, random-sparse and sparse file factors enter a tensor as
    # their dense rates: the product equals the one of dense twins
    sparse_file = tmp_path / "sparse.json"
    sparse_file.write_text(json.dumps(PauliChannel.from_sparse(
        1, [("I", 0.75), ("Y", 0.25)]).to_json()))
    dense_file = tmp_path / "dense.json"
    dense_file.write_text(json.dumps({"n": 1, "format": "dense",
                                      "entries": [1, 0, 0, 0]}))
    depol = {"kind": "depolarizing", "rate": 0.1}
    factors = {
        "sparse": [{"kind": "identity"}, depol,
                   {"kind": "file", "path": str(sparse_file)}],
        "dense": [{"kind": "file", "path": str(dense_file)}, depol,
                  {"kind": "file", "path": str(sparse_file)}],
        "random": [{"kind": "random-sparse", "support": 3, "n": 2}, depol],
    }
    tables = {}
    for name, spec in factors.items():
        cfg = write_config(tmp_path, f"cfg-{name}.json", {
            "experiment": "estimate", "n": 3, "k": 3, "samples": 2000,
            "channel": {"kind": "tensor", "factors": spec}, "seed": 3})
        out = tmp_path / name
        assert run_cli("estimate", "--config", cfg, "--out", str(out)) == 0
        tables[name] = (out / "estimates.csv").read_bytes()
    assert tables["sparse"] == tables["dense"]


def test_channel_file_n_is_checked_before_building(tmp_path, monkeypatch,
                                                   capsys):
    # a file's n that is not the config's is refused before any 4^n
    def never(*args):
        raise AssertionError("the channel was built")

    monkeypatch.setattr(PauliChannel, "from_sparse", never)
    monkeypatch.setattr(PauliChannel, "from_error_rates", never)
    for file_n, fmt, entries in ((10**11, "sparse", [[0, 1.0]]),
                                 (3, "dense", [1.0] + [0.0] * 63)):
        chan_path = tmp_path / "chan.json"
        chan_path.write_text(json.dumps(
            {"n": file_n, "format": fmt, "entries": entries}))
        cfg = write_config(tmp_path, "cfg.json", dict(
            _EST, channel={"kind": "file", "path": str(chan_path)}))
        assert run_cli("estimate", "--config", cfg, "--out",
                       str(tmp_path / "run")) == 2
        assert capsys.readouterr().err == (
            f"config error: channel file has n={file_n}, config says 2\n")
    # an n that is no integer at all, such as JSON's Infinity
    chan_path.write_text('{"n": Infinity, "format": "sparse", "entries": []}')
    assert run_cli("estimate", "--config", cfg, "--out",
                   str(tmp_path / "run")) == 2
    assert capsys.readouterr().err.startswith(
        "config error: malformed channel file: ")


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
    # a raw spike label must be an int in [0, 4^n), not a bool or null
    *[("estimate", dict(_EST, channel={"kind": "spike", "label": label,
                                       "sign": 1}), 2)
      for label in (100, 2.5, -1, True, None)],
    ("estimate", dict(_EST, clamp="no"), 2),
    # an echoed value is cut in length and in depth: a 1 MB string, and a
    # list nested deep (the parser's limit, about 1000 less the stack in
    # use, is past 500 here)
    ("estimate", dict(_EST, n="x" * 1_000_000), 2),
    ("estimate", dict(_EST, samples=functools.reduce(
        lambda inner, _: [inner], range(500), 1)), 2),
    # a spike label is echoed by the library, cut the same way: 1000
    # letters, and a list of 1000 ints
    ("estimate", dict(_EST, channel={"kind": "spike", "label": "X" * 1000,
                                     "sign": 1}), 2),
    ("estimate", dict(_EST, channel={"kind": "spike",
                                     "label": list(range(1000)),
                                     "sign": 1}), 2),
    ("benchmark", dict(_BENCH, spam_sweep=[]), 2),
    ("benchmark", dict(_BENCH, spam_sweep=["high"]), 2),
    ("benchmark", dict(_BENCH, m_list=5), 2),
    ("benchmark", dict(_BENCH, m_list=[]), 2),
    # fewer than two distinct lengths fit no decay
    ("benchmark", dict(_BENCH, m_list=[0]), 2),
    ("benchmark", dict(_BENCH, m_list=[3, 3]), 2),
    ("benchmark", dict(_BENCH, shots_per_m=0), 2),
    # a repeated rate would run twice on one stream; rates compare by value
    ("benchmark", dict(_BENCH, spam_sweep=[0, 0.0, 0.05]), 2),
    ("benchmark", dict(_BENCH, spam_sweep=[0.05, -0.0, 0]), 2),
    # the one-rate alias of spam_sweep is gone, so it is an unknown key
    ("benchmark", dict(_BENCH, spam_depolarizing=0.1), 2),
    ("sweep-ancilla", dict(_SWEEP, k_list=[]), 2),
    ("sweep-ancilla", dict(_SWEEP, k_list=[3]), 2),
    ("sweep-ancilla", dict(_SWEEP, trials=0), 2),
    ("sweep-ancilla", dict(_SWEEP, success_fraction=2), 2),
    ("sweep-ancilla", dict(_SWEEP, success_fraction=1.0), 2),
    ("sweep-ancilla", dict(_SWEEP, channel_alpha=-1), 2),
    ("sweep-ancilla", dict(_SWEEP, n=9), 3),
    # a repeated entry would run twice and write a duplicate row
    ("sweep-ancilla", dict(_SWEEP, k_list=[1, 1, 2]), 2),
    ("discriminate", dict(_DISC, n_list=[]), 2),
    ("discriminate", dict(_DISC, n_list=["two"]), 2),
    ("discriminate", dict(_DISC, trials=0), 2),
    ("discriminate", dict(_DISC, modes="bell"), 2),
    ("discriminate", dict(_DISC, modes=["telepathy"]), 2),
    ("discriminate", dict(_DISC, n_list=[11]), 3),
    # a repeated (mode, n) would write its rows twice under one summary key
    ("discriminate", dict(_DISC, n_list=[2, 2]), 2),
    ("discriminate", dict(_DISC, modes=["bell", "bell"]), 2),
]


def test_config_errors(tmp_path, capsys):
    # every malformed config exits with its code and one line on stderr
    capsys.readouterr()
    for i, (command, cfg, code) in enumerate(CONFIG_ERRORS):
        path = write_config(tmp_path, f"bad{i}.json", cfg)
        got = run_cli(command, "--config", path, "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert got == code, (cfg, got, err)
        # a refused config leaves no output directory behind
        assert not (tmp_path / "o").exists(), cfg
        prefix = "config error: " if code == 2 else "capability error: "
        assert err.startswith(prefix) and err.count("\n") == 1, (cfg, err)
        assert len(err) <= 200, err[:300]
    assert run_cli("estimate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == 2
    (tmp_path / "garbled.json").write_text("{not a channel")
    path = write_config(tmp_path, "file.json", dict(_EST, channel={
        "kind": "file", "path": str(tmp_path / "garbled.json")}))
    assert run_cli("estimate", "--config", path, "--out", str(tmp_path)) == 2
    assert run_cli("estimate", "--config", path, "--seed", "-1",
                   "--out", str(tmp_path)) == 2
    assert run_cli("verify", "--seed", "-1") == 2
    # an --out that cannot be a directory, and --threads below 1
    taken = tmp_path / "taken"
    taken.write_text("")
    path = write_config(tmp_path, "est.json", _EST)
    assert run_cli("estimate", "--config", path, "--out", str(taken)) == 2
    assert run_cli("verify", "--out", str(taken / "x")) == 2
    # a name longer than the file system allows: refused before the run
    assert run_cli("estimate", "--config", path, "--out",
                   str(tmp_path / ("a" * 300))) == 2
    for threads in ("0", "-3"):
        assert run_cli("estimate", "--config", path, "--threads", threads,
                       "--out", str(tmp_path / "fresh")) == 2
    assert not (tmp_path / "fresh").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 9 and err.count("config error: ") == 9, err
    assert "Traceback" not in err


def test_channel_file_echoes_are_cut(tmp_path, capsys):
    # a channel file's format and labels are echoed by the library, cut
    # as a config value is, and so is the text of CPython's and numpy's
    # errors on its n and its probabilities
    capsys.readouterr()
    for i, obj in enumerate([
            {"n": 2, "format": "q" * 1000, "entries": []},
            {"n": 2, "format": "sparse", "entries": [["X" * 1000, 1.0]]},
            {"n": "n" * 1000, "format": "dense", "entries": []},
            {"n": 2, "format": "dense", "entries": "x" * 1000},
            {"n": 2, "format": "dense", "entries": ["x" * 1000] + [0.0] * 15},
            {"n": 2, "format": "sparse", "entries": [["II", "x" * 1000]]}]):
        (tmp_path / f"chan{i}.json").write_text(json.dumps(obj))
        path = write_config(tmp_path, f"cfg{i}.json", dict(_EST, channel={
            "kind": "file", "path": str(tmp_path / f"chan{i}.json")}))
        assert run_cli("estimate", "--config", path, "--out",
                       str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed channel file: ")
        assert err.count("\n") == 1 and len(err) <= 200, err[:300]
    # a short message keeps its exact bytes
    (tmp_path / "short.json").write_text(json.dumps(
        {"n": 2, "format": "sparse", "entries": [["II", "x"]]}))
    path = write_config(tmp_path, "short_cfg.json", dict(_EST, channel={
        "kind": "file", "path": str(tmp_path / "short.json")}))
    assert run_cli("estimate", "--config", path, "--out",
                   str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        "config error: malformed channel file: "
        "could not convert string to float: 'x'\n")


def test_g17_tables_are_built_read_only_at_import():
    # the tables exist before any table is written: made in the middle of
    # the first write, they would stay allocated on top of its freed heap
    assert all(t.size and not t.flags.writeable for t in (
        cli._G17_CHARS, cli._G17_ENDS, cli._G17_LAYOUTS, cli._G17_SIZES))


def test_echoed_values_are_repr_when_short_and_cut_when_long():
    short = [{"rate": 0.1, "alpha": [1, {"b": None, "a": True}]}, [7] * 30,
             "it's \u00e9", 2.5, -(10**40), [[[[[]]]]], {}]
    for value in short:
        assert cli._shown(value) == repr(value)
    deep = functools.reduce(lambda inner, _: [inner], range(5000), 1)
    for value in ("x" * 10**6, list(range(10**5)), {"k" * 1000: 1}, deep):
        assert len(cli._shown(value)) <= 100


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    # JSON nested past the parser's recursion limit, in a config or in a
    # channel file, is a config error, refused before --out is made
    deep = "[" * 100_000 + "]" * 100_000
    (tmp_path / "deep.json").write_text(deep)
    (tmp_path / "chan.json").write_text(
        '{"n": 2, "format": "dense", "entries": ' + deep + "}")
    channel_cfg = write_config(tmp_path, "file.json", dict(_EST, channel={
        "kind": "file", "path": str(tmp_path / "chan.json")}))
    capsys.readouterr()
    for path, message in ((tmp_path / "deep.json", "is not valid JSON"),
                          (channel_cfg, "malformed channel file")):
        assert run_cli("estimate", "--config", str(path), "--out",
                       str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()


def test_git_describe_timeout_keeps_run_json(tmp_path, monkeypatch):
    # a git that does not answer in time leaves run.json without a commit
    def timeout(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(cli.subprocess, "run", timeout)
    path = write_config(tmp_path, "est.json", _EST)
    assert run_cli("estimate", "--config", path, "--out",
                   str(tmp_path / "o")) == 0
    assert json.loads((tmp_path / "o" / "run.json").read_text())["git"] is None


def test_out_below_a_file_is_refused_before_the_run(tmp_path, monkeypatch):
    # the directory is made at the first write, but a file in its way is
    # refused before the command runs
    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_checks", never)
    monkeypatch.setattr(cli, "estimate_alg1", never)
    taken = tmp_path / "taken"
    taken.write_text("")
    path = write_config(tmp_path, "est.json", _EST)
    for out in (taken, taken / "x" / "y"):
        assert run_cli("estimate", "--config", path, "--out", str(out)) == 2
        assert run_cli("verify", "--out", str(out)) == 2
    assert taken.read_text() == ""


def test_long_out_name_is_refused_before_the_run(tmp_path, monkeypatch):
    # one probe for every unusable --out: the missing directories are made
    # and removed again before the command runs, so nothing is left
    calls = []
    monkeypatch.setattr(cli, "estimate_alg1",
                        lambda *args: calls.append(args))
    path = write_config(tmp_path, "est.json", _EST)
    for out in (tmp_path / ("a" * 300), tmp_path / "b" / "c" / ("a" * 300)):
        assert run_cli("estimate", "--config", path, "--out", str(out)) == 2
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["est.json"]


def test_huge_integers_are_refused_before_any_work(tmp_path, capsys):
    # no traceback, no 4^n of a huge n, no int64 overflow: exit 2 or 3 with
    # one short line
    huge = 10**30
    factor = {"kind": "tensor", "factors": [{"kind": "identity", "n": huge},
                                            {"kind": "identity"}]}
    cases = [("estimate", dict(_EST, n=8000, k=0), 3),
             ("estimate", dict(_EST, n=huge, k=0), 3),
             ("benchmark", dict(_BENCH, n=8000), 3),
             ("benchmark", dict(_BENCH, n=huge), 3),
             ("estimate", dict(_EST, samples=huge), 2),
             ("benchmark", dict(_BENCH, shots_per_m=huge), 2),
             ("benchmark", dict(_BENCH, m_list=[0, huge]), 2),
             ("estimate", dict(_EST, channel=factor), 2),
             ("benchmark", dict(_BENCH, n=2, gate=factor), 2)]
    capsys.readouterr()
    for i, (command, cfg, code) in enumerate(cases):
        path = write_config(tmp_path, f"big{i}.json", cfg)
        assert run_cli(command, "--config", path, "--out",
                       str(tmp_path / "o")) == code, cfg
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200, err
    # two lengths of 2^62 shots would overflow a label's int64 shot count
    path = write_config(tmp_path, "shots.json", dict(_BENCH,
                                                     shots_per_m=1 << 62))
    assert run_cli("benchmark", "--config", path, "--out",
                   str(tmp_path / "o")) == 2
    assert "shots_per_m must be at most" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # an integer literal past Python's int-to-str digit limit
    path = tmp_path / "digits.json"
    path.write_text('{"experiment": "estimate", "n": ' + "7" * 5000 + "}")
    assert run_cli("estimate", "--config", str(path)) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_experiment_is_the_subcommand_as_typed(tmp_path, capsys):
    # one spelling per subcommand: the underscore form is refused, and a
    # config without "experiment" records the subcommand as typed
    cfg = {key: val for key, val in _SWEEP.items() if key != "experiment"}
    path = write_config(tmp_path, "under.json",
                        dict(cfg, experiment="sweep_ancilla"))
    assert run_cli("sweep-ancilla", "--config", path, "--out",
                   str(tmp_path / "under")) == 2
    assert "does not match" in capsys.readouterr().err
    path = write_config(tmp_path, "bare.json", cfg)
    assert run_cli("sweep-ancilla", "--config", path, "--out",
                   str(tmp_path / "bare")) == 0
    meta = json.loads((tmp_path / "bare" / "run.json").read_text())
    recorded = dict(cfg, experiment="sweep-ancilla", seed=0)
    assert meta["config"] == recorded
    canonical = json.dumps(recorded, sort_keys=True, separators=(",", ":"))
    assert meta["config_sha256"] == hashlib.sha256(
        canonical.encode()).hexdigest()


def test_capability_exit_code(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": 14, "k": 14,
        "channel": {"kind": "identity"}, "samples": 100,
    })
    assert run_cli("estimate", "--config", cfg, "--out", str(tmp_path)) == 3


def test_dense_estimate_bytes_refuse_13_qubits():
    # arithmetic only: an n=13 estimate is never run
    assert dense_estimate_bytes(13) > cli.DENSE_MEMORY_LIMIT
    assert dense_estimate_bytes(12) <= cli.DENSE_MEMORY_LIMIT
    assert cli._memory_limit() <= cli.DENSE_MEMORY_LIMIT


def test_estimate_over_memory_limit_exits_3_before_allocating(
        tmp_path, monkeypatch, capsys):
    n = 6
    monkeypatch.setattr(cli, "DENSE_MEMORY_LIMIT", dense_estimate_bytes(n) - 1)
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "estimate", "n": n, "k": 0,
        "channel": {"kind": "random-dirichlet"}, "samples": 65 * 100,
    })
    tracemalloc.start()
    try:
        code = run_cli("estimate", "--config", cfg, "--out",
                       str(tmp_path / "run"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "limit" in capsys.readouterr().err
    # argparse and the config take about 50 kB; the run itself would peak
    # near 1.9 MB here
    assert peak < dense_estimate_bytes(n) // 4
    assert not (tmp_path / "run" / "estimates.csv").exists()


_SPAM_BENCHMARK = {
    "experiment": "benchmark", "n": 5,
    "gate": {"kind": "depolarizing", "rate": 0.02},
    "m_list": [0, 1, 2, 4, 8, 16], "shots_per_m": 1000,
    "spam_sweep": [0, 0.05, 0.2],
}


def test_dense_benchmark_bytes_refuse_13_qubits():
    # arithmetic only: no large benchmark is run
    assert dense_benchmark_bytes(13, 1, 1) > cli.DENSE_MEMORY_LIMIT
    assert dense_benchmark_bytes(6, 6, 3) < 32 << 20
    assert dense_benchmark_bytes(6, 6, 3) > dense_benchmark_bytes(6, 1, 3) \
        > dense_benchmark_bytes(6, 1, 1)


def test_dense_benchmark_bytes_bound_a_small_run(tmp_path):
    # the estimate covers what a run allocates, not just its arrays
    cfg = write_config(tmp_path, "cfg.json", _SPAM_BENCHMARK)
    # an untraced run first: the modules a first run imports lazily would
    # add about 560 kB of import machinery to the traced peak
    assert run_cli("benchmark", "--config", cfg, "--out",
                   str(tmp_path / "warm")) == 0
    tracemalloc.start()
    try:
        code = run_cli("benchmark", "--config", cfg, "--out",
                       str(tmp_path / "run"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= dense_benchmark_bytes(5, 6, 3)


def test_estimate_frees_its_channel_and_shares_constant_shot_counts(
        tmp_path, monkeypatch):
    # the estimated channel's 4^n arrays are freed before the 4^n-row
    # write, and a shot count equal for every label is one read-only int64
    freed, estimated, freed_at_write, n_shots = set(), [], [], []
    monkeypatch.setattr(PauliChannel, "__del__",
                        lambda self: freed.add(id(self)), raising=False)

    def estimate(channel, *args):
        # while the channel lives no other object has its id
        estimated.append(id(channel))
        freed.clear()
        est = estimate_alg1(channel, *args)
        n_shots.append(est.n_shots)
        return est

    def sweep(*args):
        results, consistency = spam_sweep(*args)
        n_shots.extend(res.estimates.n_shots for res in results)
        return results, consistency

    write_table = cli.RunWriter.write_table

    def write(self, *args):
        freed_at_write.append(estimated[-1] in freed)
        return write_table(self, *args)

    monkeypatch.setattr(cli, "estimate_alg1", estimate)
    monkeypatch.setattr(cli, "spam_sweep", sweep)
    monkeypatch.setattr(cli.RunWriter, "write_table", write)
    for k in (0, 2):
        cfg = write_config(tmp_path, f"k{k}.json", dict(
            _EST, k=k, channel={"kind": "random-dirichlet"}))
        assert run_cli("estimate", "--config", cfg, "--out",
                       str(tmp_path / f"k{k}")) == 0
    assert freed_at_write == [True, True]
    assert not n_shots[1].flags.writeable  # k = n
    n_shots.clear()
    cfg = write_config(tmp_path, "bench.json",
                       dict(_BENCH, spam_sweep=[0.0, 0.1]))
    assert run_cli("benchmark", "--config", cfg, "--out",
                   str(tmp_path / "bench")) == 0
    assert len(n_shots) == 2
    assert not any(counts.flags.writeable for counts in n_shots)


def test_benchmark_over_memory_limit_exits_3_before_allocating(
        tmp_path, monkeypatch, capsys):
    need = dense_benchmark_bytes(5, 6, 3)
    monkeypatch.setattr(cli, "DENSE_MEMORY_LIMIT", need - 1)
    cfg = write_config(tmp_path, "cfg.json", dict(
        _SPAM_BENCHMARK, gate={"kind": "random-dirichlet"}))
    tracemalloc.start()
    try:
        code = run_cli("benchmark", "--config", cfg, "--out",
                       str(tmp_path / "run"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert "a dense benchmark on n=5 qubits" in err and "limit" in err
    assert len(err.strip().splitlines()) == 1
    # argparse and the config take about 50 kB; not even the gate channel
    # is built
    assert peak < need // 16
    assert not (tmp_path / "run" / "estimates.csv").exists()
    # the check comes before the gate channel is built: a gate that cannot
    # be built is never reached
    unbuildable = write_config(tmp_path, "unbuildable.json", dict(
        _SPAM_BENCHMARK, gate={"kind": "file", "path": str(tmp_path / "no")}))
    assert run_cli("benchmark", "--config", unbuildable, "--out",
                   str(tmp_path / "run")) == 3
    monkeypatch.setattr(cli, "DENSE_MEMORY_LIMIT", need)
    assert run_cli("benchmark", "--config", cfg, "--out",
                   str(tmp_path / "run")) == 0


def test_sweep_over_memory_exits_3_before_building_channels(
        tmp_path, monkeypatch, capsys):
    # every trial keeps its channel, so the trials are counted first
    def never(*args):
        raise AssertionError("a trial channel was built")

    monkeypatch.setattr(experiments.PauliChannel, "random_dirichlet", never)
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "sweep-ancilla", "n": 8, "k_list": [8],
        "epsilon": 0.5, "trials": 10**6})
    assert run_cli("sweep-ancilla", "--config", cfg, "--out",
                   str(tmp_path / "run")) == 3
    err = capsys.readouterr().err
    assert err.startswith("capability error: a sweep of 1000000 trials on "
                          "n=8 qubits needs about ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_sweep_memory_plan_is_sized_from_the_coverings(tmp_path,
                                                      monkeypatch):
    # at n = 6 a trial plans its channel (128 KiB) and the laws its
    # estimator keeps at the largest k (40 KiB at k = 4), so 3000 trials
    # fit in 1 GiB; at n = 8 no covering fits a chunk and only the channel
    # is planned
    monkeypatch.setattr(cli, "_memory_limit", lambda: 1 << 30)
    monkeypatch.setattr(cli, "sweep_min_rounds",
                        lambda n, k, cov, *args: (1, 1, 1, 1))
    for n, trials, code in ((6, 3000, 0), (8, 512, 0), (8, 513, 3)):
        cfg = write_config(tmp_path, "cfg.json", {
            "experiment": "sweep-ancilla", "n": n, "k_list": [0, 2, 4, n],
            "epsilon": 0.2, "trials": trials})
        assert run_cli("sweep-ancilla", "--config", cfg, "--out",
                       str(tmp_path / f"run{n}-{trials}")) == code


def test_estimate_run_json_records_stages(tmp_path):
    # every command records its named stages in run.json, in order
    runs = [
        ("estimate", {"experiment": "estimate", "n": 3, "k": 1,
                      "channel": {"kind": "random-dirichlet"},
                      "samples": 900},
         ["covering", "channel", "estimate", "write"]),
        ("benchmark", _BENCH, ["channel", "benchmark", "write"]),
        ("sweep-ancilla", dict(_SWEEP, k_list=[0, 2]),
         ["covering", "sweep", "write"]),
        ("discriminate", _DISC, ["discriminate", "write"]),
    ]
    for command, cfg, expected in runs:
        path = write_config(tmp_path, f"{command}.json", cfg)
        out = tmp_path / command
        assert run_cli(command, "--config", path, "--out", str(out)) == 0
        stages = json.loads((out / "run.json").read_text())["stages"]
        assert list(stages) == expected, command
        assert all(isinstance(sec, float) and sec >= 0.0
                   for sec in stages.values())
    # verify records one stage per check, its seconds
    out = tmp_path / "verify"
    assert run_cli("verify", "--level", "quick", "--out", str(out)) == 0
    meta = json.loads((out / "run.json").read_text())
    checks = meta["summary"]["checks"]
    assert meta["stages"] == {c["name"]: c["seconds"] for c in checks}
    assert checks and list(meta["stages"]) == [c["name"] for c in checks]


def test_run_writer_stage_sums_repeats(tmp_path):
    writer = cli.RunWriter(str(tmp_path), "csv")
    for _ in range(2):
        with writer.stage("covering"):
            pass
    with writer.stage("write"):
        pass
    writer.stages["covering"] = 0.25  # as if two blocks took 0.125 s each
    with writer.stage("covering"):
        pass
    writer.finish("estimate", {}, 0, 1)
    stages = json.loads((tmp_path / "run.json").read_text())["stages"]
    assert list(stages) == ["covering", "write"]
    assert 0.25 <= stages["covering"] < 1.0


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
    # two points: the least-squares slope is the one through both
    summary = json.loads((out / "run.json").read_text())["summary"]
    slope = summary["log2_n_min_slope"]
    assert slope == pytest.approx(np.log2(n_min["1"] / n_min["3"]) / 2)
    for k in ("1", "3"):
        # a passing budget, rounds = 1 and the confirmation pass at least;
        # every probe runs a trial, the confirmation pass all ten
        probes, trials_run = summary[k]["probes"], summary[k]["trials_run"]
        assert probes >= 3 and trials_run >= probes - 1 + 10


def test_gnuplot_only_on_sweep_ancilla(tmp_path, capsys):
    # only sweep-ancilla has a plot script; the other subcommands reject it
    for command in ("estimate", "benchmark", "discriminate"):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", str(tmp_path / "cfg.json"), "--out",
                    str(tmp_path / "run"), "--gnuplot")
        assert exc.value.code == 2
        assert "--gnuplot" in capsys.readouterr().err
    # its plot script reads sweep.csv, so a JSON sweep refuses it too
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "sweep-ancilla", "n": 2, "k_list": [0],
        "epsilon": 0.35, "trials": 3})
    assert run_cli("sweep-ancilla", "--config", cfg, "--out",
                   str(tmp_path / "run"), "--gnuplot", "--format",
                   "json") == 2
    assert "--gnuplot" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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
    assert "log2_median_shots_slope" not in meta["summary"]  # one n only


def test_discriminate_median_shots_slope(tmp_path):
    # the slope of log2 median_shots against n, recomputed from the table
    n_list = [1, 2, 3]
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "discriminate", "n_list": n_list, "trials": 12,
        "max_shots": 4000, "seed": 3,
    })
    out = tmp_path / "run"
    assert run_cli("discriminate", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "discriminate.csv")
    slopes = json.loads((out / "run.json").read_text())["summary"][
        "log2_median_shots_slope"]
    assert list(slopes) == ["bell", "ancilla-free"]
    for mode, slope in slopes.items():
        medians = [np.median([int(r["shots"]) for r in rows
                              if r["mode"] == mode and r["n"] == str(n)
                              and r["correct"] == "1"]) for n in n_list]
        expected = np.polyfit(n_list, np.log2(medians), 1)[0]
        assert slope == pytest.approx(expected, rel=1e-12), mode


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
    meta = json.loads((tmp_path / "v" / "run.json").read_text())
    assert meta["command"] == "verify" and meta["seed"] == 1
    checks = meta["summary"]["checks"]
    assert [c["name"] for c in checks] == [
        line.split("]", 1)[1].split(":", 1)[0].strip()
        for line in captured.out.splitlines()]
    for check in checks:
        assert set(check) == {"name", "ok", "seconds", "detail", "tolerance"}
        assert check["ok"] is True and check["seconds"] >= 0.0
        assert f"{check['detail']} (tol {check['tolerance']:g}" in captured.out


def test_verify_full_passes(capsys):
    assert run_cli("verify", "--level", "full") == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8 and "[FAIL]" not in out


def test_json_columns_span_blocks(tmp_path, monkeypatch):
    # the JSON branch converts one piece of rows at a time
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 7)
    labels = np.arange(29, dtype=np.uint64)  # the last piece holds one row
    lam = np.linspace(-1.0, 1.0, 29)
    lam[[3, 7, 8]] = [np.nan, -0.0, np.inf]
    counts = np.arange(29) * 1000
    header = ["label", "lambda_hat", "n_shots"]
    text = [format_bits(b, 3) for b in labels.tolist()]
    columns = [np.array(text, dtype="S3"), lam, counts]
    rows = [list(row) for row in zip(text, lam.tolist(), counts.tolist())]
    expected = json.dumps(
        [dict(zip(header, row)) for row in rows], indent=1) + "\n"
    writer = cli.RunWriter(str(tmp_path), "json")
    assert writer.write_table("t", header, [columns]).read_text() == expected
    # several blocks, an empty one and one longer than a piece, in one file
    cuts = [0, 2, 2, 20, 29]
    path = writer.write_table("b", header, [
        [col[lo:hi] for col in columns] for lo, hi in zip(cuts, cuts[1:])])
    assert path.read_text() == expected
    assert writer.tables["b.json"]["rows"] == 29
    empty = writer.write_table("e", header, [])
    assert empty.read_text() == "[]\n"
    assert writer.tables["e.json"]["rows"] == 0


def test_csv_columns_span_blocks(tmp_path, monkeypatch):
    # the CSV branch, one piece of rows at a time: broadcast columns take
    # the one-value path, and padded text and separators drop their NULs;
    # written again with every float column, the one-value ones too, sent
    # through the array conversion (`_g17`)
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 7)
    rows = 29  # the last piece holds one row
    lam = np.linspace(-1.0, 1.0, rows)
    lam[[3, 7, 8, 9, 12]] = [np.nan, -0.0, np.inf, -np.inf, 5e-324]
    header = ["rate", "tag", "lambda_hat", "zero", "shots", "delta", "big"]
    columns = [
        cli._repeated("0.05", rows),
        np.array([b"XYZ"[: 1 + i % 3] for i in range(rows)]),  # padded S3
        lam,
        np.broadcast_to(np.float64(-0.0), (rows,)),
        np.broadcast_to(np.int64(3500), (rows,)),
        np.arange(rows, dtype=np.int64) * -7919,
        np.array([2**64 - 1 - 3 * i for i in range(rows)], dtype=np.uint64),
    ]

    def cell(value):
        if isinstance(value, bytes):
            return value.decode()
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    table = list(zip(*(col.tolist() for col in columns)))
    head = ",".join(header) + "\n"
    expected = head + "".join(",".join(map(cell, row)) + "\n"
                              for row in table)
    for least in (cli._G17_MIN_VALUES, 1):
        monkeypatch.setattr(cli, "_G17_MIN_VALUES", least)
        writer = cli.RunWriter(str(tmp_path), "csv")
        assert writer.write_table("t", header, [columns]).read_text() == (
            expected)
        # several blocks, an empty one and one longer than a piece, in one
        # file
        cuts = [0, 2, 2, 20, 29]
        path = writer.write_table("b", header, [
            [col[lo:hi] for col in columns] for lo, hi in zip(cuts, cuts[1:])])
        assert path.read_text() == expected
        assert writer.tables["b.csv"]["rows"] == rows
        # a table of no rows is its header
        for blocks in ([], [[col[:0] for col in columns]]):
            assert writer.write_table("e", header, blocks).read_text() == head
            assert writer.tables["e.csv"]["rows"] == 0
    # the same columns as JSON
    json_rows = [dict(zip(header, (v.decode() if isinstance(v, bytes) else v
                                   for v in row))) for row in table]
    writer = cli.RunWriter(str(tmp_path), "json")
    assert writer.write_table("t", header, [columns]).read_text() == (
        json.dumps(json_rows, indent=1) + "\n")


def test_one_value_columns_skip_unique(tmp_path, monkeypatch):
    # a column of one distinct key is formatted once without np.unique,
    # whether it is a broadcast view or a real array; keys are float bit
    # patterns, so a column of -0.0 and 0.0 still needs it
    rows = 40
    header = ["shots", "repeat", "rate", "zero"]
    columns = [np.full(rows, 3511), np.broadcast_to(np.int64(7), (rows,)),
               np.full(rows, 0.05), np.broadcast_to(np.float64(-0.0), (rows,))]
    table = list(zip(*(col.tolist() for col in columns)))

    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unique)
    writer = cli.RunWriter(str(tmp_path), "csv")
    assert writer.write_table("t", header, [columns]).read_text() == (
        ",".join(header) + "\n" + "".join(
            f"{a},{b},{c:.17g},{d:.17g}\n" for a, b, c, d in table))
    writer = cli.RunWriter(str(tmp_path), "json")
    assert writer.write_table("t", header, [columns]).read_text() == (
        json.dumps([dict(zip(header, row)) for row in table], indent=1)
        + "\n")
    with pytest.raises(AssertionError, match="np.unique called"):
        cli._cells(np.array([0.0, -0.0]), True)


def test_g17_equals_format_bit_for_bit():
    # the array conversion of CSV floats against "{:.17g}".format on over a
    # million values, given a piece of distinct values at a time as
    # `_cells` gives them
    rng = np.random.default_rng(26)
    size = 20_000
    signs = rng.choice([-1.0, 1.0], size)
    parts = [
        # random bit patterns of both signs, nan and infinities among them
        rng.integers(0, 2**64, 1 << 16, dtype=np.uint64).view(np.float64),
        # subnormals, zeros, infinities, nan and the largest doubles
        rng.integers(1, 2**52, size, dtype=np.uint64).view(np.float64) * signs,
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  np.finfo(float).max, -np.finfo(float).max]),
        # 8 ulps on either side of every power of ten from 1e-12 to 1e17
        ((10.0 ** np.arange(-12, 18)).view(np.int64)[:, None]
         + np.arange(-8, 9)).view(np.float64),
        # integers next to 2^53, 10^16 and 10^17, and halfway cases
        np.add.outer([2.0**53, 1e16, 1e17], np.arange(-64, 65)),
        np.array([1e15 + 0.25, 1e15 + 0.75, 1e13 + 0.0625, 1e13 + 0.1875]),
    ]
    for e in range(-11, 15):
        # every decade of the window, and one past each edge
        parts.append(10.0**e * rng.uniform(1.0, 10.0, size) * signs)
        # x * 10^(16 - e) is a whole number and a half exactly when x is an
        # odd multiple of 2^(e - 17)
        lo, hi = 10.0**e * 2.0**(17 - e), 10.0**(e + 1) * 2.0**(17 - e)
        if hi > lo + 2:
            odd = rng.integers(int(lo) + 1, int(hi), size) | 1
            parts.append(np.ldexp(odd.astype(np.float64), e - 17) * signs)
    values = np.concatenate([part.ravel() for part in parts])
    assert values.size > 10**6
    step = cli._CSV_CHUNK_ROWS
    for lo in range(0, values.size, step):
        piece = values[lo:lo + step]
        expected = np.array(list(map("{:.17g}".format, piece.tolist())),
                            dtype=np.bytes_)
        got = cli._g17(piece)
        wrong = np.flatnonzero(got != expected)
        assert not wrong.size, (piece[wrong[:5]], got[wrong[:5]],
                                expected[wrong[:5]])


# per command: a small config, and each table with its row count
_JSON_RUNS = {
    "estimate": ({
        "experiment": "estimate", "n": 2, "k": 1,
        "channel": {"kind": "random-dirichlet"}, "samples": 300, "seed": 3,
    }, {"estimates": 16}),
    "benchmark": ({
        "experiment": "benchmark", "n": 2,
        "gate": {"kind": "random-dirichlet"}, "m_list": [0, 4, 1, 4],
        "shots_per_m": 400, "spam_sweep": [0, 0.05, 0.2], "seed": 3,
    }, {"estimates": 3 * 16, "decays": 3 * 3 * 16}),
    "sweep-ancilla": ({
        "experiment": "sweep-ancilla", "n": 3, "k_list": [0, 2],
        "epsilon": 0.35, "trials": 5, "seed": 3,
    }, {"sweep": 2}),
    "discriminate": ({
        "experiment": "discriminate", "n_list": [2], "trials": 6,
        "max_shots": 4000, "seed": 3,
    }, {"discriminate": 2 * 6}),
}
_FLOAT_COLUMNS = {"lambda_hat", "stderr", "f_mean"}
_STR_COLUMNS = {"label", "spam_rate", "mode", "truth", "declared"}


@pytest.mark.parametrize("command", sorted(_JSON_RUNS))
def test_json_equals_csv_rows(tmp_path, command):
    # the JSON tables hold the CSV's values: spam_rate stays a string
    config, tables = _JSON_RUNS[command]
    cfg = write_config(tmp_path, "cfg.json", config)
    for fmt in ("csv", "json"):
        assert run_cli(command, "--config", cfg, "--format", fmt,
                       "--out", str(tmp_path / fmt)) == 0
    for table, count in tables.items():
        rows = [{key: (str if key in _STR_COLUMNS else
                       float if key in _FLOAT_COLUMNS else int)(value)
                 for key, value in row.items()}
                for row in read_csv(tmp_path / "csv" / f"{table}.csv")]
        assert len(rows) == count
        if "spam_rate" in rows[0]:
            assert rows[1]["spam_rate"] == "0"
        text = (tmp_path / "json" / f"{table}.json").read_text()
        assert text == json.dumps(rows, indent=1) + "\n"


def test_verify_fails_on_corrupted_covering(monkeypatch, capsys):
    real = verify.mub_covering

    def corrupted(m):
        cov = real(m)
        if m == 2:
            return Covering(2, cov.generator_array[:-1])
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


def test_verify_row_tolerance_decides(monkeypatch):
    # every check decides against its row's tolerance and reports it; only
    # the exact covering check passes at a tolerance of -inf
    monkeypatch.setattr(verify, "CHECKS", tuple(
        (name, -np.inf, *rest) for name, _, *rest in verify.CHECKS))
    results = verify.run_checks("quick", 0)
    assert len(results) == len(verify.CHECKS)
    for result in results:
        exact = result.name == "stabilizer-coverings"
        assert result.ok is exact
        assert result.line().startswith("[PASS]" if exact else "[FAIL]")
        assert "(tol -inf, " in result.line()
