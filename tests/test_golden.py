"""Golden digests of the primary tables of small CLI runs.

Every random stream a command draws from shows in its table, so a change
to any stream (the order of draws, a draw's normalisation, a new path)
changes one of these sha256 digests.  A change that alters a stream on
purpose must re-record them, and re-run the statistical acceptance criteria
at their seeds.  The digests were recorded with the numpy version below;
numpy does not promise the same streams across versions, so another
version skips rather than fails.  Four of the runs are also pinned as
written with `--format json`.  The README sweep pins its bisection work
and its law builds, block builds and draws as well, and
`verify --level quick` and `--level full` their reports, less the
seconds.  The `to_json` text of a dense and a sparse channel is pinned
too; it draws no random number, so it runs on every numpy.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from paulibench import PauliChannel
from paulibench.cli import main

NUMPY_VERSION = "2.4.6"

# (command, config, primary tables)
CONFIGS = {
    "estimate-k0": ("estimate", {
        "experiment": "estimate", "n": 4, "k": 0,
        "channel": {"kind": "random-dirichlet"}, "covering": "mub",
        "epsilon": 0.1, "delta": 0.05, "seed": 7}, ("estimates.csv",)),
    "estimate-k4": ("estimate", {
        "experiment": "estimate", "n": 4, "k": 4,
        "channel": {"kind": "random-dirichlet"}, "covering": "mub",
        "epsilon": 0.1, "delta": 0.05, "seed": 7}, ("estimates.csv",)),
    # odd syndrome digit counts: m = 5 and m = 3
    "estimate-n5-k0": ("estimate", {
        "experiment": "estimate", "n": 5, "k": 0,
        "channel": {"kind": "random-dirichlet"}, "covering": "mub",
        "epsilon": 0.1, "delta": 0.05, "seed": 7}, ("estimates.csv",)),
    "estimate-n5-k2": ("estimate", {
        "experiment": "estimate", "n": 5, "k": 2,
        "channel": {"kind": "random-dirichlet"}, "covering": "mub",
        "epsilon": 0.1, "delta": 0.05, "seed": 7}, ("estimates.csv",)),
    "estimate-readme": ("estimate", {
        "experiment": "estimate", "n": 3, "k": 1,
        "channel": {"kind": "spike", "label": "XZY", "sign": -1},
        "covering": "mub", "epsilon": 0.1, "delta": 0.05, "seed": 7},
        ("estimates.csv",)),
    "benchmark-readme": ("benchmark", {
        "experiment": "benchmark", "n": 2,
        "gate": {"kind": "tensor", "factors": [
            {"kind": "depolarizing", "rate": 0.02},
            {"kind": "depolarizing", "rate": 0.05}]},
        "m_list": [0, 1, 2, 4, 8, 16], "shots_per_m": 100000,
        "spam_sweep": [0.0, 0.05, 0.2], "seed": 7},
        ("estimates.csv", "decays.csv")),
    "sweep-n4": ("sweep-ancilla", {
        "experiment": "sweep-ancilla", "n": 4, "k_list": [0, 2],
        "epsilon": 0.2, "trials": 20, "seed": 7}, ("sweep.csv",)),
    "discriminate-n2-3": ("discriminate", {
        "experiment": "discriminate", "n_list": [2, 3], "trials": 20,
        "max_shots": 100000, "seed": 7}, ("discriminate.csv",)),
    "discriminate-n6": ("discriminate", {
        "experiment": "discriminate", "n_list": [6],
        "modes": ["bell", "ancilla-free"], "trials": 10,
        "max_shots": 100000, "seed": 7}, ("discriminate.csv",)),
}

DIGESTS = {
    "benchmark-readme": {
        "estimates.csv":
            "3bcfde79feee0230d83e627494d70ddc1b10084e5104e9e5f5ec9980ff29dd7d",
        "decays.csv":
            "4f07114e2c4224500ad4477bac39621db1c8194f50e49fc14459d6b3cc51308f",
    },
    "discriminate-n2-3": {
        "discriminate.csv":
            "119b2284d5befe6229c25325819cd8ee47f98072f43eef9ef3553bfd772974eb",
    },
    "discriminate-n6": {
        "discriminate.csv":
            "dd2b33eb40e505b3a8328c76b94d256799da4a10cbd51291f361bcaa2e4ab3a5",
    },
    "estimate-k0": {
        "estimates.csv":
            "f183e8e98386554f0576f3b753ec02d2b0d4d88c382272d71de762e3f753c949",
    },
    "estimate-k4": {
        "estimates.csv":
            "38ac8dcc6453056ee8458b817e3edaaa5d61f55fb20476382083f61333bbc02e",
    },
    "estimate-n5-k0": {
        "estimates.csv":
            "c955a748c4553481afcecf80ce20246e92b5725e7954db4bbac4109d1adfa5b5",
    },
    "estimate-n5-k2": {
        "estimates.csv":
            "385ca01a6ab3088421a0190d39abba864884caa6216b3ea3e093992dc804de4c",
    },
    "estimate-readme": {
        "estimates.csv":
            "27b295f6a6272e83a7c0bea822a354587f8ae7a738585068771440a11b646014",
    },
    "sweep-n4": {
        "sweep.csv":
            "762bab45a22fc584be3ecc1a98e6e9fe6e266ea9b213b452eedc7382a128a962",
    },
}

# the same runs written with --format json
JSON_DIGESTS = {
    "benchmark-readme": {
        "estimates.json":
            "733349ca5c38c80dec92801fa33f78dcb20b7208f71bad3bff0ada40a4dbea22",
        "decays.json":
            "ac6324bee20925acc216b929f3030b80e26b4bd3bce87daa09c9bc6383546ddc",
    },
    "discriminate-n2-3": {
        "discriminate.json":
            "0f35f127b643ef8f53fb2685e5f7f971d67530ef7b5c47559c9be527b49fa93d",
    },
    "estimate-readme": {
        "estimates.json":
            "9f1f7d4c69ed246fc4485328be87b6711cfcd60f9f1640fdda5a2239cfbcc071",
    },
    "sweep-n4": {
        "sweep.json":
            "6816da70017b7763c21abbc18f8729968a402400fbd80f6546f5dba09a24d124",
    },
}


def table_digests(tmp_path, name: str, fmt: str = "csv") -> dict[str, str]:
    """sha256 of each primary table of the run `name` written in `fmt`,
    keyed by file name."""
    command, cfg, tables = CONFIGS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert main([command, "--config", str(path), "--out", str(out),
                 "--format", fmt]) == 0
    files = [table.replace(".csv", f".{fmt}") for table in tables]
    return {table: hashlib.sha256((out / table).read_bytes()).hexdigest()
            for table in files}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_primary_table_digests(tmp_path, name):
    assert table_digests(tmp_path, name) == DIGESTS[name]


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("name", sorted(JSON_DIGESTS))
def test_primary_json_table_digests(tmp_path, name):
    assert table_digests(tmp_path, name, "json") == JSON_DIGESTS[name]


# the README sweep: the only golden run with the k = n group and probes on
# the per-shot path; per k, (rounds_min, probes, trials_run) of run.json
README_SWEEP = {"experiment": "sweep-ancilla", "n": 6, "k_list": [0, 2, 4, 6],
                "epsilon": 0.2, "trials": 20, "seed": 7}
README_SWEEP_DIGEST = \
    "57c9b7b7e2ce0c757e7134352c2aeda5ca4eaed48a512cc09fde90ebff3c850c"
README_SWEEP_WORK = {"0": (433, 12, 188), "2": (451, 12, 183),
                     "4": (417, 12, 163), "6": (401, 12, 176)}
# the README sweep's outcome-law builds, label-block builds and stacked
# histogram draws: each trial channel's laws are built once per k that
# reaches the law path (k = 0 and 2), each covering's block once per k
# (k = 6 is one trivial group, which needs none)
README_SWEEP_BUILDS = {"laws": 40, "blocks": 3, "draws": 365}
# verify.txt of `verify --level quick` and `--level full`, with each
# check's seconds removed
VERIFY_DIGESTS = {
    "quick": "084fb5b7943dcf45d576da077f68d5dd38a66a764ef4eaba7f33158c5f3d454d",
    "full": "81967a61bac48f5c1a4fa3d443800b5116bda5aeb96df68e47691619b3bb4eb9",
}
# json.dumps(channel.to_json()) of a dense channel and of a sparse one whose
# probabilities include a subnormal and -0.0
TO_JSON_DIGESTS = {
    "dense": "93ad8db58b059a51d7c4861184c169f353cb80d58f62dbe090ecdceecab37c9f",
    "sparse": "285e6a928cd94092bb64befde098d5a9b140a56b500138bfe59940f9c810af78",
}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}")
def test_readme_sweep_golden(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(README_SWEEP))
    out = tmp_path / "sweep"
    assert main(["sweep-ancilla", "--config", str(path), "--out",
                 str(out)]) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == README_SWEEP_DIGEST
    summary = json.loads((out / "run.json").read_text())["summary"]
    assert {k: (summary[k]["rounds_min"], summary[k]["probes"],
                summary[k]["trials_run"])
            for k in README_SWEEP_WORK} == README_SWEEP_WORK


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}")
def test_readme_sweep_builds_and_draws(tmp_path, monkeypatch):
    from paulibench import estimation, sampler

    counts = dict.fromkeys(README_SWEEP_BUILDS, 0)
    for module, name, key in ((estimation, "outcome_distribution_alg1",
                               "laws"), (sampler, "_label_block", "blocks"),
                              (estimation, "draw_histograms", "draws")):
        def counted(*args, _fn=getattr(module, name), _key=key):
            counts[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(README_SWEEP))
    assert main(["sweep-ancilla", "--config", str(path), "--out",
                 str(tmp_path / "sweep")]) == 0
    assert counts == README_SWEEP_BUILDS


def verify_report_digest(tmp_path, level: str) -> str:
    """sha256 of the verify.txt of `verify --level level`, less the
    seconds."""
    assert main(["verify", "--level", level, "--out", str(tmp_path)]) == 0
    report = re.sub(r", [0-9.]+s\)$", ")", (tmp_path / "verify.txt").read_text(),
                    flags=re.MULTILINE)
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}")
def test_verify_quick_report_golden(tmp_path):
    assert verify_report_digest(tmp_path, "quick") == VERIFY_DIGESTS["quick"]


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}")
def test_verify_full_report_golden(tmp_path):
    assert verify_report_digest(tmp_path, "full") == VERIFY_DIGESTS["full"]


def test_to_json_text_golden():
    channels = {
        "dense": PauliChannel.from_error_rates(2, np.arange(1, 17) / 136),
        "sparse": PauliChannel.from_sparse(3, [
            ("III", 0.7), ("XYZ", 0.1), ("ZIY", 0.2), ("YYI", 5e-324),
            ("IXI", -0.0)]),
    }
    assert {name: hashlib.sha256(json.dumps(ch.to_json()).encode()).hexdigest()
            for name, ch in channels.items()} == TO_JSON_DIGESTS
