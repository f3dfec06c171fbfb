"""Golden digests of the primary tables of small CLI runs.

Every random stream a command draws from shows in its table, so a change
to any stream (the order of draws, a draw's normalisation, a new path)
changes one of these sha256 digests.  A change that alters a stream on
purpose must re-record them, and re-run the statistical acceptance criteria
at their seeds.  The digests were recorded with the numpy version below;
numpy does not promise the same streams across versions, so another
version skips rather than fails.
"""

import hashlib
import json

import numpy as np
import pytest

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
    "estimate-k0": {
        "estimates.csv":
            "f183e8e98386554f0576f3b753ec02d2b0d4d88c382272d71de762e3f753c949",
    },
    "estimate-k4": {
        "estimates.csv":
            "38ac8dcc6453056ee8458b817e3edaaa5d61f55fb20476382083f61333bbc02e",
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


def table_digests(tmp_path, name: str) -> dict[str, str]:
    """sha256 of each primary table of the run `name`, keyed by file name."""
    command, cfg, tables = CONFIGS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return {table: hashlib.sha256((out / table).read_bytes()).hexdigest()
            for table in tables}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_primary_table_digests(tmp_path, name):
    assert table_digests(tmp_path, name) == DIGESTS[name]
