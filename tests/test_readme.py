"""The README's examples, run as written.

The library quick start is executed, and every `cat > NAME.json` config
is run through `cli.main` with the `paulibench` command that follows it.
The figures the README quotes from the sweep and discrimination runs are
read from its text and checked against the runs' summaries on the numpy
version the golden digests were recorded with (another version draws
other streams).
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from paulibench.cli import main

NUMPY_VERSION = "2.4.6"
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# a heredoc config and the command run on it: (file, config, command, flags)
CONFIG_RUN = re.compile(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n"
                        r"paulibench (\S+) --config \1 --out \S+([^\n]*)\n",
                        re.S)


def quoted(pattern: str) -> tuple[float, ...]:
    match = re.search(pattern, README)
    assert match, pattern
    return tuple(float(group) for group in match.groups())


def test_readme_quick_start(capsys):
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                     README, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    errors = [float(line) for line in capsys.readouterr().out.split()]
    assert len(errors) == 2 and 0.0 < errors[0] <= 0.1  # its epsilon


def test_readme_configs(tmp_path):
    summaries = {}
    for name, config, command, flags in CONFIG_RUN.findall(README):
        path = tmp_path / name
        path.write_text(config)
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out),
                     *flags.split()]) == 0, command
        summaries[command] = json.loads((out / "run.json").read_text())["summary"]
    assert sorted(summaries) == ["benchmark", "discriminate", "estimate",
                                 "sweep-ancilla"]
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"quoted figures recorded with numpy {NUMPY_VERSION}")
    sweep = summaries["sweep-ancilla"]
    assert round(sweep["log2_n_min_slope"], 2) == \
        quoted(r"predicts 1, this config reads ([\d.]+)\.")[0]
    probes, least, most = quoted(
        r"here (\d+)\s+# probes and (\d+) to (\d+) trials per k")
    per_k = [sweep[key] for key in sweep if key.isdigit()]
    assert {k["probes"] for k in per_k} == {probes}
    assert (min(k["trials_run"] for k in per_k),
            max(k["trials_run"] for k in per_k)) == (least, most)
    slopes = summaries["discriminate"]["log2_median_shots_slope"]
    assert (round(slopes["bell"], 2), round(slopes["ancilla-free"], 2)) == \
        quoted(r"reads ([\d.]+) with a Bell ancilla and ([\d.]+) without")
