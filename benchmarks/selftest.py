"""Self-test of the benchmark at tiny sizes; exits non-zero on a problem.

    python3 benchmarks/selftest.py

For every workload, untraced and traced, it checks that run.py exits 0,
that its last line is the result object with every metric BENCHMARK.json
names and no other, that no operation failed, and that the traced self
times are non-negative and add up to the traced wall time.  It also checks
that run.py fails without printing a result where the sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{where}: {result['failed']}/{result['attempted']} "
                        f"failed\n{proc.stdout}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(units))}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values.values()):
        problems.append(f"{where}: non-finite metric values")
    if trace:
        # one <layer>.self_s per layer, the harness included
        selfs = [v for name, v in values.items() if name.endswith(".self_s")]
        if min(selfs) < -1e-9:
            problems.append(f"{where}: negative self time {min(selfs)}")
        wall = values["trace.wall_s"]
        if not math.isclose(sum(selfs), wall, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{where}: self times sum to {sum(selfs)}, "
                            f"traced wall is {wall}")
    return problems


def check_without_sources() -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "estimate-k0", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{'FAIL' if found else 'ok  '} {workload} trace={trace}")
            problems += found
    for text in problems:
        print(text)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
