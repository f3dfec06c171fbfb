"""End-to-end benchmark of the `paulibench` command line.

    python3 benchmarks/run.py --workload estimate-k0 --seed 1 --trace 0
    python3 benchmarks/run.py --workload all --out BENCH_mytag.json

Each workload runs in fresh child processes (child.py) that import
paulibench from ./src, call `paulibench.cli.main` in-process with
`--threads 1`, and check every output.  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `wall_s` and `setup_s` are converted to a
reference CPU speed (speed.py); the raw wall clock is printed beside them.  `--workload all` runs every workload in turn;
--out writes the results, the environment and the span records to a file.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

import numpy

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9  # fresh processes timed for setup_s per run
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class HarnessError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # single-threaded like --threads 1, so BLAS threads add no noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, work: Path, deadline: float, setup_only: bool) -> dict:
    """Run child.py once; returns its report with `setup_s` added."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("run time limit reached")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise HarnessError(f"child exited {proc.returncode}:\n{tail}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise HarnessError(f"child printed no report: {proc.stdout[-300:]!r}") \
            from None
    report["setup_s"] = report["setup_done"] - start
    return report


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    if len(values) < 20:
        return None
    pct = int(100 * (1 - 10 / len(values)))
    return pct, quantiles(values, n=100)[pct - 1]


def time_setups(args, work: Path, deadline: float) -> list[float]:
    """Set-up times of SETUP_SAMPLES fresh children, at the reference speed.

    The probe thread runs here while the child starts on the other core."""
    setups = []
    with SpeedProbe(period=0.02) as speed:
        for i in range(SETUP_SAMPLES):
            speed.restart()
            seconds = spawn(args, work / f"setup{i}", deadline, True)["setup_s"]
            setups.append(seconds * speed.factor())
    return setups


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        setups = [] if args.trace else time_setups(args, work, deadline)
        report = spawn(args, work / "run", deadline, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    walls = [w for w, t in zip(report["walls"], report["traced"]) if not t]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
        lines = [f"{name:28s} {m['value']:.6g} {m['unit']}"
                 for name, m in sorted(metrics.items())]
        lines.append(f"(means over {sum(report['traced'])} traced and "
                     f"{len(walls)} untraced iterations, wall clock)")
    else:
        factors = report["factors"]
        ref_walls = [w * f for w, f in zip(walls, factors)]
        metrics = {
            "wall_s": {"value": median(ref_walls), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        tail = tail_percentile(ref_walls)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                     "no tail percentile below 20 iterations")
        lines = [
            f"wall_s       {median(ref_walls):.4f} s   median of "
            f"{len(ref_walls)} iterations at the reference speed (min "
            f"{min(ref_walls):.4f}, max {max(ref_walls):.4f}); {tail_text}",
            f"             raw wall clock median {median(walls):.4f} s, "
            f"speed factor median {median(factors):.3f}",
            f"setup_s      {median(setups):.4f} s   median of {len(setups)} "
            f"child process starts at the reference speed",
            f"peak_rss_mb  {report['peak_rss_mb']:.1f} MB  ru_maxrss of the "
            f"workload child, 1 process",
        ]
    lines.append(f"failed       {report['failed']}/{report['attempted']} "
                 f"operations")
    lines += [f"note: {text}" for text in report["notes"]]
    lines += [f"FAILED: {text}" for text in report["failures"]]
    return {
        "lines": lines,
        "result": {"correct": report["failed"] == 0,
                   "attempted": report["attempted"],
                   "failed": report["failed"],
                   "metrics": metrics},
        "spans": report["spans"],
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = None
    caches = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                            .glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in SRC.rglob("*.py")),
        "limits": [
            "timings come from a shared VM with few cores; other tenants "
            "add noise",
            "no hardware counters: channels.wht_bytes is computed from "
            "array sizes, not measured",
            "n=10 vectors are 8 MiB of float64, small against the L3 size "
            "reported here, so cache misses are not isolated",
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the results, the environment and, when "
                        "traced, the span records to this JSON file")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args()

    if not (SRC / "paulibench" / "__init__.py").is_file():
        print(f"error: no paulibench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import workloads

    known = list(workloads())
    names = known if args.workload == "all" else [args.workload]
    if names[0] not in known:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(known)} or all", file=sys.stderr)
        return 2
    env = environment()
    results = {}
    spans = {}
    for name in names:
        args.workload = name
        try:
            run = run_workload(args)
        except HarnessError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace})")
        print("\n".join(run["lines"]))
        results[name] = run["result"]
        spans[name] = run["spans"]
    print("env " + json.dumps(env))
    if args.out:
        # span records: [name, parent, iteration, calls, total_s, start, end]
        Path(args.out).write_text(json.dumps(
            {"environment": env, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "workloads": results,
             "spans": spans if args.trace else None}) + "\n")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
