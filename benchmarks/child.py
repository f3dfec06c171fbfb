"""One workload in a fresh process: set up, run iterations, check, report.

Started by run.py, which notes `time.monotonic()` just before the start.
Prints one JSON line on stdout with `setup_done` (the monotonic time when
paulibench is imported and the configs are written) and, unless
--setup-only, the iteration walls, the speed factor of each untraced
iteration (speed.py), the operation counts and failures, the
peak RSS of this process and, with --trace 1, the per-layer metrics and
the span records.

Iterations run back to back through `paulibench.cli.main`, in-process,
until one more would end past --seconds, and at least MIN_ITERATIONS times
so that the determinism check has a second output to compare.  With
--trace 1 every second iteration is traced, so the untraced ones between
them give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import time
import traceback
from pathlib import Path
from statistics import fmean, median

import workloads as wl
from paulibench import cli
from spans import Tracer, layer_metrics
from speed import SpeedProbe

MIN_ITERATIONS = 2


def _invoke(argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # counted as a failed operation, with its traceback
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_iteration(ops, configs, out_root: Path, seed: int,
                  tracer: Tracer | None, number: int):
    if tracer is not None:
        tracer.install()
    scope = tracer.iteration(number) if tracer else contextlib.nullcontext()
    try:
        start = time.perf_counter()
        with scope:
            results = [_invoke(op.argv(configs.get(op.name), out_root / op.name,
                                       seed))
                       for op in ops]
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    return wall, results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    ops = wl.workloads(args.tiny)[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    seed = wl.cli_seed(args.seed, args.workload)
    configs = {}
    for op in ops:
        if op.config is not None:
            configs[op.name] = work / f"{op.name}.json"
            configs[op.name].write_text(json.dumps(op.config))
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = Tracer() if args.trace else None
    walls: list[float] = []
    traced: list[bool] = []
    reference: dict[str, str] = {}  # operation -> digest of iteration 0
    first_results = []
    failures: list[str] = []
    failed: set[tuple[int, str]] = set()  # (iteration, operation)
    # untraced runs time iterations at the reference CPU speed (speed.py)
    speed = SpeedProbe() if tracer is None else None
    factors: list[float] = []
    begin = time.perf_counter()
    with speed or contextlib.nullcontext():
        while True:
            number = len(walls)
            use_tracer = tracer is not None and number % 2 == 1
            out_root = work / f"iter{number}"
            if speed is not None:
                speed.restart()
            wall, results = run_iteration(
                ops, configs, out_root, seed,
                tracer if use_tracer else None, number)
            if speed is not None:
                factors.append(speed.factor())
            walls.append(wall)
            traced.append(use_tracer)
            # outside the timed region: exit codes and the determinism check
            for op, (code, stdout, stderr) in zip(ops, results):
                problem = None
                if code != 0:
                    tail = stderr.strip().splitlines()[-1:] or [""]
                    problem = f"{op.name}: exit code {code} {tail[0]}"
                else:
                    digest = op.digest(wl.Outcome(out_root / op.name, stdout,
                                                  seed))
                    if number == 0:
                        reference[op.name] = digest
                    elif digest != reference.get(op.name):
                        problem = (f"{op.name}: iteration {number} output "
                                   f"differs from iteration 0 (sha256)")
                if number == 0:
                    first_results.append((op, code, stdout))
                if problem is not None:
                    failed.add((number, op.name))
                    failures.append(problem)
            if number > 0:
                shutil.rmtree(out_root, ignore_errors=True)
            elapsed = time.perf_counter() - begin
            if (len(walls) >= MIN_ITERATIONS
                    and elapsed + median(walls) > args.seconds):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output checks on iteration 0; later iterations matched it byte for byte
    notes: list[str] = []
    for op, code, stdout in first_results:
        if code != 0:
            continue
        outcome = wl.Outcome(work / "iter0" / op.name, stdout, seed, notes)
        try:
            problems = op.check(op, outcome)
        except Exception as exc:  # a malformed output is a failed check
            problems = [f"{op.name}: check raised {exc!r}"]
        if problems:
            # every later iteration matched this output or failed already
            failed.update((number, op.name) for number in range(len(walls)))
            failures.extend(problems)

    report = {
        "setup_done": setup_done,
        "walls": walls,
        "factors": factors,
        "traced": traced,
        "attempted": len(walls) * len(ops),
        "failed": len(failed),
        "failures": failures,
        "notes": notes,
        "peak_rss_mb": peak_rss_mb,
        "layers": None,
        "spans": None,
    }
    if tracer is not None:
        layers = layer_metrics(tracer)
        traced_walls = [w for w, t in zip(walls, traced) if t]
        plain_walls = [w for w, t in zip(walls, traced) if not t]
        roots = [rec.total for rec in tracer.records if rec.parent < 0]
        layers["trace.wall_s"] = (fmean(roots), "s")
        layers["trace.untraced_wall_s"] = (fmean(plain_walls), "s")
        layers["trace.overhead_s"] = (fmean(traced_walls) - fmean(plain_walls),
                                      "s")
        report["layers"] = layers
        report["spans"] = [[rec.name, rec.parent, rec.iteration, rec.calls,
                            rec.total, rec.start, rec.end]
                           for rec in tracer.records]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
