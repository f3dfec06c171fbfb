"""Command-line front end.

Subcommands:

* estimate        run the ancilla-assisted channel estimation protocol
* benchmark       run the SPAM-robust gate benchmarking protocol
* sweep-ancilla   minimal sample budget vs ancilla size
* discriminate    shots to tell the fully-depolarizing channel from a
                  random two-eigenvalue channel, with and without ancilla
* verify          oracle-equivalence and invariant checks

Experiments are configured by a JSON file (--config) with flag overrides
(--seed, --threads, --out, --format).  Every run writes a primary table
(CSV by default) plus run metadata JSON with the resolved config, seed,
timings, per table its row count and write time, and per named stage
(`RunWriter.stage`) its seconds.  Every table goes through one writer,
`RunWriter.write_table`, as blocks of numpy columns (`benchmark` gives one
block per SPAM rate), and CSV and JSON share one text layout; CSV floats
are written with 17 significant digits.
Outputs are byte-identical for a fixed (config, seed): all randomness is
derived from (seed, structural key), and every run is serial; `--threads`
is only recorded in run.json.

Exit codes: 0 ok, 2 config error (any `UsageError`), 3 capability error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import __version__
from .channels import DENSE_MAX_QUBITS, PauliChannel
from .errors import CapabilityError, UsageError
from .estimation import (
    DEFAULT_LENGTHS,
    dense_benchmark_bytes,
    dense_estimate_bytes,
    estimate_alg1,
    required_samples,
)
from .experiments import (
    DISCRIMINATE_MODES,
    discriminate,
    spam_sweep,
    sweep_min_rounds,
    sweep_trial_bytes,
)
from .pauli import format_bits, label_column
from .sampler import NoiseModel
from .seeding import derive_rng
from .stabilizer import mub_covering, pauli_basis_covering
from .verify import run_checks

_FLOAT = "{:.17g}"
_INT64_MAX = (1 << 63) - 1  # the largest count numpy draws and stores
# rows per piece of `RunWriter.write_table`, in CSV and in JSON alike
_CSV_CHUNK_ROWS = 1 << 16

SCHEMA_VERSION = 1
# bytes a dense `estimate` or `benchmark` may plan to hold; `_memory_limit`
# lowers it to the memory the system reports available
DENSE_MEMORY_LIMIT = 4 << 30


# --- config handling ----------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or too many digits
        raise UsageError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise UsageError("config must be a JSON object")
    return obj


def _require_keys(cfg: dict, required, optional, where: str):
    missing = [key for key in required if key not in cfg]
    if missing:
        raise UsageError(f"{where}: missing keys {missing}")
    unknown = [key for key in cfg if key not in set(required) | set(optional)]
    if unknown:
        raise UsageError(f"{where}: unknown keys {unknown}")


def _int(value, what: str, minimum: int | None = None,
         maximum: int | None = None) -> int:
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise UsageError(f"{what} must be at least {minimum}, got {out}")
    if maximum is not None and out > maximum:
        raise UsageError(f"{what} must be at most {maximum}, got {out}")
    return out


def _float(value, what: str) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be a number, got {value!r}") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list) or not value:
        raise UsageError(f"{what} must be a non-empty list, got {value!r}")
    return value


def _distinct(values: list, what: str) -> list:
    if len(set(values)) < len(values):
        raise UsageError(f"{what} repeats an entry: {values!r}")
    return values


_CHANNEL_KINDS = {
    "identity": ((), ()),
    "depolarizing": (("rate",), ()),
    "fully-depolarizing": ((), ()),
    "spike": (("label", "sign"), ()),
    "random-dirichlet": ((), ("alpha",)),
    "random-sparse": (("support",), ()),
    "tensor": (("factors",), ()),
    "file": (("path",), ()),
}


def build_channel(spec: dict, n: int, rng: np.random.Generator) -> PauliChannel:
    """Construct a channel from its config spec."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError(f"channel spec must be an object with 'kind': {spec!r}")
    kind = spec["kind"]
    if kind not in _CHANNEL_KINDS:
        raise UsageError(f"unknown channel kind {kind!r}")
    required, optional = _CHANNEL_KINDS[kind]
    _require_keys(spec, ("kind",) + required, optional, f"channel {kind}")
    if kind == "identity":
        return PauliChannel.identity(n)
    if kind == "depolarizing":
        return PauliChannel.depolarizing(n, _float(spec["rate"], "rate"))
    if kind == "fully-depolarizing":
        return PauliChannel.fully_depolarizing(n)
    if kind == "spike":
        return PauliChannel.spike(n, spec["label"], _int(spec["sign"], "sign"))
    if kind == "random-dirichlet":
        return PauliChannel.random_dirichlet(
            n, rng, _float(spec.get("alpha", 1.0), "alpha"))
    if kind == "random-sparse":
        return PauliChannel.random_sparse(n, _int(spec["support"], "support"),
                                          rng)
    if kind == "tensor":
        factors = []
        consumed = 0
        for sub in _list(spec["factors"], "tensor factors"):
            if not isinstance(sub, dict):
                raise UsageError(f"tensor factor must be an object: {sub!r}")
            sub_n = _int(sub.get("n", 1), "tensor factor n", 1, n - consumed)
            inner = {key: val for key, val in sub.items() if key != "n"}
            factors.append(build_channel(inner, sub_n, rng))
            consumed += sub_n
        if consumed != n:
            raise UsageError(f"tensor factors cover {consumed} qubits, expected {n}")
        return PauliChannel.tensor(factors)
    if not isinstance(spec["path"], str):
        raise UsageError(f"channel file path must be a string: {spec['path']!r}")
    try:
        text = Path(spec["path"]).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read channel file: {exc}") from None
    try:
        obj = json.loads(text)
        # the file's n as `from_json` reads it, checked before any 4^n
        file_n = int(obj["n"])
        if file_n == n:
            return PauliChannel.from_json(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed channel file: {exc}") from None
    raise UsageError(f"channel file has n={file_n}, config says {n}")


def _covering(kind: str, m: int):
    if kind == "mub":
        return mub_covering(m)
    if kind == "pauli-basis":
        return pauli_basis_covering(m)
    raise UsageError(f"unknown covering kind {kind!r}")


def _memory_limit() -> int:
    """DENSE_MEMORY_LIMIT, or MemAvailable from /proc/meminfo if lower."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return min(DENSE_MEMORY_LIMIT, int(line.split()[1]) << 10)
    except (OSError, ValueError, IndexError):
        pass
    return DENSE_MEMORY_LIMIT


def _require_memory(n: int, bytes_of, what: str):
    """CapabilityError (exit 3) when n is past DENSE_MAX_QUBITS or `what`
    needs more than `_memory_limit` bytes, `bytes_of(n)`; called before the
    run allocates any of it, and before any 4^n of a larger n is computed."""
    if n > DENSE_MAX_QUBITS:
        raise CapabilityError(
            f"{what}: dense runs limited to n <= {DENSE_MAX_QUBITS}")
    need, limit = bytes_of(n), _memory_limit()
    if need > limit:
        raise CapabilityError(
            f"{what} needs about {need >> 20} MiB, over the {limit >> 20} MiB "
            "limit"
        )


# --- output helpers -------------------------------------------------------------


class RunWriter:
    """Collects output files and run metadata for one CLI invocation:
    the tables written, and the seconds of each named `stage`.  The output
    directory is made at the first write, so a refused run leaves none."""

    def __init__(self, out_dir: str, fmt: str):
        if fmt not in ("csv", "json"):
            raise UsageError(f"--format must be csv or json, got {fmt!r}")
        self.dir = Path(out_dir)
        # an unusable directory is refused at once: make the missing ones,
        # then remove them again, deepest first
        made = [p for p in (self.dir, *self.dir.parents)
                if not os.path.exists(p)]
        try:
            self._path("")
        finally:
            for path in made:
                with suppress(OSError):
                    path.rmdir()
        self.fmt = fmt
        self.outputs: list[str] = []
        self.tables: dict[str, dict] = {}
        self.stages: dict[str, float] = {}
        self.start = time.perf_counter()

    def _path(self, name: str) -> Path:
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create --out directory {self.dir}: "
                             f"{exc.strerror}") from None
        return self.dir / name

    @contextmanager
    def stage(self, name: str):
        """Time the enclosed block; run.json records its seconds, summed
        over the blocks of that name, under `stages`."""
        start = time.perf_counter()
        yield
        self.stages[name] = (self.stages.get(name, 0.0)
                             + time.perf_counter() - start)

    def write_table(self, name: str, header: list[str], blocks):
        """Write a table given as an iterable of column blocks, each a list
        of equal-length numpy columns: ``S`` byte strings, floats or
        integers.  Blocks are taken one at a time and written in pieces of
        at most `_CSV_CHUNK_ROWS` rows, so no more than one piece is held as
        text.  Both formats format each distinct value once (`_cells`)
        and lay the cells out in one byte matrix (`_text_block`).  A CSV
        float has 17 significant digits; the JSON text is
        ``json.dumps([dict(zip(header, row)) ...], indent=1)`` of the rows
        as Python str, float and int values, as long as every ``S`` column
        is ASCII with no ``"``, ``\\`` or control character: true of every
        one the commands write (label, spam_rate, mode, truth, declared)."""
        start = time.perf_counter()
        path = self._path(f"{name}.{self.fmt}")
        csv = self.fmt == "csv"
        if csv:  # the text in front of each column, and after each row
            seps, end = [b""] + [b","] * (len(header) - 1), b"\n"
        else:
            seps = [(b",\n {" if i == 0 else b",")
                    + f"\n  {json.dumps(h)}: ".encode()
                    for i, h in enumerate(header)]
            end = b"\n }"
        rows = 0
        with path.open("wb") as fh:
            if csv:
                fh.write((",".join(header) + "\n").encode())
            for block in blocks:
                for lo in range(0, len(block[0]), _CSV_CHUNK_ROWS):
                    piece = [col[lo:lo + _CSV_CHUNK_ROWS] for col in block]
                    fh.write(_text_block([_cells(col, csv) for col in piece],
                                         seps, end))
                    rows += len(piece[0])
            if not csv:  # the first row's leading "," becomes "["
                fh.write(b"\n]\n" if rows else b"[]\n")
                fh.seek(0)
                fh.write(b"[")
        self.outputs.append(path.name)
        self.tables[path.name] = {
            "rows": rows,
            "write_s": round(time.perf_counter() - start, 6),
        }
        return path

    def write_text(self, name: str, text: str):
        path = self._path(name)
        path.write_text(text)
        self.outputs.append(path.name)
        return path

    def finish(self, command: str, config: dict, seed: int, threads: int,
               summary: dict | None = None):
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        meta = {
            "schema": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "seed": seed,
            "threads": threads,
            "version": __version__,
            "git": _git_describe(),
            "outputs": self.outputs,
            "tables": self.tables,
            "stages": {name: round(sec, 6) for name, sec in self.stages.items()},
            "wall_time_s": round(time.perf_counter() - self.start, 3),
        }
        if summary is not None:
            meta["summary"] = summary
        self._path("run.json").write_text(json.dumps(meta, indent=1) + "\n")


def _cells(col: np.ndarray, csv: bool) -> np.ndarray:
    """A column as fixed-width, NUL-padded ASCII cells of CSV or JSON text.

    Each distinct number is formatted once: a float with 17 significant
    digits in CSV and as `json.dumps` writes it in JSON, an integer with
    `str` in both.  Floats are keyed on their bit pattern, not their value,
    so -0.0 and 0.0 keep their own text.  Strings are written as they are
    in CSV and quoted in JSON."""
    if col.dtype.kind == "S":
        if csv:
            return np.ascontiguousarray(col)  # a broadcast column
        return np.strings.add(np.strings.add(b'"', col), b'"')
    if col.dtype.kind == "f":
        bits = col.astype(np.float64, copy=False).view(np.uint64)
        keys, inverse = np.unique(bits, return_inverse=True)
        values = keys.view(np.float64)
        text = list(map(_FLOAT.format if csv else float.__repr__,
                        values.tolist()))
        if not csv:  # NaN, Infinity and -Infinity
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                text[i] = json.dumps(values[i].item())
    else:
        keys, inverse = np.unique(col, return_inverse=True)
        text = list(map(str, keys.tolist()))
    return np.array(text, dtype=np.bytes_)[inverse]


def _text_block(cells: list[np.ndarray], seps: list[bytes],
                end: bytes) -> bytes:
    """Rows of equal-length cell columns, each row ``seps[0]``, its first
    cell, ``seps[1]``, its second cell, ... and `end`: laid side by side in
    one byte matrix, then the NUL padding dropped."""
    rows = len(cells[0])
    consts = [np.broadcast_to(np.frombuffer(text, np.uint8), (rows, len(text)))
              for text in [*seps, end]]
    flat = np.concatenate(
        [part for const, c in zip(consts, cells) for part in
         (const, c.view(np.uint8).reshape(rows, c.dtype.itemsize))]
        + consts[-1:], axis=1).ravel()
    return flat[flat != 0].tobytes()


def _repeated(text: str, rows: int) -> np.ndarray:
    """A column of `rows` copies of the ASCII string `text`, held once."""
    return np.broadcast_to(np.bytes_(text), (rows,))


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).parent,
        )
        return out.stdout.strip() or None
    except OSError:
        return None


# --- subcommands ----------------------------------------------------------------


def cmd_estimate(cfg: dict, seed: int, writer: RunWriter) -> dict:
    _require_keys(
        cfg,
        ("experiment", "n", "k", "channel"),
        ("covering", "epsilon", "delta", "samples"),
        "estimate config",
    )
    n = _int(cfg["n"], "n", 1)
    k = _int(cfg["k"], "k", 0, n)
    _require_memory(n, dense_estimate_bytes,
                    f"a dense estimate on n={n} qubits")
    with writer.stage("covering"):
        cov = _covering(cfg.get("covering", "mub"), n - k)
    if "samples" in cfg:
        total = _int(cfg["samples"], "samples", maximum=_INT64_MAX)
    else:
        if "epsilon" not in cfg or "delta" not in cfg:
            raise UsageError("estimate config needs samples or epsilon+delta")
        total = required_samples(n, k, _float(cfg["epsilon"], "epsilon"),
                                 _float(cfg["delta"], "delta"), len(cov.groups))
    with writer.stage("channel"):
        channel = build_channel(cfg["channel"], n, derive_rng(seed, "channel"))
    with writer.stage("estimate"):
        est = estimate_alg1(channel, k, cov, total, derive_rng(seed, "shots"))
    del channel  # its 4^n arrays are not held through the 4^n-row write
    with writer.stage("write"):
        writer.write_table(
            "estimates", ["label", "lambda_hat", "n_shots", "stderr"],
            [[label_column(n), est.lambda_hat, est.n_shots, est.stderr]])
    return {
        "samples": total,
        "rounds_per_group": total // len(cov.groups),
        "covering_size": len(cov.groups),
        "max_estimate": float(np.max(est.lambda_hat)),
        "min_estimate": float(np.min(est.lambda_hat)),
    }


def cmd_benchmark(cfg: dict, seed: int, writer: RunWriter) -> dict:
    _require_keys(
        cfg,
        ("experiment", "n", "gate", "shots_per_m"),
        ("m_list", "spam_sweep", "prep", "meas"),
        "benchmark config",
    )
    n = _int(cfg["n"], "n", 1)
    m_list = [_int(m, "m_list entry", 0, _INT64_MAX)
              for m in _list(cfg.get("m_list", list(DEFAULT_LENGTHS)), "m_list")]
    if len(set(m_list)) < 2:
        raise UsageError(
            f"m_list needs two or more distinct lengths to fit a decay, "
            f"got {m_list}")
    # every label's shot count, shots_per_m per length, is an int64
    shots = _int(cfg["shots_per_m"], "shots_per_m", 1,
                 _INT64_MAX // len(set(m_list)))
    explicit_spam = "prep" in cfg or "meas" in cfg
    if explicit_spam and "spam_sweep" in cfg:
        raise UsageError("give either prep/meas channels or a SPAM rate, not both")
    rates = _distinct([_float(r, "spam_sweep entry") for r in _list(
        cfg.get("spam_sweep", [0.0]), "spam_sweep")], "spam_sweep")
    _require_memory(n, lambda n: dense_benchmark_bytes(
        n, len(set(m_list)), len(rates)), f"a dense benchmark on n={n} qubits")

    with writer.stage("channel"):
        gate = build_channel(cfg["gate"], n, derive_rng(seed, "gate-channel"))
        spam = [build_channel(cfg[side], n, derive_rng(seed, f"{side}-channel"))
                if side in cfg else PauliChannel.identity(n)
                for side in ("prep", "meas")] if explicit_spam else []
        # prep/meas channels make one model, written with spam_rate 0
        models = [(_FLOAT.format(rate), NoiseModel(n, gate, *spam) if spam
                   else NoiseModel.with_depolarizing_spam(gate, rate))
                  for rate in rates]
    with writer.stage("benchmark"):
        results, consistency = spam_sweep(models, m_list, shots, seed)
    with writer.stage("write"):
        # one block per SPAM rate, built as the writer reaches it, so one
        # rate's columns are held at a time
        labels = label_column(n)
        writer.write_table(
            "estimates",
            ["spam_rate", "label", "lambda_hat", "n_shots", "stderr"],
            ([_repeated(rate, labels.size), labels,
              res.estimates.lambda_hat, res.estimates.n_shots,
              res.estimates.stderr]
             for (rate, _), res in zip(models, results)))
        writer.write_table(
            "decays", ["spam_rate", "label", "m", "f_mean", "shots"],
            ([_repeated(rate, res.f_mean.size),
              np.repeat(labels, res.lengths.size),
              np.tile(res.lengths, labels.size), res.f_mean.T.ravel(),
              np.tile(res.shots, labels.size)]
             for (rate, _), res in zip(models, results)))
    summary: dict = {
        "fit_errors": {
            rate: {format_bits(lbl, n): msg
                   for lbl, msg in res.fits.errors.items()}
            for (rate, _), res in zip(models, results) if res.fits.errors
        },
    }
    if consistency is not None:
        worst, comparisons, critical = consistency
        summary["spam_sweep_max_z"] = worst
        summary["spam_sweep_comparisons"] = comparisons
        summary["spam_sweep_z_critical"] = critical
        summary["spam_sweep_consistent"] = bool(worst < critical)
    return summary


def cmd_sweep_ancilla(cfg: dict, seed: int, writer: RunWriter) -> dict:
    _require_keys(
        cfg,
        ("experiment", "n", "k_list", "epsilon"),
        ("trials", "success_fraction", "covering", "channel_alpha"),
        "sweep-ancilla config",
    )
    n = _int(cfg["n"], "n", 1)
    if n > 8:
        raise CapabilityError("sweep-ancilla limited to n <= 8 (dense truth)")
    k_list = _distinct([_int(k, "k_list entry", 0, n)
                        for k in _list(cfg["k_list"], "k_list")], "k_list")
    epsilon = _float(cfg["epsilon"], "epsilon")
    trials = _int(cfg.get("trials", 20), "trials", 1)
    frac = _float(cfg.get("success_fraction", 0.9), "success_fraction")
    if not 0.0 < frac < 1.0:
        raise UsageError(f"success_fraction must lie in (0, 1), got {frac}")
    alpha = _float(cfg.get("channel_alpha", 1.0), "channel_alpha")
    with writer.stage("covering"):
        covs = [_covering(cfg.get("covering", "mub"), n - k) for k in k_list]
    # one k's trials are held at a time
    _require_memory(n, lambda n: trials * max(
        sweep_trial_bytes(n, k, cov) for k, cov in zip(k_list, covs)),
                    f"a sweep of {trials} trials on n={n} qubits")

    table = np.empty((len(k_list), 6), dtype=np.int64)
    summary = {}
    for i, (k, cov) in enumerate(zip(k_list, covs)):
        size = len(cov.groups)
        with writer.stage("sweep"):
            rounds, confirmed, probes, trials_run = sweep_min_rounds(
                n, k, cov, epsilon, trials, frac, alpha, seed)
        table[i] = k, size, rounds, rounds * size, confirmed, trials
        summary[str(k)] = {"rounds_min": rounds, "n_min": rounds * size,
                           "probes": probes, "trials_run": trials_run}
    if len(k_list) > 1:
        # least squares of log2 n_min against n - k; Theta(n 2^(n-k))
        # predicts 1
        summary["log2_n_min_slope"] = float(np.polyfit(
            n - table[:, 0], np.log2(table[:, 3]), 1)[0])
    with writer.stage("write"):
        writer.write_table(
            "sweep",
            ["k", "covering_size", "rounds_min", "n_min", "successes",
             "trials"],
            [list(table.T)],
        )
    return summary


def cmd_discriminate(cfg: dict, seed: int, writer: RunWriter) -> dict:
    _require_keys(
        cfg,
        ("experiment", "n_list", "trials"),
        ("modes", "max_shots"),
        "discriminate config",
    )
    n_list = _distinct([_int(n, "n_list entry", 1)
                        for n in _list(cfg["n_list"], "n_list")], "n_list")
    if max(n_list) > 10:
        raise CapabilityError("discriminate limited to n <= 10")
    trials = _int(cfg["trials"], "trials", 1)
    modes = _list(cfg.get("modes", list(DISCRIMINATE_MODES)), "modes")
    for mode in modes:
        if mode not in DISCRIMINATE_MODES:
            raise UsageError(f"unknown discriminate mode {mode!r}")
    _distinct(modes, "modes")
    max_shots = _int(cfg.get("max_shots", 100_000), "max_shots", 1)
    blocks = []  # one per (mode, n)
    summary = {}
    with writer.stage("discriminate"):
        for mode in modes:
            for n in n_list:
                truth, declared, shots = (np.array(col) for col in zip(
                    *discriminate(n, mode, trials, max_shots, seed)))
                correct = truth == declared
                blocks.append([
                    _repeated(mode, trials), np.full(trials, n),
                    np.arange(trials), truth.astype(np.bytes_),
                    declared.astype(np.bytes_), correct.astype(np.int64),
                    shots])
                summary[f"{mode}:n={n}"] = {
                    "success_rate": np.count_nonzero(correct) / trials,
                    "median_shots": float(np.median(shots[correct]))
                    if correct.any() else None,
                }
    slopes = {}
    for mode in modes:
        medians = {n: summary[f"{mode}:n={n}"]["median_shots"] for n in n_list}
        ns = [n for n, median in medians.items() if median is not None]
        if len(ns) > 1:
            # least squares of log2 median_shots against n; the ancilla-free
            # Omega(2^(n/3)) lower bound implies at least 1/3
            slopes[mode] = float(np.polyfit(
                ns, np.log2([medians[n] for n in ns]), 1)[0])
    if slopes:
        summary["log2_median_shots_slope"] = slopes
    with writer.stage("write"):
        writer.write_table(
            "discriminate",
            ["mode", "n", "trial", "truth", "declared", "correct", "shots"],
            blocks,
        )
    return summary


def cmd_verify(level: str, seed: int, writer: RunWriter | None) -> int:
    results = run_checks(level, seed)
    lines = [res.line() for res in results]
    print("\n".join(lines))
    if writer is not None:
        writer.stages = {r.name: r.seconds for r in results}
        writer.write_text("verify.txt", "\n".join(lines) + "\n")
        checks = [{"name": r.name, "ok": bool(r.ok),
                   "seconds": round(r.seconds, 6), "detail": r.detail,
                   "tolerance": float(r.tolerance)} for r in results]
        writer.finish("verify", {"level": level}, seed, 1, {"checks": checks})
    return 0 if all(r.ok for r in results) else 4


_GNUPLOT_SWEEP = """set datafile separator ','
set logscale y
set xlabel 'ancilla qubits k'
set ylabel 'minimal sample budget N'
plot 'sweep.csv' using 1:4 skip 1 with linespoints title 'N_min(k)'
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paulibench",
        description="Pauli channel estimation and benchmarking experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("estimate", "benchmark", "sweep-ancilla", "discriminate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=".")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        if name == "sweep-ancilla":
            p.add_argument("--gnuplot", action="store_true")
    v = sub.add_parser("verify")
    v.add_argument("--level", default="quick", choices=("quick", "full"))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            seed = _int(args.seed, "seed", 0)
            writer = RunWriter(args.out, "csv") if args.out else None
            return cmd_verify(args.level, seed, writer)
        gnuplot = args.command == "sweep-ancilla" and args.gnuplot
        if gnuplot and args.format != "csv":
            raise UsageError("--gnuplot plots sweep.csv, so it needs "
                             "--format csv")
        cfg = _load_config(args.config)
        if cfg.setdefault("experiment", args.command) != args.command:
            raise UsageError(
                f"config experiment {cfg['experiment']!r} does not match "
                f"subcommand {args.command!r}"
            )
        seed = _int(args.seed if args.seed is not None else cfg.get("seed", 0),
                    "seed", 0)
        threads = _int(args.threads, "threads", 1)
        writer = RunWriter(args.out, args.format)
        handler = {
            "estimate": cmd_estimate,
            "benchmark": cmd_benchmark,
            "sweep-ancilla": cmd_sweep_ancilla,
            "discriminate": cmd_discriminate,
        }[args.command]
        summary = handler({key: val for key, val in cfg.items()
                           if key != "seed"}, seed, writer)
        if gnuplot:
            writer.write_text("sweep.gp", _GNUPLOT_SWEEP)
        writer.finish(args.command, dict(cfg, seed=seed), seed, threads, summary)
        return 0
    except UsageError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
