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
timings and, per table, its row count and write time.  Floats are written
with 17 significant digits.  `estimate` writes its 4^n-row table from numpy
columns (`RunWriter.write_columns`), the other commands from rows
(`RunWriter.write_table`); both give the same bytes for the same values.
Outputs are byte-identical for a fixed (config, seed) at any thread count:
all randomness is derived from (seed, structural key) and merges happen in
key order.

Exit codes: 0 ok, 2 config error, 3 capability error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .channels import PauliChannel
from .errors import CapabilityError, ConfigError, PauliBenchError, UsageError
from .estimation import (
    DEFAULT_LENGTHS,
    benchmark_alg2,
    estimate_alg1,
    required_samples,
    two_sample_consistency,
)
from .pauli import format_bits, format_labels, symp_u64
from .sampler import NoiseModel
from .seeding import derive_rng
from .stabilizer import mub_covering, pauli_basis_covering
from .verify import run_checks

_FLOAT = "{:.17g}"
_CSV_CHUNK_ROWS = 1 << 16  # rows per block of `RunWriter.write_columns`

SCHEMA_VERSION = 1


# --- config handling ----------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return obj


def _require_keys(cfg: dict, required, optional, where: str):
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    unknown = [key for key in cfg if key not in set(required) | set(optional)]
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _int(value, what: str, minimum: int | None = None,
         maximum: int | None = None) -> int:
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {out}")
    if maximum is not None and out > maximum:
        raise ConfigError(f"{what} must be at most {maximum}, got {out}")
    return out


def _float(value, what: str) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list, got {value!r}")
    return value


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
        raise ConfigError(f"channel spec must be an object with 'kind': {spec!r}")
    kind = spec["kind"]
    if kind not in _CHANNEL_KINDS:
        raise ConfigError(f"unknown channel kind {kind!r}")
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
                raise ConfigError(f"tensor factor must be an object: {sub!r}")
            sub_n = _int(sub.get("n", 1), "tensor factor n", 1)
            inner = {key: val for key, val in sub.items() if key != "n"}
            factors.append(build_channel(inner, sub_n, rng))
            consumed += sub_n
        if consumed != n:
            raise ConfigError(f"tensor factors cover {consumed} qubits, expected {n}")
        return PauliChannel.tensor(factors)
    if not isinstance(spec["path"], str):
        raise ConfigError(f"channel file path must be a string: {spec['path']!r}")
    try:
        text = Path(spec["path"]).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read channel file: {exc}") from None
    try:
        ch = PauliChannel.loads(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed channel file: {exc}") from None
    if ch.n != n:
        raise ConfigError(f"channel file has n={ch.n}, config says {n}")
    return ch


def _covering(kind: str, m: int):
    if kind == "mub":
        return mub_covering(m)
    if kind == "pauli-basis":
        return pauli_basis_covering(m)
    raise ConfigError(f"unknown covering kind {kind!r}")


# --- output helpers -------------------------------------------------------------


class RunWriter:
    """Collects output files and run metadata for one CLI invocation."""

    def __init__(self, out_dir: str, fmt: str):
        if fmt not in ("csv", "json"):
            raise ConfigError(f"--format must be csv or json, got {fmt!r}")
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fmt = fmt
        self.outputs: list[str] = []
        self.tables: dict[str, dict] = {}
        self.start = time.perf_counter()

    def write_table(self, name: str, header: list[str], rows: list[list]):
        """Write a table given as rows of Python values."""
        start = time.perf_counter()
        path = self.dir / f"{name}.{self.fmt}"
        if self.fmt == "json":
            _write_json(path, header, rows)
        else:
            # row by row, so no second copy of a 4^n-row table is held
            with path.open("w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join([_FLOAT.format(x) if isinstance(x, float)
                                       else str(x) for x in row]) + "\n")
        return self._add_table(path, len(rows), start)

    def write_columns(self, name: str, header: list[str],
                      columns: list[np.ndarray]):
        """Write a table given as equal-length numpy columns: ``S`` byte
        strings, floats or integers.  The bytes equal those of `write_table`
        on the rows of Python str, float and int values."""
        start = time.perf_counter()
        path = self.dir / f"{name}.{self.fmt}"
        rows = len(columns[0])
        if self.fmt == "json":
            lists = [col.astype(str).tolist() if col.dtype.kind == "S"
                     else col.tolist() for col in columns]
            _write_json(path, header, zip(*lists))
        else:
            with path.open("wb") as fh:
                fh.write((",".join(header) + "\n").encode())
                for lo in range(0, rows, _CSV_CHUNK_ROWS):
                    fh.write(_csv_block([col[lo:lo + _CSV_CHUNK_ROWS]
                                         for col in columns]))
        return self._add_table(path, rows, start)

    def _add_table(self, path: Path, rows: int, start: float) -> Path:
        self.outputs.append(path.name)
        self.tables[path.name] = {
            "rows": rows,
            "write_s": round(time.perf_counter() - start, 6),
        }
        return path

    def write_text(self, name: str, text: str):
        path = self.dir / name
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
            "wall_time_s": round(time.perf_counter() - self.start, 3),
        }
        if summary is not None:
            meta["summary"] = summary
        (self.dir / "run.json").write_text(json.dumps(meta, indent=1) + "\n")


def _write_json(path: Path, header: list[str], rows):
    payload = [dict(zip(header, row)) for row in rows]
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _csv_cells(col: np.ndarray) -> np.ndarray:
    """A column as fixed-width, NUL-padded ASCII cells.

    Each distinct value is formatted once.  Floats are keyed on their bit
    pattern, not their value, so -0.0 and 0.0 keep their own text."""
    if col.dtype.kind == "S":
        return col
    if col.dtype.kind == "f":
        bits = col.astype(np.float64, copy=False).view(np.uint64)
        keys, inverse = np.unique(bits, return_inverse=True)
        text = [_FLOAT.format(x) for x in keys.view(np.float64).tolist()]
    else:
        keys, inverse = np.unique(col, return_inverse=True)
        text = [str(x) for x in keys.tolist()]
    return np.array(text, dtype=np.bytes_)[inverse]


def _csv_block(columns: list[np.ndarray]) -> bytes:
    """CSV lines of equal-length columns: the cells laid side by side in one
    byte matrix with ',' and '\\n' columns, then the NUL padding dropped."""
    cells = [_csv_cells(col) for col in columns]
    rows = len(cells[0])
    widths = [c.dtype.itemsize for c in cells]
    block = np.empty((rows, sum(widths) + len(cells)), dtype=np.uint8)
    at = 0
    for c, width in zip(cells, widths):
        block[:, at:at + width] = c.view(np.uint8).reshape(rows, width)
        block[:, at + width] = ord(",")
        at += width + 1
    block[:, -1] = ord("\n")
    flat = block.ravel()
    return flat[flat != 0].tobytes()


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


def _pmap(fn, items, threads: int):
    """Map preserving item order; results independent of thread count."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# --- subcommands ----------------------------------------------------------------


def cmd_estimate(cfg: dict, seed: int, threads: int, writer: RunWriter) -> dict:
    _require_keys(
        cfg,
        ("experiment", "n", "k", "channel"),
        ("covering", "epsilon", "delta", "samples", "clamp"),
        "estimate config",
    )
    n = _int(cfg["n"], "n", 1)
    k = _int(cfg["k"], "k", 0, n)
    cov = _covering(cfg.get("covering", "mub"), n - k)
    if "samples" in cfg:
        total = _int(cfg["samples"], "samples")
    else:
        if "epsilon" not in cfg or "delta" not in cfg:
            raise ConfigError("estimate config needs samples or epsilon+delta")
        total = required_samples(n, k, _float(cfg["epsilon"], "epsilon"),
                                 _float(cfg["delta"], "delta"), len(cov.groups))
    channel = build_channel(cfg["channel"], n, derive_rng(seed, "channel"))
    est = estimate_alg1(channel, k, cov, total, derive_rng(seed, "shots"))
    if cfg.get("clamp", False):
        est = est.clamp()
    writer.write_columns(
        "estimates", ["label", "lambda_hat", "n_shots", "stderr"],
        [format_labels(est.label_list(), n), est.lambda_hat, est.n_shots,
         est.stderr])
    return {
        "samples": total,
        "rounds_per_group": total // len(cov.groups),
        "covering_size": len(cov.groups),
        "max_estimate": float(np.max(est.lambda_hat)),
        "min_estimate": float(np.min(est.lambda_hat)),
    }


def cmd_benchmark(cfg: dict, seed: int, threads: int, writer: RunWriter) -> dict:
    _require_keys(
        cfg,
        ("experiment", "n", "gate", "shots_per_m"),
        ("m_list", "spam_depolarizing", "spam_sweep", "prep", "meas"),
        "benchmark config",
    )
    n = _int(cfg["n"], "n", 1)
    gate = build_channel(cfg["gate"], n, derive_rng(seed, "gate-channel"))
    m_list = [_int(m, "m_list entry", 0)
              for m in _list(cfg.get("m_list", list(DEFAULT_LENGTHS)), "m_list")]
    shots = _int(cfg["shots_per_m"], "shots_per_m", 1)
    explicit_spam = "prep" in cfg or "meas" in cfg
    if explicit_spam and ("spam_sweep" in cfg or "spam_depolarizing" in cfg):
        raise ConfigError("give either prep/meas channels or a SPAM rate, not both")
    if "spam_sweep" in cfg:
        rates = [_float(r, "spam_sweep entry")
                 for r in _list(cfg["spam_sweep"], "spam_sweep")]
    elif "spam_depolarizing" in cfg:
        rates = [_float(cfg["spam_depolarizing"], "spam_depolarizing")]
    else:
        rates = [0.0]

    def one_rate(rate: float):
        if explicit_spam:
            prep = build_channel(cfg["prep"], n, derive_rng(seed, "prep-channel")) \
                if "prep" in cfg else PauliChannel.identity(n)
            meas = build_channel(cfg["meas"], n, derive_rng(seed, "meas-channel")) \
                if "meas" in cfg else PauliChannel.identity(n)
            model = NoiseModel(n, gate, prep, meas)
        else:
            model = NoiseModel.with_depolarizing_spam(gate, rate)
        rng = derive_rng(seed, "benchmark", _FLOAT.format(rate))
        return benchmark_alg2(model, m_list, shots, rng)

    results = _pmap(one_rate, rates, threads)
    names = [format_bits(lbl, n)
             for lbl in results[0].estimates.label_list().tolist()]
    est_rows = []
    decay_rows = []
    for rate, res in zip(rates, results):
        rate_s = _FLOAT.format(rate)
        est = res.estimates
        est_rows += [[rate_s, name, lam, cnt, se] for name, lam, cnt, se in zip(
            names, est.lambda_hat.tolist(), est.n_shots.tolist(),
            est.stderr.tolist())]
        lengths = list(zip(res.lengths.tolist(), res.shots.tolist()))
        for name, f_col in zip(names, res.f_mean.T.tolist()):
            decay_rows += [[rate_s, name, m, fm, r]
                           for (m, r), fm in zip(lengths, f_col)]
    writer.write_table("estimates",
                       ["spam_rate", "label", "lambda_hat", "n_shots", "stderr"],
                       est_rows)
    writer.write_table("decays",
                       ["spam_rate", "label", "m", "f_mean", "shots"],
                       decay_rows)
    summary: dict = {
        "fit_errors": {
            _FLOAT.format(rate): {format_bits(lbl, n): msg
                                  for lbl, msg in res.fit_errors.items()}
            for rate, res in zip(rates, results) if res.fit_errors
        },
    }
    if len(results) > 1:
        worst, comparisons, critical = two_sample_consistency(
            [res.estimates for res in results])
        summary["spam_sweep_max_z"] = worst
        summary["spam_sweep_comparisons"] = comparisons
        summary["spam_sweep_z_critical"] = critical
        summary["spam_sweep_consistent"] = bool(worst < critical)
    return summary


def cmd_sweep_ancilla(cfg: dict, seed: int, threads: int,
                      writer: RunWriter) -> dict:
    _require_keys(
        cfg,
        ("experiment", "n", "k_list", "epsilon"),
        ("trials", "success_fraction", "covering", "channel_alpha"),
        "sweep-ancilla config",
    )
    n = _int(cfg["n"], "n", 1)
    if n > 8:
        raise CapabilityError("sweep-ancilla limited to n <= 8 (dense truth)")
    k_list = [_int(k, "k_list entry", 0, n) for k in _list(cfg["k_list"], "k_list")]
    epsilon = _float(cfg["epsilon"], "epsilon")
    trials = _int(cfg.get("trials", 20), "trials", 1)
    frac = _float(cfg.get("success_fraction", 0.9), "success_fraction")
    if not 0.0 < frac < 1.0:
        raise ConfigError(f"success_fraction must lie in (0, 1), got {frac}")
    alpha = _float(cfg.get("channel_alpha", 1.0), "channel_alpha")
    needed = int(np.ceil(frac * trials))
    covering_kind = cfg.get("covering", "mub")

    rows = []
    summary = {}
    for k in k_list:
        cov = _covering(covering_kind, n - k)
        size = len(cov.groups)
        channels = [
            PauliChannel.random_dirichlet(n, derive_rng(seed, "sweep-ch", k, t),
                                          alpha)
            for t in range(trials)
        ]
        truths = [ch.eigenvalues for ch in channels]

        def trial_ok(args) -> bool:
            rounds, t = args
            rng = derive_rng(seed, "sweep-shots", k, rounds, t)
            est = estimate_alg1(channels[t], k, cov, rounds * size, rng)
            return bool(est.max_abs_error(truths[t]) <= epsilon)

        def probe(rounds: int, early_stop: bool = True) -> tuple[bool, int]:
            # trials run in chunks of `threads` and are tallied in trial
            # order, so the stopping point is the same at any thread count
            successes = 0
            chunk = max(threads, 1) if early_stop else trials
            for start in range(0, trials, chunk):
                stop = min(start + chunk, trials)
                oks = _pmap(trial_ok, [(rounds, t) for t in range(start, stop)],
                            threads)
                for t, ok in enumerate(oks, start + 1):
                    successes += ok
                    if early_stop and (successes >= needed
                                       or t - successes > trials - needed):
                        return successes >= needed, successes
            return successes >= needed, successes

        base = required_samples(n, k, epsilon, 1.0 - frac, size) // size
        hi = max(base, 2)
        while not probe(hi)[0]:
            hi *= 2
            if hi > base * 64:
                raise PauliBenchError(
                    f"sweep-ancilla: no passing budget found below {hi} rounds"
                )
        lo = 1
        if probe(lo)[0]:
            hi = lo
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid)[0]:
                hi = mid
            else:
                lo = mid
        # confirmation pass without early stopping, reported in the table
        _, confirmed = probe(hi, early_stop=False)
        rows.append([k, size, hi, hi * size, confirmed, trials])
        summary[str(k)] = {"rounds_min": hi, "n_min": hi * size}
    writer.write_table(
        "sweep",
        ["k", "covering_size", "rounds_min", "n_min", "successes", "trials"],
        rows,
    )
    return summary


_DISCRIMINATE_MODES = ("bell", "ancilla-free")


def _discriminate_trial(n: int, mode: str, seed: int, trial: int,
                        max_shots: int) -> tuple[str, str, int]:
    """Sequential decision between the fully-depolarizing channel and a
    random spike channel; returns (truth, declared, shots).

    The running log-likelihood ratio of the composite spike hypothesis
    against the depolarizing one is log2(sum over alive candidates of
    2^consistent-own-group-shots) + shots-in-favor - log2(4^n - 1); the
    trial stops at posterior 0.9, i.e. |log2 ratio| >= log2(9).
    """
    rng = derive_rng(seed, "discriminate", mode, n, trial)
    spike_truth = bool(rng.integers(0, 2))
    a_true = int(rng.integers(1, 4**n)) if spike_truth else 0
    truth = f"spike:{format_bits(a_true, n)}" if spike_truth else "dep"
    if spike_truth:
        channel = PauliChannel.spike(n, a_true, +1)
    else:
        channel = PauliChannel.fully_depolarizing(n)
    count = 4**n - 1
    log2_threshold = float(np.log2(9.0))  # posterior 0.9 under equal priors
    if mode == "bell":
        labels = np.arange(1, 4**n, dtype=np.uint64)
        alive = np.ones(labels.shape, dtype=bool)
        for shot in range(1, max_shots + 1):
            b = np.uint64(channel.sample(rng))
            alive &= symp_u64(labels, b) == 0
            n_alive = int(alive.sum())
            if n_alive == 0:
                return truth, "dep", shot
            log2_ratio = shot + float(np.log2(n_alive)) - float(np.log2(count))
            if log2_ratio <= -log2_threshold:
                return truth, "dep", shot
            if n_alive == 1 and log2_ratio >= log2_threshold:
                winner = int(labels[int(np.argmax(alive))])
                return truth, f"spike:{format_bits(winner, n)}", shot
        return truth, "undecided", max_shots
    cov = mub_covering(n)
    # elements() is indexed by coefficient vector, so member i + 1 of every
    # group has alpha = i + 1
    group_members = [np.asarray(grp.elements()[1:], dtype=np.int64)
                     for grp in cov.groups]
    alphas = np.arange(1, 2**n, dtype=np.uint64)
    hits = np.zeros(4**n, dtype=np.float64)  # consistent own-group shots
    alive_full = np.ones(4**n, dtype=bool)
    alive_full[0] = False
    for shot in range(1, max_shots + 1):
        gi = (shot - 1) % len(cov.groups)
        grp = cov.groups[gi]
        e = np.uint64(grp.syndrome(channel.sample(rng)))
        members = group_members[gi]
        consistent = (np.bitwise_count(alphas & e) & np.uint64(1)) == 0
        alive_full[members[~consistent]] = False
        survivors = members[consistent]
        hits[survivors[alive_full[survivors]]] += 1.0
        live = np.nonzero(alive_full)[0]
        if live.size == 0:
            return truth, "dep", shot
        peak = float(hits[live].max())
        log2_ratio = peak + float(
            np.log2(np.exp2(hits[live] - peak).sum())
        ) - float(np.log2(count))
        if log2_ratio <= -log2_threshold:
            return truth, "dep", shot
        if live.size == 1 and log2_ratio >= log2_threshold:
            return truth, f"spike:{format_bits(int(live[0]), n)}", shot
    return truth, "undecided", max_shots


def cmd_discriminate(cfg: dict, seed: int, threads: int,
                     writer: RunWriter) -> dict:
    _require_keys(
        cfg,
        ("experiment", "n_list", "trials"),
        ("modes", "max_shots"),
        "discriminate config",
    )
    n_list = [_int(n, "n_list entry", 1) for n in _list(cfg["n_list"], "n_list")]
    if max(n_list) > 10:
        raise CapabilityError("discriminate limited to n <= 10")
    trials = _int(cfg["trials"], "trials", 1)
    modes = _list(cfg.get("modes", list(_DISCRIMINATE_MODES)), "modes")
    for mode in modes:
        if mode not in _DISCRIMINATE_MODES:
            raise ConfigError(f"unknown discriminate mode {mode!r}")
    max_shots = _int(cfg.get("max_shots", 100_000), "max_shots", 1)
    rows = []
    summary = {}
    for mode in modes:
        for n in n_list:
            results = _pmap(
                lambda t: _discriminate_trial(n, mode, seed, t, max_shots),
                list(range(trials)), threads,
            )
            shots_correct = []
            for t, (truth, declared, shots) in enumerate(results):
                correct = int(declared == truth)
                rows.append([mode, n, t, truth, declared, correct, shots])
                if correct:
                    shots_correct.append(shots)
            rate = len(shots_correct) / trials
            summary[f"{mode}:n={n}"] = {
                "success_rate": rate,
                "median_shots": float(np.median(shots_correct))
                if shots_correct else None,
            }
    writer.write_table(
        "discriminate",
        ["mode", "n", "trial", "truth", "declared", "correct", "shots"],
        rows,
    )
    return summary


def cmd_verify(level: str, seed: int, writer: RunWriter | None) -> int:
    results = run_checks(level, seed)
    lines = []
    for res in results:
        print(res.line())
        lines.append(res.line())
    if writer is not None:
        writer.write_text("verify.txt", "\n".join(lines) + "\n")
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
            code = cmd_verify(args.level, seed, writer)
            if writer is not None:
                writer.finish("verify", {"level": args.level}, seed, 1)
            return code
        cfg = _load_config(args.config)
        expected = args.command.replace("-", "_")
        declared = str(cfg.get("experiment", expected)).replace("-", "_")
        if declared != expected:
            raise ConfigError(
                f"config experiment {cfg.get('experiment')!r} does not match "
                f"subcommand {args.command!r}"
            )
        cfg.setdefault("experiment", expected)
        seed = _int(args.seed if args.seed is not None else cfg.get("seed", 0),
                    "seed", 0)
        config_echo = dict(cfg)
        config_echo["seed"] = seed
        writer = RunWriter(args.out, args.format)
        handler = {
            "estimate": cmd_estimate,
            "benchmark": cmd_benchmark,
            "sweep-ancilla": cmd_sweep_ancilla,
            "discriminate": cmd_discriminate,
        }[args.command]
        body = dict(cfg)
        body.pop("seed", None)
        summary = handler(body, seed, args.threads, writer)
        if args.gnuplot and args.command == "sweep-ancilla":
            writer.write_text("sweep.gp", _GNUPLOT_SWEEP)
        writer.finish(args.command, config_echo, seed, args.threads, summary)
        return 0
    except (ConfigError, UsageError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
