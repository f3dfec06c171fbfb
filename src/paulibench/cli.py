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
timings, per table its row count, pieces, coded pieces and write time, and
per named stage (`RunWriter.stage`) its seconds.  Every table goes through
one writer, `RunWriter.write_table`, as blocks of numpy columns (`benchmark`
gives one block per SPAM rate), and CSV and JSON share one text layout:
each piece of rows is one record array with a field per column; CSV floats
are written with 17 significant digits (`"{:.17g}".format`).  `estimate`
gives one block per piece, and where the piece's labels share one shot
count its number columns come as one coded group: a row text per distinct
tally, formatted once and taken by each label's code
(`estimation._tally_codes`).  A CSV float column of
_G17_MIN_VALUES or more distinct values gets that text from one exact
integer conversion of them (`_g17`) where 1e-10 <= |x| < 1e14, and from
`format` for the rest (zeros, nan, infinities, subnormals, the values
outside that window) and for smaller columns; its tables are built at import.
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
from .errors import CapabilityError, UsageError, _cut, _shown
from .estimation import (
    DEFAULT_LENGTHS,
    _tally_codes,
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
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, too many digits, or nesting too deep to parse
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
        raise UsageError(f"{where}: unknown keys {_shown(unknown)}")


def _int(value, what: str, minimum: int | None = None,
         maximum: int | None = None) -> int:
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise UsageError(f"{what} must be an integer, got {_shown(value)}")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise UsageError(
            f"{what} must be an integer, got {_shown(value)}") from None
    if minimum is not None and out < minimum:
        raise UsageError(
            f"{what} must be at least {minimum}, got {_shown(out)}")
    if maximum is not None and out > maximum:
        raise UsageError(
            f"{what} must be at most {maximum}, got {_shown(out)}")
    return out


def _float(value, what: str) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(
            f"{what} must be a number, got {_shown(value)}") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list) or not value:
        raise UsageError(
            f"{what} must be a non-empty list, got {_shown(value)}")
    return value


def _distinct(values: list, what: str) -> list:
    if len(set(values)) < len(values):
        raise UsageError(f"{what} repeats an entry: {_shown(values)}")
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
        raise UsageError("channel spec must be an object with 'kind': "
                         f"{_shown(spec)}")
    kind = spec["kind"]
    if kind not in _CHANNEL_KINDS:
        raise UsageError(f"unknown channel kind {_shown(kind)}")
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
                raise UsageError(
                    f"tensor factor must be an object: {_shown(sub)}")
            sub_n = _int(sub.get("n", 1), "tensor factor n", 1, n - consumed)
            inner = {key: val for key, val in sub.items() if key != "n"}
            factors.append(build_channel(inner, sub_n, rng))
            consumed += sub_n
        if consumed != n:
            raise UsageError(f"tensor factors cover {consumed} qubits, expected {n}")
        return PauliChannel.tensor(factors)
    if not isinstance(spec["path"], str):
        raise UsageError("channel file path must be a string: "
                         f"{_shown(spec['path'])}")
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
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        # the library cuts its own echoes; CPython's and numpy's are cut here
        text = str(exc) if isinstance(exc, UsageError) else _cut(str(exc))
        raise UsageError(f"malformed channel file: {text}") from None
    raise UsageError(f"channel file has n={_shown(file_n)}, config says {n}")


def _covering(kind: str, m: int):
    if kind == "mub":
        return mub_covering(m)
    if kind == "pauli-basis":
        return pauli_basis_covering(m)
    raise UsageError(f"unknown covering kind {_shown(kind)}")


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
            raise UsageError(
                f"--format must be csv or json, got {_shown(fmt)}")
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
        integers.  In place of a run of adjacent number columns a block
        may hold one coded group ``(codes, columns)``, whose row r has the
        cells ``column[codes[r]]`` (`estimation._tally_codes`).  Blocks are
        taken one at a time and written in pieces of at most
        `_CSV_CHUNK_ROWS` rows, so no more than one piece is held as text.
        Both formats format each distinct value once (`_cells`) and lay a
        piece out as one record array, a field per column or coded group
        with the separators folded in, whose bytes less their NUL padding
        go to the file (`_text_block`).  A CSV float has 17 significant
        digits; the JSON text is
        ``json.dumps([dict(zip(header, row)) ...], indent=1)`` of the rows
        as Python str, float and int values, as long as every ``S`` column
        is ASCII with no ``"``, ``\\`` or control character: true of every
        one the commands write (label, spam_rate, mode, truth, declared).
        run.json records per table its rows, its `pieces` and how many of
        those held a coded group (`coded_pieces`)."""
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
        rows = pieces = coded = 0
        with path.open("wb") as fh:
            if csv:
                fh.write((",".join(header) + "\n").encode())
            for block in blocks:
                for lo in range(0, _rows(block[0]), _CSV_CHUNK_ROWS):
                    cut = slice(lo, lo + _CSV_CHUNK_ROWS)
                    piece = [(col[0][cut], col[1]) if isinstance(col, tuple)
                             else col[cut] for col in block]
                    fh.write(_text_block(piece, seps, end, csv))
                    rows += _rows(piece[0])
                    pieces += 1
                    coded += any(isinstance(col, tuple) for col in piece)
            if not csv:  # the first row's leading "," becomes "["
                fh.write(b"\n]\n" if rows else b"[]\n")
                fh.seek(0)
                fh.write(b"[")
        self.outputs.append(path.name)
        self.tables[path.name] = {
            "rows": rows,
            "pieces": pieces,
            "coded_pieces": coded,
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


def _cells(col: np.ndarray, csv: bool) -> tuple[np.ndarray, np.ndarray]:
    """A float or integer column as ``(table, inverse)``: the ASCII text of
    its distinct values, an ``S`` array, and each row's index into it, so
    ``table[inverse]`` is the column's text.

    Each distinct number is formatted once: a float with 17 significant
    digits in CSV and as `json.dumps` writes it in JSON, an integer with
    `str` in both.  Floats are keyed on their bit pattern, not their value,
    so -0.0 and 0.0 keep their own text.  A column of one distinct key (a
    constant column, a broadcast view among them) is formatted once,
    without `np.unique`.  The CSV text of _G17_MIN_VALUES or more distinct
    floats comes from one exact array conversion (`_g17`) for those with
    1e-10 <= |x| < 1e14 and from `_FLOAT.format` for the rest; that of
    fewer comes from one `_FLOAT.format` call per value, the faster of the
    two there.  Both give the same bytes."""
    is_float = col.dtype.kind == "f"
    if is_float:
        col = col.astype(np.float64, copy=False).view(np.uint64)
    # one distinct key, tested by min and max: no bool array the size of
    # the piece is made
    if col.size and col.min() == col.max():
        keys, inverse = col[:1], np.broadcast_to(np.intp(0), col.shape)
    else:
        keys, inverse = np.unique(col, return_inverse=True)
    if is_float:
        values = keys.view(np.float64)
        if csv and values.size >= _G17_MIN_VALUES:
            return _g17(values), inverse
        text = list(map(_FLOAT.format if csv else float.__repr__,
                        values.tolist()))
        if not csv:  # NaN, Infinity and -Infinity
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                text[i] = json.dumps(values[i].item())
    else:
        text = list(map(str, keys.tolist()))
    return np.array(text, dtype=np.bytes_), inverse


# `_g17` takes every finite x with _G17_WINDOW[0] <= |x| < _G17_WINDOW[1]:
# there the decimal exponent E of x lies in [-10, 13] (in [-10, 14] once
# rounded), k = 16 - E in [2, 27] even where floor(log10|x|) is one off, so
# 5^k < 2^63, and x = f * 2^q needs a right shift s = -(q + k) in [1, 63]
_G17_WINDOW = (1e-10, 1e14)
_G17_E_MIN, _G17_E_MAX = -10, 14
# the crossover in distinct values below which `_FLOAT.format` per value is
# the faster (`_cells`)
_G17_MIN_VALUES = 192
# values converted at a time: about 400 bytes each are held meanwhile, so a
# piece of 65536 distinct values holds about 3 MB, not 25 MB
_G17_SLICE = 1 << 13
_G17_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_G17_LOW32 = (1 << 32) - 1
# A value's text is gathered from one row of characters: D's 17 digits as
# groups (D // 10^16, then four groups of 4 digits), each a uint32 of four
# ASCII digits (the first padded with 3 "0"s), then _G17_LITERALS, 4 to a
# group.
_G17_GROUPS = np.array([10**16, 10**12, 10**8, 10**4, 1],
                       dtype=np.uint64)[:, None]
_G17_LITERALS = b"-.e0123456789\0\0\0"
_G17_ROW = 4 * len(_G17_GROUPS) + len(_G17_LITERALS)


def _g17_tables():
    """The read-only tables of `_g17`, the module constants below, built at
    import: made during the first table write, they would pin its heap.

    * ``_G17_CHARS``: the uint32 of each digit group 0..9999 (4 ASCII
      digits), then of the literal groups;
    * ``_G17_ENDS``: each digit group's end of significant digits within
      its 4 characters, and -99 for group 0 (no significant digit);
    * ``_G17_LAYOUTS``: for each (E, number of significant digits nd,
      sign), in row ``((E - _G17_E_MIN) * 17 + nd - 1) * 2 + sign``, the
      position of each character of that layout's text in a value's row of
      characters (above), then that of a NUL;
    * ``_G17_SIZES``: each layout's text length.

    A layout follows `%g` at precision 17: fixed notation for
    -4 <= E < 17, ``d.ddd...e±XX`` otherwise, trailing zeros stripped, then
    a bare point, ``-`` in front when the sign bit is set."""
    group = np.arange(10**4)
    chars = np.empty((10**4 + len(_G17_LITERALS) // 4, 4), dtype=np.uint8)
    chars[:10**4] = np.stack([group // p % 10 + 48 for p in (1000, 100, 10, 1)],
                             axis=1)
    chars[10**4:] = np.frombuffer(_G17_LITERALS, np.uint8).reshape(-1, 4)
    trailing = sum(group % p == 0 for p in (10, 100, 1000))
    ends = np.where(group == 0, -99, 4 - trailing).astype(np.int8)
    # a literal's position: behind the digit groups
    literal = {chr(c): 4 * len(_G17_GROUPS) + i
               for i, c in enumerate(_G17_LITERALS)}
    digits = list(range(3, 3 + 17))  # behind the first group's pad
    layouts = []
    for e in range(_G17_E_MIN, _G17_E_MAX + 1):
        for nd in range(1, 18):
            if e >= 0:
                text = digits[:e + 1] + (["."] + digits[e + 1:nd]
                                         if nd > e + 1 else [])
            elif e >= -4:
                text = ["0", "."] + ["0"] * (-e - 1) + digits[:nd]
            else:
                text = digits[:1] + (["."] + digits[1:nd] if nd > 1 else [])
                text += list(f"e{e:+03d}")
            text = [literal.get(c, c) for c in text]
            layouts += [text, [literal["-"]] + text]
    sizes = np.array(list(map(len, layouts)), dtype=np.intp)
    width = int(sizes.max())
    layouts = np.array([row + [literal["\0"]] * (width - len(row))
                        for row in layouts], dtype=np.intp)
    tables = (chars.view(np.uint32).ravel(), ends, layouts, sizes)
    for table in tables:
        table.flags.writeable = False
    return tables


_G17_CHARS, _G17_ENDS, _G17_LAYOUTS, _G17_SIZES = _g17_tables()


def _g17_scaled(f, q, e):
    """For each x = f * 2^q, f < 2^53, and decimal exponent e:
    ``floor(x * 10^k)``, k = 16 - e, and 1 where rounding it half to even
    goes up, else 0.  ``f * 5^k`` is formed exactly as the words
    ``hi * 2^64 + lo`` from 32-bit partial products, then shifted right by
    ``s = -(q + k)``; the round and sticky bits are in ``lo``."""
    k = 16 - e
    c = _G17_POW5[k]
    f0, f1, c0, c1 = f & _G17_LOW32, f >> 32, c & _G17_LOW32, c >> 32
    mid = f1 * c0 + f0 * c1  # < 2^53 + 2^63
    carry_in = mid << 32
    lo = f0 * c0 + carry_in  # mod 2^64
    hi = f1 * c1 + (mid >> 32) + (lo < carry_in)
    s = (-(q + k)).astype(np.uint64)
    floor = (hi << (64 - s)) | (lo >> s)
    below = (1 << s) - 1
    # the bits below s, plus half less one, plus one when floor is odd,
    # reach 2^s exactly when rounding goes up
    up = ((lo & below) + (below >> 1) + (floor & 1)) >> s
    return floor, up


def _g17(values: np.ndarray) -> np.ndarray:
    """``_FLOAT.format`` of each float64 of `values`, as an ``S`` array.

    A finite x in _G17_WINDOW costs no Python call.  Its 17 significant
    digits are the integer ``D = round_half_even(x * 10^(16 - E))``, E its
    decimal exponent, computed exactly in uint64 words (`_g17_scaled`) with
    E from ``floor(log10|x|)``; where that is one off next to a power of
    ten, D falls outside [10^16, 10^17) and those rows are computed again
    with E moved by one, and a rounding carry to 10^17 becomes 10^16 with
    E + 1.  The text is gathered from D's digit characters by the layout of
    its (E, significant digits, sign) (`_g17_tables`).  Every other value
    (zeros, nan, infinities, subnormals, and those outside the window) goes
    through `_FLOAT.format`, which stays the one definition of the text."""
    if values.size > _G17_SLICE:
        return np.concatenate([_g17(values[lo:lo + _G17_SLICE])
                               for lo in range(0, values.size, _G17_SLICE)])
    magnitude = np.abs(values)
    fast = (magnitude >= _G17_WINDOW[0]) & (magnitude < _G17_WINDOW[1])
    bits = values.view(np.uint64)[fast]
    f = (bits & ((1 << 52) - 1)) | (1 << 52)
    q = ((bits >> 52) & 0x7FF).astype(np.int64) - 1075
    e = np.floor(np.log10(magnitude[fast])).astype(np.int64)
    d, up = _g17_scaled(f, q, e)
    low, high = d < 10**16, d >= 10**17
    off = low | high
    if off.any():
        e[off] += high[off].astype(np.int64) - low[off]
        d[off], up[off] = _g17_scaled(f[off], q[off], e[off])
    d += up
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    # D's digit groups, then the literal groups: one column per value
    groups = np.empty((_G17_ROW // 4, d.size), dtype=np.uint64)
    digits = groups[:len(_G17_GROUPS)]
    np.floor_divide(d, _G17_GROUPS, out=digits)
    digits[1:] -= digits[:-1] * 10**4
    groups[len(_G17_GROUPS):] = np.arange(
        10**4, 10**4 + len(_G17_LITERALS) // 4, dtype=np.uint64)[:, None]
    # significant digits: where the last group's significant digits end,
    # less the first group's pad
    nd = np.maximum.reduce(np.take(_G17_ENDS, digits) + np.arange(
        0, 4 * len(_G17_GROUPS), 4)[:, None]) - 3
    layout = ((e - _G17_E_MIN) * 17 + nd - 1) * 2 + (bits >> 63).astype(
        np.int64)
    width = _G17_SIZES[layout].max(initial=1)
    # each value's row of characters, and the position in it of each
    # character of its text
    rows = np.take(_G17_CHARS, groups.T).view(np.uint8).ravel()
    index = np.take(_G17_LAYOUTS[:, :width], layout, axis=0)
    index += np.arange(0, _G17_ROW * d.size, _G17_ROW)[:, None]
    text = np.take(rows, index).view(f"S{width}").ravel()
    if fast.all():
        return text
    rest = np.array(list(map(_FLOAT.format, values[~fast].tolist())),
                    dtype=np.bytes_)
    table = np.empty(values.size, dtype=f"S{max(width, rest.itemsize)}")
    table[fast], table[~fast] = text, rest
    return table


def _rows(col) -> int:
    """The rows of a column, or of a coded group ``(codes, columns)``."""
    return len(col[0] if isinstance(col, tuple) else col)


def _text_block(cols: list, seps: list[bytes], end: bytes,
                csv: bool) -> np.ndarray:
    """Rows of equal-length columns as text, each row ``seps[0]``, its first
    cell, ``seps[1]``, its second cell, ... and `end`, as one uint8 array.

    The piece is one record array.  A number column's field is taken from
    its distinct-text table (`_cells`), into which the text in front of the
    column, and `end` after the last column, are folded; a table of one
    text is assigned to every row.  A coded group ``(codes, columns)``
    fills one field: each short column is formatted by `_cells`, and the
    texts of one code, with the separators between them, are joined into
    one row text, taken by `codes`.  An ``S`` column is assigned into its
    field, behind a constant field of the text in front of it (in JSON,
    with the opening quote).  The record's NUL padding is dropped at the
    end."""
    quote = b"" if csv else b'"'
    seps = iter(seps)
    fields = []  # [text, row indices into it, or None to assign it whole]
    text = b""  # constant text not yet in a field
    for col in cols:
        if isinstance(col, tuple):  # one row text per code
            codes, group = col
            value = text
            for short in group:
                table, inverse = _cells(short, csv)
                value = np.strings.add(value + next(seps), table[inverse])
            fields.append([value, codes])
            text = b""
        elif col.dtype.kind == "S":
            fields += [[np.bytes_(text + next(seps) + quote), None],
                       [col, None]]
            text = quote
        else:
            table, inverse = _cells(col, csv)
            fields.append([np.strings.add(text + next(seps), table),
                           inverse if len(table) > 1 else None])
            text = b""
    text += end
    last = cols[-1]
    if isinstance(last, tuple) or last.dtype.kind != "S":
        fields[-1][0] = np.strings.add(fields[-1][0], text)
    else:
        fields.append([np.bytes_(text), None])
    rec = np.empty(_rows(cols[0]), [(f"f{i}", value.dtype)
                                    for i, (value, _) in enumerate(fields)])
    for i, (value, inverse) in enumerate(fields):
        if inverse is None:
            rec[f"f{i}"] = value
        else:
            np.take(value, inverse, out=rec[f"f{i}"], mode="clip")
    flat = rec.view(np.uint8)
    return flat[flat != 0]


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
    except (OSError, subprocess.SubprocessError):  # no git, or a timeout
        return None


# --- subcommands ----------------------------------------------------------------


def _estimate_blocks(est, labels: np.ndarray):
    """The estimate table's blocks, one per piece, each built as the writer
    reaches it: the piece's labels, then the coded group of its tallies
    (`_tally_codes`) where it has one, else its three number columns."""
    for lo in range(0, labels.size, _CSV_CHUNK_ROWS):
        cut = slice(lo, lo + _CSV_CHUNK_ROWS)
        group = _tally_codes(est, lo, cut.stop)
        yield [labels[cut]] + (
            [est.lambda_hat[cut], est.n_shots[cut], est.stderr[cut]]
            if group is None else [group])


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
                    f"a dense estimate on n={_shown(n)} qubits")
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
            _estimate_blocks(est, label_column(n)))
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
        n, len(set(m_list)), len(rates)),
        f"a dense benchmark on n={_shown(n)} qubits")

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
                    f"a sweep of {_shown(trials)} trials on "
                    f"n={_shown(n)} qubits")

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
            raise UsageError(f"unknown discriminate mode {_shown(mode)}")
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
                f"config experiment {_shown(cfg['experiment'])} does not "
                f"match subcommand {args.command!r}"
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
