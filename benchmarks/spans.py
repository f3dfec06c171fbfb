"""Span tracing around the public functions of every paulibench layer.

`Tracer.install` wraps each public function and each public method of each
public class of the layer modules, and rebinds every module attribute that
refers to a wrapped function, because modules bind imported names at
import time (`cli.estimate_alg1`, `estimation.wht_forward`, ...).
`Tracer.remove` restores every name.  Nothing in the library changes.

A span is (name, start, end, parent, iteration).  Calls with the same name
under the same parent span are merged into one record that keeps the call
count, the summed duration, the first start and the last end; that keeps
the million `format_bits` calls of a 4^10-row table to one record.  Records
stay in memory; `layer_metrics` reduces them once at the end.

A record's self time is its summed duration minus the summed durations of
its child records.  The root record of each iteration belongs to the
harness, so the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from paulibench.errors import FitError

LAYERS = ("cli", "estimation", "sampler", "channels", "stabilizer", "gf2m",
          "pauli", "seeding", "dense_oracle", "verify")
HARNESS = "harness"


@dataclass(slots=True)
class Record:
    name: str
    parent: int  # index of the parent record, -1 for an iteration root
    iteration: int
    calls: int = 0
    total: float = 0.0
    start: float | None = None
    end: float | None = None
    children: dict[str, int] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Counters read from the arguments, result or exception of one call:
# probe(counters, args, kwargs, result, exc).


def _add(counters: dict, key: str, amount: float):
    counters[key] = counters.get(key, 0) + amount


def _probe_sample(c, args, kwargs, result, exc):
    size = _arg(args, kwargs, 2, "size")
    _add(c, "channels.sample_draws", 1 if size is None else int(size))


def _probe_alg1(c, args, kwargs, result, exc):
    _add(c, "sampler.alg1_rounds", int(_arg(args, kwargs, 4, "rounds")))


def _probe_alg2(c, args, kwargs, result, exc):
    shots = int(_arg(args, kwargs, 3, "shots"))
    _add(c, "sampler.alg2_shots", shots)
    _add(c, "sampler.alg2_gate_draws",
         shots * (int(_arg(args, kwargs, 1, "m")) + 1))


def _probe_fit(c, args, kwargs, result, exc):
    _add(c, "estimation.fit_errors", int(isinstance(exc, FitError)))


def _probe_wht(c, args, kwargs, result, exc):
    # computed, not measured: one float64 read and write of the whole
    # array for the input copy and for each of the n radix-4 passes
    if result is not None:
        digits = (result.shape[-1].bit_length() - 1) // 2
        _add(c, "channels.wht_bytes", 2 * result.nbytes * (digits + 1))


def _probe_written(c, args, kwargs, result, exc):
    if result is not None:
        _add(c, "cli.bytes_out", result.stat().st_size)


def _probe_finish(c, args, kwargs, result, exc):
    if exc is None:
        _add(c, "cli.bytes_out", (args[0].dir / "run.json").stat().st_size)


def _probe_covering(c, args, kwargs, result, exc):
    if result is not None:
        _add(c, "stabilizer.groups", len(result.groups))


def _probe_checks(c, args, kwargs, result, exc):
    if result is not None:
        _add(c, "verify.checks_failed", sum(not r.ok for r in result))


PROBES = {
    "channels.PauliChannel.sample": _probe_sample,
    "sampler.simulate_rounds_alg1": _probe_alg1,
    "sampler.simulate_alg2_batch": _probe_alg2,
    "estimation.fit_decay": _probe_fit,
    "channels.wht_forward": _probe_wht,
    "channels.wht_inverse": _probe_wht,
    "cli.RunWriter.write_table": _probe_written,
    "cli.RunWriter.write_text": _probe_written,
    "cli.RunWriter.finish": _probe_finish,
    "stabilizer.mub_covering": _probe_covering,
    "stabilizer.pauli_basis_covering": _probe_covering,
    "verify.run_checks": _probe_checks,
}


class Tracer:
    def __init__(self):
        self.records: list[Record] = []
        self.counters: dict[str, float] = {}
        self.iterations = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _child(self, parent: int, name: str) -> int:
        idx = len(self.records)
        self.records.append(Record(name, parent, self.records[parent].iteration))
        self.records[parent].children[name] = idx
        return idx

    @contextmanager
    def iteration(self, number: int):
        """Root span of one workload iteration; its self time is the harness's."""
        idx = len(self.records)
        root = Record(f"{HARNESS}.iteration", -1, number)
        self.records.append(root)
        self._stack.append(idx)
        root.start = time.perf_counter()
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            root.calls = 1
            root.total = root.end - root.start
            self.iterations += 1

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        records, stack, counters = self.records, self._stack, self.counters
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = records[parent].children.get(name)
            if idx is None:
                idx = child(parent, name)
            stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                rec = records[idx]
                rec.calls += 1
                rec.total += end - start
                if rec.start is None:
                    rec.start = start
                rec.end = end
                if probe is not None:
                    probe(counters, args, kwargs, result, exc)

        return functools.update_wrapper(traced, fn)

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = {layer: importlib.import_module(f"paulibench.{layer}")
                   for layer in LAYERS}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(f"{layer}.{attr}", obj)
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "paulibench"
                                   or mod_name.startswith("paulibench.")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])

    def _install_class(self, prefix: str, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, obj))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --- reduction ----------------------------------------------------------------


def _self_times(records: list[Record]) -> list[float]:
    own = [rec.total for rec in records]
    for rec in records:
        if rec.parent >= 0:
            own[rec.parent] -= rec.total
    return own


def _outermost(records: list[Record], names: set[str]) -> float:
    """Summed duration of records in `names` with no ancestor in `names`,
    so that nested calls are not counted twice."""
    total = 0.0
    for rec in records:
        if rec.name not in names:
            continue
        parent = rec.parent
        while parent >= 0 and records[parent].name not in names:
            parent = records[parent].parent
        if parent < 0:
            total += rec.total
    return total


def _calls(records: list[Record], names: set[str]) -> int:
    return sum(rec.calls for rec in records if rec.name in names)


CONSTRUCTORS = {f"channels.PauliChannel.{name}" for name in (
    "from_error_rates", "from_eigenvalues", "from_sparse", "identity",
    "depolarizing", "fully_depolarizing", "spike", "tensor",
    "random_dirichlet", "random_sparse", "from_json", "loads")}
WHT = {"channels.wht_forward", "channels.wht_inverse"}
COVERINGS = {"stabilizer.mub_covering", "stabilizer.pauli_basis_covering"}
WRITES = {"cli.RunWriter.write_table", "cli.RunWriter.write_text",
          "cli.RunWriter.finish"}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a mean over the traced iterations."""
    recs = tracer.records
    per = 1.0 / max(tracer.iterations, 1)
    own = _self_times(recs)

    def self_of(names: set[str]) -> float:
        return sum(t for rec, t in zip(recs, own) if rec.name in names) * per

    def incl(*names: str) -> float:
        return _outermost(recs, set(names)) * per

    def calls(*names: str) -> float:
        return _calls(recs, set(names)) * per

    def count(key: str) -> float:
        return tracer.counters.get(key, 0) * per

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS + (HARNESS,):
        out[f"{layer}.self_s"] = (
            sum(t for rec, t in zip(recs, own) if rec.layer == layer) * per, "s")
    out.update({
        "cli.write_s": (incl(*WRITES), "s"),
        "cli.bytes_out": (count("cli.bytes_out"), "B"),
        "cli.estimate_s": (incl("cli.cmd_estimate"), "s"),
        "cli.benchmark_s": (incl("cli.cmd_benchmark"), "s"),
        "cli.sweep_ancilla_s": (incl("cli.cmd_sweep_ancilla"), "s"),
        "cli.discriminate_s": (incl("cli.cmd_discriminate"), "s"),
        "cli.verify_s": (incl("cli.cmd_verify"), "s"),
        "pauli.format_s": (incl("pauli.format_bits"), "s"),
        "pauli.format_calls": (calls("pauli.format_bits"), "count"),
        "pauli.symp_u64_calls": (calls("pauli.symp_u64"), "count"),
        "sampler.alg1_s": (incl("sampler.simulate_rounds_alg1"), "s"),
        "sampler.alg1_rounds": (count("sampler.alg1_rounds"), "count"),
        "sampler.alg2_s": (incl("sampler.simulate_alg2_batch"), "s"),
        "sampler.alg2_shots": (count("sampler.alg2_shots"), "count"),
        "sampler.alg2_gate_draws": (count("sampler.alg2_gate_draws"), "count"),
        "channels.sample_s": (incl("channels.PauliChannel.sample"), "s"),
        "channels.sample_calls": (calls("channels.PauliChannel.sample"), "count"),
        "channels.sample_draws": (count("channels.sample_draws"), "count"),
        "channels.construct_s": (incl(*CONSTRUCTORS), "s"),
        "channels.wht_s": (incl(*WHT), "s"),
        "channels.wht_calls": (calls(*WHT), "count"),
        "channels.wht_bytes": (count("channels.wht_bytes"), "B_computed"),
        "estimation.alg1_self_s": (self_of({"estimation.estimate_alg1"}), "s"),
        "estimation.alg1_calls": (calls("estimation.estimate_alg1"), "count"),
        "estimation.fit_s": (incl("estimation.fit_decay"), "s"),
        "estimation.fits": (calls("estimation.fit_decay"), "count"),
        "estimation.fit_errors": (count("estimation.fit_errors"), "count"),
        "estimation.alg2_self_s": (self_of({"estimation.benchmark_alg2"}), "s"),
        "seeding.rng_streams": (calls("seeding.derive_rng"), "count"),
        "stabilizer.covering_s": (incl(*COVERINGS), "s"),
        "stabilizer.groups": (count("stabilizer.groups"), "count"),
        "stabilizer.syndrome_calls": (
            calls("stabilizer.StabilizerGroup.syndrome", "stabilizer.syndrome"),
            "count"),
        "gf2m.mul_calls": (calls("gf2m.gf_mul"), "count"),
        "dense_oracle.s": (
            incl(*{rec.name for rec in recs if rec.layer == "dense_oracle"}),
            "s"),
        "verify.checks_failed": (count("verify.checks_failed"), "count"),
    })
    return out
