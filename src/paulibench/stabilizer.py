"""Stabilizer groups on m qubits and the coverings used by the estimator.

A stabilizer group is generated by m pairwise-commuting, independent Pauli
labels, i.e. a maximal isotropic subspace of Z_2^(2m).  Syndromes are packed
ints: bit j of `S.syndrome(c)` is the symplectic product of generator j
with the error label c.  `S.syndromes(labels)` is the same map over a
uint64 label array, used by the batch samplers; the scalar form is the
per-label reference the suite checks it against.

The quotient-space pairing <s, e> that appears in the outcome distribution
is represented generator-wise: for s = sum_j alpha_j g_j and an error c
with syndrome e, the product alpha . e (mod 2) equals <s, c> by bilinearity,
independently of which coset representative c is; the estimator's
transform applies it along the m syndrome bits.

Two coverings of the m-qubit Pauli labels are provided:

* `mub_covering`: 2^m + 1 groups from the mutually-unbiased-bases
  construction over GF(2^m).  Writing labels as (x | z) with x, z in
  Z_2^m, the groups are S_inf = {(0 | z)} and, for every field element c,
  S_c = {(x | M_c x)} with M_c[i][j] = Tr(c alpha^i alpha^j).  M_c is
  symmetric, so each S_c is isotropic, and invertibility of the trace form
  makes the nonzero labels a partition: every nonzero label lies in exactly
  one group.
* `pauli_basis_covering`: the 3^m groups generated by one of {X, Y, Z} per
  qubit; experimentally simpler, with overlapping coverage.

A `Covering` is its (G, m) uint64 generator array, row i holding group
i's generators; its constructor checks every row in one pass of array ops
with the messages `StabilizerGroup` raises, and its `groups` are made from
the checked rows when first asked for.  The MUB array comes from the
trace table of `gf2m.trace_masks`: Tr(c alpha^s) = parity(c & t_s), so bit
s of w(c) = sum_s parity(c & t_s) 2^s is M_c[i][j] for every i + j = s,
and column j of S_c has z bits (w(c) >> j) mod 2^m; every field element c
is one entry of a numpy vector, and no temporary outgrows the generator
array.  `element_block` turns generator rows into their (G, 2^m) element
blocks by XOR doubling, the array form of `StabilizerGroup.elements`; the
estimator's label blocks (which the estimator keeps) and the ancilla-free
discrimination are built from it.  `verify_covering` stays on the scalar
`elements` and `symp`, so it checks the array code rather than repeating
it.  Membership is read off `elements`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapabilityError, UsageError
from .gf2m import MAX_M, trace_masks
from .pauli import format_bits, symp, symp_u64

VERIFY_MAX_M = 10
_ARRAY_MAX_M = 32  # a generator is a uint64 of 2m bits


def _echelon(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Row-reduce label ints over GF(2); returns pivot rows, high bit first."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return tuple(basis)


def _generator_rows(m: int, rows) -> np.ndarray:
    """Generator rows, an array or sequences of ints, as a new 2-D uint64
    array; a value no uint64 holds raises `StabilizerGroup`'s message, and
    ragged rows or a value that is not an integer raise UsageError too.  A
    uint64 array is only copied."""
    if m > _ARRAY_MAX_M:
        raise CapabilityError(
            f"stabilizer groups limited to m <= {_ARRAY_MAX_M}, got {m}")
    try:
        gens = np.array(rows, dtype=np.uint64)
    except OverflowError:
        bad = next(g for row in rows for g in row if g < 0 or g >> (2 * m))
        raise UsageError(f"generator {bad:#x} out of range for m={m}") from None
    except (TypeError, ValueError):
        raise UsageError("generator rows must be equal-length rows of "
                         "integers") from None
    if gens.ndim != 2:
        raise UsageError(f"generator array must be 2-D, got {gens.shape}")
    if getattr(rows, "dtype", None) != np.uint64 \
            and not np.array_equal(gens, rows):
        raise UsageError("generators must be non-negative integers")
    return gens


def _check_generators(m: int, gens: np.ndarray):
    """Raise UsageError for the first row of the (G, m) uint64 array `gens`
    that does not generate a stabilizer group: a generator out of range,
    then an anticommuting pair, then linear dependence, as each row's own
    `StabilizerGroup` check would.  One pass of array ops over all rows,
    with no temporary larger than `gens`."""
    if gens.shape[1] != m:
        raise UsageError(f"expected {m} generators, got {gens.shape[1]}")
    if m == 0 or len(gens) == 0:
        return
    out_of_range = np.any(gens >> np.uint64(2 * m), axis=1) if 2 * m < 64 \
        else np.zeros(len(gens), dtype=bool)
    anticommuting = np.zeros(len(gens), dtype=bool)
    for j in range(m - 1):
        anticommuting |= np.any(symp_u64(gens[:, j:j + 1], gens[:, j + 1:]),
                                axis=1)
    # forward elimination, all rows at once: row j is reduced by the rows
    # before it, so it is zero exactly when it depends on them; its lowest
    # set bit is then cleared from the rows after it
    rows = gens.copy()
    dependent = np.zeros(len(gens), dtype=bool)
    for j in range(m):
        row = rows[:, j]
        dependent |= row == 0
        pivot = row & (~row + np.uint64(1))
        later = rows[:, j + 1:]
        later ^= np.where(later & pivot[:, None], row[:, None], np.uint64(0))
    bad = out_of_range | anticommuting | dependent
    if not bad.any():
        return
    g = int(np.argmax(bad))
    row = gens[g].tolist()
    if out_of_range[g]:
        value = next(x for x in row if x >> (2 * m))
        raise UsageError(f"generator {value:#x} out of range for m={m}")
    if anticommuting[g]:
        a, b = next((a, b) for i, a in enumerate(row) for b in row[i + 1:]
                    if symp(a, b))
        raise UsageError(f"generators {format_bits(a, m)} and "
                         f"{format_bits(b, m)} anticommute")
    raise UsageError("generators are linearly dependent")


def element_block(generators: np.ndarray) -> np.ndarray:
    """(G, 2^m) int64 elements of the groups generated by the rows of the
    (G, m) array `generators` (m < 32), column alpha holding the XOR of
    the generators j with bit j of alpha set: the `elements` lists of G
    groups, built at once by XOR doubling."""
    gens = np.asarray(generators).astype(np.int64)
    count, m = gens.shape
    block = np.zeros((count, 1 << m), dtype=np.int64)
    for j in range(m):
        np.bitwise_xor(block[:, :1 << j], gens[:, j:j + 1],
                       out=block[:, 1 << j:2 << j])
    return block


@dataclass(frozen=True)
class StabilizerGroup:
    """m commuting independent generators on m qubits (m <= 32)."""

    m: int
    generators: tuple[int, ...]

    def __post_init__(self):
        gens = _generator_rows(self.m, [self.generators])
        _check_generators(self.m, gens)
        object.__setattr__(self, "generators", tuple(gens[0].tolist()))

    def syndrome(self, c: int) -> int:
        """Packed syndrome of error label c: bit j = <g_j, c>."""
        if c < 0 or c >> (2 * self.m):
            raise UsageError(f"error label {c:#x} out of range for m={self.m}")
        e = 0
        for j, g in enumerate(self.generators):
            e |= symp(g, c) << j
        return e

    def syndromes(self, labels: np.ndarray) -> np.ndarray:
        """Packed syndromes of a uint64 array of error labels, elementwise
        equal to `syndrome`; for the sampler's per-round and per-label
        batches."""
        labels = np.asarray(labels, dtype=np.uint64)
        if 2 * self.m < 64 and np.any(labels >> np.uint64(2 * self.m)):
            raise UsageError(f"error label out of range for m={self.m}")
        e = np.zeros(labels.shape, dtype=np.uint64)
        for j, g in enumerate(self.generators):
            e |= symp_u64(np.uint64(g), labels) << np.uint64(j)
        return e

    def elements(self) -> list[int]:
        """All 2^m elements, indexed by coefficient vector alpha."""
        elems = [0]
        for g in self.generators:
            elems += [e ^ g for e in elems]
        return elems


@dataclass(frozen=True, eq=False)
class Covering:
    """Stabilizer groups jointly containing every label, group i generated
    by row i of the (G, m) uint64 `generator_array`, checked and read-only."""

    m: int
    generator_array: np.ndarray

    def __post_init__(self):
        gens = _generator_rows(self.m, self.generator_array)
        _check_generators(self.m, gens)
        gens.setflags(write=False)
        object.__setattr__(self, "generator_array", gens)

    @cached_property
    def groups(self) -> tuple[StabilizerGroup, ...]:
        """The groups, made from the checked rows without checking again."""
        groups = []
        for row in self.generator_array.tolist():
            # attributes set before the next object is made: making all the
            # objects first took about 740 B a group against 500 B
            grp = object.__new__(StabilizerGroup)
            object.__setattr__(grp, "m", self.m)
            object.__setattr__(grp, "generators", tuple(row))
            groups.append(grp)
        return tuple(groups)


def _spread_bits(x: np.ndarray) -> np.ndarray:
    """Bit i of every uint64 entry below 2^16 moved to bit 2i."""
    for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333),
                        (1, 0x55555555)):
        x = (x | (x << np.uint64(shift))) & np.uint64(mask)
    return x


def _mub_generators(m: int) -> np.ndarray:
    """(2^m + 1, m) uint64 generators of S_inf and then S_c for
    c = 0 .. 2^m - 1: generator j of S_c has x = e_j and z bit i equal to
    M_c[i][j] = Tr(c alpha^(i+j))."""
    cols = np.arange(m, dtype=np.uint64)
    gens = np.empty(((1 << m) + 1, m), dtype=np.uint64)
    gens[0] = np.uint64(2) << (cols << np.uint64(1))  # S_inf: all-Z labels
    c = np.arange(1 << m, dtype=np.uint64)
    w = np.zeros(1 << m, dtype=np.uint64)  # bit s: Tr(c alpha^s)
    for s, t_s in enumerate(trace_masks(m)):
        w |= (np.bitwise_count(c & np.uint64(t_s)) & np.uint8(1)).astype(
            np.uint64) << np.uint64(s)
    z = (w[:, None] >> cols) & np.uint64((1 << m) - 1)
    gens[1:] = (_spread_bits(z) << np.uint64(1)) | (np.uint64(1)
                                                     << (cols << np.uint64(1)))
    return gens


def mub_covering(m: int) -> Covering:
    """Minimal covering of size 2^m + 1 (single trivial group for m = 0)."""
    if m < 0 or m > MAX_M:
        raise CapabilityError(f"mub_covering supports 0 <= m <= {MAX_M}, got {m}")
    if m == 0:
        return Covering(0, np.zeros((1, 0)))
    return Covering(m, _mub_generators(m))


def pauli_basis_covering(m: int) -> Covering:
    """The 3^m single-letter-per-qubit groups, in the order of the words
    over X, Z, Y with qubit 0's letter varying slowest."""
    if m < 0:
        raise UsageError(f"negative m: {m}")
    if 3**m > 1 << 22:
        raise CapabilityError(f"pauli_basis_covering(m={m}) has {3**m} groups")
    word = np.arange(3**m, dtype=np.uint64)
    gens = np.empty((3**m, m), dtype=np.uint64)
    for q in range(m):
        # base-3 digit of qubit q, read as the letter code X=1, Z=2, Y=3
        letter = word // np.uint64(3**(m - 1 - q)) % np.uint64(3) + np.uint64(1)
        gens[:, q] = letter << np.uint64(2 * q)
    return Covering(m, gens)


@dataclass
class CoveringReport:
    ok: bool
    uncovered: list[int]
    problems: list[str]

    def __str__(self):
        if self.ok:
            return "covering ok"
        lines = [f"{len(self.uncovered)} uncovered labels"] + self.problems
        return "; ".join(lines)


def verify_covering(cov: Covering) -> CoveringReport:
    """Exhaustively re-check group invariants and full coverage (m <= 10)."""
    if cov.m > VERIFY_MAX_M:
        raise CapabilityError(
            f"exhaustive covering check limited to m <= {VERIFY_MAX_M}"
        )
    problems = []
    covered = bytearray(4**cov.m)
    for idx, grp in enumerate(cov.groups):
        gens = grp.generators
        for i, gi in enumerate(gens):
            for gj in gens[i + 1:]:
                if symp(gi, gj):
                    problems.append(f"group {idx}: anticommuting generators")
        if len(_echelon(gens)) != len(gens):
            problems.append(f"group {idx}: dependent generators")
        for lbl in grp.elements():
            covered[lbl] = 1
    uncovered = [lbl for lbl in range(4**cov.m) if not covered[lbl]]
    return CoveringReport(not uncovered and not problems, uncovered, problems)
