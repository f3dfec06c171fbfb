"""Stabilizer groups on m qubits and the coverings used by the estimator.

A stabilizer group is generated by m pairwise-commuting, independent Pauli
labels, i.e. a maximal isotropic subspace of Z_2^(2m).  Syndromes are packed
ints: bit j of `S.syndrome(c)` is the symplectic product of generator j
with the error label c.  `S.syndromes(labels)` is the same map over a
uint64 label array, used by the batch samplers; the scalar form serves
per-shot Python-int callers.

The quotient-space pairing <s, e> that appears in the outcome distribution
is represented generator-wise: for s = sum_j alpha_j g_j and an error c
with syndrome e, the product alpha . e (mod 2) equals <s, c> by bilinearity,
independently of which coset representative c is.  `pairing_with_syndrome`
implements exactly that dot product.

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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, UsageError
from .gf2m import MAX_M, alpha_powers, gf_mul, gf_trace
from .pauli import format_bits, parse_bits, symp, symp_u64

VERIFY_MAX_M = 10
_DENSE_MAP_LIMIT = 1 << 22  # total coverage entries kept in memory


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


@dataclass(frozen=True)
class StabilizerGroup:
    """m commuting independent generators on m qubits."""

    m: int
    generators: tuple[int, ...]
    _basis: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(int(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) != self.m:
            raise UsageError(f"expected {self.m} generators, got {len(gens)}")
        for g in gens:
            if g < 0 or g >> (2 * self.m):
                raise UsageError(f"generator {g:#x} out of range for m={self.m}")
        for i, gi in enumerate(gens):
            for gj in gens[i + 1:]:
                if symp(gi, gj):
                    raise UsageError(
                        f"generators {format_bits(gi, self.m)} and "
                        f"{format_bits(gj, self.m)} anticommute"
                    )
        # triangular basis with pivot rows tagged by generator combination
        basis: list[tuple[int, int]] = []
        for j, g in enumerate(gens):
            vec, mask = g, 1 << j
            for bvec, bmask in basis:
                if vec ^ bvec < vec:
                    vec ^= bvec
                    mask ^= bmask
            if vec == 0:
                raise UsageError("generators are linearly dependent")
            basis.append((vec, mask))
            basis.sort(reverse=True)
        object.__setattr__(self, "_basis", tuple(basis))

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

    def element(self, alpha: int) -> int:
        """Group element sum_j alpha_j g_j (label XOR)."""
        out = 0
        for j, g in enumerate(self.generators):
            if (alpha >> j) & 1:
                out ^= g
        return out

    def elements(self) -> list[int]:
        """All 2^m elements, indexed by coefficient vector alpha."""
        elems = [0]
        for g in self.generators:
            elems += [e ^ g for e in elems]
        return elems

    def contains(self, label: int) -> bool:
        return self.coefficients(label) is not None

    def coefficients(self, label: int) -> int | None:
        """alpha with element(alpha) == label, or None if not a member."""
        vec, alpha = label, 0
        for bvec, bmask in self._basis:
            if vec ^ bvec < vec:
                vec ^= bvec
                alpha ^= bmask
        return alpha if vec == 0 else None


def pairing_with_syndrome(alpha: int, e: int) -> int:
    """alpha . e over GF(2); equals <S.element(alpha), c> whenever
    e = S.syndrome(c)."""
    return (alpha & e).bit_count() & 1


@dataclass(frozen=True)
class Covering:
    """A family of stabilizer groups jointly containing every label."""

    m: int
    groups: tuple[StabilizerGroup, ...]
    kind: str = "custom"
    # the estimator's stacked label block per ancilla count k, kept by
    # `sampler.label_chunks` when the whole covering fits in one chunk
    label_blocks: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        for g in self.groups:
            if g.m != self.m:
                raise UsageError(f"group on {g.m} qubits in m={self.m} covering")

    def __len__(self):
        return len(self.groups)

    def coverage(self, label: int) -> tuple[int, ...]:
        """Indices of the groups containing `label`."""
        return tuple(i for i, g in enumerate(self.groups) if g.contains(label))

    def coverage_map(self) -> list[list[int]]:
        """Dense label -> group-indices map (small m only)."""
        total = sum(1 << g.m for g in self.groups)
        if self.m > VERIFY_MAX_M or total > _DENSE_MAP_LIMIT:
            raise CapabilityError(
                f"dense coverage map too large (m={self.m}, {total} entries)"
            )
        cover: list[list[int]] = [[] for _ in range(4**self.m)]
        for i, g in enumerate(self.groups):
            for lbl in g.elements():
                cover[lbl].append(i)
        return cover

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "construction": self.kind,
            "groups": [
                [format_bits(g, self.m) for g in grp.generators]
                for grp in self.groups
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Covering":
        try:
            m = int(obj["m"])
            kind = obj["construction"]
            groups = tuple(
                StabilizerGroup(m, tuple(parse_bits(s, m) for s in gens))
                for gens in obj["groups"]
            )
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed covering JSON: {exc}") from None
        return cls(m, groups, kind)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "Covering":
        return cls.from_json(json.loads(text))


def _interleave(x_bits: int, z_bits: int, m: int) -> int:
    label = 0
    for q in range(m):
        label |= ((x_bits >> q) & 1) << (2 * q)
        label |= ((z_bits >> q) & 1) << (2 * q + 1)
    return label


def mub_covering(m: int) -> Covering:
    """Minimal covering of size 2^m + 1 (single trivial group for m = 0)."""
    if m < 0 or m > MAX_M:
        raise CapabilityError(f"mub_covering supports 0 <= m <= {MAX_M}, got {m}")
    if m == 0:
        return Covering(0, (StabilizerGroup(0, ()),), "mub")
    groups = []
    # S_inf: all-Z labels
    groups.append(StabilizerGroup(m, tuple(1 << (2 * j + 1) for j in range(m))))
    powers = alpha_powers(m, 2 * m - 1)
    for c in range(1 << m):
        gens = []
        for j in range(m):
            z_col = 0
            for i in range(m):
                # M_c[i][j] = Tr(c * alpha^(i+j))
                if gf_trace(gf_mul(c, powers[i + j], m), m):
                    z_col |= 1 << i
            gens.append(_interleave(1 << j, z_col, m))
        groups.append(StabilizerGroup(m, tuple(gens)))
    return Covering(m, tuple(groups), "mub")


def pauli_basis_covering(m: int) -> Covering:
    """The 3^m single-letter-per-qubit groups."""
    if m < 0:
        raise UsageError(f"negative m: {m}")
    if 3**m > 1 << 22:
        raise CapabilityError(f"pauli_basis_covering(m={m}) has {3**m} groups")
    groups = []
    words = [[]]
    for _ in range(m):
        words = [w + [letter] for w in words for letter in (1, 2, 3)]
    for w in words:
        gens = tuple(w[q] << (2 * q) for q in range(m))
        groups.append(StabilizerGroup(m, gens))
    return Covering(m, tuple(groups), "pauli-basis")


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
