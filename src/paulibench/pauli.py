"""Bit-packed n-qubit Pauli labels and their symplectic algebra.

An n-qubit Pauli operator (modulo phase) is encoded as a 2n-bit integer.
Qubit i owns the bit pair (2i, 2i+1), with the x bit first:

    bit 2i   = x_i
    bit 2i+1 = z_i

so the two-bit value of qubit i reads

    0 = I,  1 = X,  2 = Z,  3 = Y.

Qubit 0 lives in the least-significant pair.  Label 0 is the identity.
Text labels like ``"XIZY"`` put qubit 0 leftmost.

Composition of Pauli operators (modulo phase) is XOR of labels.  Two
operators commute iff their symplectic product

    <a, b> = sum_i (x_i(a) z_i(b) + z_i(a) x_i(b))  mod 2

vanishes.  Everything here is pure and operates on immutable values, so
labels can be shared freely across threads.

Scalar helpers (`symp`, `label_weight`) take plain ints and support any n.
The *_u64 helpers act elementwise on numpy uint64 arrays and therefore
require n <= 32; they exist for the hot loops in the samplers and the
estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

# value -> letter for a single qubit's two-bit field (x bit is the low bit)
LETTERS = "IXZY"
_LETTER_CODES = np.frombuffer(LETTERS.encode(), dtype=np.uint8)
_LETTER_BITS = {"I": 0, "X": 1, "Z": 2, "Y": 3}

_EVEN_BITS_64 = np.uint64(0x5555555555555555)


@dataclass(frozen=True)
class PauliLabel:
    """A Pauli operator modulo phase: packed 2n bits plus the qubit count."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise UsageError(f"negative qubit count {self.n}")
        if self.bits < 0 or self.bits >> (2 * self.n):
            raise UsageError(
                f"label bits {self.bits:#x} do not fit in {2 * self.n} bits"
            )

    def __str__(self):
        return format_label(self)


def _require_same_n(a: PauliLabel, b: PauliLabel):
    if a.n != b.n:
        raise UsageError(f"label sizes differ: {a.n} vs {b.n} qubits")


def symp(a: int, b: int) -> int:
    """Symplectic product of two raw label ints (no size checks)."""
    ax_bz = a & (b >> 1)
    az_bx = (a >> 1) & b
    # keep only the x-bit positions, then take the parity of the masked word
    word = (ax_bz ^ az_bx) & _even_mask(max(a.bit_length(), b.bit_length()))
    return _parity(word)


def _even_mask(nbits: int) -> int:
    # 0b...0101 covering at least `nbits` bits
    pairs = (nbits + 1) // 2
    return ((1 << (2 * pairs)) - 1) // 3


def _parity(x: int) -> int:
    return x.bit_count() & 1


def symplectic_product(a: PauliLabel, b: PauliLabel) -> int:
    """Return <a, b> in GF(2); equals 1 iff the operators anticommute."""
    _require_same_n(a, b)
    return symp(a.bits, b.bits)


def compose(a: PauliLabel, b: PauliLabel) -> PauliLabel:
    """Label of the product P_a P_b, with the phase dropped."""
    _require_same_n(a, b)
    return PauliLabel(a.bits ^ b.bits, a.n)


def parse_label(text: str) -> PauliLabel:
    """Parse a per-qubit letter string like "XIZY" (qubit 0 leftmost)."""
    bits = 0
    for i, ch in enumerate(text):
        try:
            bits |= _LETTER_BITS[ch] << (2 * i)
        except KeyError:
            raise UsageError(
                f"invalid Pauli letter {ch!r} at position {i} in {text!r}"
            ) from None
    return PauliLabel(bits, len(text))


def format_label(a: PauliLabel) -> str:
    """Inverse of parse_label."""
    return format_bits(a.bits, a.n)


def format_bits(bits: int, n: int) -> str:
    """Format a raw label int on n qubits as a letter string."""
    return "".join(LETTERS[(bits >> (2 * i)) & 3] for i in range(n))


def parse_bits(text: str, n: int) -> int:
    """Parse a letter string of length n to a raw label int."""
    if len(text) != n:
        raise UsageError(f"label {text!r} has {len(text)} letters, expected {n}")
    return parse_label(text).bits


def weight(a: PauliLabel) -> int:
    """Number of qubits on which the operator acts nontrivially."""
    return label_weight(a.bits)


def label_weight(bits: int) -> int:
    """Weight of a raw label int."""
    support = (bits | (bits >> 1)) & _even_mask(bits.bit_length())
    return support.bit_count()


# --- vectorized uint64 versions (n <= 32) ------------------------------------


def parity_u64(x: np.ndarray) -> np.ndarray:
    """Elementwise bit parity of a uint64 array."""
    return (np.bitwise_count(x) & np.uint64(1)).astype(np.uint64)


def symp_u64(a, b) -> np.ndarray:
    """Elementwise symplectic product; `a`, `b` are uint64 scalars/arrays."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    one = np.uint64(1)
    word = ((a & (b >> one)) ^ ((a >> one) & b)) & _EVEN_BITS_64
    return parity_u64(word)


def format_labels(labels, n: int) -> np.ndarray:
    """Vectorized `format_bits`: uint64 labels on 1 <= n <= 32 qubits to a
    fixed-width ``S{n}`` array of ASCII letter strings."""
    if not 1 <= n <= 32:
        raise UsageError(f"format_labels needs 1 <= n <= 32, got {n}")
    labels = np.asarray(labels, dtype=np.uint64)
    letters = np.empty(labels.shape + (n,), dtype=np.uint8)
    for i in range(n):
        digit = (labels >> np.uint64(2 * i)) & np.uint64(3)
        letters[..., i] = _LETTER_CODES[digit]
    return letters.view(f"S{n}")[..., 0]


def all_labels(n: int) -> np.ndarray:
    """All 4**n raw labels as a uint64 array (n <= 13 to bound memory)."""
    return np.arange(4**n, dtype=np.uint64)
