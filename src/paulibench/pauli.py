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

Scalar helpers (`symp`, `parse_bits`, `format_bits`) take plain ints and
support any n.  The *_u64 helpers act elementwise on numpy uint64 arrays
and therefore require n <= 32; they exist for the hot loops in the samplers
and the estimators.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError, _shown

# value -> letter for a single qubit's two-bit field (x bit is the low bit)
LETTERS = "IXZY"
_LETTER_CODES = np.frombuffer(LETTERS.encode(), dtype=np.uint8)
_LETTER_BITS = {"I": 0, "X": 1, "Z": 2, "Y": 3}

_EVEN_BITS_64 = np.uint64(0x5555555555555555)


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


def format_bits(bits: int, n: int) -> str:
    """Format a raw label int on n qubits as a letter string."""
    return "".join(LETTERS[(bits >> (2 * i)) & 3] for i in range(n))


def parse_bits(text: str, n: int) -> int:
    """Parse a letter string of length n to a raw label int."""
    if len(text) != n:
        raise UsageError(
            f"label {_shown(text)} has {len(text)} letters, expected {n}")
    bits = 0
    for i, ch in enumerate(text):
        try:
            bits |= _LETTER_BITS[ch] << (2 * i)
        except KeyError:
            raise UsageError(
                f"invalid Pauli letter {ch!r} at position {i} in {_shown(text)}"
            ) from None
    return bits


# --- vectorized uint64 versions (n <= 32) ------------------------------------


def symp_u64(a, b) -> np.ndarray:
    """Elementwise symplectic product; `a`, `b` are uint64 scalars/arrays.
    Builds the result in place, with one temporary of the broadcast shape
    beside it."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    one = np.uint64(1)
    # a 0-d array, not a numpy scalar, when both inputs are scalars
    word = np.asarray(a & (b >> one))
    word ^= (a >> one) & b
    word &= _EVEN_BITS_64
    np.bitwise_count(word, out=word)
    word &= one
    return word


def label_column(n: int) -> np.ndarray:
    """The letters of all 4^n labels on 1 <= n <= 32 qubits, in label order,
    as a fixed-width ``S{n}`` array: row b is `format_bits(b, n)`."""
    if not 1 <= n <= 32:
        raise UsageError(f"label_column needs 1 <= n <= 32, got {n}")
    letters = np.empty((4**n, n), dtype=np.uint8)
    letters[:4, 0] = _LETTER_CODES
    for j in range(1, n):
        # rows d * 4^j + r, for digit d of qubit j, repeat row r in the
        # columns below j; whole rows are copied, since columns j and up
        # are written by this step and the later ones
        rows = 4**j
        block = letters[:4 * rows].reshape(4, rows, n)
        block[1:] = letters[:rows]
        block[:, :, j] = _LETTER_CODES[:, None]
    return letters.view(f"S{n}")[:, 0]

