"""GF(2^m) arithmetic in the polynomial basis, for m = 1..16.

Field elements are ints whose bit i is the coefficient of alpha^i, where
alpha is a root of the fixed irreducible polynomial of degree m below.
The table lists the lexicographically smallest irreducible polynomial of
each degree (m = 8 is the familiar AES polynomial); it is frozen here and
covered by the field-axiom tests.

Only what the mutually-unbiased-bases covering construction needs is
implemented: multiplication, powers of alpha, and the absolute trace
Tr(y) = y + y^2 + ... + y^(2^(m-1)), which maps to GF(2) and is GF(2)-linear.
Linearity also gives `trace_masks`: Tr(c alpha^s) = parity(c & t_s), so the
covering reads every Tr(c alpha^s) off 2m - 1 masks with array ops.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CapabilityError

MAX_M = 16

# degree -> polynomial bits (bit i = coefficient of x^i)
IRREDUCIBLE_POLY = {
    1: 0x3,        # x + 1
    2: 0x7,        # x^2 + x + 1
    3: 0xB,        # x^3 + x + 1
    4: 0x13,       # x^4 + x + 1
    5: 0x25,       # x^5 + x^2 + 1
    6: 0x43,       # x^6 + x + 1
    7: 0x83,       # x^7 + x + 1
    8: 0x11B,      # x^8 + x^4 + x^3 + x + 1
    9: 0x203,      # x^9 + x + 1
    10: 0x409,     # x^10 + x^3 + 1
    11: 0x805,     # x^11 + x^2 + 1
    12: 0x1009,    # x^12 + x^3 + 1
    13: 0x201B,    # x^13 + x^4 + x^3 + x + 1
    14: 0x4021,    # x^14 + x^5 + 1
    15: 0x8003,    # x^15 + x + 1
    16: 0x1002B,   # x^16 + x^5 + x^3 + x + 1
}


def _check_m(m: int):
    if not 1 <= m <= MAX_M:
        raise CapabilityError(f"GF(2^m) supported for 1 <= m <= {MAX_M}, got {m}")


def gf_mul(a: int, b: int, m: int) -> int:
    """Product of two field elements."""
    _check_m(m)
    poly = IRREDUCIBLE_POLY[m]
    top = 1 << m
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return r


@lru_cache(maxsize=None)
def alpha_powers(m: int, count: int) -> tuple[int, ...]:
    """(alpha^0, alpha^1, ..., alpha^(count-1))."""
    _check_m(m)
    powers = [1]
    for _ in range(count - 1):
        powers.append(gf_mul(powers[-1], 2, m))
    return tuple(powers)


@lru_cache(maxsize=None)
def _trace_mask(m: int) -> int:
    # Tr is GF(2)-linear, so Tr(y) = parity(y & mask) with
    # mask bit i = Tr(alpha^i).
    mask = 0
    for i in range(m):
        y = alpha_powers(m, m)[i]
        t = 0
        frob = y
        for _ in range(m):
            t ^= frob
            frob = gf_mul(frob, frob, m)
        # t = y + y^2 + ... + y^(2^(m-1)) lies in {0, 1}
        if t not in (0, 1):
            raise AssertionError(f"trace of alpha^{i} not in GF(2): {t}")
        mask |= t << i
    return mask


def gf_trace(a: int, m: int) -> int:
    """Absolute trace GF(2^m) -> GF(2)."""
    _check_m(m)
    return (a & _trace_mask(m)).bit_count() & 1


@lru_cache(maxsize=None)
def trace_masks(m: int) -> tuple[int, ...]:
    """(t_0, ..., t_(2m-2)) with bit b of t_s equal to Tr(alpha^(b+s)), so
    that Tr(c alpha^s) = parity(c & t_s) for every field element c."""
    _check_m(m)
    powers = alpha_powers(m, 3 * m - 2)
    return tuple(
        sum(gf_trace(powers[b + s], m) << b for b in range(m))
        for s in range(2 * m - 1)
    )
