import pytest

from paulibench.errors import CapabilityError
from paulibench.gf2m import (
    IRREDUCIBLE_POLY,
    MAX_M,
    alpha_powers,
    gf_mul,
    gf_trace,
    trace_masks,
)


def _mulmod_reference(a, b, poly, m):
    # schoolbook carryless multiply, then polynomial long division
    prod = 0
    for i in range(m):
        if (b >> i) & 1:
            prod ^= a << i
    for deg in range(2 * m - 2, m - 1, -1):
        if (prod >> deg) & 1:
            prod ^= poly << (deg - m)
    return prod


def test_table_polynomials_are_irreducible():
    # x^(2^m) == x mod poly, and x^(2^(m/q)) != x for prime divisors q
    for m, poly in IRREDUCIBLE_POLY.items():
        assert poly >> m == 1, f"degree of poly for m={m}"
        if m == 1:
            assert poly == 0b11  # x + 1, trivially irreducible
            continue

        def frob_pow(k):
            x = 2
            for _ in range(k):
                x = _mulmod_reference(x, x, poly, m)
            return x

        assert frob_pow(m) == 2, f"m={m}: x^(2^m) != x"
        q = 2
        mm = m
        primes = set()
        while q * q <= mm:
            while mm % q == 0:
                primes.add(q)
                mm //= q
            q += 1
        if mm > 1:
            primes.add(mm)
        for p in primes:
            assert frob_pow(m // p) != 2, f"m={m}: reducible (subfield {m//p})"


def test_mul_matches_reference():
    import numpy as np

    rng = np.random.default_rng(0)
    for m in range(1, MAX_M + 1):
        poly = IRREDUCIBLE_POLY[m]
        for _ in range(100):
            a, b = (int(x) for x in rng.integers(0, 1 << m, size=2))
            assert gf_mul(a, b, m) == _mulmod_reference(a, b, poly, m)


@pytest.mark.parametrize("m", range(1, 9))
def test_field_axioms_exhaustive(m):
    size = 1 << m
    pairs = [(a, b) for a in range(size) for b in range(size)]
    for a, b in pairs:
        assert gf_mul(a, b, m) == gf_mul(b, a, m)
    # associativity on a deterministic slice of triples
    step = max(1, size // 8)
    sl = range(0, size, step)
    for a in sl:
        for b in sl:
            for c in sl:
                assert gf_mul(gf_mul(a, b, m), c, m) == gf_mul(a, gf_mul(b, c, m), m)
    # unique inverses for nonzero elements
    for a in range(1, size):
        ones = [b for b in range(size) if gf_mul(a, b, m) == 1]
        assert len(ones) == 1


@pytest.mark.parametrize("m", range(1, 9))
def test_distributivity_and_trace(m):
    size = 1 << m
    step = max(1, size // 16)
    sl = list(range(0, size, step)) + [size - 1]
    for a in sl:
        for b in sl:
            for c in sl:
                assert gf_mul(a, b ^ c, m) == gf_mul(a, b, m) ^ gf_mul(a, c, m)
    # trace: GF(2)-valued, linear, and the form (a,b) -> Tr(ab) nondegenerate
    for a in range(size):
        assert gf_trace(a, m) in (0, 1)
        for b in sl:
            assert gf_trace(a ^ b, m) == gf_trace(a, m) ^ gf_trace(b, m)
    for a in range(1, size):
        assert any(gf_trace(gf_mul(a, b, m), m) for b in range(size))


def test_trace_brute_force():
    # Tr(y) = y + y^2 + ... + y^(2^(m-1))
    for m in (1, 2, 3, 4, 6):
        for y in range(1 << m):
            acc = 0
            frob = y
            for _ in range(m):
                acc ^= frob
                frob = gf_mul(frob, frob, m)
            assert acc == gf_trace(y, m)


def test_alpha_powers():
    assert alpha_powers(3, 5) == (1, 2, 4, 3, 6)  # alpha^3 = alpha + 1 for x^3+x+1
    with pytest.raises(CapabilityError):
        gf_mul(1, 1, MAX_M + 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_trace_masks_give_every_trace_exhaustively(m):
    # Tr(c alpha^s) = parity(c & t_s) for every field element c
    masks = trace_masks(m)
    assert len(masks) == 2 * m - 1
    powers = alpha_powers(m, 2 * m - 1)
    for s, t_s in enumerate(masks):
        assert 0 <= t_s < 1 << m
        for c in range(1 << m):
            assert (c & t_s).bit_count() & 1 == gf_trace(gf_mul(c, powers[s], m), m)
