import numpy as np
import pytest

from paulibench import UsageError
from paulibench.pauli import (
    format_bits,
    label_column,
    parse_bits,
    symp,
    symp_u64,
)


def test_anticommuting_pair():
    assert symp(parse_bits("X", 1), parse_bits("Z", 1)) == 1


def test_self_product_vanishes():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        for _ in range(20):
            a = int(rng.integers(0, 4**n))
            assert symp(a, a) == 0


def test_disjoint_supports_commute():
    assert symp(parse_bits("XI", 2), parse_bits("IZ", 2)) == 0


def test_parse_format_round_trip():
    assert format_bits(parse_bits("IZYX", 4), 4) == "IZYX"
    assert parse_bits("II", 2) == 0
    lbl = parse_bits("XZ", 2)
    assert lbl & 3 == 1          # qubit 0 = X
    assert (lbl >> 2) & 3 == 2   # qubit 1 = Z


def test_parse_error_reports_position():
    with pytest.raises(UsageError, match="position 2"):
        parse_bits("XIQZ", 4)
    # the length is checked before the letters
    with pytest.raises(UsageError, match="has 2 letters, expected 3"):
        parse_bits("XQ", 3)


def test_round_trip_exhaustive_small():
    for n in (1, 2, 3):
        seen = set()
        for bits in range(4**n):
            text = format_bits(bits, n)
            assert parse_bits(text, n) == bits
            seen.add(text)
        assert len(seen) == 4**n


def test_bilinearity_exhaustive_small():
    for n in (1, 2):
        for a in range(4**n):
            for b in range(4**n):
                for c in range(4**n):
                    assert symp(a ^ b, c) == symp(a, c) ^ symp(b, c)


def test_bilinearity_randomized_large():
    rng = np.random.default_rng(1)
    for n in (8, 16):
        for _ in range(300):
            a, b, c = (int(x) for x in rng.integers(0, 4**n, size=3))
            assert symp(a ^ b, c) == symp(a, c) ^ symp(b, c)


def test_anticommutation_balance_exhaustive():
    # for every fixed a != 0 exactly half of all labels anticommute with it
    for n in range(1, 7):
        labels = np.arange(4**n, dtype=np.uint64)
        for a in range(1, 4**n):
            total = int(symp_u64(np.uint64(a), labels).sum())
            assert total == 4**n // 2


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(2)
    for n in (1, 3, 7, 16, 32):
        a = rng.integers(0, 1 << min(2 * n, 63), size=200, dtype=np.uint64)
        b = rng.integers(0, 1 << min(2 * n, 63), size=200, dtype=np.uint64)
        vec = symp_u64(a, b)
        assert vec.dtype == np.uint64
        for ai, bi, vi in zip(a, b, vec):
            assert symp(int(ai), int(bi)) == int(vi)
        # a result larger than either input
        table = symp_u64(a[:20, None], b[None, :30])
        assert table.dtype == np.uint64 and table.shape == (20, 30)
        assert table.tolist() == [[symp(int(ai), int(bi)) for bi in b[:30]]
                                  for ai in a[:20]]


def test_label_column_matches_format_bits():
    for n in range(1, 7):
        out = label_column(n)
        assert out.dtype == np.dtype(f"S{n}") and out.shape == (4**n,)
        assert [x.decode() for x in out.tolist()] == [
            format_bits(b, n) for b in range(4**n)]
    out = label_column(10)
    rows = np.random.default_rng(6).integers(0, 4**10, size=500)
    for b in [0, 4**10 - 1, *rows.tolist()]:
        assert out[b].decode() == format_bits(b, 10)
    for n in (0, 33):
        with pytest.raises(UsageError):
            label_column(n)

