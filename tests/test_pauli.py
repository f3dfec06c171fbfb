import numpy as np
import pytest

from paulibench import (
    PauliLabel,
    UsageError,
    compose,
    format_label,
    parse_label,
    symplectic_product,
    weight,
)
from paulibench.pauli import (
    all_labels,
    format_bits,
    format_labels,
    label_weight,
    symp,
    symp_u64,
)


def test_anticommuting_pair():
    assert symplectic_product(parse_label("X"), parse_label("Z")) == 1


def test_self_product_vanishes():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        for _ in range(20):
            bits = int(rng.integers(0, 4**n))
            a = PauliLabel(bits, n)
            assert symplectic_product(a, a) == 0


def test_disjoint_supports_commute():
    assert symplectic_product(parse_label("XI"), parse_label("IZ")) == 0


def test_mismatched_sizes_rejected():
    with pytest.raises(UsageError):
        symplectic_product(parse_label("X"), parse_label("XI"))
    with pytest.raises(UsageError):
        compose(parse_label("XY"), parse_label("X"))


def test_compose_is_xor():
    y = compose(parse_label("X"), parse_label("Z"))
    assert format_label(y) == "Y"
    a = parse_label("XZYI")
    assert compose(a, a).bits == 0
    b = parse_label("IZXY")
    assert compose(parse_label("IIII"), b) == b


def test_parse_format_round_trip():
    assert format_label(parse_label("IZYX")) == "IZYX"
    assert parse_label("II").bits == 0
    lbl = parse_label("XZ")
    assert lbl.bits & 3 == 1          # qubit 0 = X
    assert (lbl.bits >> 2) & 3 == 2   # qubit 1 = Z


def test_parse_error_reports_position():
    with pytest.raises(UsageError, match="position 2"):
        parse_label("XIQZ")


def test_weight():
    assert weight(parse_label("III")) == 0
    assert weight(parse_label("XIZ")) == 2
    assert weight(parse_label("YYYY")) == 4
    assert label_weight(parse_label("IZXY").bits) == 3


def test_round_trip_exhaustive_small():
    for n in (1, 2, 3):
        seen = set()
        for bits in range(4**n):
            text = format_label(PauliLabel(bits, n))
            assert parse_label(text).bits == bits
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
        labels = all_labels(n)
        for a in range(1, 4**n):
            total = int(symp_u64(np.uint64(a), labels).sum())
            assert total == 4**n // 2


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(2)
    for n in (1, 3, 7, 16, 32):
        a = rng.integers(0, 1 << min(2 * n, 63), size=200, dtype=np.uint64)
        b = rng.integers(0, 1 << min(2 * n, 63), size=200, dtype=np.uint64)
        vec = symp_u64(a, b)
        for ai, bi, vi in zip(a, b, vec):
            assert symp(int(ai), int(bi)) == int(vi)


def test_format_labels_matches_format_bits():
    for n in range(1, 6):
        labels = all_labels(n)
        out = format_labels(labels, n)
        assert out.dtype == np.dtype(f"S{n}")
        assert [x.decode() for x in out.tolist()] == [
            format_bits(b, n) for b in labels.tolist()]
    rng = np.random.default_rng(6)
    for n in (10, 32):
        labels = rng.integers(0, 4**n - 1, size=500, dtype=np.uint64,
                              endpoint=True)
        # n = 32 also needs the top bit pair
        labels[:2] = [4**n - 1, 3 << (2 * n - 2)]
        assert [x.decode() for x in format_labels(labels, n).tolist()] == [
            format_bits(b, n) for b in labels.tolist()]
    with pytest.raises(UsageError):
        format_labels(labels, 33)


def test_label_validation():
    with pytest.raises(UsageError):
        PauliLabel(4, 1)  # needs two qubits
    with pytest.raises(UsageError):
        PauliLabel(-1, 2)
