import numpy as np
import pytest

from paulibench import (
    CapabilityError,
    Covering,
    StabilizerGroup,
    UsageError,
    mub_covering,
    pauli_basis_covering,
    verify_covering,
)
from paulibench.pauli import format_bits, parse_bits, symp
from paulibench.stabilizer import pairing_with_syndrome

Z1 = StabilizerGroup(1, (parse_bits("Z", 1),))


def test_syndrome_examples():
    assert Z1.syndrome(parse_bits("X", 1)) == 1
    assert Z1.syndrome(parse_bits("Z", 1)) == 0
    assert Z1.syndrome(0) == 0
    labels = np.array([parse_bits(p, 1) for p in "XZIY"], dtype=np.uint64)
    assert Z1.syndromes(labels).tolist() == [1, 0, 0, 1]


def test_vectorized_syndromes_match_scalar():
    for m in (1, 2, 3):
        labels = np.arange(4**m, dtype=np.uint64)
        for grp in mub_covering(m).groups:
            fast = grp.syndromes(labels)
            assert fast.dtype == np.uint64
            assert fast.tolist() == [grp.syndrome(c) for c in range(4**m)]
    with pytest.raises(UsageError):
        Z1.syndromes(np.array([4], dtype=np.uint64))
    with pytest.raises(UsageError):
        Z1.syndrome(4)


def test_element_examples():
    assert Z1.element(0) == 0
    assert Z1.element(1) == parse_bits("Z", 1)
    zz = StabilizerGroup(2, (parse_bits("ZI", 2), parse_bits("IZ", 2)))
    assert zz.element(0b11) == parse_bits("ZZ", 2)


def test_pairing_examples():
    assert pairing_with_syndrome(0, 0b11) == 0
    assert pairing_with_syndrome(0b10, 0) == 0
    assert pairing_with_syndrome(0b01, 0b11) == 1


def test_syndrome_linearity():
    rng = np.random.default_rng(0)
    for grp in mub_covering(3).groups[:4]:
        for _ in range(50):
            c1, c2 = (int(x) for x in rng.integers(0, 4**3, size=2))
            assert grp.syndrome(c1 ^ c2) == grp.syndrome(c1) ^ grp.syndrome(c2)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pairing_equals_symplectic_product(m):
    # the correctness core of the estimator sign: alpha . syndrome(c) = <s, c>
    for grp in list(mub_covering(m).groups) + list(pauli_basis_covering(min(m, 2)).groups if m <= 2 else []):
        if grp.m != m:
            continue
        for alpha in range(2**m):
            s = grp.element(alpha)
            for c in range(4**m):
                e = grp.syndrome(c)
                assert pairing_with_syndrome(alpha, e) == symp(s, c)


def test_group_validation():
    with pytest.raises(UsageError, match="anticommute"):
        StabilizerGroup(2, (parse_bits("XI", 2), parse_bits("ZI", 2)))
    with pytest.raises(UsageError, match="dependent"):
        StabilizerGroup(2, (parse_bits("ZZ", 2), parse_bits("ZZ", 2)))
    with pytest.raises(UsageError):
        StabilizerGroup(2, (parse_bits("ZI", 2),))


def test_membership_and_coefficients():
    grp = StabilizerGroup(2, (parse_bits("XZ", 2), parse_bits("ZY", 2)))
    elems = grp.elements()
    assert len(set(elems)) == 4
    for alpha, lbl in enumerate(elems):
        assert grp.contains(lbl)
        assert grp.coefficients(lbl) == alpha
    outside = [lbl for lbl in range(16) if lbl not in elems]
    for lbl in outside:
        assert not grp.contains(lbl)
        assert grp.coefficients(lbl) is None


def test_mub_m1_is_xyz():
    cov = mub_covering(1)
    gens = {grp.generators[0] for grp in cov.groups}
    assert gens == {parse_bits("X", 1), parse_bits("Y", 1), parse_bits("Z", 1)}


def test_mub_m0_single_trivial_group():
    cov = mub_covering(0)
    assert len(cov.groups) == 1
    assert cov.groups[0].generators == ()
    assert verify_covering(cov).ok


@pytest.mark.parametrize("m", range(1, 7))
def test_mub_covering_partitions(m):
    cov = mub_covering(m)
    assert len(cov.groups) == 2**m + 1
    seen = np.zeros(4**m, dtype=int)
    for grp in cov.groups:
        elems = grp.elements()
        assert len(set(elems)) == 2**m
        for lbl in elems:
            seen[lbl] += 1
    assert seen[0] == 2**m + 1
    assert np.all(seen[1:] == 1)  # exact partition of nonidentity labels
    assert verify_covering(cov).ok
    # pairwise intersections are trivial, so sizes add up exactly
    assert len(cov.groups) * (2**m - 1) == 4**m - 1


def test_mub_capability_limit():
    with pytest.raises(CapabilityError):
        mub_covering(17)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_pauli_basis_covering(m):
    cov = pauli_basis_covering(m)
    assert len(cov.groups) == 3**m
    assert verify_covering(cov).ok
    if m == 1:
        gens = {grp.generators[0] for grp in cov.groups}
        assert gens == {parse_bits(t, 1) for t in "XYZ"}


def test_pauli_basis_coverage_counts():
    cov = pauli_basis_covering(2)
    assert len(cov.groups) == 9
    xi = parse_bits("XI", 2)
    # a weight-1 label lies in every group agreeing on its support
    assert len(cov.coverage(xi)) == 3
    yy = parse_bits("YY", 2)
    assert len(cov.coverage(yy)) == 1


def test_coverage_map_matches_scan():
    cov = mub_covering(3)
    cover = cov.coverage_map()
    for lbl in range(4**3):
        assert tuple(cover[lbl]) == cov.coverage(lbl)


def test_verify_covering_negative_control():
    cov = mub_covering(3)
    removed = cov.groups[4]
    mutilated = Covering(3, cov.groups[:4] + cov.groups[5:], "custom")
    report = verify_covering(mutilated)
    assert not report.ok
    expected = sorted(set(removed.elements()) - {0})
    assert sorted(report.uncovered) == expected


def test_verify_covering_capability():
    with pytest.raises(CapabilityError):
        verify_covering(Covering(11, (), "custom"))


def test_covering_json_round_trip():
    cov = mub_covering(2)
    text = cov.dumps()
    back = Covering.loads(text)
    assert back.m == cov.m and back.kind == cov.kind
    assert all(
        a.generators == b.generators for a, b in zip(back.groups, cov.groups)
    )
    assert format_bits(back.groups[0].generators[0], 2) in text


def test_mub_partition_beyond_verify_cap():
    cov = mub_covering(8)
    assert len(cov.groups) == 2**8 + 1
    seen = np.zeros(4**8, dtype=np.int32)
    for grp in cov.groups:
        seen[np.asarray(grp.elements())] += 1
    assert seen[0] == 2**8 + 1
    assert np.all(seen[1:] == 1)
