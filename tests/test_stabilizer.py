import ast
import inspect

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
from paulibench import stabilizer
from paulibench.gf2m import alpha_powers, gf_mul, gf_trace
from paulibench.pauli import parse_bits, symp
from paulibench.stabilizer import element_block

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
    assert Z1.elements()[0] == 0
    assert Z1.elements()[1] == parse_bits("Z", 1)
    zz = StabilizerGroup(2, (parse_bits("ZI", 2), parse_bits("IZ", 2)))
    assert zz.elements()[0b11] == parse_bits("ZZ", 2)


def _pairing(alpha: int, e: int) -> int:
    """alpha . e over GF(2), the estimator's sign exponent."""
    return (alpha & e).bit_count() & 1


def _coverage_map(cov) -> list[list[int]]:
    """label -> indices of the groups holding it, by scanning `elements`."""
    cover: list[list[int]] = [[] for _ in range(4**cov.m)]
    for i, grp in enumerate(cov.groups):
        for lbl in grp.elements():
            cover[lbl].append(i)
    return cover


def test_pairing_examples():
    assert _pairing(0, 0b11) == 0
    assert _pairing(0b10, 0) == 0
    assert _pairing(0b01, 0b11) == 1


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
        for alpha, s in enumerate(grp.elements()):
            for c in range(4**m):
                e = grp.syndrome(c)
                assert _pairing(alpha, e) == symp(s, c)


def test_group_validation():
    with pytest.raises(UsageError, match="anticommute"):
        StabilizerGroup(2, (parse_bits("XI", 2), parse_bits("ZI", 2)))
    with pytest.raises(UsageError, match="dependent"):
        StabilizerGroup(2, (parse_bits("ZZ", 2), parse_bits("ZZ", 2)))
    with pytest.raises(UsageError):
        StabilizerGroup(2, (parse_bits("ZI", 2),))


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
    cover = _coverage_map(cov)
    xi = parse_bits("XI", 2)
    # a weight-1 label lies in every group agreeing on its support
    assert len(cover[xi]) == 3
    yy = parse_bits("YY", 2)
    assert len(cover[yy]) == 1


def test_coverage_map_matches_scan():
    # the scalar scan agrees with the array elements, and the MUB groups
    # share only the identity
    cov = mub_covering(3)
    cover = _coverage_map(cov)
    block = element_block(cov.generator_array)
    for lbl in range(4**3):
        assert cover[lbl] == np.flatnonzero((block == lbl).any(axis=1)).tolist()
        assert len(cover[lbl]) == (len(cov.groups) if lbl == 0 else 1)


def test_verify_covering_negative_control():
    cov = mub_covering(3)
    removed = cov.groups[4]
    mutilated = Covering(3, np.delete(cov.generator_array, 4, axis=0))
    report = verify_covering(mutilated)
    assert not report.ok
    expected = sorted(set(removed.elements()) - {0})
    assert sorted(report.uncovered) == expected


def test_verify_covering_capability():
    with pytest.raises(CapabilityError):
        verify_covering(Covering(11, np.zeros((0, 11))))


def test_mub_partition_beyond_verify_cap():
    cov = mub_covering(8)
    assert len(cov.groups) == 2**8 + 1
    seen = np.zeros(4**8, dtype=np.int32)
    for grp in cov.groups:
        seen[np.asarray(grp.elements())] += 1
    assert seen[0] == 2**8 + 1
    assert np.all(seen[1:] == 1)


def _scalar_mub_generators(m):
    # the scalar GF(2^m) loop that built the MUB groups before the trace
    # table: S_inf, then S_c with generator j = (e_j | column j of M_c)
    def interleave(x_bits, z_bits):
        label = 0
        for q in range(m):
            label |= ((x_bits >> q) & 1) << (2 * q)
            label |= ((z_bits >> q) & 1) << (2 * q + 1)
        return label

    if m == 0:
        return [()]
    groups = [tuple(1 << (2 * j + 1) for j in range(m))]
    powers = alpha_powers(m, 2 * m - 1)
    for c in range(1 << m):
        gens = []
        for j in range(m):
            z_col = 0
            for i in range(m):
                if gf_trace(gf_mul(c, powers[i + j], m), m):
                    z_col |= 1 << i
            gens.append(interleave(1 << j, z_col))
        groups.append(tuple(gens))
    return groups


@pytest.mark.parametrize("m", range(11))
def test_mub_generators_equal_scalar_loop(m):
    cov = mub_covering(m)
    expected = _scalar_mub_generators(m)
    assert [grp.generators for grp in cov.groups] == expected
    assert cov.generator_array.dtype == np.uint64
    assert cov.generator_array.tolist() == [list(g) for g in expected]
    assert not cov.generator_array.flags.writeable


def test_pauli_basis_generators_equal_word_loop():
    for m in range(5):
        words = [[]]
        for _ in range(m):
            words = [w + [letter] for w in words for letter in (1, 2, 3)]
        expected = [tuple(w[q] << (2 * q) for q in range(m)) for w in words]
        cov = pauli_basis_covering(m)
        assert [grp.generators for grp in cov.groups] == expected
        assert cov.generator_array.tolist() == [list(g) for g in expected]


def test_element_block_equals_elements():
    for cov in (mub_covering(0), mub_covering(3), pauli_basis_covering(2)):
        block = element_block(cov.generator_array)
        assert block.dtype == np.int64
        assert block.tolist() == [grp.elements() for grp in cov.groups]


def test_custom_covering_generator_array():
    cov = mub_covering(2)
    custom = Covering(2, cov.generator_array[1:3])
    assert custom.generator_array.tolist() == cov.generator_array[1:3].tolist()
    assert Covering(2, np.zeros((0, 2))).generator_array.shape == (0, 2)


_GOOD = ("XI", "IX")
_BAD_GROUPS = {
    "anticommute": (("XI", "ZI"), "generators XI and ZI anticommute"),
    "dependent": (("ZZ", "ZZ"), "generators are linearly dependent"),
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("fault", ["range", "anticommute", "dependent"])
def test_batched_check_rejects_a_bad_group_anywhere(fault, where):
    good = [parse_bits(g, 2) for g in _GOOD]
    if fault == "range":
        bad, message = [parse_bits("XI", 2), 1 << 4], "generator 0x10 out of range"
    else:
        labels, message = _BAD_GROUPS[fault]
        bad = [parse_bits(g, 2) for g in labels]
    rows = [good] * 4
    at = {"first": 0, "middle": 2, "last": 4}[where]
    rows = rows[:at] + [bad] + rows[at:]
    with pytest.raises(UsageError, match=message):
        Covering(2, np.array(rows, dtype=np.uint64))
    # the same message as the group's own check
    with pytest.raises(UsageError, match=message):
        StabilizerGroup(2, tuple(bad))


def test_batched_check_reports_the_first_bad_group():
    # a later out-of-range group does not hide an earlier dependent one,
    # and within a group range beats anticommutation beats dependence
    rows = [[parse_bits("XI", 2), parse_bits("IX", 2)],
            [parse_bits("ZZ", 2), parse_bits("ZZ", 2)],
            [1 << 4, parse_bits("XI", 2)]]
    with pytest.raises(UsageError, match="dependent"):
        Covering(2, np.array(rows, dtype=np.uint64))
    with pytest.raises(UsageError, match="out of range"):
        StabilizerGroup(2, (parse_bits("XI", 2), parse_bits("ZI", 2) | 1 << 4))
    xii, zii = parse_bits("XII", 3), parse_bits("ZII", 3)
    with pytest.raises(UsageError, match="anticommute"):
        StabilizerGroup(3, (xii, zii, xii))
    with pytest.raises(UsageError, match="anticommute"):
        Covering(3, np.array([[xii, zii, xii]], dtype=np.uint64))
    with pytest.raises(UsageError, match="expected 2 generators, got 3"):
        Covering(2, np.zeros((1, 3), dtype=np.uint64))
    with pytest.raises(UsageError, match="out of range"):
        StabilizerGroup(1, (-1,))
    with pytest.raises(CapabilityError):
        StabilizerGroup(33, (0,) * 33)


def test_from_generators_rejects_a_changed_covering():
    gens = mub_covering(2).generator_array.copy()
    gens[3] = [parse_bits("XI", 2), parse_bits("ZI", 2)]
    with pytest.raises(UsageError, match="anticommute"):
        Covering(2, gens)
    with pytest.raises(UsageError, match="expected 2 generators, got 1"):
        Covering(2, gens[:, :1])


def test_verify_covering_stays_scalar():
    # verify_covering is the independent check of the array construction:
    # scalar elements() and symp, none of the array helpers it checks
    banned = {"generator_array", "element_block", "from_generators",
              "_check_generators", "_generator_rows", "_mub_generators",
              "_spread_bits", "trace_masks", "symp_u64", "syndromes"}
    used = set()
    for func in (stabilizer.verify_covering, stabilizer._echelon):
        for node in ast.walk(ast.parse(inspect.getsource(func))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert not used & banned
    assert {"elements", "symp", "_echelon"} <= used
