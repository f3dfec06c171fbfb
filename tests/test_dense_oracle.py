import ast
import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from paulibench import (CapabilityError, PauliChannel, UsageError,
                        mub_covering, pauli_basis_covering)
from paulibench import dense_oracle as oracle
from paulibench.pauli import parse_bits, symp
from paulibench.sampler import outcome_distribution_alg1
from paulibench.stabilizer import StabilizerGroup
from paulibench.verify import CHECKS

# how far I may exceed the bound, as the `verify` row states it
MUTUAL_INFO_TOL = next(tol for name, tol, *_ in CHECKS
                       if name == "mutual-information-bound")


def test_pauli_matrices():
    x = oracle.pauli_matrix(parse_bits("X", 1), 1)
    z = oracle.pauli_matrix(parse_bits("Z", 1), 1)
    y = oracle.pauli_matrix(parse_bits("Y", 1), 1)
    assert np.allclose(x @ z + 1j * y, 0)  # XZ = -iY
    xz = oracle.pauli_matrix(parse_bits("XZ", 2), 2)
    assert np.allclose(xz, np.kron(x, z))
    for n in (1, 2):
        stack = oracle.pauli_stack(n)
        for a in range(4**n):
            assert np.allclose(stack[a] @ stack[a], np.eye(2**n))
            assert np.allclose(stack[a], stack[a].conj().T)
            for b in range(4**n):
                sign = (-1) ** symp(a, b)
                assert np.allclose(stack[a] @ stack[b],
                                   sign * stack[b] @ stack[a])


def _kron_pauli(bits, n):
    factors = [oracle._PAULI_1Q[(bits >> (2 * q)) & 3] for q in range(n)]
    return functools.reduce(np.kron, factors, np.eye(1, dtype=complex))


def test_pauli_stack_matches_kron_reference_and_is_read_only():
    for n in (0, 1, 2, 3):
        stack = oracle.pauli_stack(n)
        assert stack.shape == (4**n, 2**n, 2**n)
        for a in range(4**n):
            reference = _kron_pauli(a, n)
            assert np.array_equal(stack[a], reference)
            assert np.array_equal(oracle.pauli_matrix(a, n), reference)
        assert oracle.pauli_stack(n) is stack  # built once per qubit count
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        oracle.pauli_matrix(1, 2)[0, 0] = 2.0
    with pytest.raises(UsageError, match="out of range"):
        oracle.pauli_matrix(16, 2)


def test_pauli_matrix_above_cache_keeps_no_stack():
    # a 6-qubit stack would hold 4096 matrices of 64 x 64: 268 MB
    n = oracle.CACHED_STACK_QUBITS + 2
    tracemalloc.start()
    try:
        mat = oracle.pauli_matrix(4**n - 7, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert np.array_equal(mat, _kron_pauli(4**n - 7, n))


def test_oracle_never_touches_fast_path():
    # the oracle is an independent reference: no sampler or estimator code,
    # no fast transforms and no bit-level syndromes
    tree = ast.parse(Path(oracle.__file__).read_text())
    banned_modules = {"sampler", "estimation"}
    banned_names = {"wht_forward", "wht_inverse", "syndromes"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] not in banned_modules
            assert not {a.name for a in node.names} & (banned_modules
                                                       | banned_names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[-1] in banned_modules
                           for a in node.names)
        elif isinstance(node, ast.Name):
            assert node.id not in banned_names
        elif isinstance(node, ast.Attribute):
            assert node.attr not in banned_names


def test_bell_projector_expansion():
    # Psi_v = 4^-k sum_u (-1)^<u,v> P_u x P_u^T
    for k in (1, 2):
        stack = oracle.pauli_stack(k)
        for v in (0, 1, 4**k - 1):
            direct = oracle.build_bell(v, k)
            expansion = sum(
                (-1) ** symp(u, v) * np.kron(stack[u], stack[u].T)
                for u in range(4**k)
            ) / 4**k
            assert np.max(np.abs(direct - expansion)) < 1e-12


def test_bell_basis_orthonormal_complete():
    for k in (1, 2):
        projs = oracle.bell_projector_stack(k)
        total = projs.sum(axis=0)
        assert np.max(np.abs(total - np.eye(4**k))) < 1e-12
        for v in range(4**k):
            for w in range(4**k):
                overlap = np.trace(projs[v] @ projs[w]).real
                assert abs(overlap - (v == w)) < 1e-12


def test_stabilizer_states():
    z1 = StabilizerGroup(1, (parse_bits("Z", 1),))
    assert np.allclose(oracle.build_stabilizer_state(z1, 0),
                       np.diag([1.0, 0.0]))
    assert np.allclose(oracle.build_stabilizer_state(z1, 1),
                       np.diag([0.0, 1.0]))
    for grp in mub_covering(2).groups:
        states = [oracle.build_stabilizer_state(grp, e) for e in range(4)]
        assert np.max(np.abs(sum(states) - np.eye(4))) < 1e-12
        for e, state in enumerate(states):
            oracle.check_density(state)
            for j, g in enumerate(grp.generators):
                sign = (-1) ** ((e >> j) & 1)
                pauli = oracle.pauli_matrix(g, 2)
                assert np.max(np.abs(pauli @ state - sign * state)) < 1e-12


def _alg1_projector_reference(ch, k, group):
    """p(v, e) as the trace of each Bell x stabilizer projector against the
    channel output, every operator a full matrix built by kron products."""
    n, m = ch.n, ch.n - k
    bells = [oracle.build_bell(v, k) for v in range(4**k)]
    stabs = [oracle.build_stabilizer_state(group, e) for e in range(2**m)]
    rho_in = np.kron(bells[0], stabs[0])
    rho_out = np.zeros_like(rho_in)
    for a in range(4**n):
        op = np.kron(np.eye(2**k), _kron_pauli(a, n))
        rho_out += ch.probability(a) * (op @ rho_in @ op)
    table = np.empty((4**k, 2**m))
    for v in range(4**k):
        for e in range(2**m):
            proj = np.kron(bells[v], stabs[e])
            table[v, e] = np.einsum("ij,ji->", proj, rho_out).real
    return table


def test_alg1_dense_matches_projector_trace_reference():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        for k in range(n + 1):
            ch = PauliChannel.random_dirichlet(n, rng)
            for group in mub_covering(n - k).groups:
                table = oracle.alg1_distribution_dense(ch, k, group)
                reference = _alg1_projector_reference(ch, k, group)
                assert np.max(np.abs(table - reference)) < 1e-12
    # a sparse channel takes the same path
    sparse = PauliChannel.from_sparse(2, [("II", 0.7), ("XY", 0.2), ("ZI", 0.1)])
    group = mub_covering(1).groups[2]
    assert np.max(np.abs(oracle.alg1_distribution_dense(sparse, 1, group)
                         - _alg1_projector_reference(sparse, 1, group))) < 1e-12


def test_apply_pauli_channel_matches_kron_reference():
    rng = np.random.default_rng(13)
    ch = PauliChannel.random_dirichlet(2, rng)
    for wrap in (0, 1, 2):
        dim = 2 ** (2 + wrap)
        rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        reference = np.zeros_like(rho)
        for a in range(16):
            op = np.kron(np.eye(2**wrap), _kron_pauli(a, 2))
            reference += ch.probability(a) * (op @ rho @ op)
        out = oracle.apply_pauli_channel(ch, rho, wrap=wrap)
        assert np.max(np.abs(out - reference)) < 1e-12


def test_stabilizer_state_vectors_span_the_projectors():
    for m in (1, 2, 3):
        for group in mub_covering(m).groups:
            vecs = oracle.stabilizer_state_vectors(group)
            for e, vec in enumerate(vecs):
                proj = oracle.build_stabilizer_state(group, e)
                assert np.max(np.abs(np.outer(vec, vec.conj()) - proj)) < 1e-12


def test_alg1_dense_from_given_stabilizer_states():
    # the table from a group's stabilizer states, built once and handed to
    # every channel (as `verify` does), equals the one built from scratch,
    # for every group of both coverings at n <= 3
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        for k in range(n + 1):
            channels = [PauliChannel.random_dirichlet(n, rng)
                        for _ in range(3)]
            channels.append(PauliChannel.from_sparse(n, [(0, 0.6), (1, 0.4)]))
            coverings = [mub_covering(n - k)]
            if k < n:
                coverings.append(pauli_basis_covering(n - k))
            for group in [g for cov in coverings for g in cov.groups]:
                stabs = oracle.stabilizer_state_vectors(group)
                for ch in channels:
                    assert np.array_equal(
                        oracle.alg1_distribution_dense(ch, k, group, stabs),
                        oracle.alg1_distribution_dense(ch, k, group))


def test_alg1_dense_point_mass():
    grp = mub_covering(1).groups[0]
    table = oracle.alg1_distribution_dense(PauliChannel.identity(2), 1, grp)
    assert table[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_alg1_dense_matches_fast_path():
    rng = np.random.default_rng(0)
    z1 = StabilizerGroup(1, (parse_bits("Z", 1),))
    ch = PauliChannel.depolarizing(2, 0.3)
    dense = oracle.alg1_distribution_dense(ch, 1, z1)
    fast = outcome_distribution_alg1(ch, 1, [z1])[0]
    assert np.max(np.abs(dense - fast)) < 1e-12
    ch2 = PauliChannel.random_dirichlet(3, rng)
    for grp in mub_covering(2).groups[:2]:
        dense = oracle.alg1_distribution_dense(ch2, 1, grp)
        fast = outcome_distribution_alg1(ch2, 1, [grp])[0]
        assert np.max(np.abs(dense - fast)) < 1e-10


def test_alg1_dense_marginals_recover_eigenvalues():
    # inverting the outcome distribution recovers lambda on covered labels
    rng = np.random.default_rng(1)
    ch = PauliChannel.random_dirichlet(2, rng)
    k = 1
    grp = StabilizerGroup(1, (parse_bits("Y", 1),))
    table = oracle.alg1_distribution_dense(ch, k, grp)
    for u in range(4):
        for alpha, s in enumerate(grp.elements()):
            acc = 0.0
            for v in range(4):
                for e in range(2):
                    sign = symp(u, v) ^ ((alpha & e).bit_count() & 1)
                    acc += table[v, e] * (-1.0) ** sign
            label = u | (s << 2)
            assert acc == pytest.approx(float(ch.eigenvalues[label]), abs=1e-10)


def test_choi_state_expansion():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        ch = PauliChannel.random_dirichlet(n, rng)
        choi = oracle.choi_state(ch)
        oracle.check_density(choi)
        stack = oracle.pauli_stack(n)
        expansion = sum(
            ch.eigenvalues[a] * np.kron(stack[a], stack[a].T)
            for a in range(4**n)
        ) / 4**n
        assert np.max(np.abs(choi - expansion)) < 1e-12


def test_teleportation_identity_channel():
    rng = np.random.default_rng(3)
    ch = PauliChannel.identity(1)
    choi = oracle.choi_state(ch)
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec /= np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj())
    probs, states = oracle.teleport_branches(choi, rho)
    assert np.allclose(probs, 0.25, atol=1e-12)
    for state in states:
        assert np.max(np.abs(state - rho)) < 1e-12


def test_teleportation_depolarizing_and_spike():
    rng = np.random.default_rng(4)
    dep = PauliChannel.fully_depolarizing(1)
    rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    _, states = oracle.teleport_branches(oracle.choi_state(dep), rho)
    for state in states:
        assert np.max(np.abs(state - np.eye(2) / 2)) < 1e-12
    spike = PauliChannel.spike(1, parse_bits("Z", 1), +1)
    plus = np.full((2, 2), 0.5)
    expected = oracle.apply_pauli_channel(spike, plus)
    assert np.max(np.abs(expected - np.eye(2) / 2)) < 1e-12
    _, states = oracle.teleport_branches(oracle.choi_state(spike), plus)
    for state in states:
        assert np.max(np.abs(state - expected)) < 1e-10


def test_teleportation_all_branches_random_channels():
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = 1 + trial % 2
        ch = PauliChannel.random_dirichlet(n, rng)
        choi = oracle.choi_state(ch)
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        expected = oracle.apply_pauli_channel(ch, rho)
        probs, states = oracle.teleport_branches(choi, rho)
        assert np.max(np.abs(probs - 4.0**-n)) < 1e-10
        for state in states:
            assert np.max(np.abs(state - expected)) < 1e-10


def test_mutual_info_worked_example():
    # |0> input, computational measurement: I = ln(2)/3 exactly
    vec = np.array([1.0, 0.0], dtype=complex)
    povm = [(0.5, np.array([1.0, 0.0], dtype=complex)),
            (0.5, np.array([0.0, 1.0], dtype=complex))]
    res = oracle.mutual_info_check(1, 0, vec, povm)
    assert res.bound == pytest.approx(1.0)
    assert res.info_nats == pytest.approx(np.log(2) / 3, abs=1e-12)
    assert res.info_nats <= res.bound + MUTUAL_INFO_TOL
    # independent plain-loop entropy evaluation over the 6 channels
    cond = res.conditionals
    mean = cond.mean(axis=0)
    plain = 0.0
    for row in cond:
        for j, p in enumerate(row):
            if p > 0:
                plain += p * (np.log(p) - np.log(mean[j])) / len(cond)
    assert plain == pytest.approx(res.info_nats, abs=1e-12)


def test_mutual_info_bell_strategy():
    # Bell input + Bell measurement at n=k=1: I = ln 2, bound = 2
    bells = oracle.bell_state_vectors(1)
    vec = bells[0]
    povm = [(0.25, bell) for bell in bells]
    res = oracle.mutual_info_check(1, 1, vec, povm)
    assert res.bound == pytest.approx(2.0)
    assert res.info_nats == pytest.approx(np.log(2), abs=1e-12)


def test_mutual_info_random_strategies_obey_bound():
    for n, k in [(1, 0), (1, 1), (2, 0), (2, 2)]:
        rng = np.random.default_rng(10 * n + k)
        for _ in range(25):
            vec, povm = oracle.random_strategy(n, k, rng)
            res = oracle.mutual_info_check(n, k, vec, povm)
            assert res.info_nats <= res.bound + MUTUAL_INFO_TOL
            closed = oracle.spike_conditionals_closed_form(n, k, vec, povm)
            assert np.max(np.abs(closed - res.conditionals)) < 1e-10


def test_mutual_info_povm_validation():
    vec = np.array([1.0, 0.0], dtype=complex)
    bad = [(0.9, np.array([1.0, 0.0], dtype=complex))]
    with pytest.raises(UsageError, match="identity"):
        oracle.mutual_info_check(1, 0, vec, bad)
    with pytest.raises(UsageError, match="normalized"):
        oracle.mutual_info_check(1, 0, 2 * vec,
                                 [(0.5, vec), (0.5, np.array([0, 1.0]))])


def test_dense_channel_validation():
    with pytest.raises(UsageError, match="trace preserving"):
        oracle.DenseChannel(1, (np.eye(2, dtype=complex) * 0.5,))
    ad = oracle.DenseChannel.amplitude_damping(0.3)
    rho = np.array([[0.2, 0.3], [0.3, 0.8]], dtype=complex)
    out = ad.apply(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert out[0, 0].real == pytest.approx(0.2 + 0.3 * 0.8, abs=1e-12)


def test_amplitude_damping_twirl_eigenvalues():
    gamma = 0.1
    lam = oracle.DenseChannel.amplitude_damping(gamma).twirl_eigenvalues()
    root = np.sqrt(1 - gamma)
    # label order (I, X, Z, Y)
    assert np.allclose(lam, [1.0, root, 1 - gamma, root], atol=1e-12)


def test_ptm_of_pauli_channel_is_diagonal():
    rng = np.random.default_rng(6)
    ch = PauliChannel.random_dirichlet(2, rng)
    ptm = oracle.DenseChannel.from_pauli(ch).ptm()
    assert np.max(np.abs(ptm - np.diag(ch.eigenvalues))) < 1e-12


def test_alg2_noiseless_constant_is_one():
    for n in (1, 2):
        gate = oracle.DenseChannel.identity(n)
        prep = oracle.build_bell(0, n)
        povm = oracle.bell_projector_stack(n)
        consts = oracle.alg2_constants(n, gate, prep, povm)
        table = oracle.alg2_expectations_dense(n, gate, prep, povm, [0, 1, 3])
        assert np.max(np.abs(consts - 1.0)) < 1e-12
        assert np.max(np.abs(table - 1.0)) < 1e-12


def test_alg2_pauli_closed_form_cross_path():
    rng = np.random.default_rng(7)
    n = 2
    gate_p = PauliChannel.random_dirichlet(n, rng, alpha=10.0)
    prep_p = PauliChannel.depolarizing(n, 0.06)
    meas_p = PauliChannel.depolarizing(n, 0.11)
    gate = oracle.DenseChannel.from_pauli(gate_p)
    prep = oracle.noisy_bell_state(n, oracle.DenseChannel.from_pauli(prep_p))
    povm = oracle.noisy_bell_povm(n, oracle.DenseChannel.from_pauli(meas_p))
    consts = oracle.alg2_constants(n, gate, prep, povm)
    table = oracle.alg2_expectations_dense(n, gate, prep, povm, [0, 2, 4])
    for a in rng.integers(0, 16, size=6):
        a = int(a)
        expected_const = prep_p.eigenvalue(a) * meas_p.eigenvalue(a) * \
            gate_p.eigenvalue(a)
        assert consts[a] == pytest.approx(expected_const, abs=1e-10)
        for row, m in enumerate((0, 2, 4)):
            closed = expected_const * gate_p.eigenvalue(a) ** m
            assert table[row, a] == pytest.approx(closed, abs=1e-10)


def test_alg2_amplitude_damping_brute_force():
    gamma = 0.1
    gate = oracle.DenseChannel.amplitude_damping(gamma)
    prep = oracle.build_bell(0, 1)
    povm = oracle.bell_projector_stack(1)
    lam_z = 1 - gamma
    z = parse_bits("Z", 1)
    a_z = oracle.alg2_constants(1, gate, prep, povm)[z]
    lengths = (0, 1, 2, 3, 4)
    table = oracle.alg2_expectations_dense(1, gate, prep, povm, lengths)
    for m in lengths:
        brute = oracle.alg2_expectation_brute(1, gate, prep, povm, z, m)
        assert brute == pytest.approx(table[m, z], abs=1e-12)
        assert brute == pytest.approx(a_z * lam_z**m, abs=1e-12)


def test_alg2_batched_matches_closed_form_and_brute():
    rng = np.random.default_rng(14)
    # amplitude-damping SPAM is not Bell-diagonal: it mixes PTM rows
    cases = [
        (1, oracle.DenseChannel.amplitude_damping(0.2),
         oracle.DenseChannel.amplitude_damping(0.15)),
        (2, oracle.DenseChannel.from_pauli(
            PauliChannel.random_dirichlet(2, rng, alpha=10.0)),
         oracle.DenseChannel.from_pauli(PauliChannel.depolarizing(2, 0.08))),
    ]
    lengths = [0, 1, 3]
    for n, gate, spam in cases:
        prep = oracle.noisy_bell_state(n, spam)
        povm = oracle.noisy_bell_povm(n, spam)
        consts = oracle.alg2_constants(n, gate, prep, povm)
        table = oracle.alg2_expectations_dense(n, gate, prep, povm, lengths)
        assert consts.shape == (4**n,) and table.shape == (3, 4**n)
        lam = gate.twirl_eigenvalues()
        closed = consts * lam ** np.array(lengths)[:, None]
        assert np.max(np.abs(table - closed)) < 1e-12
        # exhaustive sequence averages: every label at n=1, three at n=2
        for a in range(4) if n == 1 else (1, 6, 15):
            for row, m in enumerate(lengths if n == 1 else [0, 1]):
                assert table[row, a] == pytest.approx(
                    oracle.alg2_expectation_brute(n, gate, prep, povm, a, m),
                    abs=1e-12)


def test_capability_limits():
    with pytest.raises(CapabilityError):
        oracle.pauli_matrix(0, 7)
    with pytest.raises(CapabilityError):
        oracle.alg2_expectations_dense(
            1, oracle.DenseChannel.identity(1), oracle.build_bell(0, 1),
            oracle.bell_projector_stack(1), [9])
    with pytest.raises(CapabilityError):
        oracle.alg2_expectation_brute(
            2, oracle.DenseChannel.identity(2), oracle.build_bell(0, 2),
            oracle.bell_projector_stack(2), 0, 8)


def test_density_checks():
    with pytest.raises(UsageError):
        oracle.check_density(np.array([[0.5, 0.6], [0.6, 0.5]]) * 1j)
    with pytest.raises(UsageError):
        oracle.check_density(np.diag([0.7, 0.7]))
    with pytest.raises(UsageError):
        oracle.check_density(np.diag([1.5, -0.5]))
