import numpy as np
import pytest

from paulibench import (
    NoiseModel,
    PauliChannel,
    UsageError,
    outcome_distribution_alg1,
    simulate_alg2_batch,
    simulate_rounds_alg1,
)
from paulibench.pauli import parse_bits, symp, symp_u64
from paulibench.stabilizer import StabilizerGroup, mub_covering

Z1 = StabilizerGroup(1, (parse_bits("Z", 1),))


def eq7_distribution(ch, k, group):
    # p(v,e) = 2^-(n+k) sum_u sum_s lambda_{u xor s} (-1)^(<u,v> + alpha.e)
    n = ch.n
    m = n - k
    elems = group.elements()
    table = np.zeros((4**k, 2**m))
    for v in range(4**k):
        for e in range(2**m):
            acc = 0.0
            for u in range(4**k):
                for alpha, s in enumerate(elems):
                    lam = ch.eigenvalue(u | (s << (2 * k)))
                    sign = symp(u, v) ^ ((alpha & e).bit_count() & 1)
                    acc += lam * (-1.0) ** sign
            table[v, e] = acc / 2 ** (n + k)
    return table


def test_identity_round_always_trivial():
    rng = np.random.default_rng(0)
    ch = PauliChannel.identity(3)
    grp = mub_covering(2).groups[0]
    v, e = simulate_rounds_alg1(ch, 1, grp, rng, 50)
    assert v.dtype == e.dtype == np.uint64
    assert np.all(v == 0) and np.all(e == 0)


def test_bell_outcome_reveals_error():
    rng = np.random.default_rng(1)
    ch = PauliChannel.from_sparse(1, [("I", 0.9), ("X", 0.1)])
    empty = StabilizerGroup(0, ())
    v, e = simulate_rounds_alg1(ch, 1, empty, rng, 20_000)
    assert set(v.tolist()) <= {0, parse_bits("X", 1)} and np.all(e == 0)
    assert abs(np.mean(v == parse_bits("X", 1)) - 0.1) < 0.01


def test_syndrome_flips_on_x_error():
    rng = np.random.default_rng(2)
    ch = PauliChannel.from_sparse(1, [("I", 0.9), ("X", 0.1)])
    v, e = simulate_rounds_alg1(ch, 0, Z1, rng, 20_000)
    assert np.all(v == 0) and set(e.tolist()) <= {0, 1}
    assert abs(np.mean(e == 1) - 0.1) < 0.01


def test_round_argument_validation():
    rng = np.random.default_rng(0)
    ch = PauliChannel.identity(2)
    with pytest.raises(UsageError):
        simulate_rounds_alg1(ch, 3, StabilizerGroup(0, ()), rng, 10)
    with pytest.raises(UsageError):
        simulate_rounds_alg1(ch, 1, StabilizerGroup(0, ()), rng, 10)


def test_distribution_identity_point_mass():
    grp = mub_covering(2).groups[1]
    table = outcome_distribution_alg1(PauliChannel.identity(3), 1, grp)
    assert table[0, 0] == 1.0
    assert table.sum() == pytest.approx(1.0, abs=1e-15)


def test_distribution_spike_example():
    # lambda spike at X with s=+1: only I and X errors occur, equally likely
    ch = PauliChannel.spike(1, "X", +1)
    empty = StabilizerGroup(0, ())
    table = outcome_distribution_alg1(ch, 1, empty)
    assert table[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert table[parse_bits("X", 1), 0] == pytest.approx(0.5, abs=1e-15)


def test_distribution_sums_to_one():
    rng = np.random.default_rng(3)
    for n, k in [(2, 0), (2, 1), (3, 1), (3, 3)]:
        ch = PauliChannel.random_dirichlet(n, rng)
        for grp in mub_covering(n - k).groups:
            table = outcome_distribution_alg1(ch, k, grp)
            assert abs(table.sum() - 1.0) < 1e-12


def test_distribution_matches_eq7_form():
    rng = np.random.default_rng(4)
    for n, k in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
        ch = PauliChannel.random_dirichlet(n, rng)
        for grp in mub_covering(n - k).groups:
            fast = outcome_distribution_alg1(ch, k, grp)
            assert np.max(np.abs(fast - eq7_distribution(ch, k, grp))) < 1e-12


def test_sparse_distribution_matches_dense():
    rng = np.random.default_rng(5)
    sparse = PauliChannel.random_sparse(3, 11, rng)
    p = np.zeros(64)
    for lbl, pr in zip(sparse.support_labels, sparse.support_probs):
        p[int(lbl)] = pr
    dense = PauliChannel.from_error_rates(3, p)
    for grp in mub_covering(2).groups:
        t1 = outcome_distribution_alg1(sparse, 1, grp)
        t2 = outcome_distribution_alg1(dense, 1, grp)
        assert np.max(np.abs(t1 - t2)) < 1e-12


def test_empirical_frequencies_converge():
    rng = np.random.default_rng(6)
    ch = PauliChannel.random_dirichlet(2, rng)
    grp = mub_covering(1).groups[2]
    exact = outcome_distribution_alg1(ch, 1, grp)
    shots = 1_000_000
    v, e = simulate_rounds_alg1(ch, 1, grp, rng, shots)
    counts = np.zeros_like(exact)
    np.add.at(counts, (v.astype(int), e.astype(int)), 1)
    tv = 0.5 * np.abs(counts / shots - exact).sum()
    cells = exact.size
    assert tv < 5 * np.sqrt(cells / shots)


def alg2_statistic(a, v, gate_xor):
    """(-1)^(<a,v> + sum_t <a,a_t>) per shot, through z = v xor gate_xor."""
    return 1 - 2 * symp_u64(np.uint64(a), v ^ gate_xor).astype(np.int64)


def test_alg2_noiseless():
    rng = np.random.default_rng(7)
    model = NoiseModel.noiseless(2)
    for m in (0, 1, 3):
        batch = simulate_alg2_batch(model, m, rng, 200)
        assert np.array_equal(batch["v"], batch["gate_xor"])
        for a in range(16):
            assert np.all(alg2_statistic(a, batch["v"], batch["gate_xor"]) == 1)


def test_alg2_statistic_basics():
    x, y, z = (np.array([parse_bits(p, 1)], dtype=np.uint64) for p in "XYZ")
    # gate X, outcome X: z = X^X = I, so every statistic is +1
    assert alg2_statistic(parse_bits("Z", 1), x, x)[0] == 1
    assert alg2_statistic(0, x, x)[0] == 1
    # gate X, outcome Y: z = X^Y = Z-label; <X,Z> = 1
    assert alg2_statistic(parse_bits("X", 1), y, x)[0] == -1
    assert alg2_statistic(parse_bits("Z", 1), y, x)[0] == 1
    assert np.array_equal(x ^ y, z)


def test_alg2_single_error_source():
    rng = np.random.default_rng(8)
    meas = PauliChannel.from_sparse(1, [("I", 0.8), ("Z", 0.2)])
    model = NoiseModel(1, PauliChannel.identity(1), PauliChannel.identity(1), meas)
    shots = 20_000
    batch = simulate_alg2_batch(model, 2, rng, shots)
    flips = batch["v"] != batch["gate_xor"]
    assert set(batch["z"][flips].tolist()) == {parse_bits("Z", 1)}
    assert abs(flips.mean() - 0.2) < 0.01


def test_alg2_decay_example():
    # gate {I:0.95, X:0.05}: lambda_Z = 0.9, A_Z = 0.9, E[F_Z(3)] = 0.9^4
    rng = np.random.default_rng(9)
    gate = PauliChannel.from_sparse(1, [("I", 0.95), ("X", 0.05)])
    model = NoiseModel(1, gate, PauliChannel.identity(1), PauliChannel.identity(1))
    batch = simulate_alg2_batch(model, 3, rng, 100_000)
    z_label = parse_bits("Z", 1)
    signs = 1 - 2 * symp_u64(np.uint64(z_label), batch["z"]).astype(np.int64)
    assert abs(signs.mean() - 0.9**4) < 0.01


def test_alg2_batch_xor_identity():
    rng = np.random.default_rng(10)
    model = NoiseModel.noiseless(3)
    batch = simulate_alg2_batch(model, 5, rng, 1000)
    assert np.all(batch["z"] == 0)
    assert np.array_equal(batch["v"], batch["gate_xor"])


@pytest.mark.parametrize("n", [1, 2])
def test_alg2_unbiasedness_grid(n):
    # E[statistic] = A_a lambda_a^m with A_a = prod of SPAM eigenvalues
    rng = np.random.default_rng(20 + n)
    raw = 0.1 * rng.dirichlet(np.ones(4**n))
    raw[0] += 0.9
    gate = PauliChannel.from_error_rates(n, raw / raw.sum())
    prep = PauliChannel.depolarizing(n, 0.03)
    meas = PauliChannel.depolarizing(n, 0.07)
    model = NoiseModel(n, gate, prep, meas)
    shots = 60_000
    for m in (0, 1, 2, 4, 8):
        batch = simulate_alg2_batch(model, m, rng, shots)
        zs = batch["z"]
        for a in rng.integers(0, 4**n, size=4):
            a = int(a)
            lam = gate.eigenvalue(a)
            expected = (prep.eigenvalue(a) * meas.eigenvalue(a)
                        * lam ** (m + 1))
            signs = 1.0 - 2.0 * symp_u64(np.uint64(a), zs).astype(float)
            se = max(signs.std() / np.sqrt(shots), 1e-12)
            assert abs(signs.mean() - expected) < 4 * se + 1e-9


def test_negative_length_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        simulate_alg2_batch(NoiseModel.noiseless(1), -1, rng, 10)
