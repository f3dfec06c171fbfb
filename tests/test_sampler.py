import numpy as np
import pytest

from paulibench import (
    CapabilityError,
    NoiseModel,
    PauliChannel,
    UsageError,
    outcome_distribution_alg1,
    outcome_distribution_alg2,
    simulate_alg2_batch,
    simulate_rounds_alg1,
)
from paulibench import dense_oracle as oracle
from paulibench import sampler
from paulibench.pauli import parse_bits, symp, symp_u64
from paulibench.stabilizer import (
    StabilizerGroup,
    mub_covering,
    pauli_basis_covering,
)

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
    table = outcome_distribution_alg1(PauliChannel.identity(3), 1, [grp])[0]
    assert table[0, 0] == 1.0
    assert table.sum() == pytest.approx(1.0, abs=1e-15)


def test_distribution_spike_example():
    # lambda spike at X with s=+1: only I and X errors occur, equally likely
    ch = PauliChannel.spike(1, "X", +1)
    empty = StabilizerGroup(0, ())
    table = outcome_distribution_alg1(ch, 1, [empty])[0]
    assert table[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert table[parse_bits("X", 1), 0] == pytest.approx(0.5, abs=1e-15)


def test_distribution_sums_to_one():
    rng = np.random.default_rng(3)
    for n, k in [(2, 0), (2, 1), (3, 1), (3, 3)]:
        ch = PauliChannel.random_dirichlet(n, rng)
        for grp in mub_covering(n - k).groups:
            table = outcome_distribution_alg1(ch, k, [grp])[0]
            assert abs(table.sum() - 1.0) < 1e-12


def test_distribution_matches_eq7_form():
    rng = np.random.default_rng(4)
    for n, k in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
        ch = PauliChannel.random_dirichlet(n, rng)
        for grp in mub_covering(n - k).groups:
            fast = outcome_distribution_alg1(ch, k, [grp])[0]
            assert np.max(np.abs(fast - eq7_distribution(ch, k, grp))) < 1e-12


def test_sparse_distribution_matches_dense():
    rng = np.random.default_rng(5)
    sparse = PauliChannel.random_sparse(3, 11, rng)
    p = np.zeros(64)
    for lbl, pr in zip(sparse.support_labels, sparse.support_probs):
        p[int(lbl)] = pr
    dense = PauliChannel.from_error_rates(3, p)
    for grp in mub_covering(2).groups:
        t1 = outcome_distribution_alg1(sparse, 1, [grp])[0]
        t2 = outcome_distribution_alg1(dense, 1, [grp])[0]
        assert np.max(np.abs(t1 - t2)) < 1e-12
    # a table of more than 2^26 cells is refused, for a stack of one group
    # as of two
    wide = PauliChannel.from_sparse(14, [(0, 0.5), (1 << 27, 0.5)])
    for group in ([Z1], [Z1, Z1]):
        with pytest.raises(CapabilityError, match="134217728 cells too large"):
            outcome_distribution_alg1(wide, 13, group)


def test_empirical_frequencies_converge():
    # per-shot and law-drawn histograms of both protocols against the exact
    # law, at one total-variation bound
    rng = np.random.default_rng(6)
    ch = PauliChannel.random_dirichlet(2, rng)
    grp = mub_covering(1).groups[2]
    exact1 = outcome_distribution_alg1(ch, 1, [grp])[0]
    shots = 1_000_000
    v, e = simulate_rounds_alg1(ch, 1, grp, rng, shots)
    counts = np.zeros_like(exact1)
    np.add.at(counts, (v.astype(int), e.astype(int)), 1)
    model = NoiseModel(2, ch, PauliChannel.depolarizing(2, 0.05),
                       PauliChannel.random_dirichlet(2, rng))
    exact2 = outcome_distribution_alg2(model, 3)
    z = simulate_alg2_batch(model, 3, rng, shots)["z"]
    cases = [
        (exact1, counts),
        (exact1, sampler.draw_histograms(exact1[None], shots, rng)[0]),
        (exact2, np.bincount(z.astype(np.int64), minlength=16)),
        (exact2, sampler.draw_histograms(exact2[None], shots, rng)[0]),
    ]
    for exact, hist in cases:
        assert hist.shape == exact.shape and hist.sum() == shots
        tv = 0.5 * np.abs(hist / shots - exact).sum()
        assert tv < 5 * np.sqrt(exact.size / shots)


@pytest.mark.parametrize("n", [1, 2])
def test_alg2_law_matches_convolution(n):
    # dense and sparse-identity SPAM, against explicit XOR-convolution
    rng = np.random.default_rng(30 + n)
    gate = PauliChannel.random_dirichlet(n, rng)
    spams = [
        (PauliChannel.identity(n), PauliChannel.identity(n)),
        (PauliChannel.random_dirichlet(n, rng), PauliChannel.depolarizing(n, 0.1)),
    ]
    for prep, meas in spams:
        model = NoiseModel(n, gate, prep, meas)
        for m in range(5):
            fast = outcome_distribution_alg2(model, m)
            brute = oracle.alg2_distribution_convolution(model, m)
            assert np.max(np.abs(fast - brute)) < 1e-12


def alg2_statistic(a, v, gate_xor):
    """(-1)^(<a,v> + sum_t <a,a_t>) per shot, through z = v xor gate_xor."""
    return 1 - 2 * symp_u64(np.uint64(a), v ^ gate_xor).astype(np.int64)


def test_alg2_noiseless():
    rng = np.random.default_rng(7)
    ident = PauliChannel.identity(2)
    model = NoiseModel(2, ident, ident, ident)
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
    ident = PauliChannel.identity(3)
    model = NoiseModel(3, ident, ident, ident)
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
    ident = PauliChannel.identity(1)
    model = NoiseModel(1, ident, ident, ident)
    with pytest.raises(UsageError):
        simulate_alg2_batch(model, -1, rng, 10)
    with pytest.raises(UsageError):
        outcome_distribution_alg2(model, -1)


def _reference_labels(k, group):
    # one group's labels from its scalar elements() list
    elems = np.asarray(group.elements(), dtype=np.int64)
    return np.arange(4**k, dtype=np.int64)[:, None] | (elems[None, :] << (2 * k))


@pytest.mark.parametrize("kind,k,m", [
    ("mub", 0, 0), ("mub", 2, 0), ("mub", 0, 3), ("mub", 1, 4),
    ("mub", 3, 2), ("mub", 0, 10), ("pauli-basis", 0, 2),
    ("pauli-basis", 1, 3), ("pauli-basis", 0, 6),
])
def test_label_chunks_equal_per_group_reference(kind, k, m):
    # n = 10, k = 0: 64 groups per chunk, the last chunk holds one
    cov = mub_covering(m) if kind == "mub" else pauli_basis_covering(m)
    per_chunk = max(1, sampler.LABEL_CHUNK_CELLS // (4**k << m))
    chunks = list(sampler.label_chunks(k, cov))
    starts = list(range(0, len(cov.groups), per_chunk))
    assert [start for start, _ in chunks] == starts
    for start, block in chunks:
        assert block.dtype == np.int64 and block.flags.writeable
        assert block.shape == (min(per_chunk, len(cov.groups) - start),
                               4**k, 2**m)
        for gi, labels in enumerate(block, start):
            expected = _reference_labels(k, cov.groups[gi])
            assert labels.tobytes() == expected.tobytes()
    # a plain generator: every pass builds its blocks anew
    again = [block for _, block in sampler.label_chunks(k, cov)]
    assert all(new is not old and np.array_equal(new, old)
               for new, (_, old) in zip(again, chunks))


def test_n10_k0_chunk_boundaries():
    cov = mub_covering(10)
    sizes = [(start, len(block)) for start, block
             in sampler.label_chunks(0, cov)]
    assert sizes == [(start, 64) for start in range(0, 1024, 64)] + [(1024, 1)]


def one_table_draw(law, draws, rng):
    """One table's law draw written out: its support, normalised by its own
    sum, in one multinomial.  Returns the counts and the probabilities."""
    p = np.ravel(law)
    support = np.flatnonzero(p > 0.0)
    probs = p[support]
    probs = probs / probs.sum()
    counts = np.zeros(p.size, dtype=np.int64)
    counts[support] = rng.multinomial(draws, probs)
    return counts.reshape(np.shape(law)), probs


class _RecordingRng:
    """A generator that keeps the probabilities of every multinomial call."""

    def __init__(self, rng):
        self.rng = rng
        self.pvals = []

    def multinomial(self, n, pvals):
        self.pvals.append(np.array(pvals))
        return self.rng.multinomial(n, pvals)


def _law_stacks():
    """(G, 4, cells / 4) stacks of laws: full support, zero cells in the
    middle and last, roundoff negatives, single-cell support, and all of
    them mixed in one stack."""
    rng = np.random.default_rng(60)
    for case in range(120):
        groups, cells = int(rng.integers(1, 7)), 4 * int(rng.integers(1, 65))
        laws = rng.random((groups, cells))
        for row in laws:
            # stacks 0 to 4 hold one kind of row each, the rest mix them
            kind = (case + int(rng.integers(0, 5))) % 5 if case >= 5 else case
            if kind == 1:
                row[rng.random(cells) < 0.3] = 0.0
                row[-int(rng.integers(1, 4)):] = 0.0
            elif kind == 2:
                row[rng.random(cells) < 0.3] = -1e-17
                row[-1] = -2e-18
            elif kind == 3:
                row[:] = 0.0
                row[int(rng.integers(0, cells))] = rng.random() + 0.1
            elif kind == 4:
                row[rng.random(cells) < 0.5] = 0.0
                row[0] = row[0] or 0.5
        laws /= np.abs(laws).sum(axis=1, keepdims=True)
        yield laws.reshape(groups, 4, cells // 4), int(10 ** rng.uniform(0, 5))


def test_stacked_draw_equals_one_table_draws():
    # same counts, same generator state and bit-equal probabilities as one
    # multinomial per table; summing a support with `np.add.reduceat` would
    # pass on the draws alone and fail on the probabilities
    partial = full = full_stacks = 0
    for case, (laws, draws) in enumerate(_law_stacks()):
        ref_rng = np.random.default_rng(case)
        rec = _RecordingRng(np.random.default_rng(case))
        ref = [one_table_draw(law, draws, ref_rng) for law in laws]
        counts = sampler.draw_histograms(laws, draws, rec)
        assert counts.dtype == np.int64 and counts.shape == laws.shape
        assert np.array_equal(counts, np.stack([c for c, _ in ref]))
        assert rec.rng.bit_generator.state == ref_rng.bit_generator.state
        (packed,) = rec.pvals
        full_stacks += all(probs.size == row.size
                           for row, (_, probs) in zip(packed, ref))
        for row, (_, probs) in zip(packed.reshape(len(laws), -1), ref):
            lead = row.size - probs.size
            assert not row[:lead].any()
            assert row[lead:].tobytes() == probs.tobytes()
            partial += lead > 0
            full += lead == 0
    # both kinds of row, and stacks of full rows alone, are exercised
    assert partial > 100 and full > 50 and full_stacks >= 5

