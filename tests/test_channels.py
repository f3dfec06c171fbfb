import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from paulibench import (
    CapabilityError,
    PauliChannel,
    UsageError,
    wht_forward,
    wht_inverse,
)
from paulibench import channels
from paulibench.channels import _digit_transform
from paulibench.pauli import parse_bits, symp


def brute_wht(p):
    size = len(p)
    return np.array([
        sum(p[a] * (-1) ** symp(a, b) for a in range(size))
        for b in range(size)
    ])


def test_identity_channel_eigenvalues():
    for n in (1, 2, 3):
        p = np.zeros(4**n)
        p[0] = 1.0
        assert np.array_equal(wht_forward(p), np.ones(4**n))


def test_uniform_is_completely_depolarizing():
    lam = wht_forward(np.full(4, 0.25))
    assert np.allclose(lam, [1, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fast_kernel_matches_brute_force(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        p = rng.dirichlet(np.ones(4**n))
        assert np.max(np.abs(wht_forward(p) - brute_wht(p))) < 1e-13


@pytest.mark.parametrize("k,m", [(0, 3), (2, 0), (1, 2), (2, 1), (1, 1)])
def test_syndrome_digits_match_brute_force(k, m):
    # out[(u << m) | alpha] = sum hist[(v << m) | e] (-1)^(<u,v> + alpha.e)
    rng = np.random.default_rng(10 * k + m)
    hist = rng.integers(0, 50, size=4**k << m)
    out = wht_forward(hist, syndrome_digits=m)
    for u in range(4**k):
        for alpha in range(2**m):
            expected = sum(
                hist[(v << m) | e]
                * (-1) ** (symp(u, v) ^ ((alpha & e).bit_count() & 1))
                for v in range(4**k) for e in range(2**m)
            )
            assert out[(u << m) | alpha] == expected
    with pytest.raises(UsageError):
        wht_forward(np.ones(4**k << m), syndrome_digits=m + 1)


def staged_transform(vec, syndrome_digits):
    """Reference kernel: one radix-2 stage per syndrome bit, then one
    radix-4 stage per base-4 digit, each into fresh arrays."""
    out = np.array(vec, dtype=np.float64)
    length = out.shape[-1]
    lead = out.shape[:-1]
    step = 1
    for _ in range(syndrome_digits):
        blocks = out.reshape(lead + (length // (2 * step), 2, step))
        b0 = blocks[..., 0, :]
        b1 = blocks[..., 1, :]
        t0 = b0 + b1
        t1 = b0 - b1
        blocks[..., 0, :] = t0
        blocks[..., 1, :] = t1
        step *= 2
    while step < length:
        blocks = out.reshape(lead + (length // (4 * step), 4, step))
        b0 = blocks[..., 0, :]
        b1 = blocks[..., 1, :]
        b2 = blocks[..., 2, :]
        b3 = blocks[..., 3, :]
        t0 = b0 + b1
        t1 = b0 - b1
        t2 = b2 + b3
        t3 = b2 - b3
        blocks[..., 0, :] = t0 + t2
        blocks[..., 1, :] = t0 - t2
        blocks[..., 2, :] = t1 + t3
        blocks[..., 3, :] = t1 - t3
        step *= 4
    return out


def assert_same_bits(vec, m):
    got = _digit_transform(vec, m)
    want = staged_transform(vec, m)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("m", range(8))
def test_digit_transform_bit_identical_to_staged_reference(m):
    # the same float operations in the same order give the same bits
    rng = np.random.default_rng(40 + m)
    for n in range(4):
        length = 4**n << m
        for lead in [(), (3,), (2, 3)]:
            inputs = [
                rng.dirichlet(np.ones(length), size=lead or None),
                rng.normal(size=lead + (length,)),
                rng.integers(-1000, 1000, size=lead + (length,)),
            ]
            for vec in inputs:
                assert_same_bits(vec, m)


@pytest.mark.parametrize("m", range(8))
@pytest.mark.parametrize("block", [1, 4, 16, 64, 256, 1024])
def test_blocked_digit_transform_bit_identical(monkeypatch, block, m):
    # small blocks reach both phases at small sizes: one-column strips, an
    # odd syndrome bit inside a block, syndrome bits wider than a block and
    # slabs of several whole rows, the last of them short
    monkeypatch.setattr(channels, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(block + m)
    for n in range(5):
        for lead in [(), (3,), (2, 3)]:
            shape = lead + (4**n << m,)
            assert_same_bits(rng.normal(size=shape), m)
            assert_same_bits(rng.integers(-1000, 1000, size=shape), m)


@pytest.mark.parametrize("block", [16, 1024, 2**16])
def test_strided_stack_transform_matches_c_order(monkeypatch, block):
    # a stack in another memory layout gives the bits of its C-ordered copy
    monkeypatch.setattr(channels, "_BLOCK_CELLS", block)
    x = np.random.default_rng(block).normal(size=(3, 2, 1024))
    for vec in [x.transpose(1, 0, 2), x[:, :, ::-1], np.asfortranarray(x)]:
        got = _digit_transform(vec, 2)
        want = _digit_transform(np.ascontiguousarray(vec), 2)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n,m", [(9, 0), (8, 1)])
def test_default_block_bit_identical(n, m):
    assert 4**n << m > channels._BLOCK_CELLS
    rng = np.random.default_rng(n)
    assert_same_bits(rng.normal(size=4**n << m), m)
    assert_same_bits(rng.integers(-1000, 1000, size=4**n << m), m)


def test_stacked_transform_scratch_is_one_slab():
    # a stack of rows that each fit a block is walked a slab of rows at a
    # time, so beside its float64 copy it needs scratch for one slab only
    vec = np.random.default_rng(5).normal(size=(1025, 1024))
    tracemalloc.start()
    try:
        _digit_transform(vec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < vec.nbytes + (2 << 20)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spike_rate_formula(n):
    # p_b = 4^-n (1 + s(-1)^<a,b>) must transform to the two-spike spectrum
    rng = np.random.default_rng(7 + n)
    for s in (1, -1):
        a = int(rng.integers(1, 4**n))
        p = np.array([(1 + s * (-1) ** symp(a, b)) / 4**n for b in range(4**n)])
        assert np.all(p >= 0) and abs(p.sum() - 1) < 1e-12
        lam = brute_wht(p)
        expected = np.zeros(4**n)
        expected[0] = 1.0
        expected[a] = s
        assert np.max(np.abs(lam - expected)) < 1e-12
        ch = PauliChannel.spike(n, a, s)
        assert np.max(np.abs(ch.error_rates - p)) < 1e-14
        assert np.max(np.abs(ch.eigenvalues - expected)) < 1e-12


def test_inverse_examples():
    assert np.allclose(wht_inverse(np.ones(16)), np.eye(16)[0], atol=1e-15)
    lam = np.zeros(16)
    lam[0] = 1.0
    assert np.allclose(wht_inverse(lam), np.full(16, 1 / 16), atol=1e-15)


def test_round_trip_n5():
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.ones(4**5))
    assert np.max(np.abs(wht_inverse(wht_forward(p)) - p)) < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_involution_random(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        p = rng.dirichlet(np.ones(4**n))
        assert np.max(np.abs(wht_inverse(wht_forward(p)) - p)) < 1e-12


def test_bad_length_rejected():
    with pytest.raises(UsageError):
        wht_forward(np.ones(8) / 8)
    with pytest.raises(UsageError):
        wht_forward(np.full(4, np.nan))


def test_eigenvalue_query():
    ch = PauliChannel.from_sparse(1, [("I", 0.9), ("X", 0.1)])
    assert ch.eigenvalue(0) == 1.0
    assert ch.eigenvalue("Z") == pytest.approx(0.8, abs=1e-15)
    rng = np.random.default_rng(3)
    sparse = PauliChannel.random_sparse(4, 12, rng)
    dense = PauliChannel.from_error_rates(4, _densify(sparse))
    for b in rng.integers(0, 4**4, size=50):
        assert sparse.eigenvalue(int(b)) == pytest.approx(
            float(dense.eigenvalues[int(b)]), abs=1e-12)


def _densify(sparse):
    p = np.zeros(4**sparse.n)
    for lbl, pr in zip(sparse.support_labels, sparse.support_probs):
        p[int(lbl)] = pr
    return p


def test_sampling_point_mass():
    rng = np.random.default_rng(0)
    ch = PauliChannel.identity(3)
    draws = ch.sample(rng, size=1000)
    assert np.all(draws == 0)
    draw = ch.sample(rng)
    assert isinstance(draw, int) and draw == 0


class _FixedUniforms:
    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def _inverse_cdf(ch, u):
    probs = ch.support_probs if ch.is_sparse else ch.error_rates
    cdf = np.cumsum(np.clip(probs, 0.0, None))
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return ch.support_labels[idx] if ch.is_sparse else idx.astype(np.uint64)


def test_batch_sampling_is_inverse_cdf():
    # every draw must equal the inverse CDF of its uniform, in small and
    # large batches
    rng = np.random.default_rng(12)
    channels = [PauliChannel.depolarizing(3, 0.02),
                PauliChannel.random_dirichlet(2, rng),
                PauliChannel.random_sparse(4, 9, rng),
                PauliChannel.identity(2),
                PauliChannel.spike(2, "XZ", -1)]
    for ch in channels:
        for size in (3, 50_000):
            u = np.random.default_rng(size).random(size)
            draws = ch.sample(np.random.default_rng(size), size=size)
            assert draws.dtype == np.uint64
            assert np.array_equal(draws, _inverse_cdf(ch, u))
    # uniforms on and next to CDF entries
    quarter = PauliChannel.from_error_rates(1, [0.25] * 4)
    grid = np.arange(16) / 16
    u = np.concatenate([grid, np.nextafter(grid[1:], 0.0), [1.0 - 2.0**-53]])
    draws = quarter.sample(_FixedUniforms(u), size=u.size)
    assert np.array_equal(draws, _inverse_cdf(quarter, u))


def test_sampling_two_point():
    rng = np.random.default_rng(1)
    ch = PauliChannel.from_sparse(1, [("I", 0.5), ("Y", 0.5)])
    draws = ch.sample(rng, size=100_000)
    y_bits = parse_bits("Y", 1)
    freq = float(np.mean(draws == y_bits))
    assert abs(freq - 0.5) < 0.01


def test_sampling_chi_square():
    rng = np.random.default_rng(5)
    ch = PauliChannel.random_dirichlet(3, rng, alpha=2.0)
    draws = ch.sample(rng, size=1_000_000)
    observed = np.bincount(draws.astype(np.int64), minlength=64)
    result = stats.chisquare(observed, f_exp=1_000_000 * ch.error_rates)
    assert result.pvalue > 1e-3


def test_spike_constructor():
    ch = PauliChannel.spike(2, "XZ", +1)
    a = parse_bits("XZ", 2)
    expected = np.zeros(16)
    expected[0] = 1.0
    expected[a] = 1.0
    assert np.max(np.abs(ch.eigenvalues - expected)) < 1e-12
    with pytest.raises(UsageError):
        PauliChannel.spike(2, 0, +1)
    with pytest.raises(UsageError):
        PauliChannel.spike(2, "XZ", 2)


def test_fully_depolarizing():
    ch = PauliChannel.fully_depolarizing(1)
    assert np.allclose(ch.error_rates, [0.25] * 4)
    assert np.allclose(ch.eigenvalues, [1, 0, 0, 0], atol=1e-15)


def test_depolarizing_eigenvalue():
    # brute force over the rate vector: lambda_a = 1 - rate*4^n/(4^n-1)
    ch = PauliChannel.depolarizing(1, 0.1)
    lam = brute_wht(ch.error_rates)
    assert np.allclose(lam[1:], 1 - 0.1 * 4 / 3, atol=1e-14)


def test_tensor_against_brute_force():
    f1 = PauliChannel.depolarizing(1, 0.1)
    f2 = PauliChannel.depolarizing(1, 0.1)
    product = PauliChannel.tensor([f1, f2])
    # brute-force expansion of the product rates, then the brute transform
    p = np.zeros(16)
    for a in range(4):
        for b in range(4):
            p[a | (b << 2)] = f1.error_rates[a] * f2.error_rates[b]
    lam = brute_wht(p)
    assert np.max(np.abs(product.eigenvalues - lam)) < 1e-13
    single = 1 - 0.1 * 4 / 3
    xi = parse_bits("XI", 2)
    ix = parse_bits("IX", 2)
    assert product.eigenvalue(xi) == pytest.approx(single, abs=1e-13)
    assert product.eigenvalue(ix) == pytest.approx(single, abs=1e-13)


def test_tensor_accepts_sparse_factors():
    # a sparse factor enters as its scattered dense rates; dense factors
    # keep the np.outer product bit for bit
    rng = np.random.default_rng(12)
    sparse = PauliChannel.random_sparse(2, 5, rng)
    dense = PauliChannel.from_error_rates(2, _densify(sparse))
    depol = PauliChannel.depolarizing(1, 0.1)
    cases = [([PauliChannel.identity(1), depol],
              [PauliChannel.from_error_rates(1, [1, 0, 0, 0]), depol]),
             ([depol, sparse, depol], [depol, dense, depol])]
    for factors, dense_factors in cases:
        product = PauliChannel.tensor(factors)
        twin = PauliChannel.tensor(dense_factors)
        assert not product.is_sparse
        assert np.array_equal(product.error_rates, twin.error_rates)
        assert np.array_equal(product.eigenvalues, twin.eigenvalues)
    rates = np.outer(depol.error_rates, np.outer(
        dense.error_rates, depol.error_rates).ravel()).ravel()
    assert np.array_equal(twin.error_rates, rates)


@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2), (2, 1)])
def test_tensor_eigenvalues_factorize(n1, n2):
    rng = np.random.default_rng(n1 * 10 + n2)
    ch1 = PauliChannel.random_dirichlet(n1, rng)
    ch2 = PauliChannel.random_dirichlet(n2, rng)
    product = PauliChannel.tensor([ch1, ch2])
    for a in range(4**n1):
        for b in range(4**n2):
            combined = a | (b << (2 * n1))
            assert product.eigenvalues[combined] == pytest.approx(
                ch1.eigenvalues[a] * ch2.eigenvalues[b], abs=1e-12)


def test_constructor_outputs_are_physical():
    rng = np.random.default_rng(9)
    channels = [
        PauliChannel.depolarizing(2, 0.3),
        PauliChannel.fully_depolarizing(2),
        PauliChannel.spike(2, 5, -1),
        PauliChannel.random_dirichlet(2, rng),
        PauliChannel.tensor([PauliChannel.depolarizing(1, 0.2)] * 2),
    ]
    for ch in channels:
        assert np.all(ch.error_rates >= -1e-12)
        assert abs(ch.error_rates.sum() - 1.0) <= 1e-12
        assert ch.eigenvalues[0] == 1.0
        assert np.max(np.abs(ch.eigenvalues)) <= 1.0 + 1e-12
    ident = PauliChannel.identity(2)
    assert ident.is_sparse and ident.eigenvalue(7) == 1.0
    sparse = PauliChannel.random_sparse(6, 10, rng)
    assert abs(sparse.support_probs.sum() - 1.0) <= 1e-12
    assert sparse.eigenvalue(0) == 1.0


def test_random_sparse_full_support():
    # sampling without replacement: full support is no slower than any other
    ch = PauliChannel.random_sparse(8, 4**8, np.random.default_rng(4))
    assert np.array_equal(ch.support_labels, np.arange(4**8, dtype=np.uint64))
    assert ch.probability(0) > 0.0
    assert abs(ch.support_probs.sum() - 1.0) <= 1e-12
    for n, size in ((1, 0), (1, 5), (32, 2)):
        with pytest.raises(UsageError):
            PauliChannel.random_sparse(n, size, np.random.default_rng(0))


def test_from_sparse_label_checks_both_forms():
    pairs = [("XZ", 0.25), (0, 0.5), (7, 0.25)]
    ch = PauliChannel.from_sparse(2, pairs)
    labels = np.array([parse_bits("XZ", 2), 0, 7])
    same = PauliChannel.from_sparse(2, labels, np.array([0.25, 0.5, 0.25]))
    assert np.array_equal(ch.support_labels, [0, 7, parse_bits("XZ", 2)])
    assert ch.support_labels.dtype == same.support_labels.dtype == np.uint64
    assert np.array_equal(ch.support_labels, same.support_labels)
    assert np.array_equal(ch.support_probs, same.support_probs)
    probs = np.full(3, 1 / 3)
    for bad in ([0, 16, 3], [0, -1, 3]):
        with pytest.raises(UsageError, match=rf"label {bad[1]:#x} out of range for n=2"):
            PauliChannel.from_sparse(2, np.array(bad), probs)
        with pytest.raises(UsageError, match=rf"label {bad[1]:#x} out of range for n=2"):
            PauliChannel.from_sparse(2, zip(bad, probs))
    with pytest.raises(UsageError, match="duplicate labels in sparse support"):
        PauliChannel.from_sparse(2, np.array([5, 0, 5]), probs)
    with pytest.raises(UsageError, match="duplicate labels in sparse support"):
        PauliChannel.from_sparse(2, [("XI", 0.5), (1, 0.5)])
    # labels beyond 64 bits stay Python ints
    wide = PauliChannel.from_sparse(40, [(1 << 79, 0.5), (3, 0.5)])
    assert wide.support_labels.tolist() == [3, 1 << 79]


def test_invalid_inputs_rejected_not_renormalized():
    with pytest.raises(UsageError):
        PauliChannel.from_error_rates(1, [0.5, 0.5, 0.1, -0.1])
    with pytest.raises(UsageError):
        PauliChannel.from_error_rates(1, [0.5, 0.4, 0.05, 0.0])
    with pytest.raises(UsageError):
        PauliChannel.from_eigenvalues(1, [0.9, 0, 0, 0])
    # a unit-trace but non-positive spectrum is not a channel
    with pytest.raises(UsageError):
        PauliChannel.from_eigenvalues(1, [1.0, 1.1, 0.0, 0.0])
    with pytest.raises(UsageError):
        PauliChannel.from_sparse(1, [("I", 0.5), ("I", 0.5)])
    with pytest.raises(CapabilityError):
        PauliChannel.from_error_rates(14, np.zeros(4**14))
    for alpha in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(UsageError):
            PauliChannel.random_dirichlet(1, np.random.default_rng(0), alpha)


def test_dense_limit_is_checked_before_any_4n_array(monkeypatch):
    # n = 20 would need 8 TiB per vector: every dense constructor, the
    # sparse transform and the tensor product refuse before allocating
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated a 4^n array")

    rng = np.random.default_rng(0)
    refused = [
        lambda: PauliChannel.from_error_rates(20, [1.0]),
        lambda: PauliChannel.from_eigenvalues(20, [1.0]),
        lambda: PauliChannel.depolarizing(20, 0.1),
        lambda: PauliChannel.fully_depolarizing(20),
        lambda: PauliChannel.spike(20, 1, 1),
        lambda: PauliChannel.random_dirichlet(20, rng),
        lambda: PauliChannel.tensor([PauliChannel.identity(10)] * 2),
        lambda: PauliChannel.identity(20).eigenvalues,
        lambda: PauliChannel.identity(14).eigenvalues,
    ]
    with monkeypatch.context() as patch:
        for name in ("zeros", "full", "empty", "ones"):
            patch.setattr(np, name, no_alloc)
        for make in refused:
            with pytest.raises(CapabilityError,
                               match=r"limited to n <= 13, got (20|14)"):
                make()


def test_sparse_eigenvalues_are_made_once_and_read_only():
    rng = np.random.default_rng(13)
    sparse = PauliChannel.random_sparse(3, 7, rng)
    lam = sparse.eigenvalues
    assert lam is sparse.eigenvalues and not lam.flags.writeable
    dense = PauliChannel.from_error_rates(3, _densify(sparse))
    assert np.array_equal(lam, dense.eigenvalues) and lam[0] == 1.0
    assert sparse.is_sparse
    # per-label queries on a register too large to densify read the support
    wide = PauliChannel.from_sparse(40, [(0, 0.75), (parse_bits("X" * 40, 40),
                                                     0.25)])
    assert wide.eigenvalue("Z" + "I" * 39) == pytest.approx(0.5, abs=1e-15)
    assert wide.probability("X" * 40) == 0.25 and wide.probability(5) == 0.0
    assert wide._eigenvalues is None


def test_probability_checks_its_label():
    dense = PauliChannel.depolarizing(1, 0.3)
    sparse = PauliChannel.from_sparse(1, [(a, dense.probability(a))
                                          for a in range(4)])
    for ch in (dense, sparse):
        assert ch.probability("Y") == pytest.approx(0.1, abs=1e-15)
        assert ch.probability(0) == pytest.approx(0.7, abs=1e-15)
        for bad in (-1, 4, True, 1.0, "XX"):
            with pytest.raises(UsageError):
                ch.probability(bad)
    gap = PauliChannel.from_sparse(2, [(0, 0.5), (9, 0.5)])
    assert [gap.probability(a) for a in range(16)] == [
        0.5 if a in (0, 9) else 0.0 for a in range(16)]


def test_json_round_trip_sparse_bit_exact():
    rng = np.random.default_rng(21)
    ch = PauliChannel.random_sparse(5, 9, rng)
    back = PauliChannel.from_json(json.loads(json.dumps(ch.to_json())))
    assert back.n == ch.n
    assert np.array_equal(back.support_labels, ch.support_labels)
    assert np.array_equal(back.support_probs, ch.support_probs)


def test_json_round_trip_dense():
    rng = np.random.default_rng(22)
    ch = PauliChannel.random_dirichlet(2, rng)
    obj = ch.to_json()
    assert obj["format"] == "dense" and obj["n"] == 2
    back = PauliChannel.from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back.error_rates, ch.error_rates)
    with pytest.raises(UsageError):
        PauliChannel.from_json({"n": 1, "format": "weird", "entries": []})


def test_dense_representations_consistent():
    # both representations present: p and lambda agree under the transform
    rng = np.random.default_rng(30)
    for n in (1, 3):
        ch = PauliChannel.random_dirichlet(n, rng)
        assert np.max(np.abs(wht_forward(ch.error_rates) - ch.eigenvalues)) < 1e-10
        assert np.max(np.abs(wht_inverse(ch.eigenvalues) - ch.error_rates)) < 1e-10
