import dataclasses
import json
import math

import numpy as np
import pytest

from paulibench import (
    Covering,
    DecayFits,
    NoiseModel,
    PauliChannel,
    UsageError,
    benchmark_alg2,
    estimate_alg1,
    fit_decays,
    mub_covering,
    pauli_basis_covering,
    required_samples,
    wht_forward,
)
from paulibench import dense_oracle as oracle
from paulibench.cli import _CSV_CHUNK_ROWS, RunWriter
from paulibench.estimation import (
    EstimateSet,
    _estimate_set,
    alg1_estimator,
    estimate_alg1_reference,
    two_sample_consistency,
)
from paulibench.pauli import format_bits, parse_bits
from paulibench.sampler import (
    draw_histograms,
    law_pays,
    outcome_distribution_alg1,
    outcome_distribution_alg2,
    simulate_alg2_batch,
    simulate_rounds_alg1,
)


def one_table_draw(law, draws, rng):
    """One table's law draw written out: its support, normalised by its own
    sum, in one multinomial."""
    p = np.ravel(law)
    support = np.flatnonzero(p > 0.0)
    probs = p[support]
    counts = np.zeros(p.size, dtype=np.int64)
    counts[support] = rng.multinomial(draws, probs / probs.sum())
    return counts.reshape(np.shape(law))


def test_required_samples_instance():
    # independent arithmetic for the stated Hoeffding/union-bound constants
    per_label = math.ceil(2 * (math.log(2) + 8 * math.log(4) + math.log(20)) / 0.01)
    assert required_samples(8, 8, 0.1, 0.05, 1) == per_label
    assert per_label == 2956


def test_required_samples_scalings():
    base = required_samples(8, 8, 0.1, 0.05, 1)
    # halving epsilon quadruples the budget (exactly here; ceil slack <= 3)
    assert required_samples(8, 8, 0.05, 0.05, 1) == 4 * base
    for n, k, eps, delta in [(4, 2, 0.3, 0.1), (6, 0, 0.17, 0.02)]:
        one = required_samples(n, k, eps, delta, 1)
        half = required_samples(n, k, eps / 2, delta, 1)
        assert 0 <= 4 * one - half <= 3
    # linear in the covering size
    assert required_samples(5, 4, 0.2, 0.1, 3) == 3 * required_samples(5, 4, 0.2, 0.1, 1)


def test_required_samples_validation():
    with pytest.raises(UsageError):
        required_samples(2, 1, 0.0, 0.1, 1)
    with pytest.raises(UsageError):
        required_samples(2, 1, 0.1, 1.0, 1)
    with pytest.raises(UsageError):
        required_samples(2, 3, 0.1, 0.1, 1)


def test_identity_channel_estimates_exact():
    rng = np.random.default_rng(0)
    est = estimate_alg1(PauliChannel.identity(3), 1, mub_covering(2), 500, rng)
    assert np.all(est.lambda_hat == 1.0)
    assert np.all(est.n_shots >= 100)


def test_spike_channel_estimation():
    rng = np.random.default_rng(1)
    a = parse_bits("XZY", 3)
    ch = PauliChannel.spike(3, a, -1)
    est = estimate_alg1(ch, 1, mub_covering(2), 100_000, rng)
    assert est.lambda_hat[0] == 1.0
    assert abs(est.lambda_hat[a] + 1.0) < 0.03
    others = np.delete(est.lambda_hat, [0, a])
    assert np.max(np.abs(others)) < 0.03


def test_too_few_samples_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(UsageError, match="fewer samples"):
        estimate_alg1(PauliChannel.identity(3), 1, mub_covering(2), 4, rng)


def test_empty_covering_rejected():
    # a covering of no groups is legal, but no estimate can be made from it
    empty = Covering(2, np.zeros((0, 2)))
    channel, rng = PauliChannel.identity(2), np.random.default_rng(2)
    for run in (lambda: estimate_alg1(channel, 0, empty, 100, rng),
                lambda: alg1_estimator(0, empty)(channel, 100, rng),
                lambda: estimate_alg1_reference(channel, 0, empty, 100, rng)):
        with pytest.raises(UsageError, match="covering has no groups"):
            run()


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 1)])
def test_histogram_path_equals_literal_loop(n, k):
    rng = np.random.default_rng(10 * n + k)
    ch = PauliChannel.random_dirichlet(n, rng)
    cov = mub_covering(n - k)
    streams = {}

    def record(i, group, rounds, rng_):
        streams[i] = simulate_rounds_alg1(ch, k, group, rng_, rounds)
        return streams[i]

    def replay(i, group, rounds, rng_):
        return streams[i]

    fast = estimate_alg1(record, k, cov, 2000, np.random.default_rng(99))
    ref = estimate_alg1_reference(replay, k, cov, 2000, np.random.default_rng(0))
    assert np.array_equal(fast.lambda_hat, ref.lambda_hat)
    assert np.array_equal(fast.n_shots, ref.n_shots)


def _per_group_estimate(channel_or_source, k, covering, total, rng):
    """`estimate_alg1` as one law, draw, transform and `np.add.at` per
    covering group: the unbatched form the batched estimator must equal."""
    from paulibench.estimation import _resolve
    from paulibench.sampler import _label_block, law_pays

    source, n, rounds = _resolve(channel_or_source, k, covering, total)
    m = covering.m
    cells = 4**k << m
    from_law = isinstance(channel_or_source, PauliChannel) \
        and law_pays(cells, rounds)
    sums = np.zeros(4**n)
    counts = np.zeros(4**n, dtype=np.int64)
    for gi, group in enumerate(covering.groups):
        full = _label_block(k, covering.generator_array[gi:gi + 1])[0]
        if from_law:
            ch = channel_or_source
            if ch.is_sparse:
                law = outcome_distribution_alg1(ch, k, [group])[0]
            else:
                law = wht_forward(ch.eigenvalues[full.ravel()],
                                  syndrome_digits=m) / cells
            hist = one_table_draw(law, rounds, rng).ravel()
        else:
            v, e = source(gi, group, rounds, rng)
            idx = ((np.asarray(v, dtype=np.int64) << m)
                   | np.asarray(e, dtype=np.int64))
            hist = np.bincount(idx, minlength=cells)
        transformed = wht_forward(hist, syndrome_digits=m)
        np.add.at(sums, full.ravel(), transformed)
        np.add.at(counts, full.ravel(), rounds)
    return _estimate_set(n, sums, counts)


def _injected(n, k):
    ch = PauliChannel.random_dirichlet(n, np.random.default_rng(40 + n + k))

    def source(_i, group, rounds, rng_):
        return simulate_rounds_alg1(ch, k, group, rng_, rounds)

    return source


# (channel or source, k, covering, total samples): law and per-shot paths
# (more cells than rounds), dense and sparse channels, an injected source,
# the overlapping Pauli-basis covering and the single trivial group (k = n)
_BATCH_CASES = {
    "dense-law": (lambda: PauliChannel.random_dirichlet(
        4, np.random.default_rng(31)), 1, 3, 9 * 400),
    "dense-shots": (lambda: PauliChannel.random_dirichlet(
        4, np.random.default_rng(32)), 2, 2, 5 * 40),
    "sparse-law": (lambda: PauliChannel.random_sparse(
        4, 12, np.random.default_rng(33)), 1, 3, 9 * 400),
    "sparse-shots": (lambda: PauliChannel.random_sparse(
        4, 12, np.random.default_rng(34)), 2, 2, 5 * 40),
    "injected": (lambda: _injected(4, 1), 1, 3, 9 * 400),
    "pauli-basis": (lambda: PauliChannel.random_dirichlet(
        4, np.random.default_rng(35)), 1, "pauli-basis", 27 * 300),
    "one-group-law": (lambda: PauliChannel.random_dirichlet(
        3, np.random.default_rng(36)), 3, 0, 200),
    "one-group-shots": (lambda: PauliChannel.random_dirichlet(
        3, np.random.default_rng(37)), 3, 0, 50),
    "one-group-sparse": (lambda: PauliChannel.identity(3), 3, 0, 200),
}


@pytest.mark.parametrize("chunk_cells", [None, 1, 4 * 32 + 1])
@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_batched_estimate_equals_per_group_loop(case, chunk_cells,
                                                monkeypatch):
    # chunks of one group, and of 4 groups over 9 or 27, besides the default
    from paulibench import sampler

    if chunk_cells is not None:
        monkeypatch.setattr(sampler, "LABEL_CHUNK_CELLS", chunk_cells)
    build, k, m, total = _BATCH_CASES[case]
    cover = pauli_basis_covering(3) if m == "pauli-basis" else mub_covering(m)
    rng_seed = 50 + sorted(_BATCH_CASES).index(case)
    batched = estimate_alg1(build(), k, cover, total,
                            np.random.default_rng(rng_seed))
    # one estimator twice on one channel: the second call on what it kept
    channel, estimate = build(), alg1_estimator(k, cover)
    kept = [_estimate_set(k + cover.m, *estimate(
        channel, total, np.random.default_rng(rng_seed))) for _ in range(2)]
    looped = _per_group_estimate(build(), k, cover, total,
                                 np.random.default_rng(rng_seed))
    for est in (batched, *kept):
        assert est.lambda_hat.tobytes() == looped.lambda_hat.tobytes()
        assert est.n_shots.tobytes() == looped.n_shots.tobytes()
        assert est.stderr.tobytes() == looped.stderr.tobytes()


@pytest.mark.parametrize("chunk_cells", [None, 4 * 8])
def test_sweep_probe_error_is_max_abs_error(chunk_cells, monkeypatch):
    # the sweep probe's largest error from one estimator per k equals the
    # EstimateSet's max_abs_error bit for bit, at every k of n <= 4 (the
    # k = n group included), on the per-shot path (one round) and the law
    # path (as many rounds as cells), with the default chunks and chunks of
    # a few groups
    from paulibench import sampler

    if chunk_cells is not None:
        monkeypatch.setattr(sampler, "LABEL_CHUNK_CELLS", chunk_cells)
    for n in range(1, 5):
        ch = PauliChannel.random_dirichlet(n, np.random.default_rng(n))
        truth = ch.eigenvalues
        for k in range(n + 1):
            cov = mub_covering(n - k)
            cells = 4**k << (n - k)
            estimate = alg1_estimator(k, cov)
            for rounds in (1, cells, cells):
                assert law_pays(cells, rounds) == (rounds == cells)
                total = rounds * len(cov.groups)
                sums, counts = estimate(ch, total, np.random.default_rng(7))
                probe = np.max(np.abs(sums / counts - truth))
                est = estimate_alg1(ch, k, cov, total,
                                    np.random.default_rng(7))
                assert probe == est.max_abs_error(truth), (n, k, rounds)
                assert (sums / counts).tobytes() == est.lambda_hat.tobytes()
                assert counts.tobytes() == est.n_shots.tobytes()


def test_unsampled_label_is_refused():
    # a covering of one Z group never sees X or Y
    z_only = Covering(1, [[parse_bits("Z", 1)]])
    ch = PauliChannel.depolarizing(1, 0.1)

    def sums(ch, k, cov, total, rng):
        return alg1_estimator(k, cov)(ch, total, rng)

    for estimator in (sums, estimate_alg1, estimate_alg1_reference):
        with pytest.raises(UsageError, match="label X unsampled"):
            estimator(ch, 0, z_only, 20, np.random.default_rng(0))


def _cold(channel, k, m, total, seed):
    return estimate_alg1(channel, k, mub_covering(m), total,
                         np.random.default_rng(seed))


def _same(est, cold):
    return all(getattr(est, name).tobytes() == getattr(cold, name).tobytes()
               for name in ("lambda_hat", "n_shots", "stderr"))


def test_estimator_keeps_only_a_covering_that_fits(monkeypatch):
    # an estimator builds the label block of a covering that fits one chunk
    # once, read-only, for all its calls; a covering of several chunks is
    # rebuilt chunk by chunk on every call and nothing is frozen or kept
    from paulibench import sampler

    def channel():
        return PauliChannel.random_dirichlet(4, np.random.default_rng(42))

    calls = [(1, 1), (32, 2), (32, 3)]  # per-shot, then twice from the laws
    colds = [_cold(channel(), 1, 3, 9 * rounds, seed)
             for rounds, seed in calls]
    built, label_block = [], sampler._label_block

    def counted(*args):
        built.append(label_block(*args))
        return built[-1]

    monkeypatch.setattr(sampler, "_label_block", counted)
    ch = channel()
    for chunk_cells, sizes in ((None, [9]), (4 * 32, [4, 4, 1] * 3)):
        if chunk_cells is not None:
            monkeypatch.setattr(sampler, "LABEL_CHUNK_CELLS", chunk_cells)
        del built[:]
        estimate = alg1_estimator(1, mub_covering(3))  # 9 groups of 4 x 8
        # the one block is built with the estimator; chunks only when called
        assert [len(block) for block in built] == (
            [9] if chunk_cells is None else [])
        for (rounds, seed), cold in zip(calls, colds):
            assert _same(_estimate_set(4, *estimate(
                ch, 9 * rounds, np.random.default_rng(seed))), cold)
        assert [len(block) for block in built] == sizes
        assert all(block.flags.writeable == (chunk_cells is not None)
                   for block in built)


def test_estimator_keeps_each_channels_laws(monkeypatch):
    # on a covering that fits one chunk, an estimator builds each channel's
    # laws once and hands them out read-only; a fresh estimator rebuilds,
    # and on a covering of several chunks nothing is kept
    from paulibench import estimation, sampler

    def channels():
        return [PauliChannel.random_dirichlet(3, np.random.default_rng(seed))
                for seed in (41, 43)]

    # (channel, rounds, seed); 7 rounds of 8 cells take the per-shot path
    calls = [(0, 100, 1), (1, 100, 2), (0, 300, 3), (1, 7, 4), (1, 300, 5)]
    colds = [_cold(channels()[i], 0, 3, 9 * rounds, seed)
             for i, rounds, seed in calls]
    chunked_colds = [_cold(channels()[0], 0, 3, 900, seed) for seed in (7, 8)]
    builds, drawn = [], []
    build, draw = estimation.outcome_distribution_alg1, draw_histograms

    def counted_build(ch, *args):
        builds.append(ch)
        return build(ch, *args)

    def recorded_draw(laws, draws, rng):
        drawn.append(laws)
        return draw(laws, draws, rng)

    monkeypatch.setattr(estimation, "outcome_distribution_alg1",
                        counted_build)
    monkeypatch.setattr(estimation, "draw_histograms", recorded_draw)
    chs = channels()
    estimate = alg1_estimator(0, mub_covering(3))  # 9 groups of 8 cells
    for (i, rounds, seed), cold in zip(calls, colds):
        assert _same(_estimate_set(3, *estimate(
            chs[i], 9 * rounds, np.random.default_rng(seed))), cold)
    assert builds == chs
    assert len(drawn) == 4 and drawn[0] is drawn[2] and drawn[1] is drawn[3]
    assert not any(laws.flags.writeable for laws in drawn)
    del builds[:], drawn[:]
    alg1_estimator(0, mub_covering(3))(chs[0], 900, np.random.default_rng(6))
    assert builds == chs[:1]  # a fresh estimator rebuilds
    del builds[:], drawn[:]
    monkeypatch.setattr(sampler, "LABEL_CHUNK_CELLS", 4 * 8)
    several = alg1_estimator(0, mub_covering(3))
    for seed, cold in zip((7, 8), chunked_colds):
        assert _same(_estimate_set(3, *several(
            chs[0], 900, np.random.default_rng(seed))), cold)
    assert builds == chs[:1] * 6  # chunks of 4, 4 and 1 groups, twice
    assert all(laws.flags.writeable for laws in drawn)


def test_stacked_laws_equal_per_group_laws():
    cov = mub_covering(2)
    dense = PauliChannel.random_dirichlet(3, np.random.default_rng(38))
    sparse = PauliChannel.random_sparse(3, 9, np.random.default_rng(39))
    for ch in (dense, sparse):
        stacked = outcome_distribution_alg1(ch, 1, cov.groups)
        assert stacked.shape == (len(cov.groups), 4, 4)
        for law, group in zip(stacked, cov.groups):
            assert law.tobytes() == \
                outcome_distribution_alg1(ch, 1, [group])[0].tobytes()


def test_more_cells_than_draws_samples_every_shot():
    # n=5, k=5: 4^5 = 1024 cells and 1000 rounds, so the estimator samples
    # every round, bit for bit like an injected per-round source
    ch = PauliChannel.random_dirichlet(5, np.random.default_rng(13))
    cov = mub_covering(0)

    def per_round(_i, group, rounds, rng_):
        return simulate_rounds_alg1(ch, 5, group, rng_, rounds)

    direct = estimate_alg1(ch, 5, cov, 1000, np.random.default_rng(14))
    injected = estimate_alg1(per_round, 5, cov, 1000, np.random.default_rng(14))
    assert np.array_equal(direct.lambda_hat, injected.lambda_hat)
    assert np.array_equal(direct.stderr, injected.stderr)
    # the same for benchmarking: 4^3 = 64 labels, 50 shots per length
    gate = PauliChannel.random_dirichlet(3, np.random.default_rng(15))
    model = NoiseModel(3, gate, PauliChannel.identity(3),
                       PauliChannel.depolarizing(3, 0.05))
    res = benchmark_alg2(model, [0, 1, 2], 50, np.random.default_rng(16))
    rng = np.random.default_rng(16)
    rows = [wht_forward(np.bincount(
                simulate_alg2_batch(model, m, rng, 50)["z"].astype(np.int64),
                minlength=64)) / 50
            for m in (0, 1, 2)]
    assert np.array_equal(res.f_mean, np.array(rows))


def test_law_draws_never_fill_zero_cells():
    # spike and identity laws hold exact zeros; a dense channel with zero
    # error rates leaves roundoff (negatives included) where its sparse twin
    # has exact zeros.  No draw may raise or count a cell the error support
    # cannot reach.
    n = 2
    rates = np.zeros(16)
    rates[[0, 5, 9]] = [0.7, 0.2, 0.1]
    channels = [PauliChannel.spike(n, "XZ", -1), PauliChannel.spike(n, "YI", 1),
                PauliChannel.identity(n), PauliChannel.from_error_rates(n, rates)]
    rng = np.random.default_rng(17)
    negatives = 0

    def check(laws, reachable):
        # every table of the stack at once, as one table at a time would
        seed = int(rng.integers(1 << 30))
        ref_rng = np.random.default_rng(seed)
        ref = np.stack([one_table_draw(law, 10_000, ref_rng)
                        for law in laws])
        counts = draw_histograms(laws, 10_000, np.random.default_rng(seed))
        assert np.array_equal(counts, ref)
        assert np.all(counts.reshape(len(laws), -1).sum(axis=1) == 10_000)
        assert not counts[~reachable].any()
        return int((laws < 0).sum())

    for ch in channels:
        support = [a for a in range(16) if ch.probability(a) > 0]
        for k in range(n + 1):
            groups = mub_covering(n - k).groups
            # (v, e) is reachable when some error a of the support has
            # v = a's Bell part and e = the syndrome of the rest
            reachable = np.zeros((len(groups), 4**k, 2**(n - k)), dtype=bool)
            for g, group in enumerate(groups):
                for a in support:
                    reachable[g, a & ((1 << 2 * k) - 1),
                              group.syndrome(a >> 2 * k)] = True
            negatives += check(outcome_distribution_alg1(ch, k, groups),
                               reachable)
        for spam in (PauliChannel.identity(n), ch):
            model = NoiseModel(n, ch, spam, spam)
            lengths = (0, 1, 2, 5)
            negatives += check(
                np.stack([outcome_distribution_alg2(model, m)
                          for m in lengths]),
                np.stack([oracle.alg2_distribution_convolution(model, m) > 0
                          for m in lengths]))
    assert negatives > 0  # the roundoff case is exercised
    # the identity channel's law-drawn estimates are exact
    est = estimate_alg1(PauliChannel.identity(3), 0, mub_covering(3), 900, rng)
    assert np.all(est.lambda_hat == 1.0)
    ident = PauliChannel.identity(3)
    res = benchmark_alg2(NoiseModel(3, ident, ident, ident), [0, 2, 5], 64,
                         rng)
    assert np.all(res.estimates.lambda_hat == 1.0)


def test_unbiasedness_over_runs():
    rng = np.random.default_rng(5)
    ch = PauliChannel.random_dirichlet(3, rng)
    cov = mub_covering(2)
    runs = 200
    labels = [3, parse_bits("XZY", 3), parse_bits("IZI", 3)]
    values = np.empty((runs, len(labels)))
    for r in range(runs):
        est = estimate_alg1(ch, 1, cov, 1500, np.random.default_rng(1000 + r))
        values[r] = est.lambda_hat[labels]
    for j, lbl in enumerate(labels):
        truth = float(ch.eigenvalues[lbl])
        mean = values[:, j].mean()
        tol = 5 * values[:, j].std(ddof=1) / np.sqrt(runs)
        assert abs(mean - truth) < tol


def test_success_guarantee_small_instance():
    # success guarantee at the planned budget, small instance
    eps, delta = 0.25, 0.1
    cov = mub_covering(1)
    total = required_samples(3, 2, eps, delta, len(cov.groups))
    ok = 0
    trials = 40
    for t in range(trials):
        rng = np.random.default_rng(2000 + t)
        ch = PauliChannel.random_dirichlet(3, rng)
        est = estimate_alg1(ch, 2, cov, total, rng)
        ok += est.max_abs_error(ch.eigenvalues) <= eps
    assert ok >= math.ceil((1 - delta) * trials)


def test_estimate_set_lookup_and_validation():
    # dense only: entry b is label b, and every label needs a shot
    est = EstimateSet(1, np.array([1.0, 0.5, -0.25, 0.0]),
                      np.full(4, 7, dtype=np.int64))
    assert est.lambda_hat[2] == -0.25
    assert est.max_abs_error([1.0, 0.5, 0.0, 0.0]) == 0.25
    with pytest.raises(UsageError, match="cover all labels"):
        EstimateSet(1, np.ones(3), np.ones(3, dtype=np.int64))
    with pytest.raises(UsageError, match="at least one shot"):
        EstimateSet(1, np.ones(4), np.zeros(4, dtype=np.int64))


def test_fit_exact_exponential():
    lengths = np.array([0, 1, 2, 4, 8])
    fits = fit_decays(lengths, (0.9 * 0.95**lengths)[:, None], [1000] * 5)
    assert abs(fits.a_hat[0] - 0.9) < 1e-12
    assert abs(fits.lambda_hat[0] - 0.95) < 1e-12
    assert fits.n_used[0] == 5 and not fits.errors


def test_fit_constant_one():
    fits = fit_decays([0, 1, 2], np.ones((3, 1)), [10] * 3)
    assert fits.a_hat[0] == 1.0 and fits.lambda_hat[0] == 1.0
    assert fits.stderr_lambda[0] == 0.0


def test_fit_drops_below_floor():
    lengths = np.array([0, 1, 2, 4, 8, 16])
    f = 0.99 * 0.6**lengths  # falls below 0.05 at m = 8
    fits = fit_decays(lengths, f[:, None], [500] * 6)
    assert fits.n_used[0] == 4  # m = 8 and 16 dropped
    assert abs(fits.lambda_hat[0] - 0.6) < 1e-9


def test_fit_errors():
    # too few usable points, a repeated length, and a negative mean that is
    # dropped like any point below the floor
    f = np.array([[1.0, 1.0, 0.9],
                  [0.01, 1.0, 0.3],
                  [0.001, 1.0, -0.2]])
    fits = fit_decays([0, 1, 2], f, [10] * 3)
    assert fits.errors == {0: "decay too fast for chosen M"}
    assert np.isnan(fits.lambda_hat[0]) and np.isnan(fits.a_hat[0])
    assert list(fits.n_used) == [1, 3, 2]
    assert fits.lambda_hat[2] == pytest.approx(0.3 / 0.9, rel=1e-12)
    fits = fit_decays([1, 1], np.array([[0.9], [0.8]]), [10] * 2)
    assert fits.errors == {0: "degenerate design: repeated sequence length"}


def test_batch_fit_columns_independent():
    # one batch: two exact exponentials, one column that drops its tail
    # below the floor, one that cannot be fit, and the constant column
    lengths = np.array([0, 1, 2, 4, 8, 16])
    f = np.column_stack([
        0.9 * 0.95**lengths,
        0.7 * 0.999**lengths,
        0.99 * 0.6**lengths,          # below 0.05 from m = 8 on
        [1.0, 0.01, 0.001, 0.0, -0.1, 0.0],
        np.ones(6),
    ])
    fits = fit_decays(lengths, f, [1000] * 6)
    assert fits.errors == {3: "decay too fast for chosen M"}
    assert list(fits.n_used) == [6, 6, 4, 1, 6]
    np.testing.assert_allclose(fits.a_hat[[0, 1, 2, 4]], [0.9, 0.7, 0.99, 1.0],
                               rtol=1e-12)
    np.testing.assert_allclose(fits.lambda_hat[[0, 1, 2, 4]],
                               [0.95, 0.999, 0.6, 1.0], rtol=1e-12)
    assert np.isnan(fits.lambda_hat[3]) and np.isnan(fits.stderr_lambda[3])
    assert fits.stderr_lambda[4] == 0.0
    # each column alone gives the same fit as inside the batch
    for col in (0, 1, 2, 4):
        alone = fit_decays(lengths, f[:, [col]], [1000] * 6)
        assert alone.lambda_hat[0] == pytest.approx(fits.lambda_hat[col],
                                                    rel=1e-15)
        assert alone.stderr_lambda[0] == pytest.approx(
            fits.stderr_lambda[col], rel=1e-12, abs=1e-300)
        assert alone.residual[0] == pytest.approx(fits.residual[col],
                                                  abs=1e-12)


def test_batch_fit_matches_matrix_wls():
    # reference: the weighted normal equations and the delta-method sandwich
    # (X'WX)^-1 X'W V W X (X'WX)^-1 solved with dense matrices
    rng = np.random.default_rng(13)
    lengths = np.array([0, 1, 2, 4, 8, 16])
    shots = np.array([500, 1000, 1000, 2000, 4000, 4000])
    f = 0.8 * 0.9**lengths * (1.0 + 0.02 * rng.standard_normal((3, 6)))
    fits = fit_decays(lengths, f.T, shots)
    x = np.column_stack([np.ones(6), lengths])
    for col, fc in enumerate(f):
        w = shots * fc**2
        v = (1.0 - fc**2) / (shots * fc**2)
        a_inv = np.linalg.inv(x.T @ (w[:, None] * x))
        beta = a_inv @ (x.T @ (w * np.log(fc)))
        cov = a_inv @ (x.T @ ((w**2 * v)[:, None] * x)) @ a_inv
        resid = np.log(fc) - x @ beta
        assert fits.a_hat[col] == pytest.approx(np.exp(beta[0]), rel=1e-12)
        assert fits.lambda_hat[col] == pytest.approx(np.exp(beta[1]), rel=1e-12)
        assert fits.stderr_lambda[col] == pytest.approx(
            np.exp(beta[1]) * np.sqrt(cov[1, 1]), rel=1e-10)
        assert fits.residual[col] == pytest.approx(
            np.sqrt(w @ resid**2), rel=1e-9)


def test_benchmark_noiseless_exact():
    rng = np.random.default_rng(6)
    ident = PauliChannel.identity(2)
    res = benchmark_alg2(NoiseModel(2, ident, ident, ident), [0, 1, 2, 4], 200,
                         rng)
    assert np.all(res.estimates.lambda_hat == 1.0)
    assert not res.fits.errors


def test_benchmark_spam_only_slope_zero():
    rng = np.random.default_rng(7)
    model = NoiseModel.with_depolarizing_spam(PauliChannel.identity(2), 0.2)
    res = benchmark_alg2(model, [0, 1, 2, 4, 8], 30_000, rng)
    assert np.max(np.abs(res.estimates.lambda_hat - 1.0)) < 0.02


def test_benchmark_recovers_gate_eigenvalues():
    rng = np.random.default_rng(8)
    gate = PauliChannel.tensor([
        PauliChannel.depolarizing(1, 0.02),
        PauliChannel.depolarizing(1, 0.05),
    ])
    model = NoiseModel.with_depolarizing_spam(gate, 0.1)
    res = benchmark_alg2(model, [0, 1, 2, 4, 8, 16], 30_000, rng)
    assert res.estimates.max_abs_error(gate.eigenvalues) < 0.02


def test_spam_robustness_two_sample():
    gate = PauliChannel.tensor([
        PauliChannel.depolarizing(1, 0.02),
        PauliChannel.depolarizing(1, 0.05),
    ])
    estimates = []
    for i, spam in enumerate((0.0, 0.05, 0.2)):
        rng = np.random.default_rng(100 + i)
        model = NoiseModel.with_depolarizing_spam(gate, spam)
        res = benchmark_alg2(model, [0, 1, 2, 4, 8, 16], 30_000, rng)
        estimates.append(res.estimates)
    crit = 3.2905267314918945  # two-sided normal quantile at 1e-3
    for i in range(3):
        for j in range(i + 1, 3):
            diff = np.abs(estimates[i].lambda_hat - estimates[j].lambda_hat)
            se = np.sqrt(estimates[i].stderr**2 + estimates[j].stderr**2)
            z = np.where(diff == 0, 0.0, diff / np.maximum(se, 1e-300))
            assert np.max(z) < crit


def test_csv_writers(tmp_path):
    # floats at 17 significant digits, ints as is
    writer = RunWriter(str(tmp_path), "csv")
    path = writer.write_table(
        "estimates", ["label", "lambda_hat", "n_shots", "stderr"],
        [[np.array([b"I", b"X"]), np.array([1.0, 0.25]), np.array([100, 100]),
          np.array([0.0, 0.1])]])
    lines = path.read_text().splitlines()
    assert lines[0] == "label,lambda_hat,n_shots,stderr"
    assert lines[1] == "I,1,100,0"
    assert lines[2] == "X,0.25,100,0.10000000000000001"
    path = writer.write_table(
        "decays", ["label", "m", "f_mean", "shots"],
        [[np.array([b"Z"]), np.array([0]), np.array([1.0]), np.array([10])]])
    assert path.read_text().splitlines()[1] == "Z,0,1,10"
    assert writer.tables["decays.csv"]["rows"] == 1
    # an empty table is its header alone
    path = writer.write_table("empty", ["label", "m"], [])
    assert path.read_text() == "label,m\n"
    assert writer.tables["empty.csv"]["rows"] == 0


def test_column_writer_matches_rows(tmp_path):
    # more than two chunks, with every float the formatter treats specially
    rows = 2 * _CSV_CHUNK_ROWS + 5
    rng = np.random.default_rng(8)
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
                        1.7976931348623157e308, 0.1, -0.25])
    lam = rng.choice(special, rows)
    lam[_CSV_CHUNK_ROWS - 4:_CSV_CHUNK_ROWS + 5] = special
    se = rng.random(rows)
    se[::3] = 0.5
    cnt = rng.choice(np.array([0, -7, 2**63 - 1, 10**12]), rows)
    labels = rng.integers(0, 4**6, size=rows, dtype=np.uint64)
    header = ["label", "lambda_hat", "n_shots", "stderr"]
    text = [format_bits(b, 6) for b in labels.tolist()]
    columns = [np.array(text, dtype="S6"), lam, cnt, se]
    py_rows = [list(row) for row in zip(
        text, lam.tolist(), cnt.tolist(), se.tolist())]
    expected_csv = [",".join(header)] + [
        ",".join(["{:.17g}".format(x) if isinstance(x, float) else str(x)
                  for x in row]) for row in py_rows]
    # -0.0 keeps its sign next to 0.0 (a value-keyed lookup would merge them)
    assert [line.split(",")[1] for line in
            expected_csv[_CSV_CHUNK_ROWS - 3:_CSV_CHUNK_ROWS - 1]] == ["-0", "0"]
    writer = RunWriter(str(tmp_path / "csv"), "csv")
    text = writer.write_table("estimates", header, [columns]).read_text()
    assert text.endswith("\n") and text.splitlines() == expected_csv
    assert writer.tables["estimates.csv"]["rows"] == rows
    # several blocks, an empty one and one longer than a piece, in one file
    cuts = [0, 3, 3, _CSV_CHUNK_ROWS + 13, rows]
    blocks = ([col[lo:hi] for col in columns]
              for lo, hi in zip(cuts, cuts[1:]))
    text = writer.write_table("blocks", header, blocks).read_text()
    assert text.endswith("\n") and text.splitlines() == expected_csv
    assert writer.tables["blocks.csv"]["rows"] == rows
    # JSON takes no chunks: the rows around the special values suffice
    part = slice(_CSV_CHUNK_ROWS - 50, _CSV_CHUNK_ROWS + 50)
    writer = RunWriter(str(tmp_path / "json"), "json")
    path = writer.write_table("estimates", header,
                              [[col[part] for col in columns]])
    assert path.read_text() == json.dumps(
        [dict(zip(header, row)) for row in py_rows[part]], indent=1) + "\n"
    assert writer.tables["estimates.json"]["rows"] == 100


def _estimates(lam, stderr):
    return EstimateSet(1, np.array(lam), np.full(4, 1000, dtype=np.int64),
                       np.array(stderr))


def test_two_sample_consistency_is_bonferroni_corrected():
    # the identity label is equal everywhere and is not a comparison
    se = [0.0, 0.01, 0.01, 0.01]
    base = _estimates([1.0, 0.5, 0.6, 0.7], se)
    close = _estimates([1.0, 0.501, 0.601, 0.701], se)
    z_max = 3.6  # above the single-test 3.29, below the corrected value
    shifted = _estimates([1.0, 0.5 + z_max * 0.01 * np.sqrt(2), 0.6, 0.7], se)
    worst, comparisons, critical = two_sample_consistency([base, close, shifted])
    # base/close differ on 3 labels, base/shifted on 1, close/shifted on 3
    assert comparisons == 7
    assert worst == pytest.approx(z_max, rel=1e-9)
    assert 3.2905267314918945 < worst < critical
    far = _estimates([1.0, 0.5 + 6.0 * 0.01 * np.sqrt(2), 0.6, 0.7], se)
    worst, _, critical = two_sample_consistency([base, far])
    assert worst > critical
    # NaN estimates (failed fits) are not compared
    nan = _estimates([1.0, np.nan, np.nan, np.nan], se)
    assert two_sample_consistency([base, nan])[:2] == (0.0, 0)


def test_pauli_basis_covering_overlap_merging():
    # labels covered by several groups accumulate rounds per covering group
    rng = np.random.default_rng(11)
    ch = PauliChannel.random_dirichlet(2, rng)
    cov = pauli_basis_covering(2)
    rounds = 1500
    est = estimate_alg1(ch, 0, cov, len(cov.groups) * rounds, rng)
    assert est.n_shots[0] == 9 * rounds                      # identity: all groups
    assert est.n_shots[parse_bits("XI", 2)] == 3 * rounds    # weight 1: 3 groups
    assert est.n_shots[parse_bits("YY", 2)] == rounds        # weight 2: 1 group
    assert est.max_abs_error(ch.eigenvalues) < 0.1


def test_benchmark_fit_failure_reported_not_fatal():
    # a negative eigenvalue makes the mean statistic alternate in sign, so
    # the per-label fit fails and is reported, while other labels still fit
    rng = np.random.default_rng(12)
    gate = PauliChannel.spike(1, parse_bits("Z", 1), -1)
    model = NoiseModel(1, gate, PauliChannel.identity(1), PauliChannel.identity(1))
    res = benchmark_alg2(model, [0, 1, 2, 3], 4000, rng)
    assert res.estimates.lambda_hat[0] == 1.0
    assert res.fits.errors  # some labels cannot be fit
    for lbl in res.fits.errors:
        assert np.isnan(res.estimates.lambda_hat[lbl])


def test_benchmark_fits_are_those_of_its_decays():
    # the result keeps the one fit of its own decay data, failures included
    rng = np.random.default_rng(12)
    gate = PauliChannel.spike(1, parse_bits("Z", 1), -1)
    model = NoiseModel(1, gate, PauliChannel.identity(1),
                       PauliChannel.depolarizing(1, 0.05))
    res = benchmark_alg2(model, [0, 1, 2, 3], 4000, rng)
    refit = fit_decays(res.lengths, res.f_mean, res.shots)
    assert res.fits.errors and res.fits.errors == refit.errors
    for field in dataclasses.fields(DecayFits):
        if field.name != "errors":
            np.testing.assert_array_equal(getattr(res.fits, field.name),
                                          getattr(refit, field.name))
    assert res.estimates.lambda_hat.tobytes() == refit.lambda_hat.tobytes()
