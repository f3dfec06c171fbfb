import json
import math

import numpy as np
import pytest

from paulibench import (
    DecaySeries,
    FitError,
    NoiseModel,
    PauliChannel,
    UsageError,
    benchmark_alg2,
    draw_histogram,
    estimate_alg1,
    fit_decay,
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
    estimate_alg1_reference,
    two_sample_consistency,
)
from paulibench.pauli import format_bits, format_labels, parse_bits
from paulibench.sampler import (
    outcome_distribution_alg1,
    outcome_distribution_alg2,
    simulate_alg2_batch,
    simulate_rounds_alg1,
)


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
    assert abs(est.value(a) + 1.0) < 0.03
    others = np.delete(est.lambda_hat, [0, a])
    assert np.max(np.abs(others)) < 0.03


def test_too_few_samples_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(UsageError, match="fewer samples"):
        estimate_alg1(PauliChannel.identity(3), 1, mub_covering(2), 4, rng)


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
    sub = estimate_alg1(replay, k, cov, 2000, np.random.default_rng(0),
                        labels=list(range(4**n)))
    assert np.array_equal(sub.lambda_hat, fast.lambda_hat)


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
    for ch in channels:
        twin = PauliChannel.from_sparse(n, [(a, ch.probability(a))
                                            for a in range(16)
                                            if ch.probability(a) > 0])
        for k in range(n + 1):
            for grp in mub_covering(n - k).groups:
                law = outcome_distribution_alg1(ch, k, grp)
                reachable = outcome_distribution_alg1(twin, k, grp) > 0
                counts = draw_histogram(law, 10_000, rng)
                assert counts.sum() == 10_000 and not counts[~reachable].any()
                negatives += int((law < 0).sum())
        for spam in (PauliChannel.identity(n), ch):
            model = NoiseModel(n, ch, spam, spam)
            for m in (0, 1, 2, 5):
                law = outcome_distribution_alg2(model, m)
                reachable = oracle.alg2_distribution_convolution(model, m) > 0
                counts = draw_histogram(law, 10_000, rng)
                assert counts.sum() == 10_000 and not counts[~reachable].any()
                negatives += int((law < 0).sum())
    assert negatives > 0  # the roundoff case is exercised
    # the identity channel's law-drawn estimates are exact
    est = estimate_alg1(PauliChannel.identity(3), 0, mub_covering(3), 900, rng)
    assert np.all(est.lambda_hat == 1.0)
    res = benchmark_alg2(NoiseModel.noiseless(3), [0, 2, 5], 64, rng)
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
        values[r] = [est.value(lbl) for lbl in labels]
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


def test_clamping_is_separate():
    rng = np.random.default_rng(3)
    ch = PauliChannel.spike(2, 3, +1)
    est = estimate_alg1(ch, 2, mub_covering(0), 2000, rng)
    assert np.max(est.lambda_hat) >= 1.0  # raw estimates may exceed 1
    clamped = est.clamp()
    assert np.max(clamped.lambda_hat) <= 1.0
    assert np.min(clamped.lambda_hat) >= -1.0


def test_estimate_set_lookup_and_validation():
    est = EstimateSet(1, np.ones(4), np.full(4, 7, dtype=np.int64))
    assert est.value(2) == 1.0
    with pytest.raises(UsageError):
        EstimateSet(1, np.ones(3), np.ones(3, dtype=np.int64))
    with pytest.raises(UsageError):
        EstimateSet(1, np.ones(4), np.zeros(4, dtype=np.int64))
    sub = EstimateSet(3, np.array([0.5]), np.array([10]),
                      labels=np.array([9], dtype=np.uint64))
    assert sub.value(9) == 0.5
    with pytest.raises(UsageError):
        sub.value(1)


def test_fit_exact_exponential():
    lengths = np.array([0, 1, 2, 4, 8])
    series = DecaySeries(2, lengths, 0.9 * 0.95**lengths, [1000] * 5)
    fit = fit_decay(series)
    assert abs(fit.a_hat - 0.9) < 1e-12
    assert abs(fit.lambda_hat - 0.95) < 1e-12
    assert fit.n_used == 5 and not fit.dropped


def test_fit_constant_one():
    series = DecaySeries(0, [0, 1, 2], np.ones(3), [10] * 3)
    fit = fit_decay(series)
    assert fit.a_hat == 1.0 and fit.lambda_hat == 1.0
    assert fit.stderr_lambda == 0.0


def test_fit_drops_below_floor():
    lengths = np.array([0, 1, 2, 4, 8, 16])
    f = 0.99 * 0.6**lengths  # falls below 0.05 at m = 8
    series = DecaySeries(1, lengths, f, [500] * 6)
    fit = fit_decay(series)
    assert fit.dropped == [8, 16]
    assert abs(fit.lambda_hat - 0.6) < 1e-9


def test_fit_errors():
    with pytest.raises(FitError, match="decay too fast"):
        fit_decay(DecaySeries(1, [0, 1, 2], [1.0, 0.01, 0.001], [10] * 3))
    series = DecaySeries(1, [0, 1, 2], [0.9, 0.3, -0.2], [10] * 3)
    fit = fit_decay(series)
    assert any("negative" in w for w in fit.warnings)
    assert fit.n_used == 2


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
        alone = fit_decay(DecaySeries(col, lengths, f[:, col], [1000] * 6))
        assert alone.lambda_hat == pytest.approx(fits.lambda_hat[col], rel=1e-15)
        assert alone.stderr_lambda == pytest.approx(fits.stderr_lambda[col],
                                                    rel=1e-12, abs=1e-300)
        assert alone.residual == pytest.approx(fits.residual[col], abs=1e-12)


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


def test_decay_series_validation():
    with pytest.raises(UsageError):
        DecaySeries(0, [0, 0, 1], [1, 1, 1], [5, 5, 5])
    with pytest.raises(UsageError):
        DecaySeries(0, [0, 1], [1.5, 1.0], [5, 5])


def test_benchmark_noiseless_exact():
    rng = np.random.default_rng(6)
    res = benchmark_alg2(NoiseModel.noiseless(2), [0, 1, 2, 4], 200, rng)
    assert np.all(res.estimates.lambda_hat == 1.0)
    assert not res.fit_errors


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


def test_benchmark_label_subset():
    rng = np.random.default_rng(9)
    gate = PauliChannel.depolarizing(2, 0.05)
    model = NoiseModel(2, gate, PauliChannel.identity(2), PauliChannel.identity(2))
    labels = [0, 3, 9]
    res = benchmark_alg2(model, [0, 1, 2, 4], 20_000, rng, labels=labels)
    assert list(res.estimates.labels) == labels
    for lbl in labels:
        assert abs(res.estimates.value(lbl) - gate.eigenvalues[lbl]) < 0.03


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
    # rows of Python values: floats at 17 significant digits, ints as is
    writer = RunWriter(str(tmp_path), "csv")
    path = writer.write_table("estimates",
                              ["label", "lambda_hat", "n_shots", "stderr"],
                              [["I", 1.0, 100, 0.0], ["X", 0.25, 100, 0.1]])
    lines = path.read_text().splitlines()
    assert lines[0] == "label,lambda_hat,n_shots,stderr"
    assert lines[1] == "I,1,100,0"
    assert lines[2] == "X,0.25,100,0.10000000000000001"
    path = writer.write_table("decays", ["label", "m", "f_mean", "shots"],
                              [["Z", 0, 1.0, 10]])
    assert path.read_text().splitlines()[1] == "Z,0,1,10"
    assert writer.tables["decays.csv"]["rows"] == 1


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
    columns = [format_labels(labels, 6), lam, cnt, se]
    py_rows = [[format_bits(b, 6), x, c, e] for b, x, c, e in zip(
        labels.tolist(), lam.tolist(), cnt.tolist(), se.tolist())]
    expected_csv = [",".join(header)] + [
        ",".join(["{:.17g}".format(x) if isinstance(x, float) else str(x)
                  for x in row]) for row in py_rows]
    # -0.0 keeps its sign next to 0.0 (a value-keyed lookup would merge them)
    assert [line.split(",")[1] for line in
            expected_csv[_CSV_CHUNK_ROWS - 3:_CSV_CHUNK_ROWS - 1]] == ["-0", "0"]
    writer = RunWriter(str(tmp_path / "csv"), "csv")
    text = writer.write_columns("estimates", header, columns).read_text()
    assert text.endswith("\n") and text.splitlines() == expected_csv
    assert writer.tables["estimates.csv"]["rows"] == rows
    # JSON takes no chunks: the rows around the special values suffice
    part = slice(_CSV_CHUNK_ROWS - 50, _CSV_CHUNK_ROWS + 50)
    writer = RunWriter(str(tmp_path / "json"), "json")
    path = writer.write_columns("estimates", header,
                                [col[part] for col in columns])
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
    assert res.fit_errors  # some labels cannot be fit
    for lbl in res.fit_errors:
        assert np.isnan(res.estimates.value(lbl))
