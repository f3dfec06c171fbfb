"""Estimator aggregation for both protocols.

Channel estimation accumulates, per covering group, a histogram over the
flat (v << m) | e measurement outcomes and converts it to eigenvalue
estimates with a `wht_forward` transform, symplectic along v and standard
along the m syndrome bits:

    lambda_hat[u xor s(alpha)] = sum_{v,e} hist[v,e] (-1)^(<u,v> + alpha.e)

This replaces the per-shot inner loop over all (u, alpha) pairs at
O(2^(n+k) (n+k)) work per group.  The groups are handled in chunks
(`sampler.label_chunks`): one call gives a chunk's outcome laws, one
`draw_histograms` call its histograms, one its transforms and one
`np.add.at` its sums.  The stacked draw takes the groups in order and
gives the random stream of one multinomial per group.  For a simulated
channel the histograms are drawn from the exact outcome laws when a
group's table has no more cells than it has rounds (`sampler.law_pays`);
larger tables and injected shot streams sample every round.  When it
is made, an `alg1_estimator(k, covering)` builds the block of a covering
that fits one chunk (`kept_law_cells`) and then keeps each channel's laws
on it, so repeated estimates of one channel (the `sweep-ancilla` probes)
build them once; channels and coverings keep nothing of an estimate.  A
covering of one trivial group (k = n) skips the accumulation: its
transform is already in label order.
`estimate_alg1_reference` keeps the literal per-shot loop; on a shared shot
stream both paths agree bit for bit (every partial sum is an integer below
2^53), which the suite checks.

Labels covered by several groups (always the case for the identity syndrome
part, and for all compatible groups of the 3^m covering) are merged by
shot-count-weighted mean, i.e. the one final division by N_a: an
`alg1_estimator` returns the sums and the N_a, and `estimate_alg1` their
`EstimateSet`.

Estimates are reported raw, not clamped to [-1, 1]; clamping would break
the unbiasedness checks.

Benchmarking reduces each sequence length to the histogram of
z = v xor (xor of gate labels), and one transform of the stacked
histograms gives all F(m) values.  The histograms of all lengths are
drawn in one `draw_histograms` call from their exact laws when there are
no more labels than shots, else from simulated shots, length by length.
The estimates come from fitting every label's decay F(m) ~ A * lambda^m
by least squares on log F, weighted by shots * F^2 (the delta-method
weight for log of a mean of signs).  `fit_decays` fits all labels at once
from the (lengths x labels) array of means with the closed-form 2x2 normal
equations.

Both estimators report all 4^n labels: `EstimateSet` is a dense table,
indexed by label.  `_tally_codes` gives the CLI's table writer a slice of
an `estimate_alg1` estimate as codes into one entry per distinct tally
s / c, found by counting, so each distinct row text is formatted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channels import DENSE_MAX_QUBITS, PauliChannel, wht_forward
from .errors import CapabilityError, UsageError
from .pauli import format_bits, symp
from .sampler import (
    NoiseModel,
    chunk_groups,
    draw_histograms,
    label_chunks,
    law_pays,
    outcome_distribution_alg1,
    outcome_distribution_alg2,
    simulate_alg2_batch,
    simulate_rounds_alg1,
)
from .stabilizer import Covering

DECAY_FLOOR = 0.05
DEFAULT_LENGTHS = (0, 1, 2, 4, 8, 16)
# peak bytes per label of a dense `estimate` run: measured 77 B per label
# above a fixed ~15 MB at n = 9 and 10 (k = 0 and k = n), rounded up
DENSE_BYTES_PER_LABEL = 96
# peak bytes per label of a dense `benchmark` run with L distinct lengths and
# R SPAM rates, PER_LABEL + R * (PER_RATE + L * PER_LENGTH): its peak RSS
# above the import measured 436, 710 and 1178 B per label for L = 1 and
# R = 1, 2, 3, and 658, 840 and 945 B for L = 6, at n = 8 with 4^n - 1
# shots (the most a shot batch holds); the constants bound every point.  A
# rate holds its result's f_rows and fit arrays, and the CLI writes one
# rate's table columns at a time.  The L = 1 runs set PER_RATE: one length
# fits no decay, so every label keeps a fit-error message.  The CLI now
# refuses ladders of fewer than two distinct lengths; the constants, set
# with them, still bound every run it accepts
BENCHMARK_BYTES_PER_LABEL = 96
BENCHMARK_BYTES_PER_RATE = 320
BENCHMARK_BYTES_PER_LENGTH = 48
# the most bins per label that `_tally_codes` counts: ranking 65536 keys
# over 4 bins each (bincount, clip, cumsum) takes about 1.1 ms, half of
# the two np.unique calls it spares a piece (about 2 ms each), and grows
# with the bins, to 2.3 ms at 8 per label
_TALLY_BINS_PER_ROW = 4


@dataclass
class EstimateSet:
    """Eigenvalue estimates with shot counts for all 4^n labels: entry b of
    each array belongs to label b.  An `n_shots` equal for every label (k = n,
    benchmarking) is a read-only broadcast view of one int64."""

    n: int
    lambda_hat: np.ndarray
    n_shots: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        if len(self.lambda_hat) != 4**self.n:
            raise UsageError("dense estimate set must cover all labels")
        if np.any(self.n_shots < 1):
            raise UsageError("every reported label needs at least one shot")

    def max_abs_error(self, true_eigenvalues: np.ndarray) -> float:
        truth = np.asarray(true_eigenvalues, dtype=np.float64)
        return float(np.max(np.abs(self.lambda_hat - truth)))


def required_samples(n: int, k: int, epsilon: float, delta: float,
                     covering_size: int) -> int:
    """Total sample budget from the Hoeffding + union-bound constants:
    covering_size * ceil(2 ln(2 * 4^n / delta) / epsilon^2)."""
    if not 0.0 < epsilon <= 1.0:
        raise UsageError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise UsageError(f"delta must lie in (0, 1), got {delta}")
    if not 0 <= k <= n:
        raise UsageError(f"k={k} out of range for n={n}")
    if covering_size < 1:
        raise UsageError(f"covering size must be positive, got {covering_size}")
    per_label = math.ceil(2.0 * math.log(2.0 * 4**n / delta) / epsilon**2)
    return covering_size * per_label


def dense_estimate_bytes(n: int) -> int:
    """Bytes a dense `estimate` run on n qubits holds at its peak, beyond the
    interpreter: its channel, estimates and output columns, 4^n entries
    each.  Pure arithmetic, so a caller can refuse a run before allocating
    any of it."""
    return DENSE_BYTES_PER_LABEL * 4**n


def dense_benchmark_bytes(n: int, lengths: int, rates: int) -> int:
    """Bytes a dense `benchmark` run on n qubits holds at its peak, beyond
    the interpreter, with `lengths` distinct sequence lengths and `rates`
    SPAM rates: every rate's (lengths x 4^n) means and fit arrays, and the
    columns of one rate's estimate and decay tables.  Pure arithmetic, like
    `dense_estimate_bytes`."""
    per_rate = BENCHMARK_BYTES_PER_RATE + lengths * BENCHMARK_BYTES_PER_LENGTH
    return (BENCHMARK_BYTES_PER_LABEL + rates * per_rate) * 4**n


def _resolve(channel_or_source, k: int, covering: Covering,
             total_samples: int):
    """(source, n, rounds per group) of one estimation run, validated."""
    if isinstance(channel_or_source, PauliChannel):
        channel = channel_or_source

        def source(_index, group, rounds, rng):
            return simulate_rounds_alg1(channel, k, group, rng, rounds)

        n = channel.n
    else:
        source, n = channel_or_source, k + covering.m
    if covering.m != n - k:
        raise UsageError(
            f"covering acts on {covering.m} qubits, expected {n - k}"
        )
    if not covering.groups:
        raise UsageError("covering has no groups")
    if total_samples < len(covering.groups):
        raise UsageError(
            f"fewer samples ({total_samples}) than covering size "
            f"({len(covering.groups)})"
        )
    return source, n, total_samples // len(covering.groups)


def _require_sampled(n: int, counts: np.ndarray):
    if np.any(counts == 0):
        missing = format_bits(int(np.argmax(counts == 0)), n)
        raise UsageError(f"covering leaves label {missing} unsampled")


def _estimate_set(n: int, sums: np.ndarray, counts: np.ndarray
                  ) -> EstimateSet:
    """Per-label means sums / counts and their stderr."""
    lam = np.asarray(sums, dtype=np.float64) / counts
    # sqrt(max(1 - lam^2, 0) / counts), in one buffer
    stderr = np.square(lam)
    np.subtract(1.0, stderr, stderr)
    np.clip(stderr, 0.0, None, stderr)
    np.divide(stderr, counts, stderr)
    np.sqrt(stderr, stderr)
    return EstimateSet(n, lam, counts, stderr)


def _tally_codes(est: EstimateSet, lo: int, hi: int):
    """Labels lo:hi of an `estimate_alg1` estimate as one coded group
    ``(codes, [lambda_hat, n_shots, stderr])``: short columns, one entry
    per distinct tally, and each label's index into them, so that
    ``column[codes]`` gives back the slice's cells bit for bit.  None when
    the slice's shot counts differ or its tallies span more than
    _TALLY_BINS_PER_ROW bins per label.

    A label's estimate is a tally s / c, |s| <= c, with one shot count c in
    the slice, so its key s + c in [0, 2c] is rint(lambda_hat * c + c)
    exactly; -0.0 has its own key, 2c + 1, beside 0.0.  The keys are ranked
    by counting (`np.bincount` presence, then a `cumsum`, in int64: a cumsum
    of bools casts, at two to three times the time), with no sort, and the
    short columns are scattered from the slice's own rows: its stderr, like
    its estimate, is a function of (s, c)."""
    counts = est.n_shots[lo:hi]
    if counts.min() != counts.max():
        return None
    c = int(counts[0])
    bins = 2 * c + 2
    if bins > _TALLY_BINS_PER_ROW * counts.size:
        return None
    lam = est.lambda_hat[lo:hi]
    keys = lam * c  # then + c and rint, in one buffer
    keys += c
    keys = np.rint(keys, out=keys).astype(np.intp)
    keys[lam.view(np.uint64) == np.uint64(1 << 63)] = bins - 1
    rank = np.bincount(keys, minlength=bins)
    np.minimum(rank, 1, out=rank)
    np.cumsum(rank, out=rank)
    codes = np.take(rank, keys)
    codes -= 1
    size = int(rank[-1])
    columns = [np.empty(size), np.broadcast_to(counts[:1], (size,)),
               np.empty(size)]
    columns[0][codes] = lam
    columns[2][codes] = est.stderr[lo:hi]
    return codes, columns


def estimate_alg1(channel_or_source, k: int, covering: Covering,
                  total_samples: int, rng: np.random.Generator
                  ) -> EstimateSet:
    """Run the k-ancilla estimation protocol and estimate all 4^n
    eigenvalues: the `EstimateSet` of the sums and counts of a fresh
    `alg1_estimator(k, covering)`, arguments as there."""
    return _estimate_set(k + covering.m, *alg1_estimator(k, covering)(
        channel_or_source, total_samples, rng))


def kept_law_cells(k: int, covering: Covering) -> int:
    """Cells of the laws an `alg1_estimator(k, covering)` keeps per channel:
    all of them when the covering fits one label chunk and m > 0, else 0."""
    size, m = len(covering.generator_array), covering.m
    return size * 4**k << m if 0 < m and size <= chunk_groups(k, m) else 0


def alg1_estimator(k: int, covering: Covering):
    """The k-ancilla estimation protocol on `covering`, as a function
    (channel_or_source, total_samples, rng) -> (sums, counts): per-label
    float64 sums and int64 counts over all 4^n labels, whose quotient is
    lambda_hat; a label left unsampled is a UsageError.  `channel_or_source`
    is a PauliChannel (rounds are simulated) or a callable (group_index,
    group, rounds, rng) -> (v_array, e_array) for injecting a fixed shot
    stream.  For a covering that fits one label chunk (`kept_law_cells`),
    its block is built here and each channel's laws on it are kept once
    drawn from, both read-only; a larger covering keeps nothing."""
    groups, m = covering.groups, covering.m
    whole, kept = None, {}  # one chunk's block; channel -> its laws on it
    if kept_law_cells(k, covering):
        _, whole = next(label_chunks(k, covering))
        whole.setflags(write=False)

    def laws(channel, part, block=None):
        """Stacked laws of `part` on `block`, kept if that is `whole`."""
        if channel is None:  # the per-shot path
            return None
        if whole is None:
            return outcome_distribution_alg1(channel, k, part, block)
        if channel not in kept:
            kept[channel] = outcome_distribution_alg1(channel, k, part, block)
            kept[channel].setflags(write=False)
        return kept[channel]

    def estimate(channel_or_source, total_samples, rng):
        source, n, rounds = _resolve(channel_or_source, k, covering,
                                     total_samples)
        if n > DENSE_MAX_QUBITS:
            raise CapabilityError(
                f"dense estimates limited to n <= {DENSE_MAX_QUBITS}"
            )
        law_channel = channel_or_source if isinstance(
            channel_or_source, PauliChannel) and law_pays(4**k << m, rounds) \
            else None
        if len(groups) == 1 and m == 0:
            # one trivial group: its transform is already in label order and
            # every label is seen in every round
            hist = _histograms(laws(law_channel, groups), source, k, groups,
                               0, rounds, rng)
            counts = np.broadcast_to(np.int64(rounds), (4**n,))
            return wht_forward(hist[0]), counts
        sums = np.zeros(4**n)
        counts = np.zeros(4**n, dtype=np.int64)
        for start, block in label_chunks(k, covering) if whole is None \
                else [(0, whole)]:
            part = groups[start:start + len(block)]
            hists = _histograms(laws(law_channel, part, block), source, k,
                                part, start, rounds, rng)
            # transformed[g, (u << m) | alpha], in the order of block[g]
            transformed = wht_forward(hists, syndrome_digits=m)
            np.add.at(sums, block.ravel(), transformed.ravel())
            np.add.at(counts, block.ravel(), rounds)
        _require_sampled(n, counts)
        return sums, counts

    return estimate


def _histograms(laws, source, k, groups, start, rounds, rng) -> np.ndarray:
    """(G, cells) int64 outcome histograms of `groups`, the covering's groups
    from index `start` on, in group order: drawn from their stacked `laws`
    in one `draw_histograms` call unless those are None, else binned from
    the rounds `source` returns."""
    m = groups[0].m
    cells = 4**k << m
    if laws is not None:
        return draw_histograms(laws, rounds, rng).reshape(len(groups), cells)
    hists = np.empty((len(groups), cells), dtype=np.int64)
    for hist, (gi, group) in zip(hists, enumerate(groups, start)):
        v, e = source(gi, group, rounds, rng)
        idx = ((np.asarray(v, dtype=np.int64) << m)
               | np.asarray(e, dtype=np.int64))
        hist[:] = np.bincount(idx, minlength=cells)
    return hists


def estimate_alg1_reference(channel_or_source, k: int, covering: Covering,
                            total_samples: int, rng: np.random.Generator
                            ) -> EstimateSet:
    """Literal per-shot accumulation over every (u, alpha) pair.

    Exponentially slower than `estimate_alg1`; kept as the dual
    implementation the fast path is verified against.
    """
    source, n, rounds = _resolve(channel_or_source, k, covering, total_samples)
    if n > 6:
        raise CapabilityError("reference estimator limited to n <= 6")
    m = covering.m
    sums = np.zeros(4**n, dtype=np.int64)
    counts = np.zeros(4**n, dtype=np.int64)
    for gi, group in enumerate(covering.groups):
        v_arr, e_arr = source(gi, group, rounds, rng)
        elems = group.elements()
        for v, e in zip(v_arr, e_arr):
            v = int(v)
            e = int(e)
            for u in range(4**k):
                uv = symp(u, v)
                for alpha in range(2**m):
                    sign_bit = uv ^ ((alpha & e).bit_count() & 1)
                    lbl = u | (elems[alpha] << (2 * k))
                    sums[lbl] += 1 - 2 * sign_bit
                    counts[lbl] += 1
    _require_sampled(n, counts)
    return _estimate_set(n, sums, counts)


@dataclass(frozen=True)
class DecayFits:
    """Column-wise fits of F(m) = A * lambda^m.

    Failed columns are NaN in the float arrays and keyed by column index in
    `errors` with the reason; no exception is raised.
    """

    a_hat: np.ndarray
    lambda_hat: np.ndarray
    stderr_lambda: np.ndarray
    n_used: np.ndarray
    residual: np.ndarray
    errors: dict[int, str]


def fit_decays(lengths, f_mean, shots) -> DecayFits:
    """Fit every column of the (lengths x labels) array `f_mean` at once by
    weighted least squares on log F, weighted by shots * F^2.

    Each column keeps its own usable points, those with F > DECAY_FLOOR; a
    column with fewer than two of them is a fit error that leaves the other
    columns untouched.  `shots` gives the shot count per length.
    """
    m = np.asarray(lengths, dtype=np.float64)[:, None]
    f = np.asarray(f_mean, dtype=np.float64)
    shots = np.asarray(shots, dtype=np.float64)[:, None]
    usable = f > DECAY_FLOOR
    n_used = usable.sum(axis=0)
    f = np.where(usable, f, 1.0)
    y = np.log(f)
    w = np.where(usable, shots * f**2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        wsum = w.sum(axis=0)
        m_bar = (w * m).sum(axis=0) / wsum
        y_bar = (w * y).sum(axis=0) / wsum
        dm = m - m_bar
        denom = (w * dm**2).sum(axis=0)
        slope = (w * dm * (y - y_bar)).sum(axis=0) / denom
        intercept = y_bar - slope * m_bar
        resid = y - (intercept + slope * m)
        residual = np.sqrt((w * resid**2).sum(axis=0))
        # delta-method variance of log F sandwiched through the WLS solve;
        # the slope entry of the 2x2 sandwich is sum w^2 var dm^2 / denom^2
        var_y = np.clip(1.0 - f**2, 0.0, None) / (shots * f**2)
        var_slope = (w**2 * var_y * dm**2).sum(axis=0) / denom**2
        lam = np.exp(slope)
        se_lambda = lam * np.sqrt(var_slope)
        a_hat = np.exp(intercept)
    errors = {}
    for col in np.nonzero((n_used < 2) | ~(denom > 0.0))[0]:
        errors[int(col)] = ("decay too fast for chosen M" if n_used[col] < 2
                            else "degenerate design: repeated sequence length")
    failed = list(errors)
    for arr in (a_hat, lam, se_lambda, residual):
        arr[failed] = np.nan
    return DecayFits(a_hat, lam, se_lambda, n_used, residual, errors)


@dataclass
class BenchmarkResult:
    """Estimates with the decay data and fits behind them.

    Column b of `f_mean` (lengths x labels) and entry b of each `fits`
    array belong to label b, whose fitted lambda and stderr are also in
    `estimates`; `shots` is per length.  Labels whose fit failed are NaN
    there and keyed in `fits.errors`.
    """

    estimates: EstimateSet
    lengths: np.ndarray
    f_mean: np.ndarray
    shots: np.ndarray
    fits: DecayFits


def benchmark_alg2(model: NoiseModel, lengths, shots_per_m: int,
                   rng: np.random.Generator) -> BenchmarkResult:
    """Run the SPAM-robust benchmarking protocol and fit all 4^n labels.

    Per sequence length, `shots_per_m` shots are reduced to all F(m)
    values through a histogram of z = v xor (xor of gate labels); one
    symplectic transform takes every length's histogram.  The histograms
    are one `draw_histograms` call over the stacked
    `outcome_distribution_alg2` laws when `law_pays(4^n, shots_per_m)`,
    else the shots are simulated.  All labels are fitted in one
    `fit_decays` call; fit failures are recorded per label, not raised.
    """
    lengths = np.asarray(sorted(set(int(m) for m in lengths)), dtype=np.int64)
    if lengths.size == 0:
        raise UsageError("need at least one sequence length")
    if shots_per_m < 1:
        raise UsageError("need at least one shot per sequence length")
    n = model.n
    if n > DENSE_MAX_QUBITS:
        raise CapabilityError(
            f"dense benchmarking limited to n <= {DENSE_MAX_QUBITS}"
        )
    if law_pays(4**n, shots_per_m):
        hists = draw_histograms(
            np.stack([outcome_distribution_alg2(model, int(m))
                      for m in lengths]), shots_per_m, rng)
    else:
        hists = np.stack([
            np.bincount(simulate_alg2_batch(model, int(m), rng,
                                            shots_per_m)["z"].astype(np.int64),
                        minlength=4**n)
            for m in lengths])
    f_rows = wht_forward(hists) / shots_per_m
    shots = np.full(lengths.size, shots_per_m, dtype=np.int64)
    fits = fit_decays(lengths, f_rows, shots)
    n_shots = np.broadcast_to(shots.sum(), (4**n,))
    estimates = EstimateSet(n, fits.lambda_hat, n_shots, fits.stderr_lambda)
    return BenchmarkResult(estimates, lengths, f_rows, shots, fits)


def two_sample_consistency(estimate_sets) -> tuple[float, int, float]:
    """Label-by-label two-sample z test between every pair of estimate sets
    over the same labels.

    Returns (largest z, comparisons, critical z).  A comparison is a label
    whose two estimates are finite and differ; the critical value is the
    two-sided normal quantile at family-wise significance 1e-3 split over
    all comparisons (Bonferroni), so the sets are consistent when
    largest z < critical z.
    """
    worst = 0.0
    comparisons = 0
    for i, est_a in enumerate(estimate_sets):
        for est_b in estimate_sets[i + 1:]:
            a, b = est_a.lambda_hat, est_b.lambda_hat
            made = np.isfinite(a) & np.isfinite(b) & (a != b)
            den = np.sqrt(est_a.stderr[made]**2 + est_b.stderr[made]**2)
            with np.errstate(divide="ignore"):
                z = np.abs(a[made] - b[made]) / den
            worst = max(worst, float(z.max(initial=0.0)))
            comparisons += int(made.sum())
    critical = NormalDist().inv_cdf(1.0 - 1e-3 / (2.0 * max(comparisons, 1)))
    return worst, comparisons, critical
