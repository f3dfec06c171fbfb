"""Estimator aggregation for both protocols.

Channel estimation accumulates, per covering group, a histogram over the
flat (v << m) | e measurement outcomes and converts it to eigenvalue
estimates with one `wht_forward` call, symplectic along v and standard
along the m syndrome bits:

    lambda_hat[u xor s(alpha)] = sum_{v,e} hist[v,e] (-1)^(<u,v> + alpha.e)

This replaces the per-shot inner loop over all (u, alpha) pairs: the
per-shot cost drops to O(1) at the price of one O(2^(n+k) (n+k)) transform
per group.  `estimate_alg1_reference` keeps the literal per-shot loop; on a
shared shot stream both paths agree bit for bit (every partial sum is an
integer below 2^53), which the suite checks.

Labels covered by several groups (always the case for the identity syndrome
part, and for all compatible groups of the 3^m covering) are merged by
shot-count-weighted mean, i.e. the one final division by N_a.

Estimates are reported raw, not clamped to [-1, 1]; clamping would break
the unbiasedness checks.  `EstimateSet.clamp` gives a physically projected
copy for downstream use.

Benchmarking estimates come from fitting per-label decay series
F(m) ~ A * lambda^m by least squares on log F, weighted by shots * F^2
(the delta-method weight for log of a mean of signs).  `fit_decays` fits
all labels at once from the (lengths x labels) array of means with the
closed-form 2x2 normal equations; the scalar `fit_decay` is a one-column
call into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .channels import DENSE_MAX_QUBITS, PauliChannel, wht_forward
from .errors import CapabilityError, FitError, UsageError
from .pauli import format_bits, parity_u64, symp, symp_u64
from .sampler import NoiseModel, simulate_alg2_batch, simulate_rounds_alg1
from .stabilizer import Covering

DECAY_FLOOR = 0.05
DEFAULT_LENGTHS = (0, 1, 2, 4, 8, 16)


@dataclass
class EstimateSet:
    """Per-label eigenvalue estimates with shot counts.

    `labels is None` means dense reporting: index = label.  Otherwise the
    parallel arrays are restricted to the queried labels.
    """

    n: int
    lambda_hat: np.ndarray
    n_shots: np.ndarray
    stderr: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.labels is None and len(self.lambda_hat) != 4**self.n:
            raise UsageError("dense estimate set must cover all labels")
        if np.any(self.n_shots < 1):
            raise UsageError("every reported label needs at least one shot")

    def label_list(self) -> np.ndarray:
        if self.labels is not None:
            return self.labels
        return np.arange(4**self.n, dtype=np.uint64)

    def value(self, label: int) -> float:
        if self.labels is None:
            return float(self.lambda_hat[label])
        hit = np.nonzero(self.labels == np.uint64(label))[0]
        if not hit.size:
            raise UsageError(f"label {label:#x} not in estimate set")
        return float(self.lambda_hat[hit[0]])

    def clamp(self) -> "EstimateSet":
        """Physical projection of the estimates onto [-1, 1]."""
        return EstimateSet(self.n, np.clip(self.lambda_hat, -1.0, 1.0),
                           self.n_shots.copy(),
                           None if self.stderr is None else self.stderr.copy(),
                           None if self.labels is None else self.labels.copy())

    def max_abs_error(self, true_eigenvalues: np.ndarray) -> float:
        truth = np.asarray(true_eigenvalues, dtype=np.float64)
        if self.labels is None:
            return float(np.max(np.abs(self.lambda_hat - truth)))
        idx = self.labels.astype(np.int64)
        return float(np.max(np.abs(self.lambda_hat - truth[idx])))


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
    if total_samples < len(covering.groups):
        raise UsageError(
            f"fewer samples ({total_samples}) than covering size "
            f"({len(covering.groups)})"
        )
    return source, n, total_samples // len(covering.groups)


def _estimate_set(n: int, sums: np.ndarray, counts: np.ndarray,
                  labels: np.ndarray | None = None) -> EstimateSet:
    """Per-label means sums / counts; every label must have been sampled."""
    if np.any(counts == 0):
        first = int(np.argmax(counts == 0))
        missing = first if labels is None else int(labels[first])
        raise UsageError(
            f"covering leaves label {format_bits(missing, n)} unsampled"
        )
    lam = np.asarray(sums, dtype=np.float64) / counts
    stderr = np.sqrt(np.clip(1.0 - lam**2, 0.0, None) / counts)
    return EstimateSet(n, lam, counts, stderr, labels)


def estimate_alg1(channel_or_source, k: int, covering: Covering,
                  total_samples: int, rng: np.random.Generator,
                  labels=None) -> EstimateSet:
    """Run the k-ancilla estimation protocol and aggregate estimates.

    `channel_or_source` is either a PauliChannel (rounds are simulated) or
    a callable (group_index, group, rounds, rng) -> (v_array, e_array) for
    injecting a fixed shot stream.
    """
    source, n, rounds = _resolve(channel_or_source, k, covering, total_samples)
    if labels is not None:
        return _estimate_restricted(source, n, k, covering, rounds, rng, labels)
    if n > DENSE_MAX_QUBITS:
        raise CapabilityError(
            f"dense estimates limited to n <= {DENSE_MAX_QUBITS}; "
            "pass labels= for a restricted set"
        )
    m = covering.m
    sums = np.zeros(4**n)
    counts = np.zeros(4**n, dtype=np.int64)
    u_vals = np.arange(4**k, dtype=np.int64)
    for gi, group in enumerate(covering.groups):
        v, e = source(gi, group, rounds, rng)
        idx = (np.asarray(v, dtype=np.int64) << m) | np.asarray(e, dtype=np.int64)
        hist = np.bincount(idx, minlength=4**k << m)
        # transformed[(u << m) | alpha], already in the row order of `full`
        transformed = wht_forward(hist, syndrome_digits=m)
        elems = np.asarray(group.elements(), dtype=np.int64)
        full = u_vals[:, None] | (elems[None, :] << (2 * k))
        np.add.at(sums, full.ravel(), transformed)
        np.add.at(counts, full.ravel(), rounds)
    return _estimate_set(n, sums, counts)


def _estimate_restricted(source, n, k, covering, rounds, rng, labels
                         ) -> EstimateSet:
    label_arr = np.asarray([int(lbl) for lbl in labels], dtype=np.uint64)
    sums = np.zeros(len(label_arr))
    counts = np.zeros(len(label_arr), dtype=np.int64)
    mask = np.uint64((1 << (2 * k)) - 1)
    for gi, group in enumerate(covering.groups):
        v, e = source(gi, group, rounds, rng)
        v = np.asarray(v, dtype=np.uint64)
        e = np.asarray(e, dtype=np.uint64)
        for li, lbl in enumerate(label_arr):
            c = int(lbl) >> (2 * k)
            alpha = group.coefficients(c)
            if alpha is None:
                continue
            u = np.uint64(int(lbl) & int(mask))
            bits = symp_u64(u, v) ^ parity_u64(np.uint64(alpha) & e)
            sums[li] += rounds - 2 * int(bits.sum())
            counts[li] += rounds
    return _estimate_set(n, sums, counts, label_arr)


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
    return _estimate_set(n, sums, counts)


@dataclass(frozen=True)
class DecaySeries:
    """Mean benchmark statistic F(m) of one label over sequence lengths."""

    label: int
    lengths: np.ndarray
    f_mean: np.ndarray
    shots: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.int64)
        f_mean = np.asarray(self.f_mean, dtype=np.float64)
        shots = np.asarray(self.shots, dtype=np.int64)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "f_mean", f_mean)
        object.__setattr__(self, "shots", shots)
        if not (len(lengths) == len(f_mean) == len(shots)):
            raise UsageError("decay series arrays must have equal length")
        if np.any(np.diff(lengths) <= 0):
            raise UsageError("sequence lengths must be strictly increasing")
        if np.any(np.abs(f_mean) > 1.0 + 1e-9):
            raise UsageError("mean statistic out of [-1, 1]")


@dataclass
class FitResult:
    a_hat: float
    lambda_hat: float
    stderr_lambda: float
    n_used: int
    residual: float
    dropped: list[int] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class DecayFits:
    """Column-wise fits of F(m) = A * lambda^m.

    Failed columns are NaN in the float arrays and keyed by column index in
    `errors` with their FitError message.
    """

    a_hat: np.ndarray
    lambda_hat: np.ndarray
    stderr_lambda: np.ndarray
    n_used: np.ndarray
    residual: np.ndarray
    errors: dict[int, str]


def fit_decays(lengths, f_mean, shots, floor: float = DECAY_FLOOR) -> DecayFits:
    """Fit every column of the (lengths x labels) array `f_mean` at once by
    weighted least squares on log F, weighted by shots * F^2.

    Each column keeps its own usable points, those with F > floor; a column
    with fewer than two of them is a fit error that leaves the other
    columns untouched.  `shots` gives the shot count per length.
    """
    m = np.asarray(lengths, dtype=np.float64)[:, None]
    f = np.asarray(f_mean, dtype=np.float64)
    shots = np.asarray(shots, dtype=np.float64)[:, None]
    usable = f > floor
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


def fit_decay(series: DecaySeries, floor: float = DECAY_FLOOR) -> FitResult:
    """Fit one series through `fit_decays`.

    Points with F <= floor are dropped (negative means are additionally
    flagged); fewer than two usable points is a fit error.
    """
    fits = fit_decays(series.lengths, series.f_mean[:, None], series.shots,
                      floor)
    if fits.errors:
        raise FitError(fits.errors[0])
    f = series.f_mean
    dropped = [int(m) for m in series.lengths[~(f > floor)]]
    warnings = [
        f"negative mean at m={int(m)} excluded"
        for m in series.lengths[f < 0.0]
    ]
    return FitResult(float(fits.a_hat[0]), float(fits.lambda_hat[0]),
                     float(fits.stderr_lambda[0]), int(fits.n_used[0]),
                     float(fits.residual[0]), dropped, warnings)


@dataclass
class BenchmarkResult:
    """Estimates with the decay data and fits behind them.

    Column i of `f_mean` (lengths x labels) and entry i of `a_hat`, `n_used`
    and `residual` belong to label `estimates.label_list()[i]`, whose fitted
    lambda and stderr are in `estimates`; `shots` is per length.  Labels
    whose fit failed are NaN there and keyed in `fit_errors`.
    """

    estimates: EstimateSet
    lengths: np.ndarray
    f_mean: np.ndarray
    shots: np.ndarray
    a_hat: np.ndarray
    n_used: np.ndarray
    residual: np.ndarray
    fit_errors: dict[int, str]


def benchmark_alg2(model: NoiseModel, lengths, shots_per_m: int,
                   rng: np.random.Generator, labels=None) -> BenchmarkResult:
    """Run the SPAM-robust benchmarking protocol and fit every label.

    Per sequence length, `shots_per_m` shots are simulated in one batch and
    reduced to all F(m) values through a histogram of z = v xor (xor of
    gate labels) followed by one symplectic transform.  All labels are
    fitted in one `fit_decays` call; fit failures are recorded per label,
    not raised.
    """
    lengths = np.asarray(sorted(set(int(m) for m in lengths)), dtype=np.int64)
    if lengths.size == 0:
        raise UsageError("need at least one sequence length")
    if shots_per_m < 1:
        raise UsageError("need at least one shot per sequence length")
    n = model.n
    if labels is None:
        if n > DENSE_MAX_QUBITS:
            raise CapabilityError(
                f"dense benchmarking limited to n <= {DENSE_MAX_QUBITS}"
            )
        label_arr = None
        f_rows = np.empty((lengths.size, 4**n))
    else:
        label_arr = np.asarray([int(lbl) for lbl in labels], dtype=np.uint64)
        f_rows = np.empty((lengths.size, label_arr.size))
    for row, m in enumerate(lengths):
        batch = simulate_alg2_batch(model, int(m), rng, shots_per_m)
        z = batch["z"]
        if label_arr is None:
            hist = np.bincount(z.astype(np.int64), minlength=4**n)
            f_rows[row] = wht_forward(hist) / shots_per_m
        else:
            for li, lbl in enumerate(label_arr):
                signs = symp_u64(lbl, z)
                f_rows[row, li] = 1.0 - 2.0 * float(signs.mean())
    shots = np.full(lengths.size, shots_per_m, dtype=np.int64)
    fits = fit_decays(lengths, f_rows, shots)
    report_labels = (np.arange(4**n, dtype=np.uint64)
                     if label_arr is None else label_arr)
    fit_errors = {int(report_labels[col]): msg
                  for col, msg in fits.errors.items()}
    n_shots = np.full(report_labels.size, int(shots.sum()), dtype=np.int64)
    estimates = EstimateSet(n, fits.lambda_hat, n_shots, fits.stderr_lambda,
                            labels=label_arr)
    return BenchmarkResult(estimates, lengths, f_rows, shots, fits.a_hat,
                           fits.n_used, fits.residual, fit_errors)


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
