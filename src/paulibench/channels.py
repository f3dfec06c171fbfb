"""Pauli channels: error rates, eigenvalues, and the transform between them.

A Pauli channel on n qubits applies P_a with probability p_a.  Its action
on each Pauli observable P_b is multiplication by the eigenvalue

    lambda_b = sum_a p_a (-1)^<a, b>,
    p_a      = 4^-n sum_b lambda_b (-1)^<a, b>,

i.e. p and lambda are a Walsh-Hadamard transform pair under the symplectic
character (-1)^<a,b>.  The transform is implemented natively as a radix-4
butterfly whose per-qubit kernel over the two-bit labels (I, X, Z, Y) is

    [ 1  1  1  1 ]
    [ 1  1 -1 -1 ]
    [ 1 -1  1 -1 ]
    [ 1 -1 -1  1 ]

rather than by bit-swap reindexing into a standard Hadamard transform; the
two routes are cross-tested in the suite.  The same digit-by-digit kernel
also applies the Hadamard to low syndrome bits, two bits at a time as the
radix-4 H (x) H butterfly (the kernel above with its middle rows swapped)
and one odd leftover bit as a radix-2 H, so the estimator's per-group
transform over (v << m) | e indices is one `wht_forward` call with
`syndrome_digits=m`; there is no second transform implementation.  A pair
of bits costs the same float operations, in the same order, as two radix-2
stages, so the result is bit-identical to one stage per syndrome bit.

Channels keep their error rates in one of two forms, and every exact
outcome law reads the one eigenvalue vector `PauliChannel.eigenvalues`:

* dense: the full length-4^n error-rate vector, allowed for
  n <= DENSE_MAX_QUBITS (4^13 doubles is about half a GiB), which is
  checked before any 4^n array is made; eigenvalues come at construction.
* sparse: an explicit support list of (label, probability), on any n;
  `eigenvalue` and `probability` read the support per label, and the first
  read of `eigenvalues` transforms it, for n <= DENSE_MAX_QUBITS.

Inputs that are not a probability distribution (negative entries or total
mass off by more than NORMALIZATION_TOL) are rejected, never silently
renormalized.  A channel is immutable; beside its error rates it keeps its
eigenvalues and sampling CDF, each made once (runs are serial).  An
estimator keeps what it derives from one, such as outcome laws.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .errors import CapabilityError, UsageError
from .pauli import format_bits, parse_bits, symp, symp_u64

DENSE_MAX_QUBITS = 13
NORMALIZATION_TOL = 1e-12
EIGENVALUE_TOL = 1e-12


def _pauli_digits(length: int, syndrome_digits: int) -> int:
    """n with length == 2^syndrome_digits * 4^n, else a UsageError."""
    n = (length.bit_length() - 1 - syndrome_digits) // 2
    if syndrome_digits < 0 or n < 0 or length != 4**n << syndrome_digits:
        raise UsageError(f"vector length {length} is not 2^{syndrome_digits} "
                         "times a power of 4")
    return n


def _digit_transform(vec: np.ndarray, syndrome_digits: int) -> np.ndarray:
    """The one transform kernel: walk the last axis digit by digit, from
    the least significant.  The first `syndrome_digits` bits take the
    Hadamard H, in pairs as one radix-4 H (x) H stage and an odd leftover
    bit as one radix-2 stage; every base-4 digit above them takes the
    radix-4 symplectic kernel.

    Each stage reads the lowest digit of one buffer and writes its results
    as contiguous rows, through `out=`, under the top digit of the other
    (a Stockham autosort), so once every digit has gone round the order is
    the input's again.  A pair of bits costs the same float operations, in
    the same order, as two radix-2 stages, so the output is bit for bit the
    same as walking the syndrome bits one at a time."""
    length = vec.shape[-1]
    n = _pauli_digits(length, syndrome_digits)
    if not np.isfinite(vec).all():
        raise UsageError("transform input has non-finite entries")
    src = np.array(vec, dtype=np.float64)
    dst = np.empty(src.shape)
    lead = src.shape[:-1]
    # (j, k): the slots of t0 - t2 and t1 + t3 in a radix-4 stage, swapped
    # for H (x) H; None for the odd syndrome bit
    stages = ([(2, 1)] * (syndrome_digits // 2)
              + [None] * (syndrome_digits % 2) + [(1, 2)] * n)
    for slots in stages:
        radix = 2 if slots is None else 4
        a = src.reshape(lead + (length // radix, radix))
        b = dst.reshape(lead + (radix, length // radix))
        a0 = a[..., 0]
        a1 = a[..., 1]
        b0 = b[..., 0, :]
        if slots is None:
            np.add(a0, a1, b0)
            np.subtract(a0, a1, b[..., 1, :])
        else:
            j, k = slots
            a2 = a[..., 2]
            a3 = a[..., 3]
            bk = b[..., k, :]
            t2 = a2 + a3
            t3 = a2 - a3
            np.subtract(a0, a1, bk)  # t1
            np.add(a0, a1, b0)  # t0
            np.subtract(bk, t3, b[..., 3, :])
            np.add(bk, t3, bk)
            np.subtract(b0, t2, b[..., j, :])
            np.add(b0, t2, b0)
        src, dst = dst, src
    return src


def wht_forward(p: np.ndarray, *, syndrome_digits: int = 0) -> np.ndarray:
    """Error rates -> eigenvalues: lambda_b = sum_a p_a (-1)^<a,b>.

    With `syndrome_digits = m` the last axis is indexed by (v << m) | e,
    and the standard +-1 transform runs over the m syndrome bits e as well:
    out[(u << m) | alpha] = sum_{v,e} p[(v << m) | e] (-1)^(<u,v> + alpha.e).
    """
    return _digit_transform(np.asarray(p), syndrome_digits)


def wht_inverse(lam: np.ndarray) -> np.ndarray:
    """Eigenvalues -> error rates: p_a = 4^-n sum_b lambda_b (-1)^<a,b>."""
    lam = np.asarray(lam)
    return _digit_transform(lam, 0) / lam.shape[-1]


def _check_dense(n: int):
    """Refuse a 4^n array above DENSE_MAX_QUBITS, before allocating one."""
    if n > DENSE_MAX_QUBITS:
        raise CapabilityError(f"dense channels limited to n <= "
                              f"{DENSE_MAX_QUBITS}, got {n}")


def _validate_probs(probs: np.ndarray):
    if np.any(probs < -NORMALIZATION_TOL):
        worst = float(probs.min())
        raise UsageError(f"negative probability {worst:g}")
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise UsageError(f"probabilities sum to {total!r}, not 1")


def _label_bits(label: int | str, n: int) -> int:
    """Bit-packed form of an n-letter string or a raw int in [0, 4^n);
    anything else, a bool included, is out of range."""
    if isinstance(label, str):
        return parse_bits(label, n)
    if isinstance(label, Integral) and not isinstance(label, bool):
        bits = int(label)
        if 0 <= bits < 4**n:
            return bits
        raise UsageError(f"label {bits:#x} out of range for n={n}")
    raise UsageError(f"label {label!r} out of range for n={n}")


class PauliChannel:
    """Immutable Pauli channel in dense or sparse representation.

    Use the classmethod constructors; the raw initializer is internal.
    """

    __slots__ = (
        "n",
        "error_rates",
        "support_labels",
        "support_probs",
        "_eigenvalues",
        "_cdf",
    )

    def __init__(self, n, *, error_rates=None, eigenvalues=None,
                 support_labels=None, support_probs=None):
        self.n = n
        self.error_rates = error_rates
        self.support_labels = support_labels
        self.support_probs = support_probs
        self._eigenvalues = eigenvalues
        self._cdf = None
        if error_rates is not None:
            error_rates.setflags(write=False)
        if eigenvalues is not None:
            eigenvalues.setflags(write=False)
        if support_labels is not None:
            support_labels.setflags(write=False)
            support_probs.setflags(write=False)

    # --- constructors ---------------------------------------------------

    @classmethod
    def from_error_rates(cls, n: int, p: Sequence[float]) -> "PauliChannel":
        """Dense channel from the full length-4^n error-rate vector."""
        _check_dense(n)
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (4**n,):
            raise UsageError(f"expected {4**n} error rates, got shape {p.shape}")
        _validate_probs(p)
        lam = wht_forward(p)
        lam[0] = 1.0
        if np.any(np.abs(lam) > 1.0 + EIGENVALUE_TOL):
            raise UsageError("eigenvalues exceed 1 beyond tolerance")
        return cls(n, error_rates=p.copy(), eigenvalues=lam)

    @classmethod
    def from_eigenvalues(cls, n: int, lam: Sequence[float]) -> "PauliChannel":
        """Dense channel from the full eigenvalue vector (must be physical)."""
        _check_dense(n)
        lam = np.asarray(lam, dtype=np.float64)
        if lam.shape != (4**n,):
            raise UsageError(f"expected {4**n} eigenvalues, got shape {lam.shape}")
        if abs(lam[0] - 1.0) > EIGENVALUE_TOL:
            raise UsageError(f"lambda_0 must be 1, got {lam[0]!r}")
        return cls.from_error_rates(n, wht_inverse(lam))

    @classmethod
    def from_sparse(cls, n: int,
                    entries: Iterable[tuple[int | str, float]] | np.ndarray,
                    probs: np.ndarray | None = None) -> "PauliChannel":
        """Sparse channel from (label, probability) pairs, or from an integer
        label array `entries` with the matching `probs` array.

        Pair labels may be raw ints or letter strings.  Out-of-range and
        duplicate labels are rejected, and the support sorted, with numpy.
        """
        if probs is None:
            pairs = [(_label_bits(label, n), prob) for label, prob in entries]
            labels = np.array([label for label, _ in pairs], dtype=object)
            probs = [prob for _, prob in pairs]
        else:
            labels = np.asarray(entries)
        out_of_range = labels < 0
        if labels.dtype == object or 4**n <= np.iinfo(labels.dtype).max:
            out_of_range |= labels >= 4**n
        if out_of_range.any():
            bad = int(labels[np.argmax(out_of_range)])
            raise UsageError(f"label {bad:#x} out of range for n={n}")
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        if np.any(labels[1:] == labels[:-1]):
            raise UsageError("duplicate labels in sparse support")
        label_arr = labels.astype(np.uint64 if 2 * n <= 64 else object)
        prob_arr = np.asarray(probs, dtype=np.float64)[order]
        _validate_probs(prob_arr)
        return cls(n, support_labels=label_arr, support_probs=prob_arr)

    @classmethod
    def identity(cls, n: int) -> "PauliChannel":
        return cls.from_sparse(n, [(0, 1.0)])

    @classmethod
    def depolarizing(cls, n: int, rate: float) -> "PauliChannel":
        """Identity with probability 1-rate, uniform nonidentity error else.

        For every nonzero label the eigenvalue is 1 - rate * 4^n/(4^n - 1).
        """
        _check_dense(n)
        if not 0.0 <= rate <= 1.0:
            raise UsageError(f"rate must lie in [0, 1], got {rate}")
        p = np.full(4**n, rate / (4**n - 1))
        p[0] = 1.0 - rate
        return cls.from_error_rates(n, p)

    @classmethod
    def fully_depolarizing(cls, n: int) -> "PauliChannel":
        """Uniform error rates; every nonidentity eigenvalue is zero."""
        _check_dense(n)
        return cls.from_error_rates(n, np.full(4**n, 4.0**-n))

    @classmethod
    def spike(cls, n: int, a: int | str, s: int) -> "PauliChannel":
        """The two-eigenvalue channel: lambda_0 = 1, lambda_a = s, rest 0.

        Its error rates are p_b = 4^-n (1 + s(-1)^<a,b>).
        """
        _check_dense(n)
        a = _label_bits(a, n)
        if a == 0:
            raise UsageError("spike label must be nonzero (lambda_0 stays 1)")
        if s not in (1, -1):
            raise UsageError(f"spike sign must be +1 or -1, got {s}")
        lam = np.zeros(4**n)
        lam[0] = 1.0
        lam[a] = float(s)
        return cls.from_eigenvalues(n, lam)

    @classmethod
    def tensor(cls, factors: Sequence["PauliChannel"]) -> "PauliChannel":
        """Dense tensor product of dense or sparse channels; qubit 0 of the
        first factor stays qubit 0 of the product."""
        if not factors:
            raise UsageError("tensor of zero channels")
        n = sum(ch.n for ch in factors)
        _check_dense(n)
        p = factors[0]._dense_rates()
        for ch in factors[1:]:
            # combined label = low bits from the earlier factors
            p = np.outer(ch._dense_rates(), p).ravel()
        return cls.from_error_rates(n, p)

    @classmethod
    def random_dirichlet(cls, n: int, rng: np.random.Generator,
                         alpha: float = 1.0) -> "PauliChannel":
        """Dense channel with Dirichlet(alpha) error rates."""
        _check_dense(n)
        if not 0.0 < alpha < np.inf:
            raise UsageError(f"alpha must be positive and finite, got {alpha}")
        p = rng.dirichlet(np.full(4**n, alpha))
        return cls.from_error_rates(n, p)

    @classmethod
    def random_sparse(cls, n: int, support_size: int,
                      rng: np.random.Generator) -> "PauliChannel":
        """Sparse channel on `support_size` labels (identity always included).

        The other labels are drawn uniformly without replacement from the
        4^n - 1 nonidentity labels; `rng.choice` counts them in int64, so
        n <= 31."""
        if n > 31:
            raise UsageError(f"random_sparse needs n <= 31, got {n}")
        if support_size < 1 or support_size > min(4**n, 1 << 20):
            raise UsageError(f"bad support size {support_size}")
        others = rng.choice(4**n - 1, support_size - 1, replace=False) + 1
        labels = np.concatenate([[0], np.sort(others)])
        probs = rng.dirichlet(np.ones(support_size))
        return cls.from_sparse(n, labels, probs)

    # --- queries ----------------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        return self.error_rates is None

    def _dense_rates(self) -> np.ndarray:
        """The full error-rate vector; a sparse channel scatters its support
        into a new one, for n <= DENSE_MAX_QUBITS."""
        if not self.is_sparse:
            return self.error_rates
        _check_dense(self.n)
        p = np.zeros(4**self.n)
        p[self.support_labels.astype(np.intp)] = self.support_probs
        return p

    @property
    def eigenvalues(self) -> np.ndarray:
        """All 4^n eigenvalues, read-only, with lambda_0 pinned to 1.  A
        sparse channel transforms its support on the first read and keeps
        the result; above DENSE_MAX_QUBITS that is a CapabilityError."""
        if self._eigenvalues is None:
            lam = wht_forward(self._dense_rates())
            lam[0] = 1.0
            lam.setflags(write=False)
            self._eigenvalues = lam
        return self._eigenvalues

    def eigenvalue(self, b: int | str) -> float:
        """lambda_b; O(|support|) for sparse channels, a lookup for dense."""
        b = _label_bits(b, self.n)
        if not self.is_sparse:
            return float(self._eigenvalues[b])
        if b == 0:
            # pinned to 1 as in the dense eigenvalues; the probabilities sum
            # to 1 only within rounding
            return 1.0
        if self.support_labels.dtype == object:
            total = 0.0
            for lbl, pr in zip(self.support_labels, self.support_probs):
                total += pr * (1.0 - 2.0 * symp(int(lbl), int(b)))
            return total
        signs = 1.0 - 2.0 * symp_u64(self.support_labels, np.uint64(b)).astype(np.float64)
        return float(self.support_probs @ signs)

    def probability(self, a: int | str) -> float:
        """p_a; a binary search of the sorted support for sparse channels."""
        a = _label_bits(a, self.n)
        if not self.is_sparse:
            return float(self.error_rates[a])
        labels = self.support_labels
        i = int(np.searchsorted(labels, a))
        found = i < len(labels) and int(labels[i]) == a
        return float(self.support_probs[i]) if found else 0.0

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw error labels a ~ p; returns an int, or a label array.

        Inverse CDF: the label index of a uniform u is the number of CDF
        entries <= u.
        """
        if self._cdf is None:
            probs = self.support_probs if self.is_sparse else self.error_rates
            self._cdf = np.cumsum(np.clip(probs, 0.0, None))
        cdf = self._cdf
        u = rng.random(size=1 if size is None else size)
        idx = np.searchsorted(cdf, u, side="right")
        np.minimum(idx, len(cdf) - 1, out=idx)
        if self.is_sparse:
            out = self.support_labels[idx]
        else:
            out = idx.astype(np.uint64)
        return int(out[0]) if size is None else out

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """JSON-compatible dict; `json.dumps` writes each probability with
        the fewest digits that read back as the same double."""
        if self.is_sparse:
            entries = [[format_bits(int(lbl), self.n), pr] for lbl, pr
                       in zip(self.support_labels, self.support_probs.tolist())]
            return {"n": self.n, "format": "sparse", "entries": entries}
        return {"n": self.n, "format": "dense",
                "entries": self.error_rates.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "PauliChannel":
        try:
            n = int(obj["n"])
            fmt = obj["format"]
            entries = obj["entries"]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed channel JSON: {exc}") from None
        if fmt == "sparse":
            return cls.from_sparse(n, [(lbl, pr) for lbl, pr in entries])
        if fmt == "dense":
            return cls.from_error_rates(n, entries)
        raise UsageError(f"unknown channel format {fmt!r}")

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"PauliChannel(n={self.n}, {kind})"

