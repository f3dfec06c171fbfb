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
also applies the radix-2 Hadamard to low syndrome bits, so the estimator's
per-group transform over (v << m) | e indices is one `wht_forward` call with
`syndrome_digits=m`; there is no second transform implementation.

Channels come in two representations:

* dense: the full length-4^n error-rate vector, allowed for
  n <= DENSE_MAX_QUBITS (4^13 doubles is about half a GiB).  The eigenvalue
  vector is computed at construction, never lazily, so instances can be
  shared across threads without synchronization.
* sparse: an explicit support list of (label, probability); eigenvalues are
  available per label in O(|support|) via `eigenvalue`.

Inputs that are not a probability distribution (negative entries or total
mass off by more than NORMALIZATION_TOL) are rejected, never silently
renormalized.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from .errors import CapabilityError, UsageError
from .pauli import PauliLabel, format_bits, parse_bits, symp, symp_u64

DENSE_MAX_QUBITS = 13
NORMALIZATION_TOL = 1e-12
EIGENVALUE_TOL = 1e-12
_JSON_FLOAT = "{:.17g}"


def _pauli_digits(length: int, syndrome_digits: int) -> int:
    """n with length == 2^syndrome_digits * 4^n, else a UsageError."""
    n = (length.bit_length() - 1 - syndrome_digits) // 2
    if syndrome_digits < 0 or n < 0 or length != 4**n << syndrome_digits:
        raise UsageError(f"vector length {length} is not 2^{syndrome_digits} "
                         "times a power of 4")
    return n


def _digit_transform(vec: np.ndarray, syndrome_digits: int) -> np.ndarray:
    """The one transform kernel: walk the last axis digit by digit, from
    the least significant, applying the radix-2 Hadamard H to the first
    `syndrome_digits` bits and the radix-4 symplectic kernel to every
    base-4 digit above them."""
    length = vec.shape[-1]
    n = _pauli_digits(length, syndrome_digits)
    if not np.all(np.isfinite(vec)):
        raise UsageError("transform input has non-finite entries")
    out = np.array(vec, dtype=np.float64)
    lead = out.shape[:-1]
    step = 1
    for _ in range(syndrome_digits):
        blocks = out.reshape(lead + (length // (2 * step), 2, step))
        b0 = blocks[..., 0, :]
        b1 = blocks[..., 1, :]
        # the sums materialize before any write-back into the views
        t0 = b0 + b1
        t1 = b0 - b1
        blocks[..., 0, :] = t0
        blocks[..., 1, :] = t1
        step *= 2
    for _ in range(n):
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


def wht_forward(p: np.ndarray, n: int | None = None, *,
                syndrome_digits: int = 0) -> np.ndarray:
    """Error rates -> eigenvalues: lambda_b = sum_a p_a (-1)^<a,b>.

    With `syndrome_digits = m` the last axis is indexed by (v << m) | e,
    and the standard +-1 transform runs over the m syndrome bits e as well:
    out[(u << m) | alpha] = sum_{v,e} p[(v << m) | e] (-1)^(<u,v> + alpha.e).
    """
    p = np.asarray(p)
    if n is not None and p.shape[-1] != 4**n << syndrome_digits:
        raise UsageError(
            f"expected length {4**n << syndrome_digits}, got {p.shape[-1]}"
        )
    return _digit_transform(p, syndrome_digits)


def wht_inverse(lam: np.ndarray, n: int | None = None) -> np.ndarray:
    """Eigenvalues -> error rates: p_a = 4^-n sum_b lambda_b (-1)^<a,b>."""
    lam = np.asarray(lam)
    if n is not None and lam.shape[-1] != 4**n:
        raise UsageError(f"expected length {4**n}, got {lam.shape[-1]}")
    return _digit_transform(lam, 0) / lam.shape[-1]


def _validate_probs(probs: np.ndarray):
    if np.any(probs < -NORMALIZATION_TOL):
        worst = float(probs.min())
        raise UsageError(f"negative probability {worst:g}")
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise UsageError(f"probabilities sum to {total!r}, not 1")


def _label_bits(label: int | str | PauliLabel, n: int) -> int:
    """Bit-packed form of a raw int, a letter string or an n-qubit label."""
    if isinstance(label, str):
        return parse_bits(label, n)
    if isinstance(label, PauliLabel):
        if label.n != n:
            raise UsageError(f"label on {label.n} qubits in {n}-qubit channel")
        return label.bits
    return label


class PauliChannel:
    """Immutable Pauli channel in dense or sparse representation.

    Use the classmethod constructors; the raw initializer is internal.
    """

    __slots__ = (
        "n",
        "error_rates",
        "eigenvalues",
        "support_labels",
        "support_probs",
        "_cdf",
    )

    def __init__(self, n, *, error_rates=None, eigenvalues=None,
                 support_labels=None, support_probs=None):
        self.n = n
        self.error_rates = error_rates
        self.eigenvalues = eigenvalues
        self.support_labels = support_labels
        self.support_probs = support_probs
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
        if n > DENSE_MAX_QUBITS:
            raise CapabilityError(
                f"dense channels limited to n <= {DENSE_MAX_QUBITS}, got {n}"
            )
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (4**n,):
            raise UsageError(f"expected {4**n} error rates, got shape {p.shape}")
        _validate_probs(p)
        lam = wht_forward(p)
        lam = lam.copy()
        lam[0] = 1.0
        if np.any(np.abs(lam) > 1.0 + EIGENVALUE_TOL):
            raise UsageError("eigenvalues exceed 1 beyond tolerance")
        return cls(n, error_rates=p.copy(), eigenvalues=lam)

    @classmethod
    def from_eigenvalues(cls, n: int, lam: Sequence[float]) -> "PauliChannel":
        """Dense channel from the full eigenvalue vector (must be physical)."""
        lam = np.asarray(lam, dtype=np.float64)
        if lam.shape != (4**n,):
            raise UsageError(f"expected {4**n} eigenvalues, got shape {lam.shape}")
        if abs(lam[0] - 1.0) > EIGENVALUE_TOL:
            raise UsageError(f"lambda_0 must be 1, got {lam[0]!r}")
        return cls.from_error_rates(n, wht_inverse(lam))

    @classmethod
    def from_sparse(cls, n: int, entries: Iterable[tuple[int | str, float]]
                    ) -> "PauliChannel":
        """Sparse channel from (label, probability) pairs.

        Labels may be raw ints or letter strings; duplicates are rejected.
        """
        labels = []
        probs = []
        for label, prob in entries:
            label = _label_bits(label, n)
            if label < 0 or label >> (2 * n):
                raise UsageError(f"label {label:#x} out of range for n={n}")
            labels.append(int(label))
            probs.append(float(prob))
        if len(set(labels)) != len(labels):
            raise UsageError("duplicate labels in sparse support")
        order = sorted(range(len(labels)), key=labels.__getitem__)
        dtype = np.uint64 if 2 * n <= 64 else object
        label_arr = np.asarray([labels[i] for i in order], dtype=dtype)
        prob_arr = np.asarray([probs[i] for i in order], dtype=np.float64)
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
        if not 0.0 <= rate <= 1.0:
            raise UsageError(f"rate must lie in [0, 1], got {rate}")
        p = np.full(4**n, rate / (4**n - 1))
        p[0] = 1.0 - rate
        return cls.from_error_rates(n, p)

    @classmethod
    def fully_depolarizing(cls, n: int) -> "PauliChannel":
        """Uniform error rates; every nonidentity eigenvalue is zero."""
        return cls.from_error_rates(n, np.full(4**n, 4.0**-n))

    @classmethod
    def spike(cls, n: int, a: int | str | PauliLabel, s: int) -> "PauliChannel":
        """The two-eigenvalue channel: lambda_0 = 1, lambda_a = s, rest 0.

        Its error rates are p_b = 4^-n (1 + s(-1)^<a,b>).
        """
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
        """Tensor product of dense channels; qubit 0 of the first factor
        stays qubit 0 of the product."""
        if not factors:
            raise UsageError("tensor of zero channels")
        for ch in factors:
            if ch.error_rates is None:
                raise UsageError("tensor requires dense factors")
        n = sum(ch.n for ch in factors)
        if n > DENSE_MAX_QUBITS:
            raise CapabilityError(f"tensor result n={n} exceeds dense limit")
        p = factors[0].error_rates
        for ch in factors[1:]:
            # combined label = low bits from the earlier factors
            p = np.outer(ch.error_rates, p).ravel()
        return cls.from_error_rates(n, p)

    @classmethod
    def random_dirichlet(cls, n: int, rng: np.random.Generator,
                         alpha: float = 1.0) -> "PauliChannel":
        """Dense channel with Dirichlet(alpha) error rates."""
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
        labels = [0] + np.sort(others).tolist()
        probs = rng.dirichlet(np.ones(support_size))
        return cls.from_sparse(n, zip(labels, probs))

    # --- queries ----------------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        return self.error_rates is None

    def eigenvalue(self, b: int | str | PauliLabel) -> float:
        """lambda_b; O(|support|) for sparse channels, a lookup for dense."""
        b = _label_bits(b, self.n)
        if self.eigenvalues is not None:
            return float(self.eigenvalues[b])
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

    def probability(self, a: int) -> float:
        """p_a."""
        if self.error_rates is not None:
            return float(self.error_rates[a])
        for lbl, pr in zip(self.support_labels, self.support_probs):
            if int(lbl) == a:
                return float(pr)
        return 0.0

    def _cumulative(self) -> np.ndarray:
        # benign race: idempotent pure computation, assignment is atomic
        if self._cdf is None:
            probs = self.support_probs if self.is_sparse else self.error_rates
            self._cdf = np.cumsum(np.clip(probs, 0.0, None))
        return self._cdf

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw error labels a ~ p; returns an int, or a label array.

        Inverse CDF: the label index of a uniform u is the number of CDF
        entries <= u.
        """
        cdf = self._cumulative()
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
        """JSON-compatible dict; probabilities use 17 significant digits."""
        if self.is_sparse:
            entries = [
                [format_bits(int(lbl), self.n), float(_JSON_FLOAT.format(pr))]
                for lbl, pr in zip(self.support_labels, self.support_probs)
            ]
            return {"n": self.n, "format": "sparse", "entries": entries}
        dense = [float(_JSON_FLOAT.format(x)) for x in self.error_rates]
        return {"n": self.n, "format": "dense", "entries": dense}

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

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "PauliChannel":
        return cls.from_json(json.loads(text))

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"PauliChannel(n={self.n}, {kind})"

