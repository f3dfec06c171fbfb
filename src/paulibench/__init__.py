"""Pauli channel eigenvalue estimation and gate benchmarking toolkit."""

from .channels import (
    DENSE_MAX_QUBITS,
    PauliChannel,
    wht_forward,
    wht_inverse,
)
from .errors import (
    CapabilityError,
    ConfigError,
    FitError,
    PauliBenchError,
    UsageError,
)
from .estimation import (
    BenchmarkResult,
    DecayFits,
    EstimateSet,
    benchmark_alg2,
    estimate_alg1,
    fit_decays,
    required_samples,
)
from .sampler import (
    NoiseModel,
    outcome_distribution_alg1,
    outcome_distribution_alg2,
    simulate_alg2_batch,
    simulate_rounds_alg1,
)
from .seeding import derive_rng
from .stabilizer import (
    Covering,
    StabilizerGroup,
    mub_covering,
    pauli_basis_covering,
    verify_covering,
)

__version__ = "0.1.0"

__all__ = [
    "DENSE_MAX_QUBITS",
    "PauliChannel",
    "wht_forward",
    "wht_inverse",
    "CapabilityError",
    "ConfigError",
    "FitError",
    "PauliBenchError",
    "UsageError",
    "BenchmarkResult",
    "DecayFits",
    "EstimateSet",
    "benchmark_alg2",
    "estimate_alg1",
    "fit_decays",
    "required_samples",
    "NoiseModel",
    "outcome_distribution_alg1",
    "outcome_distribution_alg2",
    "simulate_alg2_batch",
    "simulate_rounds_alg1",
    "derive_rng",
    "Covering",
    "StabilizerGroup",
    "mub_covering",
    "pauli_basis_covering",
    "verify_covering",
]
