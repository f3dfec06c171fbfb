"""Deterministic RNG streams keyed by (master seed, experiment path).

Every independent unit of work (a trial, a covering group, one batch of
shots at one sequence length) draws from its own generator derived from the
master seed and a structural key.  A unit's draws therefore depend only on
its key, never on which units ran before it or whether they ran at all.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _as_entropy(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"negative seed component {part}")
        return int(part)
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    """Independent generator for the work unit identified by `key`."""
    entropy = [_as_entropy(master_seed)] + [_as_entropy(part) for part in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))
