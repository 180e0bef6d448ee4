"""Initial-value workload generators.

The paper's performance claims are all phrased against particular input
distributions: unanimity decides in two/three phases; a > (n+k)/2
supermajority decides almost as fast; the balanced split is the
slow case §4 analyses.  These helpers produce exactly those inputs.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ConfigurationError


def unanimous_inputs(n: int, value: int = 1) -> list[int]:
    """All n processes start with ``value`` (the bivalence fast path)."""
    if value not in (0, 1):
        raise ConfigurationError(f"value must be 0 or 1, got {value!r}")
    return [value] * n


def split_inputs(n: int, ones: int, shuffle_seed: Optional[int] = None) -> list[int]:
    """Exactly ``ones`` processes start with 1, the rest with 0.

    By default the 1s occupy the highest pids (deterministic, convenient
    for partition experiments); pass ``shuffle_seed`` to permute.
    """
    if not 0 <= ones <= n:
        raise ConfigurationError(f"ones={ones} out of range for n={n}")
    inputs = [0] * (n - ones) + [1] * ones
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(inputs)
    return inputs


def balanced_inputs(n: int) -> list[int]:
    """The §4 worst case: ⌊n/2⌋ ones (the chain's centre state)."""
    return split_inputs(n, n // 2)


def supermajority_inputs(n: int, k: int, value: int = 1) -> list[int]:
    """Strictly more than (n+k)/2 processes start with ``value``.

    The paper: "If more than (n+k)/2 processes start with the same input
    value, every correct process decides that value in just three [two]
    phases."
    """
    if value not in (0, 1):
        raise ConfigurationError(f"value must be 0 or 1, got {value!r}")
    majority = (n + k) // 2 + 1
    if majority > n:
        raise ConfigurationError(
            f"a > (n+k)/2 supermajority needs {majority} processes, n={n}"
        )
    ones = majority if value == 1 else n - majority
    return split_inputs(n, ones)


def random_inputs(n: int, seed: int, p_one: float = 0.5) -> list[int]:
    """Independent Bernoulli(p_one) inputs (for property tests)."""
    rng = random.Random(seed)
    return [1 if rng.random() < p_one else 0 for _ in range(n)]
