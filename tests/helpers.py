"""Test-side helpers shared across test modules."""

import numpy as np


def sample_candidate(factor: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Quantize one Gaussian projection through the factor to signs.

    Zero entries map to +1, so a zero factor yields the all-ones sequence.
    """
    v = rng.standard_normal(factor.shape[1])
    w = factor @ v
    return np.where(w >= 0.0, 1, -1).astype(np.int8)
