"""Deterministic per-entity random sampling.

Every per-row / per-subarray quantity in the chip model is a pure function
of ``(design seed, entity keys)``, so experiments are exactly reproducible
and two chips of the same design differ only through their chip seed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the SplitMix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_keys(*keys: int) -> int:
    """Mix an arbitrary key tuple into a single 64-bit value."""
    state = 0x243F6A8885A308D3  # pi digits, arbitrary non-zero start
    for key in keys:
        state = splitmix64(state ^ (key & _MASK64))
    return state


def rng_for(*keys: int) -> np.random.Generator:
    """A fast, independent generator keyed by the given integers."""
    return np.random.Generator(np.random.Philox(key=mix_keys(*keys)))
