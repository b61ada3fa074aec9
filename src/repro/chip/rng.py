"""Deterministic per-entity random sampling.

Every per-row / per-subarray quantity in the chip model is a pure function
of ``(design seed, entity keys)``, so experiments are exactly reproducible
and two chips of the same design differ only through their chip seed.

:func:`rng_for` is the reference: a new ``Philox`` generator keyed by
``mix_keys(*keys)``.  Building one costs about ten times a re-key, so the
chip's per-row draws go through a :class:`KeyedStream` instead, which
yields exactly the same draws from one reused generator.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MIX_START = 0x243F6A8885A308D3  # pi digits, arbitrary non-zero start


def splitmix64(x: int) -> int:
    """One round of the SplitMix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(state: int, keys: tuple[int, ...]) -> int:
    for key in keys:
        state = splitmix64(state ^ (key & _MASK64))
    return state


def mix_keys(*keys: int) -> int:
    """Mix an arbitrary key tuple into a single 64-bit value."""
    return _fold(_MIX_START, keys)


def rng_for(*keys: int) -> np.random.Generator:
    """A new, independent generator keyed by the given integers (the
    reference every :class:`KeyedStream` draw equals)."""
    return np.random.Generator(np.random.Philox(key=mix_keys(*keys)))


class KeyedStream:
    """Keyed draws from one reused ``Philox`` generator.

    ``KeyedStream(*prefix).at(*keys)`` returns a generator whose draws equal
    those of ``rng_for(*prefix, *keys)``.  Philox is counter-based, so
    writing the key, zeroing the counter and emptying both the 64-bit
    buffer and the buffered 32-bit half (``has_uint32``/``uinteger``)
    leaves the generator exactly as a new one with that key.  The prefix
    is folded through :func:`mix_keys` once, at construction.

    The returned generator is valid until this stream's next ``at``: that
    call re-keys the same object.  So a stream belongs to one consumer,
    which finishes its draws before it asks for the next key.
    """

    __slots__ = ("_prefix", "_folded", "_key", "_state", "_bit_generator", "_generator")

    def __init__(self, *prefix: int):
        self._prefix = prefix
        self._folded = mix_keys(*prefix)
        self._bit_generator = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bit_generator)
        self._key = np.zeros(2, dtype=np.uint64)
        empty = np.zeros(4, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": empty, "key": self._key},
            "buffer": empty,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def __reduce__(self):
        # A copy needs only the prefix: every draw starts with ``at``.
        return (KeyedStream, self._prefix)

    def at(self, *keys: int) -> np.random.Generator:
        """The generator keyed by ``(*prefix, *keys)``, reset to its start."""
        self._key[0] = _fold(self._folded, keys)
        self._bit_generator.state = self._state
        return self._generator
