"""The four data patterns used by the paper's experiments (§4.1).

All ones (0xFF), all zeros (0x00), checkerboard (0xAA), and inverse
checkerboard (0x55); each test initializes the two rows with a pattern and
its inverse.
"""

from __future__ import annotations

import enum

import numpy as np


class DataPattern(enum.Enum):
    """A row-fill byte pattern."""

    ALL_ONES = 0xFF
    ALL_ZEROS = 0x00
    CHECKERBOARD = 0xAA
    INV_CHECKERBOARD = 0x55

    @property
    def byte(self) -> int:
        return self.value

    @property
    def inverse(self) -> "DataPattern":
        return _INVERSES[self]

    def count_bitflips(self, data: np.ndarray) -> int:
        """Number of bit flips in ``data`` relative to this pattern."""
        diff = np.bitwise_xor(data, np.uint8(self.byte))
        return int.from_bytes(diff.tobytes(), "little").bit_count()


_INVERSES = {
    DataPattern.ALL_ONES: DataPattern.ALL_ZEROS,
    DataPattern.ALL_ZEROS: DataPattern.ALL_ONES,
    DataPattern.CHECKERBOARD: DataPattern.INV_CHECKERBOARD,
    DataPattern.INV_CHECKERBOARD: DataPattern.CHECKERBOARD,
}

#: The full pattern sweep of Algorithm 1.
ALL_PATTERNS = (
    DataPattern.ALL_ONES,
    DataPattern.ALL_ZEROS,
    DataPattern.CHECKERBOARD,
    DataPattern.INV_CHECKERBOARD,
)
