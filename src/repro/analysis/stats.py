"""Distribution summaries matching the paper's box-and-whiskers plots.

The paper's figures (Figs. 4 and 6) report first/third quartiles, median,
and min/max whiskers; :class:`BoxWhisker` carries exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class BoxWhisker:
    """Five-number summary plus mean of a dataset."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    count: int

    def row(self, label: str) -> list:
        """A table row: label, min, q1, median, q3, max, mean."""
        return [
            label,
            f"{self.minimum:.3f}",
            f"{self.q1:.3f}",
            f"{self.median:.3f}",
            f"{self.q3:.3f}",
            f"{self.maximum:.3f}",
            f"{self.mean:.3f}",
        ]


def summarize(values: Iterable[float]) -> BoxWhisker:
    """Five-number summary of a dataset (errors on empty input)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty dataset")
    q1, median, q3 = np.percentile(arr, [25, 50, 75])
    minimum = float(arr.min())
    maximum = float(arr.max())
    # Pairwise summation can leave the mean a few ULPs outside [min, max]
    # (e.g. three identical values); clamp so summary invariants hold.
    mean = min(max(float(arr.mean()), minimum), maximum)
    return BoxWhisker(
        minimum=minimum,
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=maximum,
        mean=mean,
        count=int(arr.size),
    )


def histogram(
    values: Sequence[float], bins: int = 10, lo: float | None = None, hi: float | None = None
) -> list[tuple[float, float, float]]:
    """Normalized histogram as (bin_lo, bin_hi, fraction) triples."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot histogram an empty dataset")
    counts, edges = np.histogram(
        arr,
        bins=bins,
        range=(lo if lo is not None else arr.min(), hi if hi is not None else arr.max()),
    )
    fractions = counts / arr.size
    return [
        (float(edges[i]), float(edges[i + 1]), float(fractions[i]))
        for i in range(len(counts))
    ]
