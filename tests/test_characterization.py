"""§4 characterization end to end: exact golden, work guard, parallel path."""

import copy
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.chip.chip_model import ChipStats
from repro.chip.variation import VariationModel
from repro.chip.vendor import VendorClass
from repro.experiments.coverage import (
    _coverage_chunk,
    coverage_distribution,
    tested_row_sample as row_sample,
)
from repro.experiments.modules import (
    TESTED_MODULES,
    build_module_chip,
    build_non_hira_chip,
)
from repro.experiments.second_act import ThresholdResult, characterize_normalized_nrh
from repro.softmc.host import SoftMCHost
from repro.softmc.patterns import ALL_PATTERNS, DataPattern

# Exact results recorded from the chip model before its per-command path
# skipped dead noise draws, memoized address resolution and vectorized flip
# injection.  Never regenerate: a record that differs from these is a
# behaviour change, not a refresh of the golden.  The one declared
# regeneration filled in the ``writes`` counters, which the WR path had
# never incremented; every other field stayed byte-identical.
GOLDEN_PATH = Path(__file__).parent / "goldens" / "characterization.json"

STRIDE = 256
ROWS_A_STEP = 12
VICTIMS = 2
NON_HIRA_VENDORS = (VendorClass.SAMSUNG_LIKE, VendorClass.MICRON_LIKE)
GOLDEN_CHIPS = [module.label for module in TESTED_MODULES] + [
    vendor.value for vendor in NON_HIRA_VENDORS
]


def golden_chip(name):
    """A fresh chip of one golden entry: a tested module or a non-HiRA vendor."""
    for module in TESTED_MODULES:
        if module.label == name:
            return build_module_chip(module)
    return build_non_hira_chip(VendorClass(name))


def rows_sha256(chip):
    """SHA-256 over every stored row's address and bytes."""
    digest = hashlib.sha256()
    for (bank, row), data in sorted(chip._data.items()):
        digest.update(f"{bank}:{row}:".encode())
        digest.update(data.tobytes())
    return digest.hexdigest()


def sample_of(chip):
    """(tested rows, RowA rows, victims) at the golden's small sample."""
    rows = row_sample(chip.geometry, chunk=2048, stride=STRIDE)
    victims = rows[:: len(rows) // VICTIMS][:VICTIMS]
    return rows, rows[::ROWS_A_STEP], victims


def characterization_record(chip):
    """Algorithms 1 and 2 on ``chip``; the chip is left as Algorithm 2 left it.

    Algorithm 1 runs twice: through ``coverage_distribution`` (which works
    on a private copy) and as one chunk on an explicit copy, whose final
    device state is pinned too.
    """
    rows, rows_a, victims = sample_of(chip)
    t1, t2 = chip.timing.hira_t1, chip.timing.hira_t2
    dist = coverage_distribution(chip, 0, t1, t2, tested_rows=rows, rows_a=rows_a)
    alg1_chip = copy.deepcopy(chip)
    chunk = _coverage_chunk((alg1_chip, 0, rows_a, rows, t1, t2, ALL_PATTERNS))
    thresholds = characterize_normalized_nrh(chip, 0, victims)
    return {
        "coverages": list(dist.coverages),
        "chunk_coverages": chunk,
        "algorithm1_stats": dataclasses.asdict(alg1_chip.stats),
        "algorithm1_rows_sha256": rows_sha256(alg1_chip),
        "thresholds": [dataclasses.asdict(result) for result in thresholds],
        "stats": dataclasses.asdict(chip.stats),
        "rows_sha256": rows_sha256(chip),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGolden:
    @pytest.mark.parametrize("name", GOLDEN_CHIPS)
    def test_chip_matches_golden_exactly(self, golden, name):
        chip = golden_chip(name)
        record = characterization_record(chip)
        expected = golden[name]
        assert tuple(record["coverages"]) == tuple(expected["coverages"])
        assert record["chunk_coverages"] == expected["coverages"]
        assert ChipStats(**record["algorithm1_stats"]) == ChipStats(
            **expected["algorithm1_stats"]
        )
        assert record["algorithm1_rows_sha256"] == expected["algorithm1_rows_sha256"]
        assert [ThresholdResult(**t) for t in record["thresholds"]] == [
            ThresholdResult(**t) for t in expected["thresholds"]
        ]
        assert chip.stats == ChipStats(**expected["stats"])
        assert record["rows_sha256"] == expected["rows_sha256"]

    def test_golden_covers_every_chip(self, golden):
        assert sorted(golden) == sorted(GOLDEN_CHIPS)


class TestNoiseDraws:
    # Run-noise draws a fixed small Algorithm 1 run makes: only rows with a
    # positive peak disturbance may draw (6446 draws without that guard).
    DRAWS = 617

    def test_only_disturbed_rows_draw_noise(self, chip, monkeypatch):
        peaks = []
        draw = VariationModel.run_noise

        def recording_draw(model, bank, row, run):
            assert model is chip.variation
            peaks.append(chip.disturb.rows[(bank, row)].peak)
            return draw(model, bank, row, run)

        monkeypatch.setattr(VariationModel, "run_noise", recording_draw)
        rows = row_sample(chip.geometry, chunk=16, stride=1)
        _coverage_chunk((chip, 0, rows[::4], rows, 3_000, 3_000, ALL_PATTERNS))
        assert all(peak > 0 for peak in peaks)
        assert len(peaks) == self.DRAWS


class TestParallelPath:
    def test_workers_match_serial_and_leave_chip_untouched(self, chip):
        rows = row_sample(chip.geometry, chunk=16, stride=1)
        host = SoftMCHost(chip)
        host.initialize(0, rows[1], DataPattern.ALL_ONES)
        host.hammer(0, [rows[0], rows[2]], 5_000)

        def snapshot():
            return (
                dataclasses.replace(chip.stats),
                copy.deepcopy(chip.disturb.rows),
                rows_sha256(chip),
                sorted(chip._data),
            )

        before = snapshot()
        assert before[1] and before[3]
        serial = coverage_distribution(
            chip, 0, 3_000, 3_000, tested_rows=rows, rows_a=rows[::4], workers=1
        )
        assert snapshot() == before
        parallel = coverage_distribution(
            chip, 0, 3_000, 3_000, tested_rows=rows, rows_a=rows[::4], workers=2
        )
        assert snapshot() == before
        assert parallel == serial
