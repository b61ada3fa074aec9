"""Ablation: HiRA-MC's two parallelization classes in isolation.

HiRA-MC ranks refresh-access above refresh-refresh parallelization (§5,
the module docstring of ``repro.core.engine``); this bench disables each
class to quantify its contribution.  Refresh-access matters for periodic refresh under demand
traffic; refresh-refresh matters when PARA floods the PR-FIFOs.
"""

from repro.analysis.tables import format_table
from repro.sim.config import SystemConfig

from benchmarks.conftest import average_ws_profiles, emit, streaming_mix

VARIANTS = (
    ("full HiRA-4", {}),
    ("no refresh-access", {"disable_access_parallelization": True}),
    ("no refresh-refresh", {"disable_refresh_parallelization": True}),
    (
        "neither (per-row solo)",
        {
            "disable_access_parallelization": True,
            "disable_refresh_parallelization": True,
        },
    ),
)


def build_ablation():
    rows = []
    values = {}
    for scenario, capacity, para in (
        ("periodic @128Gb", 128.0, None),
        ("PARA NRH=128 @8Gb", 8.0, 128.0),
    ):
        mix = streaming_mix()
        baseline = average_ws_profiles(
            SystemConfig(
                capacity_gbit=capacity, refresh_mode="baseline", para_nrh=para
            ),
            mix,
        )
        for label, flags in VARIANTS:
            ws = average_ws_profiles(
                SystemConfig(
                    capacity_gbit=capacity,
                    refresh_mode="hira",
                    tref_slack_acts=4,
                    para_nrh=para,
                    **flags,
                ),
                mix,
            )
            values[(scenario, label)] = ws / baseline
            rows.append([scenario, label, f"{ws / baseline:.3f}"])
    table = format_table(
        ["Scenario", "Variant", "WS vs Baseline/PARA"],
        rows,
        title="Ablation: HiRA-MC parallelization classes",
    )
    return table, values


def test_ablation_policies(benchmark):
    table, values = benchmark.pedantic(build_ablation, rounds=1, iterations=1)
    emit("ablation_policies", table)
    # The full policy is at least as good as the fully-disabled variant.
    for scenario in ("periodic @128Gb", "PARA NRH=128 @8Gb"):
        assert (
            values[(scenario, "full HiRA-4")]
            >= values[(scenario, "neither (per-row solo)")] - 0.02
        )
