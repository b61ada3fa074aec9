"""SPEC CPU2006-like trace profiles.

The paper randomly mixes SPEC CPU2006 benchmarks (§7).  Without the SPEC
binaries we characterize each benchmark by the publicly well-known
properties that matter to a DRAM study — LLC MPKI, row-buffer locality, and
read/write balance (values in line with published SPEC2006 memory
characterization studies; row locality reflects row-buffer hit rates under
an open-row policy with MOP mapping, which are high for streaming
benchmarks).  The *names* are suffixed "-like" to make the
substitution explicit.
"""

from __future__ import annotations

from repro.sim.trace import TraceProfile

#: Memory-intensity classes follow the common SPEC2006 taxonomy:
#: high-MPKI (mcf, lbm, milc, libquantum, soplex, omnetpp, leslie3d,
#: GemsFDTD, sphinx3), medium, and compute-bound low-MPKI benchmarks.
SPEC_PROFILES: tuple[TraceProfile, ...] = (
    TraceProfile("mcf-like", mpki=33.0, row_locality=0.45, read_fraction=0.72,
                 working_set_rows=16384),
    TraceProfile("lbm-like", mpki=25.0, row_locality=0.85, read_fraction=0.55,
                 working_set_rows=8192),
    TraceProfile("milc-like", mpki=18.0, row_locality=0.62, read_fraction=0.70,
                 working_set_rows=8192),
    TraceProfile("libquantum-like", mpki=22.0, row_locality=0.92, read_fraction=0.80,
                 working_set_rows=2048),
    TraceProfile("soplex-like", mpki=21.0, row_locality=0.65, read_fraction=0.75,
                 working_set_rows=8192),
    TraceProfile("omnetpp-like", mpki=17.0, row_locality=0.50, read_fraction=0.68,
                 working_set_rows=16384),
    TraceProfile("leslie3d-like", mpki=14.0, row_locality=0.80, read_fraction=0.65,
                 working_set_rows=4096),
    TraceProfile("GemsFDTD-like", mpki=16.0, row_locality=0.75, read_fraction=0.60,
                 working_set_rows=8192),
    TraceProfile("sphinx3-like", mpki=12.0, row_locality=0.70, read_fraction=0.82,
                 working_set_rows=4096),
    TraceProfile("bwaves-like", mpki=10.0, row_locality=0.85, read_fraction=0.72,
                 working_set_rows=4096),
    TraceProfile("zeusmp-like", mpki=7.0, row_locality=0.70, read_fraction=0.64,
                 working_set_rows=4096),
    TraceProfile("cactusADM-like", mpki=5.5, row_locality=0.50, read_fraction=0.62,
                 working_set_rows=4096),
    TraceProfile("wrf-like", mpki=4.5, row_locality=0.60, read_fraction=0.66,
                 working_set_rows=2048),
    TraceProfile("astar-like", mpki=3.5, row_locality=0.35, read_fraction=0.70,
                 working_set_rows=8192),
    TraceProfile("gcc-like", mpki=2.5, row_locality=0.45, read_fraction=0.67,
                 working_set_rows=4096),
    TraceProfile("h264ref-like", mpki=1.2, row_locality=0.65, read_fraction=0.70,
                 working_set_rows=1024),
    TraceProfile("gobmk-like", mpki=0.8, row_locality=0.40, read_fraction=0.68,
                 working_set_rows=2048),
    TraceProfile("povray-like", mpki=0.3, row_locality=0.50, read_fraction=0.70,
                 working_set_rows=512),
)
