"""Benchmark harness: one module per paper table/figure (the README's layer map lists them)."""
