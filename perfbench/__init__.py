"""Benchmark of the fragility command; see README.md."""
