"""Tests of the benchmark's own helpers (run: python3 -m pytest perfbench/tests)."""
