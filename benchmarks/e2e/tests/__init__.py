"""Harness unit tests: ``pytest benchmarks/e2e/tests`` (under 10 s)."""
