"""Benchmark for served column-keyword queries (see README.md)."""
