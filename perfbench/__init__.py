"""Benchmark harness for redinv; see run.py."""
