"""Benchmark harness for qsharm; the entry point is ``bench/run.py``."""
