"""Benchmark harness for mutreach; see perfbench/README.md."""
