"""monoinv benchmark harness; run perfbench/run.py."""
