"""End-to-end benchmark of the simulator, with a layer-traced companion.

Run ``python -m benchmarks.e2e --help``; README.md beside this file
describes the workloads, the metrics and the comparison protocol.
"""
