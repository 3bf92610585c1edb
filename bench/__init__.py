"""The repository's benchmark: five end-to-end workloads and a layer trace.

See ``bench/README.md`` for the metrics, the workloads and why each was
chosen, and ``BENCHMARK.json`` at the repository root for the contract.
"""
