"""Experiment harness: one module per paper table/figure.

Each module exposes ``run(...) -> ExperimentResult`` and registers it in
:mod:`repro.campaign.registry`, whose parameter schema alone sets the
bench-scale defaults and the paper-scale values; ``main()`` prints the
paper-style table at paper scale.  The per-experiment index lives in
DESIGN.md; paper-vs-measured numbers are recorded in EXPERIMENTS.md.
"""

from repro.experiments.common import ExperimentResult, relative_delta

__all__ = ["ExperimentResult", "relative_delta"]
