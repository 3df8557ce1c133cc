"""Experiment harness: campaign runner + per-figure/table regenerators.

Every table and figure of the paper's §V has a regenerator here; the mapping
is indexed in DESIGN.md §4 and exercised by ``benchmarks/``.
"""

from repro.experiments.runner import (
    CampaignResult,
    run_campaign,
    run_cluster_campaign,
    run_nas,
    run_nas_campaign,
)
from repro.experiments.sweeps import (
    SweepResult,
    noise_intensity_sweep,
    smt_factor_sweep,
    spin_threshold_sweep,
)

__all__ = [
    "CampaignResult",
    "run_campaign",
    "run_cluster_campaign",
    "run_nas",
    "run_nas_campaign",
    "SweepResult",
    "noise_intensity_sweep",
    "smt_factor_sweep",
    "spin_threshold_sweep",
]
