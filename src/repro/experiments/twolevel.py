"""Two-level scheduling experiment: does HPL's noise-immunity survive the
batch layer?

The paper's node-level result is that the HPL kernel's placement discipline
removes the scheduler-noise tail that stock Linux imposes on tightly-coupled
jobs.  But nodes are allocated by a batch scheduler, and the batch layer
packs, backfills and (under fractional sharing) co-locates — each of which
could either preserve the node-level advantage (shorter jobs drain queues
faster, compounding the win) or destroy it (sharing re-introduces exactly
the interference HPL was built to remove).

This campaign crosses the four allocation policies with the stock and HPL
node-level regimes, pricing every job with the *real* node-level simulator
(``runtime_model="sim"``), and reports batch-level metrics per cell: mean
job wait, bounded slowdown, makespan, pool utilization, and the policy's
scheduling traffic (backfills / co-locations / walltime kills).  The
``stock/hpl`` response ratio per policy is the headline: a ratio > 1 means
the node-level win survived that policy's packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TWO_LEVEL_POLICIES",
    "TwoLevelRow",
    "TwoLevelResult",
    "two_level_campaign",
]

#: Policies crossed by the experiment, in table order.
TWO_LEVEL_POLICIES: Tuple[str, ...] = ("fcfs", "easy", "priority", "share")


@dataclass
class TwoLevelRow:
    """One (policy, regime) cell of the two-level comparison."""

    policy: str
    regime: str
    n_runs: int
    mean_wait_ms: float
    mean_response_ms: float
    mean_bsld: float
    mean_makespan_ms: float
    utilization: float
    backfills: int
    colocations: int
    kills: int


@dataclass
class TwoLevelResult:
    """The full policy x regime table plus the stock/hpl response ratios."""

    rows: List[TwoLevelRow]
    n_runs: int
    pool_nodes: int
    n_trace_jobs: int

    def ratios(self) -> Dict[str, float]:
        """Per-policy stock/hpl mean-response ratio (> 1: the node-level
        HPL advantage survived this policy's packing)."""
        by_cell = {(r.policy, r.regime): r for r in self.rows}
        out: Dict[str, float] = {}
        for policy in TWO_LEVEL_POLICIES:
            stock = by_cell.get((policy, "stock"))
            hpl = by_cell.get((policy, "hpl"))
            if stock is not None and hpl is not None and hpl.mean_response_ms > 0:
                out[policy] = stock.mean_response_ms / hpl.mean_response_ms
        return out

    def render(self) -> str:
        lines = [
            "Two-level scheduling: batch policies x node-level regimes",
            f"({self.n_runs} trace repetitions per cell, {self.pool_nodes} "
            f"nodes, {self.n_trace_jobs} jobs per trace; job runtimes priced "
            "by the node-level simulator)",
            "",
            f"{'policy':>9} {'regime':>7} {'wait (ms)':>10} {'resp (ms)':>10} "
            f"{'bsld':>6} {'makespan':>9} {'util':>6} {'bf':>4} {'co':>4} "
            f"{'kill':>5}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.policy:>9} {row.regime:>7} {row.mean_wait_ms:>10.2f} "
                f"{row.mean_response_ms:>10.2f} {row.mean_bsld:>6.2f} "
                f"{row.mean_makespan_ms:>9.1f} {row.utilization:>6.3f} "
                f"{row.backfills:>4} {row.colocations:>4} {row.kills:>5}"
            )
        lines.append("")
        lines.append("stock/hpl mean-response ratio per policy "
                     "(>1: HPL's node-level win survives the batch layer):")
        for policy, ratio in self.ratios().items():
            lines.append(f"  {policy:>9}: {ratio:.3f}x")
        return "\n".join(lines)


def two_level_campaign(
    n_runs: int = 3,
    base_seed: int = 0,
    *,
    pool_nodes: int = 4,
    workload: Optional["WorkloadConfig"] = None,
    regimes: Optional[List[str]] = None,
    policies: Optional[List[str]] = None,
    runtime_model: str = "sim",
    n_jobs: Optional[int] = 1,
    use_cache: bool = False,
    supervise=None,
    resume: bool = False,
) -> TwoLevelResult:
    """Cross batch policies with node-level regimes over seeded job traces.

    Every cell runs through :func:`~repro.batch.campaign.run_batch_campaign`
    — the cached, supervised pipeline — so repetitions parallelize, cache
    and resume exactly like node-level campaigns (journal-lenient, like
    every multi-campaign driver).
    """
    from repro.batch.campaign import run_batch_campaign
    from repro.batch.workload import WorkloadConfig

    if workload is None:
        # Heavy enough to queue (arrivals faster than the pool drains) and
        # wide enough (up to 3 of 4 nodes) that a blocked wide head leaves
        # holes worth backfilling — the regime where the policies actually
        # differ.
        workload = WorkloadConfig(n_jobs=12, interarrival_us=3_000, max_nodes=3)
    if regimes is None:
        regimes = ["stock", "hpl"]
    if policies is None:
        policies = list(TWO_LEVEL_POLICIES)

    rows: List[TwoLevelRow] = []
    for policy in policies:
        for regime in regimes:
            campaign = run_batch_campaign(
                policy, pool_nodes, regime, n_runs,
                base_seed=base_seed,
                workload=workload,
                runtime_model=runtime_model,
                label=f"two-level-{policy}",
                n_jobs=n_jobs, use_cache=use_cache,
                supervise=supervise, resume=resume, resume_missing_ok=True,
            )
            responses = [
                mean(o.response for o in r.jobs) for r in campaign.results
            ]
            rows.append(
                TwoLevelRow(
                    policy=policy,
                    regime=regime,
                    n_runs=campaign.n_runs,
                    mean_wait_ms=mean(r.mean_wait_us for r in campaign.results) / 1000,
                    mean_response_ms=mean(responses) / 1000,
                    mean_bsld=mean(r.mean_bsld for r in campaign.results),
                    mean_makespan_ms=mean(r.makespan_us for r in campaign.results) / 1000,
                    utilization=mean(r.utilization for r in campaign.results),
                    backfills=campaign.total("backfills"),
                    colocations=campaign.total("colocations"),
                    kills=campaign.total("kills"),
                )
            )
    return TwoLevelResult(
        rows=rows,
        n_runs=n_runs,
        pool_nodes=pool_nodes,
        n_trace_jobs=workload.n_jobs,
    )
