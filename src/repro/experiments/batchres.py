"""Batch resilience experiment: does the two-level stack survive losing
nodes, and does HPL's node-level advantage survive the recovery traffic?

The two-level experiment (:mod:`repro.experiments.twolevel`) showed how
each allocation policy packs a *reliable* pool.  Real pools are not
reliable: nodes fail mid-job and drain for maintenance, and the batch
layer's whole robustness budget — requeue, checkpoint-aware restart,
reservation repair — is spent exactly there (Casanova et al.,
arXiv:1106.4985; Eleliemy et al., arXiv:1811.01344).  This campaign
crosses the four policies with the stock and HPL node-level regimes under
three seeded fault intensities:

``none``
    The reliable pool (the two-level baseline, byte-identical to an
    unarmed run by the zero-cost contract).
``light``
    Per-node MTBF ~2x the trace makespan with short repairs: roughly one
    to two mid-campaign failures.
``heavy``
    Per-node MTBF below the makespan with slow repairs: the pool spends a
    sizable fraction of the campaign degraded.

Every repetition of a cell replays the *same* fault timeline (drawn once
from the experiment seed), so intensities differ by what broke, never by
trace — the common-random-numbers discipline the node-level fault
experiments use.  The headline per cell: mean response, completed-job
fraction, requeue/preempt traffic, and node-seconds lost; the
``faulted/none`` response ratio per (policy, regime) says how much
schedule quality one unit of unreliability costs under each rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, List, Optional, Tuple

__all__ = [
    "BATCH_RESILIENCE_INTENSITIES",
    "BatchResilienceRow",
    "BatchResilienceResult",
    "batch_resilience_campaign",
]

#: Fault-timeline horizon, µs — sized to the default workload's makespan
#: (sim-model traces run ~80-140 ms end to end).
_HORIZON_US = 120_000

#: intensity -> (mtbf_us, repair_us); None = unarmed.
BATCH_RESILIENCE_INTENSITIES: Dict[str, Optional[Tuple[int, int]]] = {
    "none": None,
    "light": (250_000, 25_000),
    "heavy": (100_000, 40_000),
}

#: Policies crossed by the experiment, in table order.
_POLICIES: Tuple[str, ...] = ("fcfs", "easy", "priority", "share")


@dataclass
class BatchResilienceRow:
    """One (policy, regime, intensity) cell."""

    policy: str
    regime: str
    intensity: str
    n_runs: int
    mean_response_ms: float
    mean_wait_ms: float
    mean_bsld: float
    utilization: float
    completed_frac: float
    requeues: int
    preempts: int
    failed: int
    kills: int
    node_lost_ms: float


@dataclass
class BatchResilienceResult:
    """The policy x regime x intensity table plus degradation ratios."""

    rows: List[BatchResilienceRow]
    n_runs: int
    pool_nodes: int
    n_trace_jobs: int
    job_retries: int
    restart_cost_us: int

    def ratios(self) -> Dict[Tuple[str, str, str], float]:
        """(policy, regime, intensity) -> faulted/none mean-response ratio
        (1.0 = the faults cost nothing; higher = degradation)."""
        by_cell = {(r.policy, r.regime, r.intensity): r for r in self.rows}
        out: Dict[Tuple[str, str, str], float] = {}
        for row in self.rows:
            if row.intensity == "none":
                continue
            base = by_cell.get((row.policy, row.regime, "none"))
            if base is not None and base.mean_response_ms > 0:
                out[(row.policy, row.regime, row.intensity)] = (
                    row.mean_response_ms / base.mean_response_ms
                )
        return out

    def render(self) -> str:
        lines = [
            "Batch resilience: policies x node regimes x fault intensity",
            f"({self.n_runs} trace repetitions per cell, {self.pool_nodes} "
            f"nodes, {self.n_trace_jobs} jobs per trace; "
            f"{self.job_retries} retries/job, "
            f"{self.restart_cost_us} us restart cost; one seeded MTBF "
            "timeline per intensity)",
            "",
            f"{'policy':>9} {'regime':>7} {'faults':>7} {'resp (ms)':>10} "
            f"{'bsld':>6} {'util':>6} {'done':>6} {'rq':>4} {'pre':>4} "
            f"{'fail':>5} {'lost (ms)':>10}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.policy:>9} {row.regime:>7} {row.intensity:>7} "
                f"{row.mean_response_ms:>10.2f} {row.mean_bsld:>6.2f} "
                f"{row.utilization:>6.3f} {row.completed_frac:>6.3f} "
                f"{row.requeues:>4} {row.preempts:>4} {row.failed:>5} "
                f"{row.node_lost_ms:>10.2f}"
            )
        lines.append("")
        lines.append("faulted/none mean-response ratio "
                     "(1.0 = faults cost nothing):")
        for (policy, regime, intensity), ratio in sorted(self.ratios().items()):
            lines.append(
                f"  {policy:>9} {regime:>7} {intensity:>7}: {ratio:.3f}x"
            )
        return "\n".join(lines)


def batch_resilience_campaign(
    n_runs: int = 3,
    base_seed: int = 0,
    *,
    pool_nodes: int = 4,
    workload: Optional["WorkloadConfig"] = None,
    regimes: Optional[List[str]] = None,
    policies: Optional[List[str]] = None,
    intensities: Optional[List[str]] = None,
    runtime_model: str = "sim",
    job_retries: int = 2,
    restart_cost_us: int = 2_000,
    n_jobs: Optional[int] = 1,
    use_cache: bool = False,
    supervise=None,
    resume: bool = False,
) -> BatchResilienceResult:
    """Cross policies x regimes x fault intensities over seeded traces.

    Every cell runs through :func:`~repro.batch.campaign.run_batch_campaign`
    — cached, supervised, journal-lenient — so faulted cells parallelize,
    cache and resume exactly like reliable ones (the CI determinism gate
    diffs a faulted cell's provenance across worker counts).
    """
    from repro.batch.campaign import run_batch_campaign
    from repro.batch.workload import WorkloadConfig
    from repro.faults.plan import FaultPlan

    if workload is None:
        # Same regime as the two-level experiment: arrivals outpace the
        # drain and widths reach 3 of 4 nodes, so losing a node mid-run
        # actually forces requeues and reservation repair.
        workload = WorkloadConfig(n_jobs=10, interarrival_us=3_000, max_nodes=3)
    if regimes is None:
        regimes = ["stock", "hpl"]
    if policies is None:
        policies = list(_POLICIES)
    if intensities is None:
        intensities = list(BATCH_RESILIENCE_INTENSITIES)
    plans: Dict[str, Optional[FaultPlan]] = {}
    for intensity in intensities:
        try:
            knobs = BATCH_RESILIENCE_INTENSITIES[intensity]
        except KeyError:
            raise ValueError(
                f"unknown fault intensity {intensity!r}; choose from "
                f"{sorted(BATCH_RESILIENCE_INTENSITIES)}"
            )
        plans[intensity] = (
            None
            if knobs is None
            else FaultPlan.mtbf(
                base_seed,
                horizon=_HORIZON_US,
                n_nodes=pool_nodes,
                mtbf_us=knobs[0],
                repair_us=knobs[1],
            )
        )

    rows: List[BatchResilienceRow] = []
    for policy in policies:
        for regime in regimes:
            for intensity in intensities:
                campaign = run_batch_campaign(
                    policy, pool_nodes, regime, n_runs,
                    base_seed=base_seed,
                    workload=workload,
                    runtime_model=runtime_model,
                    fault_plan=plans[intensity],
                    job_retries=job_retries,
                    restart_cost_us=restart_cost_us,
                    label=f"batch-res-{policy}-{intensity}",
                    n_jobs=n_jobs, use_cache=use_cache,
                    supervise=supervise, resume=resume,
                    resume_missing_ok=True,
                )
                responses = [
                    mean(o.response for o in r.jobs)
                    for r in campaign.results
                ]
                total_jobs = sum(r.n_jobs for r in campaign.results)
                failed = campaign.total("failed")
                rows.append(
                    BatchResilienceRow(
                        policy=policy,
                        regime=regime,
                        intensity=intensity,
                        n_runs=campaign.n_runs,
                        mean_response_ms=mean(responses) / 1000,
                        mean_wait_ms=mean(r.mean_wait_us for r in campaign.results) / 1000,
                        mean_bsld=mean(r.mean_bsld for r in campaign.results),
                        utilization=mean(r.utilization for r in campaign.results),
                        completed_frac=(
                            (total_jobs - failed) / total_jobs
                            if total_jobs else 0.0
                        ),
                        requeues=campaign.total("requeues"),
                        preempts=campaign.total("preempts"),
                        failed=failed,
                        kills=campaign.total("kills"),
                        node_lost_ms=campaign.total("node_lost_us") / 1000,
                    )
                )
    return BatchResilienceResult(
        rows=rows,
        n_runs=n_runs,
        pool_nodes=pool_nodes,
        n_trace_jobs=workload.n_jobs,
        job_retries=job_retries,
        restart_cost_us=restart_cost_us,
    )
