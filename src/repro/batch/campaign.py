"""Batch campaigns: batch schedules as first-class campaign cells.

One repetition here is one whole *schedule*: a seeded job trace replayed
against a node pool under one allocation policy.  Repetitions differ only
by derived seed (fresh trace, fresh per-job node-level seeds), so they are
embarrassingly parallel exactly like node-level repetitions — which means
the entire supervised fabric applies unchanged: process-pool fan-out,
content-addressed caching on :meth:`BatchRunSpec.digest`, crash-safe
journal/resume, streaming provenance (``kind: "batch"`` records), and
telemetry (``batch.backfills`` / ``batch.colocations`` / ``batch.kills``
counters, ``batch.queue_depth`` high-water gauge).

The byte-determinism contract carries over too: a batch campaign's
provenance JSONL is identical between ``--jobs 1`` and ``--jobs N`` and
across cache-warm resume — CI's batch determinism leg diffs exactly this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.batch.dispatcher import BatchResult, simulate_batch
from repro.batch.workload import WorkloadConfig, generate_trace

__all__ = [
    "build_batch_specs",
    "run_batch_campaign",
]


def _execute_batch_spec(spec) -> Tuple[BatchResult, Optional[Dict]]:
    """Execute one batch repetition from a picklable :class:`BatchRunSpec`.

    The batch analogue of ``_execute_spec``: module-level, a pure function
    of the spec's content.  The trace is regenerated from (workload, seed)
    — traces never cross the process boundary — and the second element of
    the return pair (the supervisor's ``faults`` slot) is always None:
    walltime kills are policy behaviour, not injected faults, and they are
    accounted in the result itself.
    """
    trace = generate_trace(spec.workload, spec.seed)
    result = simulate_batch(
        trace,
        spec.pool_nodes,
        spec.policy,
        policy_params=(
            dict(spec.policy_params) if spec.policy_params is not None else None
        ),
        regime=spec.regime,
        runtime_model=spec.runtime_model,
        internode_latency=spec.workload.internode_latency,
        fault_plan=spec.fault_plan,
        job_retries=spec.job_retries,
        restart_cost_us=spec.restart_cost_us,
        placement=spec.placement,
    )
    return result, None


def build_batch_specs(
    policy: str,
    pool_nodes: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    workload: Optional[WorkloadConfig] = None,
    runtime_model: str = "sim",
    policy_params: Optional[Dict[str, object]] = None,
    fault_plan: Optional["FaultPlan"] = None,
    job_retries: int = 2,
    restart_cost_us: int = 2_000,
    placement: str = "lowest",
) -> List["BatchRunSpec"]:
    """Materialize a batch campaign's repetitions as picklable specs.

    Mirrors ``build_campaign_specs``: seeds derive per run index, and the
    policy name is validated here (fail fast in the parent, not in a
    worker), as are the workload/pool shapes the dispatcher would reject —
    including the fault plan's universe and node indices.  Every repetition
    replays the *same* fault timeline (common-random-numbers discipline:
    repetitions differ by trace seed, never by what broke).
    """
    from repro.batch.dispatcher import PLACEMENTS, validate_batch_fault_plan
    from repro.batch.policies import make_policy
    from repro.batch.runtime import RUNTIME_MODELS
    from repro.experiments.runner import CLUSTER_REGIMES, _derive_seed
    from repro.parallel.jobspec import BatchRunSpec

    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if regime not in CLUSTER_REGIMES:
        raise ValueError(
            f"unknown batch regime {regime!r}; choose from {CLUSTER_REGIMES}"
        )
    if runtime_model not in RUNTIME_MODELS:
        raise ValueError(
            f"unknown runtime model {runtime_model!r}; choose from {RUNTIME_MODELS}"
        )
    make_policy(policy, **(policy_params or {}))  # validate name + params
    workload = workload if workload is not None else WorkloadConfig()
    if workload.max_nodes > pool_nodes:
        raise ValueError(
            f"workload generates up to {workload.max_nodes}-node jobs but the "
            f"pool has only {pool_nodes} nodes"
        )
    if job_retries < 0:
        raise ValueError("job_retries cannot be negative")
    if restart_cost_us < 0:
        raise ValueError("restart_cost_us cannot be negative")
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; choose from {PLACEMENTS}"
        )
    if fault_plan is not None:
        validate_batch_fault_plan(fault_plan, pool_nodes)
    params_tuple = (
        tuple(sorted(policy_params.items())) if policy_params else None
    )
    return [
        BatchRunSpec(
            run_index=i,
            seed=_derive_seed(base_seed, i),
            policy=policy,
            pool_nodes=pool_nodes,
            regime=regime,
            workload=workload,
            runtime_model=runtime_model,
            policy_params=params_tuple,
            fault_plan=fault_plan,
            job_retries=job_retries,
            restart_cost_us=restart_cost_us,
            placement=placement,
        )
        for i in range(n_runs)
    ]


def run_batch_campaign(
    policy: str,
    pool_nodes: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    workload: Optional[WorkloadConfig] = None,
    runtime_model: str = "sim",
    policy_params: Optional[Dict[str, object]] = None,
    fault_plan: Optional["FaultPlan"] = None,
    job_retries: int = 2,
    restart_cost_us: int = 2_000,
    placement: str = "lowest",
    telemetry: Optional["CampaignTelemetry"] = None,
    **options,
) -> "CampaignResult":
    """Run *n_runs* independent batch-schedule repetitions.

    The batch analogue of ``run_campaign`` / ``run_cluster_campaign``, on
    the same driver (:func:`~repro.parallel.driver.run_specs`, whose
    keywords the remaining *options* are), so every invariant that holds
    there holds here: results and provenance byte-identical at any
    ``--jobs``, cache soundness, journal/resume, auditable holes.  The
    label defaults to ``batch-<policy>``.  Provenance records use
    :func:`~repro.obs.provenance.batch_run_record` (``kind: "batch"``);
    each record additionally bumps the ``batch.backfills`` /
    ``batch.colocations`` / ``batch.kills`` telemetry counters and the
    ``batch.queue_depth`` gauge (whose high-water mark is the deepest queue
    any repetition saw), so the batch layer's scheduling traffic shows up
    in the metrics snapshot next to cache and retry counts.
    """
    from repro.obs.provenance import batch_run_record
    from repro.parallel.driver import run_specs

    def record_fn(record, bench: str) -> Dict[str, object]:
        return batch_run_record(
            record.result,
            bench=bench,
            run_index=record.run_index,
            seed=record.seed,
        )

    def on_record(record) -> None:
        if telemetry is None:
            return
        reg = telemetry.registry
        res = record.result
        reg.counter("batch.backfills").inc(res.backfills)
        reg.counter("batch.colocations").inc(res.colocations)
        reg.counter("batch.kills").inc(res.kills)
        reg.gauge("batch.queue_depth").set(res.queue_depth_peak)
        # getattr: cached results from before the fault universe lack
        # the fields; such results are by definition unarmed.
        if getattr(res, "fault_plan_digest", None) is not None:
            reg.counter("batch.requeues").inc(res.requeues)
            reg.counter("batch.preempts").inc(res.preempts)
            reg.counter("batch.drains").inc(res.drains)
            reg.counter("batch.node_lost_s").inc(res.node_lost_us / 1e6)
            telemetry.batch_schedule(
                run_index=record.run_index,
                requeues=res.requeues,
                preempts=res.preempts,
                drains=res.drains,
                node_fails=res.node_fails,
                failed=res.failed,
                kills=res.kills,
                node_lost_s=round(res.node_lost_us / 1e6, 6),
            )

    specs = build_batch_specs(
        policy,
        pool_nodes,
        regime,
        n_runs,
        base_seed=base_seed,
        workload=workload,
        runtime_model=runtime_model,
        policy_params=policy_params,
        fault_plan=fault_plan,
        job_retries=job_retries,
        restart_cost_us=restart_cost_us,
        placement=placement,
    )
    return run_specs(
        specs,
        _execute_batch_spec,
        record_fn=record_fn,
        on_record=on_record,
        regime=regime,
        base_seed=base_seed,
        telemetry=telemetry,
        **options,
    )
