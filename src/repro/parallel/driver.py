"""The one campaign driver every layer runs its repetitions through.

A node campaign, a multi-node cluster campaign and a batch-schedule
campaign differ only in what one repetition is: its spec type, its
module-level worker, its provenance record, and the telemetry counters it
bumps.  Everything else — the result cache, the crash-safe journal and
``--resume``, the streaming provenance JSONL and its ``.meta.json``
sidecar, the telemetry bracket, and the supervised execution itself — is
the same, and lives here in :func:`run_specs`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.parallel.cache import ResultCache
from repro.parallel.engine import ProgressFn, RunRecord, Worker, resolve_jobs
from repro.parallel.supervisor import (
    NoJournalError,
    SupervisorConfig,
    supervise_campaign,
)

__all__ = ["CampaignResult", "run_specs"]


@dataclass
class CampaignResult:
    """N repetitions of one configuration, at any layer.

    ``results`` holds one result per completed repetition in run-index
    order: :class:`~repro.apps.mpiexec.JobResult` for node campaigns,
    :class:`~repro.cluster.multinode.ClusterResult` for cluster campaigns,
    :class:`~repro.batch.dispatcher.BatchResult` for batch campaigns.
    """

    label: str
    regime: str
    results: List[object]
    #: Worker processes the campaign executed on (1 = in-process serial).
    jobs: int = 1
    #: Repetitions answered from the result cache instead of simulated.
    cache_hits: int = 0
    #: Run indices salvaged as explicit holes under ``allow_partial``
    #: (empty on complete campaigns).
    holes: List[int] = field(default_factory=list)
    #: Retry attempts the supervisor performed beyond first attempts.
    retries: int = 0
    #: Repetitions replayed from the crash-safe journal on ``--resume``.
    replayed: int = 0

    @property
    def n_runs(self) -> int:
        return len(self.results)

    def app_times_s(self) -> List[float]:
        return [r.app_time_s for r in self.results]

    def migrations(self) -> List[int]:
        return [r.cpu_migrations for r in self.results]

    def context_switches(self) -> List[int]:
        return [r.context_switches for r in self.results]

    def total(self, attr: str) -> float:
        """Sum of one result field over the completed repetitions.

        An unknown field raises :class:`AttributeError`.  A result cached
        before a defaulted field existed reads the dataclass default."""
        return sum(getattr(r, attr) for r in self.results)


def run_specs(
    specs: Sequence,
    worker: Worker,
    *,
    record_fn: Callable[[RunRecord, str], Dict[str, object]],
    on_record: Optional[Callable[[RunRecord], None]] = None,
    label: str = "",
    regime: str,
    base_seed: int = 0,
    provenance_path: Optional[str] = None,
    n_jobs: Optional[int] = 1,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    supervise: Optional[SupervisorConfig] = None,
    resume: bool = False,
    resume_missing_ok: bool = False,
    telemetry=None,
) -> CampaignResult:
    """Run every spec under supervision and return the campaign's result.

    *worker* is the layer's module-level worker (it crosses the process
    boundary by reference).  *record_fn* ``(record, label)`` builds one
    provenance record; with *provenance_path*, one is streamed per
    repetition in run-index order, so a partial campaign still leaves an
    auditable trail, and a ``<path>.meta.json`` sidecar records how the
    campaign executed (workers, cache hits, retries, holes, resume)
    without perturbing the per-run records.  *on_record* sees each record
    first, in the same order (the layer's telemetry counters).  *label*
    defaults to the specs' own label.

    *n_jobs* fans the repetitions across a process pool (``None`` =
    ``os.cpu_count()``, ``1`` = the in-process loop); results and
    provenance are byte-identical whatever it is.  *use_cache* consults
    the content-addressed result cache under *cache_dir* and journals
    per-run completion there, so a crashed campaign can be *resumed*:
    journal-confirmed indices replay from the cache and only the remainder
    executes.  *resume* without the cache raises
    :class:`~repro.parallel.supervisor.NoJournalError`, and so does
    *resume* with no matching journal unless *resume_missing_ok* — the
    lenient mode multi-campaign drivers use, where campaigns a crashed
    invocation never reached simply start fresh.  *supervise* overrides
    the supervisor's configuration (timeouts, retry, ``allow_partial``).

    *telemetry*, a :class:`~repro.obs.telemetry.CampaignTelemetry` the
    caller owns and closes, is bracketed with ``campaign_started`` /
    ``campaign_finished`` and threaded through the supervisor and the
    cache.  It never touches results or provenance.
    """
    from repro.obs.provenance import append_record, campaign_record

    if not specs:
        raise ValueError("n_runs must be >= 1")
    if resume and not use_cache:
        raise NoJournalError(
            "<caching disabled> — --resume replays finished runs from the "
            "result cache, so it cannot be combined with --no-cache"
        )
    label = label or specs[0].label
    n_runs = len(specs)
    jobs = resolve_jobs(n_jobs)
    cache = (
        ResultCache(
            cache_dir,
            metrics=telemetry.registry if telemetry is not None else None,
        )
        if use_cache
        else None
    )
    started_at = time.time()

    prov_fh = open(provenance_path, "w", encoding="utf-8") if provenance_path else None

    def emit(record: RunRecord) -> None:
        if on_record is not None:
            on_record(record)
        if prov_fh is not None:
            append_record(prov_fh, record_fn(record, label))

    if telemetry is not None:
        telemetry.campaign_started(
            label=label, regime=regime, n_runs=n_runs, jobs=jobs
        )
    try:
        supervised = supervise_campaign(
            specs,
            worker,
            n_jobs=jobs,
            cache=cache,
            config=supervise or SupervisorConfig(),
            progress=progress,
            on_record=emit,
            resume=resume,
            resume_missing_ok=resume_missing_ok,
            telemetry=telemetry,
        )
    finally:
        if prov_fh is not None:
            prov_fh.close()
    if telemetry is not None:
        telemetry.campaign_finished(replayed=supervised.replayed)

    records = supervised.records
    cache_hits = sum(1 for r in records if r.cache_hit)
    if provenance_path:
        meta = campaign_record(
            bench=label,
            regime=regime,
            n_runs=n_runs,
            base_seed=base_seed,
            jobs=jobs,
            cache_hits=cache_hits,
            cache_misses=n_runs - cache_hits - len(supervised.holes),
            started_at=started_at,
            finished_at=time.time(),
            retries=supervised.retries,
            timeouts=supervised.timeouts,
            pool_shrinks=supervised.pool_shrinks,
            holes=[h.as_dict() for h in supervised.holes],
            resumed=supervised.resumed,
            replayed=supervised.replayed,
        )
        with open(provenance_path + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return CampaignResult(
        label=label,
        regime=regime,
        results=[r.result for r in records],
        jobs=jobs,
        cache_hits=cache_hits,
        holes=supervised.hole_indices,
        retries=supervised.retries,
        replayed=supervised.replayed,
    )
