"""Parallel campaign execution: deterministic fan-out + result caching.

The paper's unit of measurement is 1000 repetitions per configuration; each
repetition's RNG streams derive from ``_derive_seed(base_seed, run_index)``
alone, so repetitions are embarrassingly parallel.  This package describes
each one as a picklable content-addressed spec (:mod:`repro.parallel.jobspec`),
caches finished runs on disk (:mod:`repro.parallel.cache`) so unchanged
campaigns re-run without simulating, and executes them under the supervised
layer (:mod:`repro.parallel.supervisor`): process-pool fan-out with strict
run-index ordering, per-run wall-clock timeouts, classified retry with
seeded exponential backoff, graceful pool degradation, partial salvage with
explicit holes, and crash-safe journal/resume — the harness fault tolerance
the 1000-repetition campaigns need to be trustworthy.

:func:`run_specs` (:mod:`repro.parallel.driver`) is the one campaign driver
the node, cluster and batch layers share: it owns the cache, the journal
and ``--resume``, the provenance stream and its ``.meta.json`` sidecar, and
the telemetry bracket, and returns one :class:`CampaignResult` type.

The determinism contract — parallel results byte-identical to serial — is
enforced by ``tests/test_parallel_engine.py`` and by the CI determinism
gate, not merely promised here.
"""

from repro.parallel.cache import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    QUARANTINE_DIR,
    CacheInfo,
    ResultCache,
)
from repro.parallel.driver import CampaignResult, run_specs
from repro.parallel.engine import (
    CampaignRunError,
    RunRecord,
    WorkerPoolError,
    resolve_jobs,
)
from repro.parallel.jobspec import (
    BatchRunSpec,
    ClusterRunSpec,
    RunSpec,
    machine_fingerprint,
    stable_digest,
)
from repro.parallel.supervisor import (
    AttemptFailure,
    CampaignJournal,
    NoJournalError,
    RetryPolicy,
    RunHole,
    RunTimeoutError,
    SupervisedResult,
    SupervisorConfig,
    backoff_delay,
    backoff_schedule,
    campaign_digest,
    classify_failure,
    journal_path_for,
    supervise_campaign,
)

__all__ = [
    "AttemptFailure",
    "BatchRunSpec",
    "CACHE_ENV_VAR",
    "CampaignJournal",
    "CampaignResult",
    "CampaignRunError",
    "CacheInfo",
    "ClusterRunSpec",
    "DEFAULT_CACHE_DIR",
    "NoJournalError",
    "QUARANTINE_DIR",
    "ResultCache",
    "RetryPolicy",
    "RunHole",
    "RunRecord",
    "RunSpec",
    "RunTimeoutError",
    "SupervisedResult",
    "SupervisorConfig",
    "WorkerPoolError",
    "backoff_delay",
    "backoff_schedule",
    "campaign_digest",
    "classify_failure",
    "journal_path_for",
    "machine_fingerprint",
    "resolve_jobs",
    "run_specs",
    "stable_digest",
    "supervise_campaign",
]
