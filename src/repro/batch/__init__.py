"""Two-level scheduling: the batch/cluster dispatcher layer.

The paper's node-level results (stock vs HPL vs rt kernels) only matter in
the context of the layer above them — the batch scheduler that decides
which jobs land on which nodes, when.  This package provides that layer:
a seeded workload generator (:mod:`repro.batch.workload`), pluggable
allocation policies (:mod:`repro.batch.policies`), runtime models that
price each job with the real node-level simulator
(:mod:`repro.batch.runtime`), an exact-arithmetic dispatcher
(:mod:`repro.batch.dispatcher`), and the campaign adapter that drops batch
cells into the cache/journal/supervisor/provenance fabric
(:mod:`repro.batch.campaign`).
"""

from repro.batch.campaign import (
    build_batch_specs,
    run_batch_campaign,
)
from repro.batch.dispatcher import (
    BSLD_TAU_US,
    BatchDispatcher,
    BatchResult,
    JobOutcome,
    simulate_batch,
    validate_batch_fault_plan,
)
from repro.batch.policies import (
    BATCH_POLICIES,
    BatchPolicy,
    EasyPolicy,
    FcfsPolicy,
    PriorityPolicy,
    SharePolicy,
    make_policy,
)
from repro.batch.runtime import RUNTIME_MODELS, base_runtime_us, clear_runtime_memo
from repro.batch.workload import BatchJob, WorkloadConfig, generate_trace

__all__ = [
    "BATCH_POLICIES",
    "BSLD_TAU_US",
    "BatchDispatcher",
    "BatchJob",
    "BatchPolicy",
    "BatchResult",
    "EasyPolicy",
    "FcfsPolicy",
    "JobOutcome",
    "PriorityPolicy",
    "RUNTIME_MODELS",
    "SharePolicy",
    "WorkloadConfig",
    "base_runtime_us",
    "build_batch_specs",
    "clear_runtime_memo",
    "generate_trace",
    "make_policy",
    "run_batch_campaign",
    "simulate_batch",
    "validate_batch_fault_plan",
]
