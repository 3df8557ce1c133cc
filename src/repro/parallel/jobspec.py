"""Picklable per-run job specs for the parallel campaign engine.

A campaign is N independent repetitions; each repetition is fully described
by a :class:`RunSpec` — the program (pure phase data), the machine model,
the noise profile, the kernel configuration, the fault plan and the derived
seed.  Everything in a spec is plain data, so it crosses a process boundary
by pickling and, just as importantly, it can be *named*: :meth:`RunSpec.digest`
is a stable content hash over the spec plus the package version, which is
exactly the identity the result cache keys on (two runs with equal digests
would simulate the same microseconds).

The parent process builds specs by calling the campaign's factories in run
order — factories themselves (often closures) never cross the boundary, so
``run_campaign`` keeps accepting arbitrary callables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro import __version__
from repro.apps.spmd import Program
from repro.faults import ClusterTolerance, FaultPlan, FaultTolerance
from repro.kernel.daemons import NoiseProfile
from repro.kernel.kernel import KernelConfig
from repro.topology.machine import Machine

if TYPE_CHECKING:  # annotation only: parallel stays import-independent of batch
    from repro.batch.workload import WorkloadConfig

__all__ = [
    "BatchRunSpec",
    "ClusterRunSpec",
    "RunSpec",
    "machine_fingerprint",
    "spec_fingerprint",
    "stable_digest",
]


def _jsonable(value):
    """Recursively normalize *value* into deterministic JSON-ready data.

    Sets are sorted (their iteration order is not a contract), tuples become
    lists, dataclasses become dicts — so the digest never depends on hash
    randomization or insertion order.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def stable_digest(payload, length: int = 32) -> str:
    """sha256 hex digest (truncated to *length*) of normalized *payload*."""
    blob = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


def machine_fingerprint(machine: Machine) -> Dict[str, object]:
    """The content identity of a :class:`Machine`: shape, SMT throughput and
    cache hierarchy.  Two machines with equal fingerprints behave
    identically in the simulator."""
    chips = len(machine.chips)
    cores_per_chip = len(machine.chips[0].cores) if machine.chips else 0
    threads_per_core = (
        len(machine.chips[0].cores[0].threads)
        if machine.chips and machine.chips[0].cores
        else 0
    )
    return {
        "name": machine.name,
        "chips": chips,
        "cores_per_chip": cores_per_chip,
        "threads_per_core": threads_per_core,
        "smt_throughput": list(machine.smt_throughput),
        "cache": _jsonable(machine.cache),
    }


@dataclass(frozen=True)
class RunSpec:
    """One campaign repetition, as data.

    Workers receive nothing else: the simulation a spec describes depends
    only on the spec's content, which is what makes the parallel fan-out
    deterministic and the cache sound.
    """

    run_index: int
    seed: int
    program: Program
    nprocs: int
    regime: str
    machine: Machine
    noise: Optional[NoiseProfile] = None
    kernel_config: Optional[KernelConfig] = None
    cold_speed: Optional[float] = None
    rewarm_scale: float = 1.0
    fault_plan: Optional[FaultPlan] = None
    fault_tolerance: Optional[FaultTolerance] = None

    @property
    def label(self) -> str:
        """The campaign label when the caller names none."""
        return self.program.name

    def fingerprint(self) -> Dict[str, object]:
        """Everything simulation-relevant, as deterministic plain data.

        ``run_index`` is deliberately absent: the index only orders results,
        the *seed* is what differentiates repetitions.  The package version
        is included so a code change (released as a version bump) never
        reuses stale cached results.
        """
        return {
            "version": __version__,
            "seed": self.seed,
            "program": _jsonable(self.program),
            "nprocs": self.nprocs,
            "regime": self.regime,
            "machine": machine_fingerprint(self.machine),
            "noise": _jsonable(self.noise),
            "kernel_config": _jsonable(self.kernel_config),
            "cold_speed": self.cold_speed,
            "rewarm_scale": self.rewarm_scale,
            "fault_plan": self.fault_plan.as_dict() if self.fault_plan else None,
            "fault_tolerance": _jsonable(self.fault_tolerance),
        }

    def digest(self) -> str:
        """Stable 32-hex content key (the cache key) for this spec."""
        return stable_digest(self.fingerprint())


def spec_fingerprint(spec: RunSpec) -> Dict[str, object]:
    """Module-level alias of :meth:`RunSpec.fingerprint` (introspection,
    tests)."""
    return spec.fingerprint()


@dataclass(frozen=True)
class ClusterRunSpec:
    """One multi-node campaign repetition, as data.

    The cluster analogue of :class:`RunSpec`: everything
    :func:`~repro.cluster.multinode.run_cluster_job` needs, flattened to
    picklable content.  Machines cross the boundary as a tuple (one per
    node — participants first, then spares), fault plans as a sorted tuple
    of ``(node, plan)`` pairs, so equal-content specs always produce equal
    digests regardless of dict insertion order.
    """

    run_index: int
    seed: int
    program: Program
    n_nodes: int
    nprocs_per_node: int
    regime: str
    #: One machine per node (n_nodes or n_nodes + spare_nodes entries);
    #: None = every node runs the default preset.
    machines: Optional[Tuple[Machine, ...]] = None
    noise: Optional[NoiseProfile] = None
    internode_latency: int = 30
    fault_plans: Optional[Tuple[Tuple[int, FaultPlan], ...]] = None
    tolerance: Optional[ClusterTolerance] = None
    spare_nodes: int = 0

    @property
    def label(self) -> str:
        """The campaign label when the caller names none."""
        return self.program.name

    def fingerprint(self) -> Dict[str, object]:
        """Everything simulation-relevant, as deterministic plain data
        (same contract as :meth:`RunSpec.fingerprint`)."""
        return {
            "version": __version__,
            "kind": "cluster",
            "seed": self.seed,
            "program": _jsonable(self.program),
            "n_nodes": self.n_nodes,
            "nprocs_per_node": self.nprocs_per_node,
            "regime": self.regime,
            "machines": (
                [machine_fingerprint(m) for m in self.machines]
                if self.machines is not None
                else None
            ),
            "noise": _jsonable(self.noise),
            "internode_latency": self.internode_latency,
            "fault_plans": (
                {str(node): plan.as_dict() for node, plan in self.fault_plans}
                if self.fault_plans is not None
                else None
            ),
            "tolerance": (
                self.tolerance.as_dict() if self.tolerance is not None else None
            ),
            "spare_nodes": self.spare_nodes,
        }

    def digest(self) -> str:
        """Stable 32-hex content key (the cache key) for this spec."""
        return stable_digest(self.fingerprint())


@dataclass(frozen=True)
class BatchRunSpec:
    """One batch-scheduling campaign repetition, as data.

    The two-level analogue of :class:`RunSpec`: a repetition is a whole
    *schedule* — one generated job trace replayed against a node pool under
    one allocation policy — rather than a single simulated execution.  The
    workload config (not the trace) is the payload: the trace is a pure
    function of ``(workload, seed)``, so shipping the config keeps specs
    small and the digest contract intact.  Policies cross the boundary by
    registry name plus a sorted params tuple, never as objects.
    """

    run_index: int
    seed: int
    #: Allocation policy registry key (see :data:`repro.batch.BATCH_POLICIES`).
    policy: str
    #: Simulated cluster size the trace is packed onto.
    pool_nodes: int
    #: Node-level scheduling regime each job runs under (stock/hpl/rt).
    regime: str
    #: Trace shape; the trace itself is ``generate_trace(workload, seed)``.
    workload: "WorkloadConfig"
    #: How job runtimes are priced: "sim" (real node-level simulations) or
    #: "analytic" (calibrated closed form).
    runtime_model: str = "sim"
    #: Sorted ``(key, value)`` policy tuning knobs (None = defaults).
    policy_params: Optional[Tuple[Tuple[str, object], ...]] = None
    #: ``BATCH``-universe fault timeline replayed against the node pool
    #: (None or empty = the historical fault-free dispatcher).
    fault_plan: Optional[FaultPlan] = None
    #: Fault-kill requeues each job may spend before failing terminally.
    job_retries: int = 2
    #: Checkpoint-resume surcharge (µs) every restart owes.
    restart_cost_us: int = 2_000
    #: Rigid placement rule: "lowest" (historical) or "wary"
    #: (deprioritize recently-failed nodes).
    placement: str = "lowest"

    @property
    def label(self) -> str:
        """The campaign label when the caller names none."""
        return f"batch-{self.policy}"

    def fingerprint(self) -> Dict[str, object]:
        """Everything schedule-relevant, as deterministic plain data
        (same contract as :meth:`RunSpec.fingerprint`).

        The fault fields fold in only when the plan is *armed* (non-empty)
        and ``placement`` only when it departs from the default — so every
        unarmed spec keeps the digest it had before the fault universe
        existed, and warm caches stay valid (zero-cost-when-unarmed).
        """
        fp = {
            "version": __version__,
            "kind": "batch",
            "seed": self.seed,
            "policy": self.policy,
            "policy_params": (
                _jsonable(dict(self.policy_params))
                if self.policy_params is not None
                else None
            ),
            "pool_nodes": self.pool_nodes,
            "regime": self.regime,
            "workload": _jsonable(self.workload),
            "runtime_model": self.runtime_model,
        }
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            fp["fault_plan"] = self.fault_plan.as_dict()
            fp["job_retries"] = self.job_retries
            fp["restart_cost_us"] = self.restart_cost_us
        if self.placement != "lowest":
            fp["placement"] = self.placement
        return fp

    def digest(self) -> str:
        """Stable 32-hex content key (the cache key) for this spec."""
        return stable_digest(self.fingerprint())
