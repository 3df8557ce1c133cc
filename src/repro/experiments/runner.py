"""Campaign runner: execute a benchmark N times under a scheduling regime.

Reproduces the paper's measurement discipline: "Unless otherwise stated, we
report statistics over 1000 executions of each benchmark" (§V).  Each
repetition is an independent simulation (fresh kernel, fresh daemons, fresh
launcher chain) with its own derived seed; the *workload* random streams are
named identically across kernel variants, so the stock-vs-HPL comparison
uses common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.units import SEC, msecs, secs
from repro.sim.engine import Simulator
from repro.topology.machine import Machine
from repro.topology.presets import power6_js22
from repro.kernel.daemons import DaemonSet, NoiseProfile, cluster_node_profile, quiet_profile
from repro.kernel.kernel import Kernel, KernelConfig
from repro.apps.mpiexec import JobResult, LaunchMode, MpiJob
from repro.apps.nas import NasSpec, nas_program, nas_spec
from repro.apps.spmd import Program
from repro.faults import (
    AppliedFault,
    ClusterTolerance,
    FaultInjector,
    FaultPlan,
    FaultTolerance,
    StarvationIncident,
    StarvationWatchdog,
    WatchdogConfig,
)
from repro.parallel.driver import CampaignResult, run_specs

__all__ = [
    "KERNEL_VARIANTS",
    "build_kernel",
    "resolve_kernel_config",
    "run_program",
    "run_nas",
    "ObservedRun",
    "run_program_observed",
    "run_nas_observed",
    "FaultedRun",
    "run_program_faulted",
    "run_nas_faulted",
    "build_campaign_specs",
    "run_campaign",
    "run_nas_campaign",
    "CampaignResult",
    "build_cluster_specs",
    "run_cluster_campaign",
]

#: Named kernel/mode regimes used throughout the experiments:
#: kernel variant, launch mode.
KERNEL_VARIANTS: Dict[str, Tuple[str, str]] = {
    "stock": ("stock", LaunchMode.CFS),       # Table Ia / II "Std. Linux"
    "nice": ("stock", LaunchMode.NICE),       # §IV nice discussion
    "rt": ("stock", LaunchMode.RT),           # Fig. 4
    "pinned": ("stock", LaunchMode.PINNED),   # §IV static affinity
    "hpl": ("hpl", LaunchMode.HPC),           # Table Ib / II "HPL"
}

#: Job launch instant: daemons get a short head start so the node is in
#: steady state when the application arrives.
_JOB_START = msecs(50)


def resolve_kernel_config(
    variant: str, config: Optional[KernelConfig] = None
) -> KernelConfig:
    """The configuration actually booted for *variant* (explicit *config*
    wins).  Exposed so provenance can digest exactly what ran."""
    if config is not None:
        return config
    if variant == "stock":
        return KernelConfig.stock()
    if variant == "hpl":
        return KernelConfig.hpl()
    raise ValueError(f"unknown kernel variant {variant!r}")


def build_kernel(
    variant: str,
    *,
    machine: Optional[Machine] = None,
    seed: int = 0,
    config: Optional[KernelConfig] = None,
) -> Kernel:
    """Boot a kernel of the named *variant* on *machine* (default js22)."""
    if machine is None:
        machine = power6_js22()
    return Kernel(machine, resolve_kernel_config(variant, config), seed=seed)


def _run_job(
    program: Program,
    nprocs: int,
    regime: str = "stock",
    *,
    seed: int = 0,
    machine: Optional[Machine] = None,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
    cold_speed: Optional[float] = None,
    rewarm_scale: float = 1.0,
    horizon: Optional[int] = None,
    instrument: Optional[Callable[[Kernel], None]] = None,
    fault_plan: Optional[FaultPlan] = None,
    fault_tolerance: Optional[FaultTolerance] = None,
    with_watchdog: bool = False,
) -> MpiJob:
    """One full simulated execution; returns the finished :class:`MpiJob`
    (the kernel stays reachable through ``job.kernel`` for observers).

    *instrument* runs right after the kernel boots, before any daemon or
    application task exists — the attachment point for observability.
    Attaching is strictly passive, so instrumented and bare runs of the
    same seed are identical.

    *fault_plan* arms a :class:`~repro.faults.FaultInjector` against the
    booted kernel (empty plans are not armed, keeping fault-free runs
    bit-identical); *fault_tolerance* sets the MPI runtime's reaction to
    rank death; *with_watchdog* starts the starvation watchdog.  The armed
    pieces stay reachable as ``job.fault_injector`` / ``job.watchdog``.
    """
    if regime not in KERNEL_VARIANTS:
        raise ValueError(
            f"unknown regime {regime!r}; choose from {sorted(KERNEL_VARIANTS)}"
        )
    variant, mode = KERNEL_VARIANTS[regime]
    kernel = build_kernel(variant, machine=machine, seed=seed, config=kernel_config)
    if instrument is not None:
        instrument(kernel)
    profile = noise if noise is not None else cluster_node_profile()
    daemons = DaemonSet(kernel, profile)
    daemons.start()

    job = MpiJob(
        kernel,
        program,
        nprocs,
        mode=mode,
        cold_speed=cold_speed,
        rewarm_scale=rewarm_scale,
        on_complete=lambda result: kernel.sim.stop(),
        fault_tolerance=fault_tolerance,
    )
    job.fault_injector = None
    job.watchdog = None
    if fault_plan is not None and not fault_plan.is_empty:
        injector = FaultInjector(kernel, fault_plan, app=job.app)
        injector.arm()
        job.fault_injector = injector
    if with_watchdog:
        watchdog = StarvationWatchdog(kernel, WatchdogConfig())
        watchdog.start()
        job.watchdog = watchdog
    job.start(at=_JOB_START)
    if horizon is None:
        # Generous safety net: storms can stretch a run far past its clean
        # time, but never this far.
        horizon = _JOB_START + 200 * program.total_compute + secs(600)
    kernel.sim.run_until(horizon)
    if job.result is None:
        raise RuntimeError(
            f"{program.name} under {regime!r} (seed {seed}) did not finish by "
            f"t={horizon}us — events processed: {kernel.sim.events_processed}"
        )
    return job


def run_program(
    program: Program,
    nprocs: int,
    regime: str = "stock",
    **kwargs,
) -> JobResult:
    """One full simulated execution of *program* under *regime*.

    *regime* is a :data:`KERNEL_VARIANTS` key.  Returns the job's
    :class:`~repro.apps.mpiexec.JobResult`.  Accepts the same keyword
    arguments as :func:`_run_job`.
    """
    return _run_job(program, nprocs, regime, **kwargs).result


def run_nas(
    name: str,
    klass: str,
    regime: str = "stock",
    *,
    seed: int = 0,
    machine: Optional[Machine] = None,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
) -> JobResult:
    """One execution of a NAS benchmark, e.g. ``run_nas("ep", "A", "hpl")``."""
    if machine is None:
        machine = power6_js22()
    spec = nas_spec(name, klass)
    program = nas_program(spec, machine)
    return run_program(
        program,
        spec.nprocs,
        regime,
        seed=seed,
        machine=machine,
        noise=noise,
        kernel_config=kernel_config,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
    )


@dataclass
class ObservedRun:
    """A finished run plus everything its observer recorded."""

    result: JobResult
    kernel: Kernel
    observer: "KernelObserver"
    #: pids of the application ranks (the paper's subject tasks).
    rank_pids: List[int]
    #: pid -> task name, covering every task the kernel ever created.
    names: Dict[int, str]


def run_program_observed(
    program: Program,
    nprocs: int,
    regime: str = "stock",
    *,
    capacity: int = 200_000,
    with_trace: bool = True,
    with_latency: bool = True,
    with_counters: bool = True,
    **kwargs,
) -> ObservedRun:
    """Like :func:`run_program`, but with a :class:`KernelObserver`
    attached for the whole run.  Observation is passive: the returned
    ``result`` is identical to an unobserved run of the same seed.

    An *instrument* callable in ``kwargs`` is chained after the observer
    attaches (e.g. a :class:`~repro.obs.metrics.SimProfiler` hooking the
    event loop), instead of replacing it."""
    from repro.obs import KernelObserver

    extra_instrument = kwargs.pop("instrument", None)
    holder: List[KernelObserver] = []

    def instrument(kernel: Kernel) -> None:
        holder.append(
            KernelObserver(
                kernel,
                capacity=capacity,
                with_trace=with_trace,
                with_latency=with_latency,
                with_counters=with_counters,
            )
        )
        if extra_instrument is not None:
            extra_instrument(kernel)

    job = _run_job(program, nprocs, regime, instrument=instrument, **kwargs)
    observer = holder[0]
    return ObservedRun(
        result=job.result,
        kernel=job.kernel,
        observer=observer,
        rank_pids=[t.pid for t in job.app.rank_tasks()],
        names=observer.names(),
    )


def run_nas_observed(
    name: str,
    klass: str,
    regime: str = "stock",
    *,
    seed: int = 0,
    machine: Optional[Machine] = None,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
    **observer_kwargs,
) -> ObservedRun:
    """Observed variant of :func:`run_nas`."""
    if machine is None:
        machine = power6_js22()
    spec = nas_spec(name, klass)
    program = nas_program(spec, machine)
    return run_program_observed(
        program,
        spec.nprocs,
        regime,
        seed=seed,
        machine=machine,
        noise=noise,
        kernel_config=kernel_config,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
        **observer_kwargs,
    )


@dataclass
class FaultedRun:
    """A finished run plus the fault layer's full account of it."""

    result: JobResult
    kernel: Kernel
    plan: FaultPlan
    #: Every fault firing (or skip), in injection order.
    applied: List[AppliedFault]
    #: Starvation episodes the watchdog flagged (empty without a watchdog).
    incidents: List[StarvationIncident]

    @property
    def faults_injected(self) -> int:
        return sum(1 for a in self.applied if not a.skipped)


def run_program_faulted(
    program: Program,
    nprocs: int,
    regime: str = "stock",
    *,
    fault_plan: FaultPlan,
    fault_tolerance: Optional[FaultTolerance] = None,
    with_watchdog: bool = False,
    **kwargs,
) -> FaultedRun:
    """Like :func:`run_program`, but under a :class:`FaultPlan`."""
    job = _run_job(
        program,
        nprocs,
        regime,
        fault_plan=fault_plan,
        fault_tolerance=fault_tolerance,
        with_watchdog=with_watchdog,
        **kwargs,
    )
    injector = job.fault_injector
    watchdog = job.watchdog
    return FaultedRun(
        result=job.result,
        kernel=job.kernel,
        plan=fault_plan,
        applied=list(injector.applied) if injector is not None else [],
        incidents=list(watchdog.incidents) if watchdog is not None else [],
    )


def run_nas_faulted(
    name: str,
    klass: str,
    regime: str = "stock",
    *,
    seed: int = 0,
    fault_plan: FaultPlan,
    fault_tolerance: Optional[FaultTolerance] = None,
    with_watchdog: bool = False,
    machine: Optional[Machine] = None,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
) -> FaultedRun:
    """Faulted variant of :func:`run_nas`."""
    if machine is None:
        machine = power6_js22()
    spec = nas_spec(name, klass)
    program = nas_program(spec, machine)
    return run_program_faulted(
        program,
        spec.nprocs,
        regime,
        seed=seed,
        fault_plan=fault_plan,
        fault_tolerance=fault_tolerance,
        with_watchdog=with_watchdog,
        machine=machine,
        noise=noise,
        kernel_config=kernel_config,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
    )


def _derive_seed(base_seed: int, run_index: int) -> int:
    # Any injective-enough mixing works; keep it explicit and stable.
    # Pure integer arithmetic — never hash() — so derived seeds are equal
    # across Python versions, platforms and processes (the parallel engine's
    # correctness rests on this; see tests/test_derive_seed.py).
    return (base_seed * 1_000_003 + run_index * 7_919 + 17) & 0x7FFFFFFF


def _execute_spec(spec: "RunSpec") -> Tuple[JobResult, Optional[Dict]]:
    """Execute one campaign repetition described by a picklable spec.

    This is the parallel engine's worker: module-level (crosses the process
    boundary by reference) and a pure function of the spec's content, so a
    worker-pool run is bit-identical to the serial loop.  Returns the
    :class:`JobResult` plus the provenance ``faults`` object (None on
    fault-free runs) — the injector itself cannot cross back, so its
    account is flattened here.
    """
    job = _run_job(
        spec.program,
        spec.nprocs,
        spec.regime,
        seed=spec.seed,
        machine=spec.machine,
        noise=spec.noise,
        kernel_config=spec.kernel_config,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
        fault_plan=spec.fault_plan,
        fault_tolerance=spec.fault_tolerance,
    )
    result = job.result
    faults: Optional[Dict] = None
    plan = spec.fault_plan
    if plan is not None and not plan.is_empty:
        injector = job.fault_injector
        stats = result.app_stats
        faults = {
            "plan_label": plan.label,
            "plan_digest": plan.digest(),
            "n_events": len(plan),
            "injected": injector.faults_injected() if injector else 0,
            "aborted": stats.aborted,
            "rank_crashes": stats.rank_crashes,
            "restarts": stats.restarts,
            "detection_latency_us": stats.detection_latency_us,
            "lost_work_us": stats.lost_work_us,
            "recovery_time_us": stats.recovery_time_us,
        }
    return result, faults


def build_campaign_specs(
    program_factory: Callable[[], Program],
    nprocs: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    machine_factory: Callable[[], Machine] = power6_js22,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
    cold_speed: Optional[float] = None,
    rewarm_scale: float = 1.0,
    fault_plan: Optional[FaultPlan] = None,
    fault_plan_factory: Optional[Callable[[int, int], FaultPlan]] = None,
    fault_tolerance: Optional[FaultTolerance] = None,
) -> List["RunSpec"]:
    """Materialize a campaign's repetitions as picklable specs.

    Factories run here, in the parent, in run-index order — exactly where
    and when the serial loop called them — so closures never need to
    pickle and factory side effects (none are expected) keep their order.
    """
    from repro.parallel.jobspec import RunSpec

    if regime not in KERNEL_VARIANTS:
        raise ValueError(
            f"unknown regime {regime!r}; choose from {sorted(KERNEL_VARIANTS)}"
        )
    if fault_plan is not None and fault_plan_factory is not None:
        raise ValueError("pass fault_plan or fault_plan_factory, not both")
    specs: List[RunSpec] = []
    for i in range(n_runs):
        seed = _derive_seed(base_seed, i)
        plan = fault_plan
        if fault_plan_factory is not None:
            plan = fault_plan_factory(i, seed)
        specs.append(
            RunSpec(
                run_index=i,
                seed=seed,
                program=program_factory(),
                nprocs=nprocs,
                regime=regime,
                machine=machine_factory(),
                noise=noise,
                kernel_config=kernel_config,
                cold_speed=cold_speed,
                rewarm_scale=rewarm_scale,
                fault_plan=plan,
                fault_tolerance=fault_tolerance,
            )
        )
    return specs


def run_campaign(
    program_factory: Callable[[], Program],
    nprocs: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    machine_factory: Callable[[], Machine] = power6_js22,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
    cold_speed: Optional[float] = None,
    rewarm_scale: float = 1.0,
    fault_plan: Optional[FaultPlan] = None,
    fault_plan_factory: Optional[Callable[[int, int], FaultPlan]] = None,
    fault_tolerance: Optional[FaultTolerance] = None,
    **options,
) -> CampaignResult:
    """Run *n_runs* independent repetitions of one node-level configuration.

    Faults: *fault_plan* applies the same plan to every repetition;
    *fault_plan_factory* is called as ``factory(run_index, seed)`` for a
    per-repetition plan (e.g. re-seeded random plans).  When a plan is in
    force, each provenance record gains a ``faults`` object (plan digest +
    recovery metrics), so faulted and fault-free campaigns remain
    distinguishable in the audit trail forever.

    The remaining keywords (``label``, ``provenance_path``, ``n_jobs``,
    ``use_cache``, ``cache_dir``, ``progress``, ``supervise``, ``resume``,
    ``resume_missing_ok``, ``telemetry``) are those of
    :func:`~repro.parallel.driver.run_specs`, which runs the campaign.
    """
    from repro.obs.provenance import run_record

    variant = KERNEL_VARIANTS.get(regime, (regime, ""))[0]
    booted_config = resolve_kernel_config(variant, kernel_config)

    def record_fn(record, bench: str) -> Dict[str, object]:
        return run_record(
            record.result,
            bench=bench,
            regime=regime,
            run_index=record.run_index,
            seed=record.seed,
            variant=variant,
            config=booted_config,
            faults=record.faults,
        )

    specs = build_campaign_specs(
        program_factory,
        nprocs,
        regime,
        n_runs,
        base_seed=base_seed,
        machine_factory=machine_factory,
        noise=noise,
        kernel_config=kernel_config,
        cold_speed=cold_speed,
        rewarm_scale=rewarm_scale,
        fault_plan=fault_plan,
        fault_plan_factory=fault_plan_factory,
        fault_tolerance=fault_tolerance,
    )
    return run_specs(
        specs,
        _execute_spec,
        record_fn=record_fn,
        regime=regime,
        base_seed=base_seed,
        **options,
    )


def run_nas_campaign(
    name: str, klass: str, regime: str, n_runs: int, **options
) -> CampaignResult:
    """The paper's unit of measurement: N runs of one NAS benchmark under
    one regime (paper: N=1000).  Keywords are :func:`run_campaign`'s, less
    ``machine_factory``: the programs are built for the POWER6 node."""
    if "machine_factory" in options:
        raise TypeError("run_nas_campaign() got an unexpected keyword argument "
                        "'machine_factory'")
    spec = nas_spec(name, klass)

    def factory() -> Program:
        return nas_program(spec, power6_js22())

    return run_campaign(
        factory,
        spec.nprocs,
        regime,
        n_runs,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
        label=spec.label,
        **options,
    )


# --------------------------------------------------------- cluster campaigns

#: Regimes ClusterJob accepts (a subset of KERNEL_VARIANTS: multi-node runs
#: launch through MpiApplication directly, so only kernel-variant/policy
#: regimes apply — nice/pinned are launcher-chain features).
CLUSTER_REGIMES: Tuple[str, ...] = ("stock", "hpl", "rt")


def _execute_cluster_spec(spec: "ClusterRunSpec") -> Tuple["ClusterResult", Optional[Dict]]:
    """Execute one multi-node campaign repetition from a picklable spec.

    The cluster analogue of :func:`_execute_spec`: module-level, a pure
    function of the spec's content, and it flattens the fault domain's
    account (per-node plan digests + the coordinator's detection/recovery
    accounting) into the provenance ``faults`` object before crossing back
    over the process boundary.
    """
    from repro.cluster.multinode import ClusterJob

    machines = spec.machines
    job = ClusterJob(
        spec.program,
        n_nodes=spec.n_nodes,
        nprocs_per_node=spec.nprocs_per_node,
        regime=spec.regime,
        seed=spec.seed,
        machine_factories=(
            [lambda m=m: m for m in machines] if machines is not None else None
        ),
        noise=spec.noise,
        internode_latency=spec.internode_latency,
        fault_plans=(
            dict(spec.fault_plans) if spec.fault_plans is not None else None
        ),
        tolerance=spec.tolerance,
        spare_nodes=spec.spare_nodes,
    )
    result = job.run()
    faults: Optional[Dict] = None
    if spec.fault_plans:
        faults = {
            "plans": {
                str(node): {
                    "label": plan.label,
                    "digest": plan.digest(),
                    "n_events": len(plan),
                }
                for node, plan in spec.fault_plans
            },
            "tolerance": (
                spec.tolerance.as_dict() if spec.tolerance is not None else None
            ),
            "injected": result.faults_injected,
            "node_crashes": result.node_crashes,
            "detections": result.detections,
            "restarts": result.restarts,
            "failovers": result.failovers,
            "shrinks": result.shrinks,
            "detection_latency_us": result.detection_latency_us,
            "lost_work_us": result.lost_work_us,
            "recovery_time_us": result.recovery_time_us,
        }
    return result, faults


def build_cluster_specs(
    program_factory: Callable[[], Program],
    n_nodes: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    nprocs_per_node: int = 8,
    machine_factory: Callable[[], Machine] = power6_js22,
    machine_factories: Optional[List[Callable[[], Machine]]] = None,
    noise: Optional[NoiseProfile] = None,
    internode_latency: int = 30,
    fault_plans: Optional[Dict[int, FaultPlan]] = None,
    fault_plans_factory: Optional[
        Callable[[int, int], Optional[Dict[int, FaultPlan]]]
    ] = None,
    tolerance: Optional[ClusterTolerance] = None,
    spare_nodes: int = 0,
) -> List["ClusterRunSpec"]:
    """Materialize a multi-node campaign's repetitions as picklable specs.

    Mirrors :func:`build_campaign_specs`: factories run here, in the
    parent, in run-index order.  ``machine_factories`` (n_nodes or
    n_nodes + spare_nodes entries) builds a heterogeneous cluster — e.g.
    one half-speed straggler node; ``fault_plans_factory(run_index, seed)``
    yields a per-repetition ``{node: plan}`` map (None = fault-free run).
    """
    from repro.parallel.jobspec import ClusterRunSpec

    if regime not in CLUSTER_REGIMES:
        raise ValueError(
            f"unknown cluster regime {regime!r}; choose from {CLUSTER_REGIMES}"
        )
    if fault_plans is not None and fault_plans_factory is not None:
        raise ValueError("pass fault_plans or fault_plans_factory, not both")
    total_nodes = n_nodes + spare_nodes
    if machine_factories is not None and len(machine_factories) not in (
        n_nodes,
        total_nodes,
    ):
        raise ValueError("machine_factories must have one entry per node")
    specs: List[ClusterRunSpec] = []
    for i in range(n_runs):
        seed = _derive_seed(base_seed, i)
        plans = fault_plans
        if fault_plans_factory is not None:
            plans = fault_plans_factory(i, seed)
        machines: Optional[Tuple[Machine, ...]] = None
        if machine_factories is not None:
            machines = tuple(f() for f in machine_factories)
        specs.append(
            ClusterRunSpec(
                run_index=i,
                seed=seed,
                program=program_factory(),
                n_nodes=n_nodes,
                nprocs_per_node=nprocs_per_node,
                regime=regime,
                machines=machines,
                noise=noise,
                internode_latency=internode_latency,
                fault_plans=(
                    tuple(sorted(plans.items())) if plans else None
                ),
                tolerance=tolerance,
                spare_nodes=spare_nodes,
            )
        )
    return specs


def run_cluster_campaign(
    program_factory: Callable[[], Program],
    n_nodes: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    nprocs_per_node: int = 8,
    machine_factory: Callable[[], Machine] = power6_js22,
    machine_factories: Optional[List[Callable[[], Machine]]] = None,
    noise: Optional[NoiseProfile] = None,
    internode_latency: int = 30,
    fault_plans: Optional[Dict[int, FaultPlan]] = None,
    fault_plans_factory: Optional[
        Callable[[int, int], Optional[Dict[int, FaultPlan]]]
    ] = None,
    tolerance: Optional[ClusterTolerance] = None,
    spare_nodes: int = 0,
    telemetry: Optional["CampaignTelemetry"] = None,
    **options,
) -> CampaignResult:
    """Run *n_runs* independent multi-node repetitions.

    The cluster analogue of :func:`run_campaign`, on the same driver
    (:func:`~repro.parallel.driver.run_specs`, whose keywords the
    remaining *options* are), so every invariant that holds for
    single-node campaigns (bit-identical results at any ``--jobs``, cache
    soundness, auditable holes) holds here too.  Provenance records use
    :func:`~repro.obs.provenance.cluster_run_record` (``kind:
    "cluster"``); faulted repetitions additionally bump the
    ``cluster.detections`` / ``cluster.restarts`` / ``cluster.failovers``
    telemetry counters, so a resilience campaign's recovery traffic shows
    up in the metrics snapshot next to cache and retry counts.
    """
    from repro.obs.provenance import cluster_run_record

    def record_fn(record, bench: str) -> Dict[str, object]:
        return cluster_run_record(
            record.result,
            bench=bench,
            regime=regime,
            run_index=record.run_index,
            seed=record.seed,
            faults=record.faults,
        )

    def on_record(record) -> None:
        if record.faults and telemetry is not None:
            reg = telemetry.registry
            reg.counter("cluster.detections").inc(record.faults["detections"])
            reg.counter("cluster.restarts").inc(record.faults["restarts"])
            reg.counter("cluster.failovers").inc(record.faults["failovers"])

    specs = build_cluster_specs(
        program_factory,
        n_nodes,
        regime,
        n_runs,
        base_seed=base_seed,
        nprocs_per_node=nprocs_per_node,
        machine_factory=machine_factory,
        machine_factories=machine_factories,
        noise=noise,
        internode_latency=internode_latency,
        fault_plans=fault_plans,
        fault_plans_factory=fault_plans_factory,
        tolerance=tolerance,
        spare_nodes=spare_nodes,
    )
    return run_specs(
        specs,
        _execute_cluster_spec,
        record_fn=record_fn,
        on_record=on_record,
        regime=regime,
        base_seed=base_seed,
        telemetry=telemetry,
        **options,
    )
