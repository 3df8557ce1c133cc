"""Kernel-level noise injection (Ferreira/Bridges/Brightwell style).

The paper's related work (§VI) characterizes application sensitivity to OS
interference with *controlled* noise injection: periodic bursts of given
frequency and duration on chosen CPUs.  This module provides that instrument
for the simulator: deterministic (non-stochastic) noise generators, used by

* the coordinated-noise bench (``benchmarks/test_bench_coordinated_noise.py``,
  the ``ex-coord`` experiment): co-scheduled versus uncoordinated bursts of
  the same total amount;
* unit tests that need an exactly-known amount of interference.

No package module imports it: the cluster noise-resonance model
(:mod:`repro.cluster.resonance`) works from measured delay profiles instead.

Unlike :mod:`repro.kernel.daemons` (ecologically realistic, stochastic),
injected noise is strictly periodic and therefore reproduces the
"high-frequency short vs low-frequency long" dichotomy cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.kernel.kernel import Kernel
from repro.kernel.task import SchedPolicy, Task

__all__ = ["NoiseInjection", "NoiseInjector"]


@dataclass(frozen=True)
class NoiseInjection:
    """One periodic noise source.

    Every ``period`` µs a burst of ``duration`` µs of CFS work is released on
    each CPU in ``cpus`` (``None`` = all CPUs).  ``phase`` offsets the first
    burst; with distinct phases per CPU the noise is uncoordinated (the usual
    cluster situation); with equal phases it is co-scheduled (gang-style
    noise, the mitigation of [24]).
    """

    period: int
    duration: int
    cpus: Optional[Sequence[int]] = None
    phase: int = 0
    policy: str = SchedPolicy.NORMAL
    name: str = "noise"

    def __post_init__(self) -> None:
        if self.period <= 0 or self.duration <= 0:
            raise ValueError("noise period and duration must be positive")
        if self.duration >= self.period:
            raise ValueError("noise duty cycle must be < 100%")
        if self.phase < 0:
            raise ValueError("phase cannot be negative")

    @property
    def duty_cycle(self) -> float:
        """Fraction of CPU time the injection claims."""
        return self.duration / self.period


class NoiseInjector:
    """Drives a set of :class:`NoiseInjection` sources on a kernel."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.tasks: List[Task] = []
        self.bursts_released = 0

    def inject(self, injection: NoiseInjection) -> None:
        """Install *injection*: one pinned injector task per target CPU."""
        cpus = (
            list(injection.cpus)
            if injection.cpus is not None
            else list(range(self.kernel.machine.n_cpus))
        )
        for cpu in cpus:
            if not 0 <= cpu < self.kernel.machine.n_cpus:
                raise ValueError(f"no CPU {cpu}")
            task = self.kernel.spawn(
                f"{injection.name}/{cpu}",
                policy=injection.policy,
                affinity=frozenset({cpu}),
                is_kernel_thread=True,
                work=1,
                on_segment_end=lambda: None,
            )
            task.on_segment_end = lambda t=task, inj=injection: self._sleep(t, inj)
            self.tasks.append(task)
            # Align the first real burst to phase + one period boundary.
            # (The bootstrap 1µs segment completes almost immediately and
            # _sleep re-arms periodically from there.)
            task.user_data = {"next_burst": injection.phase + injection.period}

    # ------------------------------------------------------------ internals

    def _sleep(self, task: Task, injection: NoiseInjection) -> None:
        self.kernel.block(task)
        state = task.user_data
        now = self.kernel.sim.now
        next_burst = state["next_burst"]
        while next_burst <= now:
            next_burst += injection.period
        state["next_burst"] = next_burst + injection.period
        self.kernel.sim.after(
            next_burst - now,
            lambda: self._burst(task, injection),
            priority=3,
            label=f"inject:{task.name}",
        )

    def _burst(self, task: Task, injection: NoiseInjection) -> None:
        if not task.alive:  # pragma: no cover
            return
        self.bursts_released += 1
        self.kernel.set_segment(
            task, injection.duration, lambda t=task, inj=injection: self._sleep(t, inj)
        )
        self.kernel.wake(task)
