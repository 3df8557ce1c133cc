"""Span tracer that wraps the package's public calls from the outside.

The benchmark never edits ``src/``: for the duration of a traced run it
replaces each probed function or method with a wrapper that records one span
per call (name, start, end, parent span, op id), then puts the original
object back.  Spans live in flat ``array`` columns while the run lasts and
are written once, at the end.

A probe may also count something at its boundary (``tally``): the tally is
called with the call's arguments, its result and the value ``before``
returned just before the call, and returns ``{counter: increment}``.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Probe:
    """One wrapped call site: ``module:Owner.attr`` or ``module:function``."""

    target: str
    span: str
    before: Optional[Callable[[tuple], object]] = None
    tally: Optional[Callable[[tuple, object, object], Dict[str, int]]] = None


def _events_before(args):
    return args[0].events_processed


def _events_delta(args, _result, before):
    return {"sim.events": args[0].events_processed - before}


def _cache_outcome(_args, result, _before):
    return {"parallel.cache_hits": 0 if result is None else 1,
            "parallel.cache_misses": 1 if result is None else 0}


#: Every layer boundary the traced run records, grouped by package layer.
PROBES: Tuple[Probe, ...] = (
    # sim
    Probe("repro.sim.engine:Simulator.run_until", "sim.run_until",
          before=_events_before, tally=_events_delta),
    Probe("repro.sim.events:EventQueue.schedule", "sim.schedule"),
    Probe("repro.sim.events:Event.cancel", "sim.cancel"),
    # kernel
    Probe("repro.kernel.sched_core:SchedCore.update_curr", "kernel.update_curr"),
    Probe("repro.kernel.sched_core:SchedCore.wake_up", "kernel.wake_up"),
    Probe("repro.kernel.kernel:Kernel.set_segment", "kernel.set_segment"),
    Probe("repro.kernel.load_balancer:LoadBalancer.select_cpu", "kernel.select_cpu"),
    Probe("repro.kernel.load_balancer:LoadBalancer.newidle_balance",
          "kernel.newidle_balance"),
    # memsim
    Probe("repro.memsim.warmth:WarmthModel.time_for_work", "memsim.time_for_work"),
    # apps
    Probe("repro.apps.nas:nas_program", "apps.nas_program"),
    # parallel
    Probe("repro.parallel.jobspec:RunSpec.digest", "parallel.spec_digest"),
    Probe("repro.parallel.cache:ResultCache.get", "parallel.cache_get",
          tally=_cache_outcome),
    Probe("repro.parallel.cache:ResultCache.put", "parallel.cache_put"),
    Probe("repro.parallel.supervisor:CampaignJournal.record_done", "parallel.journal"),
    Probe("repro.parallel.supervisor:supervise_campaign", "parallel.supervise"),
    # obs
    Probe("repro.obs.provenance:run_record", "obs.run_record"),
    Probe("repro.obs.provenance:append_record", "obs.append_record"),
    # experiments
    Probe("repro.experiments.runner:build_campaign_specs", "experiments.build_specs"),
    Probe("repro.experiments.runner:_execute_spec", "experiments.execute_spec"),
    # batch
    Probe("repro.batch.dispatcher:BatchDispatcher.dispatch", "batch.dispatch"),
    Probe("repro.batch.policies:EasyPolicy.schedule", "batch.policy"),
)

#: Span name of the benchmark's own per-op root span.
OP_SPAN = "op"


def resolve(target: str):
    """``(owner, attr)`` for a probe target string."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans around the probed calls while installed."""

    def __init__(self) -> None:
        self.names: List[str] = [OP_SPAN]
        self.name_id = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._current_op = -1
        #: (owner, attr, original) for every replacement made, in order.
        self._patched: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self._current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        stack.append(index)
        return index

    def run_op(self, op_id: int, fn: Callable[[], object]) -> object:
        """Run one benchmark op under a root span."""
        self._current_op = op_id
        index = self._open(0)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.end[index] = time.perf_counter()
            self.start[index] = t0
            self._stack.pop()
            self._current_op = -1

    def _wrapper(self, original, name_id: int, probe: Probe):
        clock = time.perf_counter
        open_span = self._open
        starts, ends, stack, counts = self.start, self.end, self._stack, self.counts
        before, tally = probe.before, probe.tally

        def traced(*args, **kwargs):
            index = open_span(name_id)
            seen = before(args) if before is not None else None
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if tally is not None:
                for key, value in tally(args, result, seen).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", probe.span)
        traced.__qualname__ = getattr(original, "__qualname__", probe.span)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # ------------------------------------------------- install / restore

    def install(self) -> None:
        """Replace every probed callable; module-level functions are also
        replaced wherever another ``repro`` module imported them by name."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for probe in PROBES:
                owner, attr = resolve(probe.target)
                original = owner.__dict__[attr]
                self.names.append(probe.span)
                wrapper = self._wrapper(original, len(self.names) - 1, probe)
                holders = [owner]
                if not isinstance(owner, type):
                    holders += [
                        module for name, module in sorted(sys.modules.items())
                        if name.startswith("repro") and module is not owner
                        and module.__dict__.get(attr) is original
                    ]
                for holder in holders:
                    self._patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original object back (idempotent)."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # ---------------------------------------------------------- results

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``
        (duration minus the time its direct child spans cover)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        names, name_id = self.names, self.name_id
        for i in range(n):
            row = out[names[name_id[i]]]
            duration = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one per span, with times
        in µs from the first span's start."""
        names, start, end = self.names, self.start, self.end
        origin = start[0] if start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_us\tend_us\n")
            for i in range(len(start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{names[self.name_id[i]]}\t{(start[i] - origin) * 1e6:.1f}\t"
                         f"{(end[i] - origin) * 1e6:.1f}\n")
