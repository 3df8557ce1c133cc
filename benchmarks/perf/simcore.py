"""Sim-core throughput benchmarks and the perf regression gate.

The suite measures the per-event hot path at three granularities:

* **micro** — the engine in isolation: event-queue schedule/cancel/pop
  churn, the raw ``run_until`` dispatch loop, and the warmth model's
  work→time inversion (the top profile entries of a NAS campaign);
* **macro** — single simulated NAS executions (``cg.B`` stock and HPL,
  ``lu.A``, ``is.A``) reported as simulator events per wall second;
* **campaign** — a small serial ``is.A`` campaign with provenance on,
  the unit of work every table/figure regeneration multiplies.

Every metric reduces to one ``score`` where **higher is better**.  Each
timed slice of a metric runs between two samples of the fixed pure-Python
reference loop in :mod:`perfbench.reference` (the yardstick the repo
benchmark calibrates its ops with), and the regression gate compares the median
**calibration-normalized** score, so a baseline recorded on a fast machine
does not fail the gate on a slower CI runner (both the score and the
calibration shrink together), and neither does a host whose speed drifts
while the suite runs.

CLI::

    python -m benchmarks.perf.simcore --out BENCH_simcore.json
    python -m benchmarks.perf.simcore --check \
        --baseline benchmarks/perf/baseline/BENCH_simcore.json

Environment knobs: ``REPRO_PERF_REPS`` (repetitions, default 3),
``REPRO_PERF_TOLERANCE`` (allowed fractional slowdown, default 0.15).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from perfbench import reference

SCHEMA = 1
_T = TypeVar("_T")

DEFAULT_REPS = int(os.environ.get("REPRO_PERF_REPS", "3"))
DEFAULT_TOLERANCE = float(os.environ.get("REPRO_PERF_TOLERANCE", "0.15"))
#: Calibrated slices per rep of a micro metric (each slice is ~50 ms).
MICRO_SLICES = 16


# --------------------------------------------------------------- measurement

#: Reference-loop samples the document-wide calibration is the median of.
CAL_SAMPLES = 5


@contextmanager
def _frozen_heap() -> Iterator[None]:
    """Move every live object out of the collector's view for the block,
    so the drain before each slice costs only the garbage made since."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _drained(fn: Callable[[], _T]) -> _T:
    """Call *fn* after collecting the garbage earlier slices left behind.

    The collector stays on inside *fn*: the collections its own
    allocations trigger are part of its run time and are timed with it;
    only a collection of an earlier slice's garbage is kept out."""
    gc.collect()
    return fn()


def calibrate() -> float:
    """Reference-loop speed in events/sec: the median of
    :data:`CAL_SAMPLES` samples of :mod:`perfbench.reference`'s loop."""
    reference.sample()  # warm-up
    with _frozen_heap():
        return median(
            reference.EVENTS / _drained(reference.sample) for _ in range(CAL_SAMPLES)
        )


def _measure(
    run: Callable[[], Tuple[float, float]], reps: int, inner: int = 1
) -> Tuple[float, float, float]:
    """Time ``reps * inner`` slices of *run*, each between two reference
    samples; return the medians of (raw score, normalized score, wall_s).

    *run* returns ``(units, seconds)`` for one slice.  The host's speed
    drifts by tens of percent within seconds, so a calibration taken once
    per process normalizes a score by the wrong yardstick: each slice's
    seconds are instead calibrated by the two reference samples around it
    (:func:`perfbench.reference.calibrate`), and the median over slices
    discards the pairs a speed change split down the middle (a best-of
    would select exactly those outliers)."""
    reference.sample()  # warm-up
    raw: List[float] = []
    normalized: List[float] = []
    walls: List[float] = []
    with _frozen_heap():
        before = _drained(reference.sample)
        for _ in range(reps * inner):
            units, dt = _drained(run)
            after = _drained(reference.sample)
            raw.append(units / dt)
            normalized.append(units / reference.calibrate(dt, before, after))
            walls.append(dt)
            before = after
    return median(raw), median(normalized), median(walls)


def _metric(unit: str, run, reps: int, inner: int = 1) -> Dict[str, float]:
    score, normalized, wall = _measure(run, reps, inner)
    return {
        "score": score,
        "normalized": normalized,
        "unit": unit,
        "wall_s": round(wall, 4),
    }


def micro_event_queue(reps: int = DEFAULT_REPS) -> Dict[str, float]:
    """Schedule/cancel/pop churn on a bare EventQueue (ops/sec)."""
    from repro.sim.events import EventQueue

    n = 30_000

    def run() -> Tuple[float, float]:
        q = EventQueue()
        nop = lambda: None  # noqa: E731
        t0 = time.perf_counter()
        pending = []
        for i in range(n):
            ev = q.schedule(i, nop, priority=i & 3)
            pending.append(ev)
            if i & 3 == 1:
                pending[i // 2].cancel()
            if i & 7 == 7:
                q.pop()
        while q.pop() is not None:
            pass
        return n, time.perf_counter() - t0

    return _metric("ops/s", run, reps, MICRO_SLICES)


def micro_sim_loop(reps: int = DEFAULT_REPS) -> Dict[str, float]:
    """Raw run_until dispatch: a self-rescheduling callback chain
    (events/sec of pure engine overhead)."""
    from repro.sim.engine import Simulator

    n = 30_000

    def run() -> Tuple[float, float]:
        sim = Simulator(seed=1)
        remaining = [n]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.after(1, tick, priority=2, label="tick")

        sim.after(1, tick, label="tick")
        t0 = time.perf_counter()
        sim.run_until()
        return sim.events_processed, time.perf_counter() - t0

    return _metric("events/s", run, reps, MICRO_SLICES)


def micro_warmth_invert(reps: int = DEFAULT_REPS) -> Dict[str, float]:
    """`WarmthModel.time_for_work` inversions/sec — the hottest leaf of a
    NAS campaign profile."""
    from repro.memsim.warmth import TaskWarmth, WarmthModel
    from repro.topology.presets import power6_js22

    model = WarmthModel(power6_js22())
    n = 20_000

    def run() -> Tuple[float, float]:
        state = TaskWarmth(0.3, 0, cold_speed=0.55, rewarm_scale=2.0)
        t0 = time.perf_counter()
        for i in range(n):
            state.warmth = (i & 255) / 255.0
            model.time_for_work(state, 1_000 + (i & 8191), 0.87)
        return n, time.perf_counter() - t0

    return _metric("calls/s", run, reps, MICRO_SLICES)


def _macro_nas(
    app: str, klass: str, regime: str, reps: int, inner: int = 1
) -> Dict[str, float]:
    """One NAS execution as events per wall second.

    *inner* > 1 times that many executions per rep, each its own
    calibrated slice: a sub-20ms run like ``is.A`` is pure
    scheduling-noise lottery on a shared host, and only the median of
    several can be gated at a 15% tolerance.
    """
    from repro.apps.nas import nas_program, nas_spec
    from repro.experiments.runner import _run_job
    from repro.topology.presets import power6_js22

    machine = power6_js22()
    spec = nas_spec(app, klass)

    def run() -> Tuple[float, float]:
        program = nas_program(spec, machine)
        t0 = time.perf_counter()
        job = _run_job(
            program,
            spec.nprocs,
            regime,
            seed=1,
            machine=machine,
            cold_speed=spec.cold_speed,
            rewarm_scale=spec.rewarm_scale,
        )
        return job.kernel.sim.events_processed, time.perf_counter() - t0

    return _metric("events/s", run, reps, inner)


def campaign_is_a(reps: int = DEFAULT_REPS, n_runs: int = 16) -> Dict[str, float]:
    """A small serial is.A campaign with provenance enabled (runs/sec)."""
    from repro.experiments.runner import run_nas_campaign

    def run() -> Tuple[float, float]:
        with tempfile.TemporaryDirectory() as td:
            t0 = time.perf_counter()
            run_nas_campaign(
                "is",
                "A",
                "stock",
                n_runs,
                base_seed=3,
                use_cache=False,
                n_jobs=1,
                provenance_path=os.path.join(td, "prov.jsonl"),
            )
            dt = time.perf_counter() - t0
        return n_runs, dt

    return _metric("runs/s", run, reps)


#: Metric name -> zero-argument measurement callable.  Ordered micro →
#: macro → campaign so a partial run still reports the cheap end.
SUITE: Dict[str, Callable[[], Dict[str, float]]] = {
    "micro_event_queue": micro_event_queue,
    "micro_sim_loop": micro_sim_loop,
    "micro_warmth_invert": micro_warmth_invert,
    "nas_cg_B_stock": lambda: _macro_nas("cg", "B", "stock", DEFAULT_REPS),
    "nas_cg_B_hpl": lambda: _macro_nas("cg", "B", "hpl", DEFAULT_REPS),
    "nas_lu_A_stock": lambda: _macro_nas("lu", "A", "stock", DEFAULT_REPS),
    "nas_is_A_stock": lambda: _macro_nas("is", "A", "stock", DEFAULT_REPS, inner=4),
    "campaign_is_A_16": campaign_is_a,
}


def collect(only: Optional[List[str]] = None) -> Dict[str, object]:
    """Run the suite and return the BENCH_simcore document."""
    names = list(SUITE) if only is None else only
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; choose from {list(SUITE)}")
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "calibration_ops_per_sec": calibrate(),
        "metrics": {},
    }
    for name in names:
        doc["metrics"][name] = SUITE[name]()  # type: ignore[index]
    return doc


# --------------------------------------------------------------------- gate


def _normalized(metric: Dict[str, float], calib: float) -> float:
    """A metric's calibration-normalized score: the per-slice median
    :func:`_measure` recorded, or, for documents without one, the score
    over the document-wide calibration."""
    if "normalized" in metric:
        return metric["normalized"]
    return metric["score"] / calib


def compare(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Return one human-readable line per **regressed** metric.

    A metric regresses when its calibration-normalized score falls more
    than *tolerance* below the baseline's.  Metrics present on only one
    side are ignored (the gate must not fail when the suite grows)."""
    cur_calib = float(current["calibration_ops_per_sec"])  # type: ignore[arg-type]
    base_calib = float(baseline["calibration_ops_per_sec"])  # type: ignore[arg-type]
    if cur_calib <= 0 or base_calib <= 0:
        raise ValueError("calibration score must be positive")
    failures = []
    cur_metrics: Dict[str, Dict[str, float]] = current["metrics"]  # type: ignore[assignment]
    base_metrics: Dict[str, Dict[str, float]] = baseline["metrics"]  # type: ignore[assignment]
    for name, base in base_metrics.items():
        cur = cur_metrics.get(name)
        if cur is None:
            continue
        ratio = _normalized(cur, cur_calib) / _normalized(base, base_calib)
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{name}: {ratio:.2f}x of baseline "
                f"(now {cur['score']:.0f} {cur.get('unit', '')}/calib {cur_calib:.0f}, "
                f"was {base['score']:.0f}/{base_calib:.0f}; "
                f"tolerance {tolerance:.0%})"
            )
    return failures


def diff(current: Dict[str, object], baseline: Dict[str, object]) -> List[str]:
    """Per-suite comparison lines — **every** metric, not just regressions.

    Each line shows the baseline and current scores with both the raw
    ratio and the calibration-normalized ratio the gate actually judges,
    so a reviewer can see at a glance how much of a change is machine
    speed and how much is the code.  Metrics present on only one side are
    labelled rather than skipped."""
    cur_calib = float(current["calibration_ops_per_sec"])  # type: ignore[arg-type]
    base_calib = float(baseline["calibration_ops_per_sec"])  # type: ignore[arg-type]
    if cur_calib <= 0 or base_calib <= 0:
        raise ValueError("calibration score must be positive")
    lines = [
        f"calibration: {cur_calib:.0f} ops/s now vs {base_calib:.0f} baseline "
        f"({cur_calib / base_calib:.2f}x machine speed)"
    ]
    cur_metrics: Dict[str, Dict[str, float]] = current["metrics"]  # type: ignore[assignment]
    base_metrics: Dict[str, Dict[str, float]] = baseline["metrics"]  # type: ignore[assignment]
    for name in sorted(set(cur_metrics) | set(base_metrics)):
        cur = cur_metrics.get(name)
        base = base_metrics.get(name)
        if cur is None:
            lines.append(f"{name:24s} (baseline only — not run)")
            continue
        if base is None:
            lines.append(
                f"{name:24s} {cur['score']:12.0f} {cur.get('unit', ''):9s} (new metric)"
            )
            continue
        raw = cur["score"] / base["score"]
        norm = _normalized(cur, cur_calib) / _normalized(base, base_calib)
        lines.append(
            f"{name:24s} {base['score']:12.0f} -> {cur['score']:12.0f} "
            f"{cur.get('unit', ''):9s} raw {raw:5.2f}x  normalized {norm:5.2f}x"
        )
    return lines


def format_report(doc: Dict[str, object]) -> str:
    lines = [f"calibration: {float(doc['calibration_ops_per_sec']):.0f} ops/s"]  # type: ignore[arg-type]
    for name, m in doc["metrics"].items():  # type: ignore[union-attr]
        lines.append(
            f"{name:24s} {m['score']:12.0f} {m.get('unit', ''):9s} wall {m['wall_s']:.4f}s"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write BENCH_simcore.json here")
    parser.add_argument("--baseline", help="baseline BENCH_simcore.json to gate against")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any metric regresses past --tolerance vs --baseline",
    )
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--only", nargs="*", help="subset of metrics to run")
    parser.add_argument(
        "--diff",
        action="store_true",
        help="print per-suite raw and normalized ratios vs --baseline",
    )
    parser.add_argument(
        "--diff-out", help="also write the --diff report to this file"
    )
    args = parser.parse_args(argv)

    if (args.check or args.diff or args.diff_out) and not args.baseline:
        parser.error("--check/--diff require --baseline")
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    doc = collect(only=args.only)
    print(format_report(doc))
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.diff or args.diff_out:
        report = "\n".join(diff(doc, baseline))
        print(report)
        if args.diff_out:
            os.makedirs(os.path.dirname(args.diff_out) or ".", exist_ok=True)
            with open(args.diff_out, "w") as fh:
                fh.write(report + "\n")
            print(f"wrote {args.diff_out}")
    if args.check:
        failures = compare(doc, baseline, tolerance=args.tolerance)
        if failures:
            print("PERF GATE FAILED:", file=sys.stderr)
            for line in failures:
                print("  " + line, file=sys.stderr)
            return 1
        print(f"perf gate OK (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
