#!/usr/bin/env python3
"""The repository benchmark: whole user-level calls, timed from outside.

    python3 perfbench/run.py --workload nas_campaign --seed 0 --seconds 32 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
in ``BENCHMARK.json``, in host time calibrated by a reference loop timed
around every op and every set-up phase (``reference.py``).  ``--trace 1``
first runs a fixed number of ops under the span tracer (``tracer.py``) for
the per-layer metrics, then an untraced window of half the time to report
the tracing overhead.  The last line of standard output is one JSON
object; the line before it repeats the seed.  Everything the package writes
goes to ``perfbench/out/<workload>-<pid>/``, which is removed at exit; the
traced run also leaves its spans in ``perfbench/out/spans-<workload>.tsv``.
README.md explains the workloads.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

#: Everything the three workloads import from the package.
IMPORTS = ("repro", "repro.experiments.runner", "repro.batch")
#: The timed window runs past ``--seconds`` until it holds this many ops,
#: so that at least ten lie beyond p90 even when the host is slow.
MIN_OPS = 100
#: Set-up is repeated this many times per run and its median reported.
SETUP_SAMPLES = 3
#: Reference runs on each side of a set-up phase (phases last seconds).
SETUP_REFS = 3


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package() -> float:
    """Import the package from this checkout's ``src``; returns seconds."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    for name in IMPORTS:
        importlib.import_module(name)
    elapsed = time.perf_counter() - t0
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not {SRC}")
    return elapsed


def fresh_import_s() -> float:
    """Calibrated import time in a fresh interpreter.

    The child runs the reference loop itself, right before and after its
    import, and reports the calibrated time.
    """
    code = (f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            f"import reference as r; b = r.sample({SETUP_REFS}); "
            f"t = time.perf_counter(); import {', '.join(IMPORTS)}; "
            f"t = time.perf_counter() - t; "
            f"print(r.calibrate(t, b, r.sample({SETUP_REFS})))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload, workdir: Path) -> dict:
    """Set up ``SETUP_SAMPLES`` times; returns the calibrated medians.

    Sample 0 imports the package into this process; the others import it
    in a fresh interpreter.  Every sample then prepares the workload in a
    fresh directory (the last one stays for the timed window).  Each phase
    is calibrated by ``SETUP_REFS`` reference runs right before and after it.
    """
    import_s, prefill_s, setup_s = [], [], []
    for k in range(SETUP_SAMPLES):
        prep_dir = workdir / f"setup{k}"
        prep_dir.mkdir()
        if k == 0:
            before = reference.sample(SETUP_REFS)
            imported = import_package()
            imported = reference.calibrate(imported, before, reference.sample(SETUP_REFS))
        else:
            imported = fresh_import_s()
        before = reference.sample(SETUP_REFS)
        t0 = time.perf_counter()
        phases = workload.prepare(prep_dir)
        prepared = time.perf_counter() - t0
        after = reference.sample(SETUP_REFS)
        import_s.append(imported)
        prefill_s.append(reference.calibrate(phases.get("prefill_s", 0.0), before, after))
        setup_s.append(imported + reference.calibrate(prepared, before, after))
        if k + 1 < SETUP_SAMPLES:
            shutil.rmtree(prep_dir)
    return {name: statistics.median(samples) for name, samples in
            (("setup_s", setup_s), ("import_s", import_s), ("prefill_s", prefill_s))}


class Window:
    """Runs ops one after another (a closed loop with one client).

    Each op is bracketed by two reference samples (``reference.py``):
    ``durations`` keeps its host seconds, ``calibrated`` the same scaled to
    the reference speed, and ``refs`` the mean of its two samples.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.durations = []
        self.calibrated = []
        self.refs = []
        self.failed = 0
        self.facts = {}

    def run(self, *, seconds=None, ops=None, min_ops=0, tracer=None) -> "Window":
        """Runs *ops* ops, or for *seconds* but at least *min_ops* ops."""
        workload = self.workload
        deadline = None if seconds is None else time.perf_counter() + seconds
        inputs = workload.inputs()
        while ((ops is None or len(self.durations) < ops)
               and (deadline is None or time.perf_counter() < deadline
                    or len(self.durations) < min_ops)):
            op = next(inputs)
            try:
                call = (lambda op=op: workload.call(op))
                before = reference.sample()
                t0 = time.perf_counter()
                try:
                    result = tracer.run_op(op.index, call) if tracer else call()
                    ok = None
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                elapsed = time.perf_counter() - t0
                after = reference.sample()
                self.durations.append(elapsed)
                self.calibrated.append(reference.calibrate(elapsed, before, after))
                self.refs.append((before + after) / 2)
                if ok is None:
                    ok = workload.check(op, result)
                    for key, value in workload.facts(result).items():
                        seen = self.facts.get(key, 0)
                        self.facts[key] = (max(seen, value) if key.endswith("_peak")
                                           else seen + value)
                if not ok:
                    self.failed += 1
                    print(f"perfbench: op {op.index} ({op.regime} seed {op.seed}) "
                          f"failed its check", file=sys.stderr)
            finally:
                workload.release(op)
        return self

    @property
    def ops_per_s(self) -> float:
        return len(self.calibrated) / sum(self.calibrated)

    def end_to_end(self) -> dict:
        ms = [1000.0 * d for d in self.calibrated]
        return {
            "ops_per_s": {"value": self.ops_per_s, "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
            "op_ms_p90": {"value": statistics.quantiles(ms, n=10)[-1], "unit": "ms"},
            "ops_ok_frac": {"value": 1.0 - self.failed / len(ms), "unit": "ratio"},
        }

    def host(self) -> dict:
        """Uncalibrated figures: what the host did during this window."""
        return {"ref_ms": 1000.0 * statistics.median(self.refs),
                "raw_op_ms_p50": 1000.0 * statistics.median(self.durations)}


def per_layer_metrics(tracer, traced: Window, untraced: Window, setup_info) -> dict:
    """Every per-layer metric; span times are self times in ms per traced op."""
    spans = tracer.summary()
    counts = dict(tracer.counts)
    counts.update(traced.facts)
    n_ops = len(traced.durations)

    def calls(span):
        return spans[span]["calls"]

    def self_ms(span):
        return 1000.0 * spans[span]["self_s"] / n_ops

    schedules, cancels = calls("sim.schedule"), calls("sim.cancel")
    gets = counts.get("parallel.cache_hits", 0) + counts.get("parallel.cache_misses", 0)
    values = {
        "sim.events": (counts.get("sim.events", 0), "count"),
        "sim.schedules": (schedules, "count"),
        "sim.cancels": (cancels, "count"),
        "sim.cancel_ratio": (cancels / schedules if schedules else 0.0, "ratio"),
        "sim.run_until_ms": (self_ms("sim.run_until"), "ms/op"),
    }
    for span in ("kernel.update_curr", "kernel.wake_up", "kernel.set_segment",
                 "kernel.select_cpu", "kernel.newidle_balance",
                 "memsim.time_for_work"):
        values[span + ".calls"] = (calls(span), "count")
        values[span + ".ms"] = (self_ms(span), "ms/op")
    values.update({
        "kernel.ctxsw": (counts.get("kernel.ctxsw", 0), "count"),
        "kernel.migrations": (counts.get("kernel.migrations", 0), "count"),
        "apps.nas_program_ms": (self_ms("apps.nas_program"), "ms/op"),
        "experiments.build_specs_ms": (self_ms("experiments.build_specs"), "ms/op"),
        "experiments.execute_spec_ms": (self_ms("experiments.execute_spec"), "ms/op"),
        "parallel.spec_digests": (calls("parallel.spec_digest"), "count"),
        "parallel.spec_digest_ms": (self_ms("parallel.spec_digest"), "ms/op"),
        "parallel.cache_get_ms": (self_ms("parallel.cache_get"), "ms/op"),
        "parallel.cache_hits": (counts.get("parallel.cache_hits", 0), "count"),
        "parallel.cache_misses": (counts.get("parallel.cache_misses", 0), "count"),
        "parallel.cache_hit_ratio": (
            counts.get("parallel.cache_hits", 0) / gets if gets else 0.0, "ratio"),
        "parallel.cache_put_ms": (self_ms("parallel.cache_put"), "ms/op"),
        "parallel.journal_appends": (calls("parallel.journal"), "count"),
        "parallel.journal_ms": (self_ms("parallel.journal"), "ms/op"),
        "parallel.supervise_self_ms": (self_ms("parallel.supervise"), "ms/op"),
        "obs.run_record_ms": (self_ms("obs.run_record"), "ms/op"),
        "obs.append_record_ms": (self_ms("obs.append_record"), "ms/op"),
        "batch.dispatch_ms": (self_ms("batch.dispatch"), "ms/op"),
        "batch.policy_passes": (calls("batch.policy"), "count"),
        "batch.policy_ms": (self_ms("batch.policy"), "ms/op"),
        "batch.backfills": (counts.get("batch.backfills", 0), "count"),
        "batch.queue_depth_peak": (counts.get("batch.queue_depth_peak", 0), "count"),
        "setup.import_s": (setup_info["import_s"], "s"),
        "setup.prefill_s": (setup_info["prefill_s"], "s"),
        "host.ref_ms": (untraced.host()["ref_ms"], "ms"),
        "host.raw_op_ms_p50": (untraced.host()["raw_op_ms_p50"], "ms"),
        "trace.ops": (n_ops, "count"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.traced_ops_per_s": (traced.ops_per_s, "1/s"),
        "trace.untraced_ops_per_s": (untraced.ops_per_s, "1/s"),
        "trace.overhead_frac": (1.0 - traced.ops_per_s / untraced.ops_per_s, "ratio"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2

    # One core for the whole run: an op and the reference runs around it
    # must see the same core, and the host's cores are not always equally fast.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_references())
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_info = setup(workload, workdir)
        ep_ok = workloads.check_ep_reference()
        if not ep_ok:
            print("perfbench: ep A seed-0 determinism references differ", file=sys.stderr)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = Window(workload).run(ops=workload.traced_ops, tracer=tracer)
            finally:
                tracer.restore()
            untraced = Window(workload).run(seconds=args.seconds / 2)
            tracer.write(OUT / f"spans-{args.workload}.tsv")
            windows = (traced, untraced)
            metrics = per_layer_metrics(tracer, traced, untraced, setup_info)
        else:
            untraced = Window(workload).run(seconds=args.seconds, min_ops=MIN_OPS)
            windows = (untraced,)
            metrics = untraced.end_to_end()
            metrics["setup_s"] = {"value": setup_info["setup_s"], "unit": "s"}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(w.durations) for w in windows)
    failed = sum(w.failed for w in windows)
    beyond_p90 = len(untraced.durations) - int(0.9 * len(untraced.durations))
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"timed_ops={len(untraced.durations)} beyond_p90={beyond_p90} "
          f"ep_A_reference={'ok' if ep_ok else 'MISMATCH'} "
          f"setup_s={setup_info['setup_s']:.3f} "
          f"ref_ms={untraced.host()['ref_ms']:.3f} "
          f"raw_op_ms_p50={untraced.host()['raw_op_ms_p50']:.2f} "
          f"wall_s={time.perf_counter() - _PROCESS_T0:.1f}")
    print(json.dumps({"correct": ep_ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
