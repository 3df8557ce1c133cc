"""Checks on the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py

Takes about two minutes: each workload's traced mode runs twice.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Per-layer counts fixed by the seed alone: a host-only change must leave
#: every one of them identical.
EXACT = (
    "sim.events", "sim.schedules", "sim.cancels",
    "kernel.update_curr.calls", "kernel.wake_up.calls", "kernel.set_segment.calls",
    "kernel.select_cpu.calls", "kernel.newidle_balance.calls",
    "kernel.ctxsw", "kernel.migrations", "memsim.time_for_work.calls",
    "parallel.spec_digests", "parallel.cache_hits", "parallel.cache_misses",
    "parallel.journal_appends",
    "batch.policy_passes", "batch.backfills", "batch.queue_depth_peak",
    "trace.ops", "trace.spans",
)


def bench(workload: str, *, trace: int, seed: int = 3, seconds: float = 1) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    assert f"seed={seed}" in lines[-2]
    return json.loads(lines[-1])


def declared(kind: str) -> set:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {metric["name"] for metric in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_exact_counts_repeat(workload):
    first, second = (bench(workload, trace=1) for _ in range(2))
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0
        assert set(out["metrics"]) == declared("per_layer")
    assert {name: first["metrics"][name]["value"] for name in EXACT} == \
        {name: second["metrics"][name]["value"] for name in EXACT}


def test_untraced_output_matches_declared_metrics():
    out = bench("batch_easy", trace=0)
    assert out["correct"] and out["attempted"] >= 1
    assert set(out["metrics"]) == declared("end_to_end")


def test_traced_run_restores_every_wrapped_function(tmp_path):
    run.import_package()
    probed = [tracing.resolve(probe.target) for probe in tracing.PROBES]
    originals = [owner.__dict__[attr] for owner, attr in probed]
    aliases = [
        (module, attr, original)
        for (owner, attr), original in zip(probed, originals)
        if not isinstance(owner, type)
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro") and module.__dict__.get(attr) is original
    ]
    workload = workloads.BatchEasy(0, workloads.load_references())
    workload.workdir = tmp_path
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(probed, originals))
        window = run.Window(workload).run(ops=1, tracer=tracer)
    finally:
        tracer.restore()
    assert window.failed == 0 and tracer.summary()["batch.dispatch"]["calls"] == 1
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(probed, originals))
    assert all(module.__dict__[attr] is original for module, attr, original in aliases)
