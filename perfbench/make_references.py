#!/usr/bin/env python3
"""Regenerate ``references.json``: the expected output of every pooled op.

Run it when the simulated behaviour is meant to change (a host-only change
must leave the file byte-identical); it takes about five minutes:

    python3 perfbench/make_references.py

The campaign references are computed without the result cache, so they do not
depend on the cache path the workloads measure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def nas_references() -> dict:
    from repro.experiments.runner import run_nas_campaign

    return {
        regime: [
            workloads.run_facts(run_nas_campaign(
                *workloads.NAS, regime, workloads.N_RUNS, base_seed=seed, n_jobs=1,
            ).results[0])
            for seed in range(workloads.NAS_POOL)
        ]
        for regime in workloads.REGIMES
    }


def batch_references() -> list:
    digests = []
    for seed in range(workloads.BATCH_POOL):
        result = workloads.batch_call(workloads.batch_trace(seed))
        if result.head_delays:
            raise SystemExit(f"trace seed {seed}: EASY delayed the head")
        digests.append(result.schedule_digest())
    return digests


def main() -> int:
    refs = {
        "batch_easy": batch_references(),
        "nas_cg_A": nas_references(),
        "pool": {"nas_base_seeds": workloads.NAS_POOL,
                 "batch_trace_seeds": workloads.BATCH_POOL},
    }
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
