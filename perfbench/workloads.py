"""The benchmark's three workloads and their correctness references.

Each workload turns one benchmark seed into a fixed, endless sequence of op
inputs; one op is one user-level call into the package.  Inputs come from
fixed pools (``NAS_POOL`` campaign base seeds per regime, ``BATCH_POOL``
trace seeds) so that every op can be checked against ``references.json``,
which ``make_references.py`` generated once from these same definitions.
See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from itertools import count, cycle, islice
from pathlib import Path
from typing import Dict, Iterator, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: The paper's unit on the CLI's default cached path: cg class A.
NAS = ("cg", "A")
REGIMES = ("stock", "hpl")
#: Repetitions per campaign call.  One keeps every op a single run's shape.
N_RUNS = 1
#: Campaign base seeds 0..NAS_POOL-1 have committed per-run references.
NAS_POOL = 512
#: Campaigns the replay workload fills in setup and then cycles through.
REPLAY_CAMPAIGNS = 4

#: The ROADMAP's EASY scaling setup, at a few hundred jobs per trace.
BATCH_TRACE = {"n_jobs": 300, "interarrival_us": 2_000, "max_nodes": 8}
BATCH_POOL_NODES = 16
#: Trace seeds 0..BATCH_POOL-1 have committed schedule digests.
BATCH_POOL = 1024

#: The documented determinism references: ``run_nas("ep", "A", regime,
#: seed=0)`` -> (app_time µs, cpu migrations, context switches).
EP_A_SEED0 = {"stock": (8_630_631, 19, 712), "hpl": (8_560_246, 13, 348)}


class Op(NamedTuple):
    """One op's generated input."""

    index: int
    #: Campaign regime (``None`` for batch ops).
    regime: Optional[str]
    #: Pool index: campaign base seed or trace seed.
    seed: int
    #: Per-op scratch directory (fresh cache) or the shared replay one.
    dir: Optional[Path] = None
    trace: object = None


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def run_facts(result) -> list:
    """The per-run values a campaign reference pins."""
    return [result.app_time, result.cpu_migrations, result.context_switches]


def check_ep_reference() -> bool:
    """Re-run the documented ``ep A`` seed-0 references under both regimes."""
    from repro.experiments.runner import run_nas

    return all(
        tuple(run_facts(run_nas("ep", "A", regime, seed=0))) == expected
        for regime, expected in EP_A_SEED0.items()
    )


def nas_campaign_call(regime: str, base_seed: int, cache_dir: Path, provenance: Path):
    from repro.experiments.runner import run_nas_campaign

    return run_nas_campaign(
        *NAS, regime, N_RUNS, base_seed=base_seed, use_cache=True,
        cache_dir=str(cache_dir), provenance_path=str(provenance), n_jobs=1,
    )


def batch_trace(seed: int):
    from repro.batch import WorkloadConfig, generate_trace

    return generate_trace(WorkloadConfig(**BATCH_TRACE), seed)


def batch_call(trace):
    from repro.batch import simulate_batch

    return simulate_batch(trace, BATCH_POOL_NODES, "easy", runtime_model="analytic")


class Workload:
    """Op source, timed call and output check for one workload."""

    name = ""
    #: Ops the traced run executes (fixed, so its counts are seed-exact).
    traced_ops = 0

    def __init__(self, seed: int, references: dict) -> None:
        self.seed = seed
        self.references = references
        self.workdir: Optional[Path] = None

    def _rng(self) -> random.Random:
        # str seeds hash through SHA-512: stable across processes/versions.
        return random.Random(f"perfbench:{self.name}:{self.seed}")

    def prepare(self, workdir: Path) -> Dict[str, float]:
        """Set up in *workdir* and warm up; returns timed sub-phases."""
        self.workdir = workdir
        for op in islice(self.inputs(), 2):
            try:
                if not self.check(op, self.call(op)):
                    raise RuntimeError(f"{self.name}: warm-up op {op} is wrong")
            finally:
                self.release(op)
        return {}

    def inputs(self) -> Iterator[Op]:
        raise NotImplementedError

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError

    def facts(self, result) -> Dict[str, int]:
        """Seed-exact guard counts of one op's result."""
        raise NotImplementedError

    def release(self, op: Op) -> None:
        """Drop what the op left behind (untimed)."""


class NasCampaign(Workload):
    """One cold cached cg.A campaign call per op, regimes alternating."""

    name = "nas_campaign"
    traced_ops = 16

    def campaign_seeds(self) -> Iterator[tuple]:
        rng = self._rng()
        order = {regime: rng.sample(range(NAS_POOL), NAS_POOL) for regime in REGIMES}
        for i in count():
            regime = REGIMES[i % len(REGIMES)]
            yield regime, order[regime][(i // len(REGIMES)) % NAS_POOL]

    def inputs(self) -> Iterator[Op]:
        for i, (regime, seed) in enumerate(self.campaign_seeds()):
            op_dir = self.workdir / f"op{i}"
            op_dir.mkdir()
            yield Op(i, regime, seed, op_dir)

    def call(self, op: Op):
        return nas_campaign_call(op.regime, op.seed, op.dir / "cache",
                                 op.dir / "provenance.jsonl")

    #: Cache hits every op must see.
    expected_hits = 0

    def matches(self, regime: str, seed: int, result, hits: int) -> bool:
        expected = self.references["nas_cg_A"][regime][seed]
        return (result.cache_hits == hits
                and [run_facts(r) for r in result.results] == [expected])

    def check(self, op: Op, result) -> bool:
        return self.matches(op.regime, op.seed, result, self.expected_hits)

    def facts(self, result) -> Dict[str, int]:
        return {
            "kernel.ctxsw": sum(r.context_switches for r in result.results),
            "kernel.migrations": sum(r.cpu_migrations for r in result.results),
        }

    def release(self, op: Op) -> None:
        shutil.rmtree(op.dir)


class CampaignReplay(NasCampaign):
    """The same campaign calls against a cache setup filled: all hits."""

    name = "campaign_replay"
    traced_ops = 32
    expected_hits = N_RUNS

    def prepare(self, workdir: Path) -> Dict[str, float]:
        self.workdir = workdir
        t0 = time.perf_counter()
        for regime, seed in islice(self.campaign_seeds(), REPLAY_CAMPAIGNS):
            result = nas_campaign_call(regime, seed, workdir / "cache",
                                       workdir / "provenance.jsonl")
            if not self.matches(regime, seed, result, hits=0):
                raise RuntimeError(f"{self.name}: prefill of {regime}/{seed} is wrong")
        prefill_s = time.perf_counter() - t0
        super().prepare(workdir)
        return {"prefill_s": prefill_s}

    def inputs(self) -> Iterator[Op]:
        filled = list(islice(self.campaign_seeds(), REPLAY_CAMPAIGNS))
        for i, (regime, seed) in enumerate(cycle(filled)):
            yield Op(i, regime, seed, self.workdir)

    def release(self, op: Op) -> None:
        pass


class BatchEasy(Workload):
    """One analytic EASY schedule of a fresh 300-job trace per op."""

    name = "batch_easy"
    traced_ops = 48

    def inputs(self) -> Iterator[Op]:
        order = self._rng().sample(range(BATCH_POOL), BATCH_POOL)
        for i in count():
            seed = order[i % BATCH_POOL]
            yield Op(i, None, seed, trace=batch_trace(seed))

    def call(self, op: Op):
        return batch_call(op.trace)

    def check(self, op: Op, result) -> bool:
        return (result.head_delays == 0
                and result.schedule_digest() == self.references["batch_easy"][op.seed])

    def facts(self, result) -> Dict[str, int]:
        return {"batch.backfills": result.backfills,
                "batch.queue_depth_peak": result.queue_depth_peak}


WORKLOADS = {cls.name: cls for cls in (NasCampaign, CampaignReplay, BatchEasy)}
