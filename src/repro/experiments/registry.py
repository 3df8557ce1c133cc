"""Experiment registry: one entry per paper artifact.

Maps DESIGN.md §4's experiment ids to their regenerators so the CLI and the
benchmark harness can enumerate them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.batchres import batch_resilience_campaign
from repro.experiments.figures import figure1, figure2, figure3, figure4
from repro.experiments.resilience import (
    cluster_resilience_campaign,
    resilience_campaign,
)
from repro.experiments.runner import campaign_options
from repro.experiments.tables import policy_comparison, table1, table2
from repro.experiments.twolevel import two_level_campaign

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    exp_id: str
    paper_artifact: str
    description: str
    #: fn(n_runs, seed, **options) -> object with a .render() method.  The
    #: options are the execution keywords (worker count, cache, supervisor
    #: config, journal resume; see
    #: :func:`~repro.experiments.runner.campaign_options`): campaign-running
    #: artifacts forward them to every campaign, single-run ones check them
    #: and run without.
    run: Callable[..., object]


def _single_run(build: Callable[[int], object]) -> Callable[..., object]:
    """A registry entry for an artifact of single runs: *build(seed)*."""

    def run(n_runs: int, seed: int, **options) -> object:
        campaign_options(options)
        return build(seed)

    return run


class _ResonanceResult:
    def __init__(self, curves) -> None:
        self.curves = curves

    def render(self) -> str:
        lines = ["Noise resonance: slowdown vs cluster size", ""]
        for label, points in self.curves.items():
            lines.append(label)
            for pt in points:
                lines.append(
                    f"  {pt.nodes:>6} nodes: P(disturbed phase)={pt.p_phase_disturbed:6.3f}"
                    f"  slowdown={pt.slowdown:6.3f}"
                )
            lines.append("")
        return "\n".join(lines)


def _resonance(seed: int) -> _ResonanceResult:
    from repro.cluster.resonance import spare_core_comparison

    curves = spare_core_comparison([1, 8, 64, 512, 4096], seed=seed)
    return _ResonanceResult(curves)


class _MultinodeResult:
    def __init__(self, rows) -> None:
        self.rows = rows

    def render(self) -> str:
        lines = ["Multi-node co-simulation: globally synchronized app time", ""]
        lines.append(f"{'nodes':>6} {'stock (s)':>10} {'hpl (s)':>9}")
        for n, stock_t, hpl_t in self.rows:
            lines.append(f"{n:>6} {stock_t:>10.4f} {hpl_t:>9.4f}")
        return "\n".join(lines)


def _multinode(seed: int) -> _MultinodeResult:
    from repro.apps.spmd import Program
    from repro.cluster.multinode import run_cluster_job
    from repro.units import msecs

    program = Program.iterative(
        name="mn", n_iters=10, iter_work=msecs(20), init_ops=3, finalize_ops=1
    )
    rows = []
    for n in (1, 2, 4, 8):
        stock_t = run_cluster_job(program, n, regime="stock", seed=seed).app_time_s
        hpl_t = run_cluster_job(program, n, regime="hpl", seed=seed).app_time_s
        rows.append((n, stock_t, hpl_t))
    return _MultinodeResult(rows)


class _DecompositionResult:
    def __init__(self, rows) -> None:
        self.rows = rows

    def render(self) -> str:
        lines = ["Direct vs indirect OS-noise decomposition (SS III)", ""]
        for label, regime, d in self.rows:
            lines.append(f"{label} {regime:>5}: {d.render()}")
        return "\n".join(lines)


def _decomposition(seed: int) -> _DecompositionResult:
    from repro.analysis.decomposition import decompose_nas_noise

    rows = []
    for bench, klass in (("is", "A"), ("cg", "A"), ("ep", "A")):
        for regime in ("stock", "hpl"):
            rows.append(
                (f"{bench}.{klass}.8", regime,
                 decompose_nas_noise(bench, klass, regime=regime, seed=seed))
            )
    return _DecompositionResult(rows)


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(
        "fig1", "Figure 1",
        "Effect of preempting one rank on a whole parallel application",
        _single_run(lambda seed: figure1(seed=seed)),
    ),
    "fig2": Experiment(
        "fig2", "Figure 2",
        "ep.A.8 execution-time distribution, stock Linux",
        lambda n, seed, **o: figure2(n, seed=seed, **o),
    ),
    "fig3": Experiment(
        "fig3", "Figures 3a/3b",
        "ep.A.8 time vs cpu-migrations and context-switches",
        lambda n, seed, **o: figure3(n, seed=seed, **o),
    ),
    "fig4": Experiment(
        "fig4", "Figure 4",
        "ep.A.8 execution-time distribution, RT scheduler",
        lambda n, seed, **o: figure4(n, seed=seed, **o),
    ),
    "tab1a": Experiment(
        "tab1a", "Table Ia",
        "Scheduler OS noise (migrations, switches), stock Linux",
        lambda n, seed, **o: table1("stock", n_runs=n, base_seed=seed, **o),
    ),
    "tab1b": Experiment(
        "tab1b", "Table Ib",
        "Scheduler OS noise (migrations, switches), HPL",
        lambda n, seed, **o: table1("hpl", n_runs=n, base_seed=seed, **o),
    ),
    "tab2": Experiment(
        "tab2", "Table II",
        "NAS execution times, stock vs HPL",
        lambda n, seed, **o: table2(n_runs=n, base_seed=seed, **o),
    ),
    "policy": Experiment(
        "policy", "SS IV discussion",
        "ep.A.8 under CFS / nice / RT / pinned / HPL",
        lambda n, seed, **o: policy_comparison(
            "ep", "A", n_runs=n, base_seed=seed, **o),
    ),
    "resonance": Experiment(
        "resonance", "SS II / SS VI (Petrini)",
        "Noise resonance across cluster sizes; spare-core comparison",
        _single_run(_resonance),
    ),
    "multinode": Experiment(
        "multinode", "SS II (extension)",
        "Multi-node co-simulation: resonance measured directly",
        _single_run(_multinode),
    ),
    "decompose": Experiment(
        "decompose", "SS III (extension)",
        "Direct vs indirect (cache) noise decomposition",
        _single_run(_decomposition),
    ),
    "resilience": Experiment(
        "resilience", "SS IV (robustness extension)",
        "Graceful degradation: 0/1/2 cores offlined mid-run, stock vs HPL",
        resilience_campaign,
    ),
    "cluster-resilience": Experiment(
        "cluster-resilience", "SS II (fault-domain extension)",
        "Multi-node recovery: node crash, straggler, degraded link — "
        "stock vs HPL vs RT",
        cluster_resilience_campaign,
    ),
    "two-level": Experiment(
        "two-level", "SS VI (two-level scheduling extension)",
        "Batch policies (FCFS/EASY/priority/share) x node regimes: does "
        "HPL's noise-immunity survive packing, backfilling, co-location?",
        two_level_campaign,
    ),
    "batch-resilience": Experiment(
        "batch-resilience", "SS VI (robustness extension)",
        "Batch policies x node regimes x fault intensity: node failures, "
        "drains, requeue with checkpoint-aware restart",
        batch_resilience_campaign,
    ),
}


def get_experiment(exp_id: str) -> Experiment:
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[exp_id]


def list_experiments() -> List[Experiment]:
    return list(EXPERIMENTS.values())
