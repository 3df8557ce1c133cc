"""Scheduling-latency comparison (ex-lat) — the time-domain face of §III.

Shape to hold: on the same seed, the stock kernel's worst application-rank
scheduling delay dwarfs HPL's (>= 10x).  Under HPL the HPC class is never
displaced — ranks spin at barriers and own their CPUs — so both their
preemption count and their displacement time are exactly zero, while under
stock Linux daemons and the balancer push ranks off-CPU for milliseconds at
a time.
"""

from benchmarks.conftest import save_artifact
from repro.experiments.runner import run_nas_job
from repro.obs import render_latency_table


def test_latency_stock_vs_hpl(benchmark, bench_seed, artifact_dir):
    channels = dict(with_trace=True, with_latency=True, with_counters=True)

    def run_both():
        return (
            run_nas_job("ep", "A", "stock", seed=bench_seed, **channels),
            run_nas_job("ep", "A", "hpl", seed=bench_seed, **channels),
        )

    stock, hpl = benchmark.pedantic(run_both, rounds=1, iterations=1)

    sections = []
    for label, run in (("stock Linux", stock), ("HPL", hpl)):
        sections.append(f"ep.A.8 under {label} (seed {bench_seed}):")
        sections.append(
            render_latency_table(
                run.observer.latency, pids=run.rank_pids, names=run.names
            )
        )
    save_artifact(artifact_dir, "latency.txt", "\n".join(sections))

    stock_max = stock.observer.latency.max_delay(stock.rank_pids)
    hpl_max = hpl.observer.latency.max_delay(hpl.rank_pids)
    assert stock_max >= 10 * max(hpl_max, 1), (stock_max, hpl_max)

    hpl_summary = hpl.observer.latency.summary(hpl.rank_pids)
    assert hpl_summary.n_preemptions == 0
    assert hpl_summary.max_preempt_wait == 0
