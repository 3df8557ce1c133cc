"""Tests for the experiment harness: runner, figures, tables, registry."""

import pytest

from repro.experiments.figures import figure1, figure2, figure3, figure4
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.runner import (
    KERNEL_VARIANTS,
    CampaignResult,
    run_nas,
    run_nas_campaign,
    run_program,
)
from repro.experiments.tables import (
    BENCH_ORDER,
    CampaignCache,
    policy_comparison,
    table1,
    table2,
)
from repro.apps.spmd import Program
from repro.kernel.daemons import quiet_profile
from repro.topology.presets import power6_js22
from repro.units import msecs

SMALL = 4  # campaign size for harness mechanics tests


def small_program():
    return Program.iterative(
        name="small", n_iters=3, iter_work=msecs(2), init_ops=2, finalize_ops=1
    )


# ------------------------------------------------------------------- runner


def test_all_regimes_run():
    for regime in KERNEL_VARIANTS:
        result = run_program(small_program(), 8, regime, seed=1)
        assert result.app_time > 0, regime


def test_unknown_regime_rejected():
    with pytest.raises(ValueError):
        run_program(small_program(), 8, "bogus")


def test_run_nas_seeded_reproducibility():
    a = run_nas("is", "A", "stock", seed=9)
    b = run_nas("is", "A", "stock", seed=9)
    assert a.app_time == b.app_time
    assert a.cpu_migrations == b.cpu_migrations
    assert a.context_switches == b.context_switches


def test_run_nas_seed_changes_outcome():
    a = run_nas("is", "A", "stock", seed=1)
    b = run_nas("is", "A", "stock", seed=2)
    assert (a.app_time, a.context_switches) != (b.app_time, b.context_switches)


def test_campaign_collects_n_results():
    c = run_nas_campaign("is", "A", "hpl", SMALL, base_seed=3)
    assert isinstance(c, CampaignResult)
    assert c.n_runs == SMALL
    assert len(c.app_times_s()) == SMALL
    assert len(c.migrations()) == SMALL
    assert len(c.context_switches()) == SMALL
    assert c.label == "is.A.8"


def test_campaign_runs_are_distinct():
    c = run_nas_campaign("is", "A", "stock", SMALL, base_seed=3)
    assert len(set(c.app_times_s())) > 1


def test_quiet_noise_override():
    noisy = run_nas("is", "A", "stock", seed=4)
    quiet = run_nas("is", "A", "stock", seed=4, noise=quiet_profile())
    assert quiet.context_switches < noisy.context_switches


def test_campaign_validation():
    with pytest.raises(ValueError):
        run_nas_campaign("is", "A", "stock", 0)
    # NAS programs are built for the POWER6 node; another machine is refused.
    with pytest.raises(TypeError, match="machine_factory"):
        run_nas_campaign("is", "A", "stock", 1, machine_factory=power6_js22)


# ------------------------------------------------------------------ figures


def test_figure1_shows_barrier_amplification():
    fig = figure1(seed=1)
    assert fig.slowdown_of_disturbed_iteration > 1.3
    i = fig.disturbed_iteration_index
    # Undisturbed iterations match across arms.
    for j, (c, d) in enumerate(zip(fig.clean_iteration_s, fig.disturbed_iteration_s)):
        if j != i:
            assert d == pytest.approx(c, rel=0.15)
    assert "preemption" in fig.render()


def test_figure2_histogram_and_stats():
    fig = figure2(n_runs=6, seed=3)
    assert fig.histogram.n == 6
    assert fig.stats.minimum <= fig.stats.mean <= fig.stats.maximum
    assert "Figure 2" in fig.render()


def test_figure3_reuses_campaign():
    fig2 = figure2(n_runs=6, seed=3)
    fig3 = figure3(campaign=fig2.campaign)
    assert fig3.campaign is fig2.campaign
    assert len(fig3.migrations.points) == 6
    assert "3a" in fig3.render() and "3b" in fig3.render()


def test_figure4_rt_regime():
    fig = figure4(n_runs=4, seed=3)
    assert fig.regime == "rt"
    assert fig.campaign.results[0].mode == "rt"


# ------------------------------------------------------------------- tables


def test_table1_rows_and_render():
    benches = (("is", "A"), ("is", "B"))
    t = table1("hpl", n_runs=3, base_seed=2, benches=benches)
    assert len(t.rows) == 2
    row = t.row("is.A.8")
    assert row.migrations.minimum >= 8
    assert "Table I" in t.render()
    with pytest.raises(KeyError):
        t.row("nope")


def test_table2_and_cache_reuse():
    cache = CampaignCache(n_runs=3, base_seed=2)
    benches = (("is", "A"),)
    stock_campaign = cache.get("is", "A", "stock")
    t2 = table2(cache, benches=benches)
    # Same object: campaigns are shared, not re-run.
    assert cache.get("is", "A", "stock") is stock_campaign
    row = t2.row("is.A.8")
    assert row.stock.minimum > 0 and row.hpl.minimum > 0
    assert "Table II" in t2.render()
    assert t2.mean_hpl_variation() >= 0


def test_bench_order_matches_paper():
    assert BENCH_ORDER[0] == ("cg", "A")
    assert len(BENCH_ORDER) == 12


def test_cache_validation():
    with pytest.raises(ValueError):
        CampaignCache(n_runs=1)


def test_policy_comparison_runs_all_regimes():
    pc = policy_comparison("is", "A", n_runs=3, base_seed=1,
                           regimes=("stock", "hpl"))
    stats = pc.stats("hpl")
    assert stats["time"].minimum > 0
    assert "Scheduling-policy comparison" in pc.render()


# ----------------------------------------------------------------- registry


def test_registry_contents():
    ids = {e.exp_id for e in list_experiments()}
    assert {"fig1", "fig2", "fig3", "fig4", "tab1a", "tab1b", "tab2",
            "policy", "resonance"} <= ids


def test_registry_lookup():
    exp = get_experiment("fig2")
    assert exp.paper_artifact == "Figure 2"
    with pytest.raises(KeyError):
        get_experiment("fig99")


def test_registry_experiments_render():
    result = get_experiment("fig1").run(2, 0)
    assert isinstance(result.render(), str)
