"""Command-line interface: ``hpl-repro``.

Subcommands::

    hpl-repro list                       # experiments and benchmarks
    hpl-repro run ep A --regime hpl      # one benchmark execution
    hpl-repro stat ep A --regime stock   # perf-stat style counter report
    hpl-repro latency ep A --regime hpl  # perf-sched-latency style table
    hpl-repro trace ep A --format chrome -o t.json  # exportable event trace
    hpl-repro campaign ep A --regime stock -n 100 --provenance runs.jsonl
    hpl-repro campaign ep A -n 100 --jobs 4         # fan across 4 workers
    hpl-repro campaign ep A -n 100 --telemetry t.jsonl  # execution feed
    hpl-repro top t.jsonl                # summarize a telemetry feed
    hpl-repro replay t.json -o gantt.svg # trace file -> per-CPU Gantt SVG
    hpl-repro experiment tab2 -n 50      # regenerate a paper artifact
    hpl-repro faults ep A --regime hpl --offline-cores 1   # fault injection
    hpl-repro batch easy --pool 4 -n 3   # batch-dispatch a job trace
    hpl-repro cache info                 # campaign result-cache status
    hpl-repro topology                   # show the js22 model

Campaigns accept ``--telemetry PATH`` to stream a JSONL execution feed
(queue-wait/wall per run, retries, timeouts, cache traffic, pool health —
schema: :mod:`repro.obs.telemetry`) that ``hpl-repro top`` summarizes live
or after the fact; ``--progress`` forces the in-place progress line that a
TTY gets automatically.  ``hpl-repro replay`` loads a trace exported by
``hpl-repro trace`` (either format) and renders it as a deterministic
per-CPU Gantt SVG.

Campaign-running subcommands (campaign, faults, experiment, sweep, report,
export) take ``--jobs N`` (default: all CPUs; 1 = the in-process serial
loop) and ``--no-cache``; outputs are byte-identical whatever ``--jobs``
is.  The result cache lives in ``.repro-cache/`` (override with
``--cache-dir`` or ``$REPRO_CACHE_DIR``) and is managed by ``cache
info``/``cache clear``.

Every command prints plain text suitable for piping into EXPERIMENTS.md.
Bad arguments (unknown regime/experiment, non-positive run counts,
unwritable output paths) exit with status 2 and a one-line error before any
simulation runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.stats import summarize

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (run counts, fault counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type: an integer >= 0 (seeds, times, counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _node_at(text: str) -> tuple:
    """argparse type: ``NODE@TIME`` (batch pool fault events, µs)."""
    node_s, sep, at_s = text.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected NODE@TIME_US, got {text!r}"
        )
    try:
        node, at = int(node_s), int(at_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NODE@TIME_US with integer parts, got {text!r}"
        )
    if node < 0 or at < 0:
        raise argparse.ArgumentTypeError(
            f"node and time must be >= 0, got {text!r}"
        )
    return node, at


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0 (per-run timeouts, in seconds)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not value > 0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _unwritable(path: str) -> Optional[str]:
    """One-line reason *path* cannot be written, or None if it can.

    Checked before any simulation runs so a long campaign cannot burn
    minutes of compute and then fail on the final ``open()``."""
    if path == "-":
        return None
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"directory {parent!r} does not exist"
    if not os.access(parent, os.W_OK):
        return f"directory {parent!r} is not writable"
    if os.path.exists(path) and not os.access(path, os.W_OK):
        return f"{path!r} is not writable"
    return None


def _unknown_bench(bench: str, klass: str) -> bool:
    """Print a one-line diagnosis and return True if the benchmark does not
    exist (checked up front so every subcommand exits 2 the same way)."""
    from repro.apps.nas import nas_spec

    try:
        nas_spec(bench, klass)
    except KeyError:
        print(f"error: unknown benchmark {bench}.{klass} "
              f"(see 'hpl-repro list')", file=sys.stderr)
        return True
    return False


_REGIMES = ["stock", "nice", "rt", "pinned", "hpl"]


def _add_exec_flags(p: argparse.ArgumentParser, *, cache_dir: bool = False) -> None:
    """--jobs/--no-cache plus the supervision flags (--timeout/--retries/
    --allow-partial/--resume), shared by every campaign-running subcommand."""
    p.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                   help="worker processes for campaign repetitions "
                        "(default: all CPUs; 1 = in-process serial loop)")
    p.add_argument("--no-cache", dest="use_cache", action="store_false",
                   help="always simulate; skip the campaign result cache")
    if cache_dir:
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache directory (default: .repro-cache "
                            "or $REPRO_CACHE_DIR)")
    p.add_argument("--timeout", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="per-run wall-clock budget; a stuck repetition is "
                        "killed, classified transient, and retried")
    p.add_argument("--retries", type=_nonneg_int, default=None, metavar="N",
                   help="retry budget for transient failures (worker death, "
                        "timeout, OSError; default 3). Deterministic "
                        "simulation errors always fail fast after 1 retry")
    p.add_argument("--allow-partial", action="store_true",
                   help="salvage completed runs when a repetition exhausts "
                        "its retries; missing run indices are recorded as "
                        "explicit holes in the .meta.json sidecar")
    p.add_argument("--resume", action="store_true",
                   help="replay journal-confirmed runs from the result cache "
                        "and execute only the remainder (requires caching; "
                        "output is byte-identical to an uninterrupted run)")


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    """--telemetry/--progress, shared by the campaign-running subcommands
    that expose the execution feed."""
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="stream a JSONL execution-telemetry feed to PATH "
                        "(summarize with 'hpl-repro top PATH', live or after)")
    p.add_argument("--progress", action="store_true",
                   help="show the in-place progress line (completed/total, "
                        "runs/sec, ETA, cache hits, retries) even when "
                        "stderr is not a terminal")


def _make_telemetry(args: argparse.Namespace):
    """The CampaignTelemetry the flags ask for, or None.

    The feed file needs --telemetry; the progress line alone (a TTY on
    stderr, or --progress) still routes through a file-less telemetry
    object, because the line is a telemetry listener."""
    want_progress = args.progress or sys.stderr.isatty()
    if args.telemetry is None and not want_progress:
        return None
    from repro.obs.telemetry import CampaignTelemetry, ProgressLine

    listeners = (ProgressLine(),) if want_progress else ()
    return CampaignTelemetry(args.telemetry, listeners=listeners)


def _supervisor_config(args: argparse.Namespace):
    """Build the SupervisorConfig the flags ask for (None = all defaults)."""
    from repro.parallel.supervisor import RetryPolicy, SupervisorConfig

    if args.timeout is None and args.retries is None and not args.allow_partial:
        return None
    retry = RetryPolicy() if args.retries is None else RetryPolicy(
        max_retries=args.retries
    )
    return SupervisorConfig(
        timeout_s=args.timeout,
        retry=retry,
        allow_partial=args.allow_partial,
    )


def _resume_usable(args: argparse.Namespace) -> bool:
    """Exit-2 precondition for --resume: it replays from the result cache,
    so --no-cache makes it meaningless.  Journal existence is checked by the
    campaign itself (single-campaign commands are strict; multi-campaign
    drivers start missing campaigns fresh)."""
    if args.resume and not args.use_cache:
        print("error: --resume needs the result cache (it replays finished "
              "runs from it); drop --no-cache", file=sys.stderr)
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpl-repro",
        description=(
            "Reproduction of 'Designing OS for HPC Applications: Scheduling' "
            "(CLUSTER 2010): simulated HPL scheduler vs stock Linux."
        ),
    )
    from repro import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the repro package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and benchmarks")
    sub.add_parser("topology", help="describe the evaluation machine model")

    run = sub.add_parser("run", help="run one benchmark execution")
    run.add_argument("bench", help="NAS benchmark name (cg, ep, ft, is, lu, mg)")
    run.add_argument("klass", help="data-set class (A or B)")
    run.add_argument("--regime", default="stock",
                     choices=_REGIMES)
    run.add_argument("--seed", type=_nonneg_int, default=0)

    stat = sub.add_parser(
        "stat", help="run one execution and print perf-stat style counters"
    )
    stat.add_argument("bench")
    stat.add_argument("klass")
    stat.add_argument("--regime", default="stock",
                      choices=_REGIMES)
    stat.add_argument("--seed", type=_nonneg_int, default=0)
    stat.add_argument("--ranks-only", action="store_true",
                      help="restrict the per-task table to application ranks")
    stat.add_argument("--sim-profile", action="store_true",
                      help="append the sim-core self-profile (events by "
                           "type, events/sec, heap depth, cascade sizes)")

    lat = sub.add_parser(
        "latency",
        help="run one execution and print a perf-sched-latency style table",
    )
    lat.add_argument("bench")
    lat.add_argument("klass")
    lat.add_argument("--regime", default="stock",
                     choices=_REGIMES)
    lat.add_argument("--seed", type=_nonneg_int, default=0)
    lat.add_argument("--all-tasks", action="store_true",
                     help="include daemons and launchers, not just ranks")
    lat.add_argument("--histogram", action="store_true",
                     help="append a wakeup-latency histogram")

    trace = sub.add_parser(
        "trace", help="run one execution and export the scheduler event trace"
    )
    trace.add_argument("bench")
    trace.add_argument("klass")
    trace.add_argument("--regime", default="stock",
                       choices=_REGIMES)
    trace.add_argument("--seed", type=_nonneg_int, default=0)
    trace.add_argument("--format", dest="fmt", default="chrome",
                       choices=["chrome", "ftrace"])
    trace.add_argument("-o", "--output", default="-",
                       help="output file ('-' = stdout)")

    camp = sub.add_parser("campaign", help="run N repetitions and summarize")
    camp.add_argument("bench")
    camp.add_argument("klass")
    camp.add_argument("--regime", default="stock",
                      choices=_REGIMES)
    camp.add_argument("-n", "--runs", type=_positive_int, default=50)
    camp.add_argument("--seed", type=_nonneg_int, default=0)
    camp.add_argument("--provenance", default=None, metavar="PATH",
                      help="stream one JSONL provenance record per run to PATH")
    _add_exec_flags(camp, cache_dir=True)
    _add_telemetry_flags(camp)

    top = sub.add_parser(
        "top",
        help="summarize a campaign telemetry feed (live or finished)",
    )
    top.add_argument("feed", help="telemetry JSONL written by --telemetry")

    replay = sub.add_parser(
        "replay",
        help="load an exported trace and render a per-CPU Gantt SVG",
    )
    replay.add_argument("trace_file",
                        help="trace written by 'hpl-repro trace' "
                             "(Chrome JSON or ftrace text)")
    replay.add_argument("--format", dest="fmt", default="auto",
                        choices=["auto", "chrome", "ftrace"],
                        help="input format (default: sniff)")
    replay.add_argument("-o", "--output", default="-",
                        help="output SVG file ('-' = stdout)")
    replay.add_argument("--width", type=_positive_int, default=960,
                        help="chart width in pixels (default 960)")
    replay.add_argument("--title", default=None,
                        help="chart title (default: derived from the trace)")

    faults = sub.add_parser(
        "faults",
        help="run one benchmark execution under an injected fault plan",
    )
    faults.add_argument("bench")
    faults.add_argument("klass")
    faults.add_argument("--regime", default="stock", choices=_REGIMES)
    faults.add_argument("--seed", type=_nonneg_int, default=0)
    faults.add_argument("--offline-cores", type=_nonneg_int, default=0,
                        metavar="K", help="offline K whole cores mid-run")
    faults.add_argument("--offline-at-frac", type=float, default=0.4,
                        metavar="F",
                        help="when the cores die, as a fraction of the "
                             "benchmark's target time (default 0.4)")
    faults.add_argument("--online-after", type=_positive_int, default=None,
                        metavar="US",
                        help="bring the cores back US microseconds later")
    faults.add_argument("--crash-rank", type=_nonneg_int, default=None,
                        metavar="R", help="crash rank R mid-run")
    faults.add_argument("--ft-mode", default="abort",
                        choices=["abort", "restart"],
                        help="reaction to rank death (default abort)")
    faults.add_argument("--checkpoint-every", type=_nonneg_int, default=2,
                        metavar="N",
                        help="checkpoint every N collectives (restart mode)")
    faults.add_argument("--restart-cost", type=_nonneg_int, default=2_000,
                        metavar="US")
    faults.add_argument("--detection-timeout", type=_positive_int,
                        default=5_000, metavar="US")
    faults.add_argument("--random", type=_positive_int, default=None,
                        metavar="N",
                        help="instead of the flags above: N random faults")
    faults.add_argument("--plan-seed", type=_nonneg_int, default=0,
                        help="seed of the --random plan (not the workload)")
    faults.add_argument("--watchdog", action="store_true",
                        help="start the starvation watchdog")
    faults.add_argument("-n", "--runs", type=_positive_int, default=1,
                        help="repetitions; >1 runs a faulted campaign and "
                             "summarizes instead of printing the fault log")
    cluster = faults.add_argument_group(
        "cluster fault domains",
        "multi-node co-simulation: node fail-stop, stragglers, slow links",
    )
    cluster.add_argument("--cluster", action="store_true",
                         help="run the benchmark across a co-simulated "
                              "multi-node cluster instead of one node")
    cluster.add_argument("--nodes", type=_positive_int, default=3,
                         metavar="N", help="participant nodes (default 3)")
    cluster.add_argument("--spares", type=_nonneg_int, default=0,
                         metavar="S",
                         help="pre-provisioned spare nodes for failover")
    cluster.add_argument("--crash-node", type=_nonneg_int, default=None,
                         metavar="K", help="fail-stop node K mid-run")
    cluster.add_argument("--slow-node", type=_nonneg_int, default=None,
                         metavar="K", help="make node K a straggler mid-run")
    cluster.add_argument("--slow-factor", type=float, default=0.5,
                         metavar="F",
                         help="straggler compute-rate factor (default 0.5)")
    cluster.add_argument("--slow-for", type=_positive_int, default=50_000,
                         metavar="US",
                         help="straggler window length (default 50000)")
    cluster.add_argument("--degrade-link", type=_positive_int, default=None,
                         metavar="US",
                         help="inflate internode latency by US mid-run")
    cluster.add_argument("--degrade-for", type=_positive_int, default=50_000,
                         metavar="US",
                         help="link-degrade window length (default 50000)")
    cluster.add_argument("--recover", default="failover",
                         choices=["failover", "shrink"],
                         help="restart-mode placement of a lost shard "
                              "(default failover)")
    _add_exec_flags(faults)
    _add_telemetry_flags(faults)

    batch = sub.add_parser(
        "batch",
        help="run a batch-scheduling campaign: a seeded job trace dispatched "
             "onto a simulated node pool under an allocation policy",
    )
    batch.add_argument("policy", choices=["fcfs", "easy", "priority", "share"],
                       help="allocation policy (see DESIGN SS13)")
    batch.add_argument("--pool", type=_positive_int, default=4, metavar="NODES",
                       help="node-pool size of the simulated cluster (default 4)")
    batch.add_argument("--regime", default="stock",
                       choices=["stock", "hpl", "rt"],
                       help="node-level scheduling regime each job runs under")
    batch.add_argument("-n", "--runs", type=_positive_int, default=3,
                       help="trace repetitions (each a fresh seeded trace)")
    batch.add_argument("--seed", type=_nonneg_int, default=0)
    batch.add_argument("--trace-jobs", type=_positive_int, default=16,
                       metavar="N", help="jobs per generated trace (default 16)")
    batch.add_argument("--interarrival", type=_positive_int, default=8_000,
                       metavar="US",
                       help="mean exponential interarrival gap (default 8000)")
    batch.add_argument("--max-nodes", type=_positive_int, default=2,
                       metavar="N",
                       help="widest job in the trace, nodes (default 2)")
    batch.add_argument("--runtime-model", default="sim",
                       choices=["sim", "analytic"],
                       help="how job runtimes are priced: 'sim' runs the real "
                            "node-level simulator per job shape (default); "
                            "'analytic' uses the calibrated closed form")
    batch.add_argument("--max-share", type=_positive_int, default=4,
                       metavar="K",
                       help="co-residency cap for the share policy (default 4)")
    batch.add_argument("--fail-node", type=_node_at, action="append",
                       default=None, metavar="NODE@US",
                       help="fail-stop pool NODE at time US (repeatable); "
                            "resident jobs are requeued")
    batch.add_argument("--drain-node", type=_node_at, action="append",
                       default=None, metavar="NODE@US",
                       help="drain pool NODE at time US (repeatable); no new "
                            "placements, residents finish")
    batch.add_argument("--return-node", type=_node_at, action="append",
                       default=None, metavar="NODE@US",
                       help="return a failed/drained NODE to service at US "
                            "(repeatable)")
    batch.add_argument("--drain-preempt", action="store_true",
                       help="drains preempt-and-requeue residents instead of "
                            "letting them finish")
    batch.add_argument("--mtbf", type=_positive_int, default=None,
                       metavar="US",
                       help="arm a seeded per-node MTBF fail/repair timeline "
                            "(mean exponential inter-failure gap, µs)")
    batch.add_argument("--repair", type=_positive_int, default=25_000,
                       metavar="US",
                       help="repair time for --mtbf failures (default 25000)")
    batch.add_argument("--fault-horizon", type=_positive_int, default=120_000,
                       metavar="US",
                       help="--mtbf timeline horizon (default 120000)")
    batch.add_argument("--plan-seed", type=_nonneg_int, default=None,
                       metavar="S",
                       help="seed of the --mtbf timeline (default: --seed)")
    batch.add_argument("--job-retries", type=_nonneg_int, default=2,
                       metavar="N",
                       help="fault-kill requeues per job before it fails "
                            "terminally (default 2)")
    batch.add_argument("--restart-cost", type=_nonneg_int, default=2_000,
                       metavar="US",
                       help="checkpoint-resume surcharge per restart "
                            "(default 2000)")
    batch.add_argument("--placement", default="lowest",
                       choices=["lowest", "wary"],
                       help="rigid placement rule: lowest-id-first (default) "
                            "or failure-aware ('wary' deprioritizes "
                            "recently-failed nodes)")
    batch.add_argument("--provenance", default=None, metavar="PATH",
                       help="stream one JSONL provenance record per repetition "
                            "to PATH (byte-identical at any --jobs)")
    _add_exec_flags(batch, cache_dir=True)
    _add_telemetry_flags(batch)

    exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    exp.add_argument("exp_id", help="fig1 fig2 fig3 fig4 tab1a tab1b tab2 policy "
                                    "resonance multinode decompose resilience "
                                    "cluster-resilience two-level "
                                    "batch-resilience")
    exp.add_argument("-n", "--runs", type=_positive_int, default=50)
    exp.add_argument("--seed", type=_nonneg_int, default=0)
    _add_exec_flags(exp)

    sweep = sub.add_parser("sweep", help="run a sensitivity sweep")
    sweep.add_argument("which", choices=["noise", "smt", "spin"])
    sweep.add_argument("-n", "--runs", type=_positive_int, default=8)
    sweep.add_argument("--seed", type=_nonneg_int, default=0)
    _add_exec_flags(sweep)

    report = sub.add_parser(
        "report", help="generate the full EXPERIMENTS.md paper-vs-measured report"
    )
    report.add_argument("-n", "--runs", type=_positive_int, default=40)
    report.add_argument("--seed", type=_nonneg_int, default=7)
    _add_exec_flags(report)

    export = sub.add_parser(
        "export", help="export the ep.A.8 figures as SVG + CSV into a directory"
    )
    export.add_argument("out_dir")
    export.add_argument("-n", "--runs", type=_positive_int, default=60)
    export.add_argument("--seed", type=_nonneg_int, default=7)
    _add_exec_flags(export)

    cache = sub.add_parser(
        "cache", help="inspect or clear the campaign result cache"
    )
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache directory (default: .repro-cache "
                            "or $REPRO_CACHE_DIR)")

    return parser


def _cmd_list() -> int:
    from repro.apps.nas import NAS_BENCHMARKS
    from repro.experiments.registry import list_experiments

    print("Experiments (hpl-repro experiment <id>):")
    for exp in list_experiments():
        print(f"  {exp.exp_id:<10} {exp.paper_artifact:<18} {exp.description}")
    print()
    print("Benchmarks (hpl-repro run <bench> <class>):")
    for (name, klass), spec in sorted(NAS_BENCHMARKS.items()):
        print(
            f"  {spec.label:<10} target {spec.target_time / 1e6:7.2f}s  "
            f"{spec.n_iters:>4} iterations"
        )
    return 0


def _cmd_topology() -> int:
    from repro.topology.presets import power6_js22

    machine = power6_js22()
    print(machine.describe())
    for chip in machine.chips:
        print(f"  chip {chip.chip_id}:")
        for core in chip.cores:
            threads = ", ".join(f"cpu{t.cpu_id}" for t in core.threads)
            print(f"    core {core.core_id}: {threads}")
    print("  caches:")
    for level in machine.cache.levels:
        print(
            f"    {level.name}: {level.size_kib} KiB, shared per {level.shared_by}, "
            f"{level.latency_ns:.1f} ns"
        )
    print(f"  SMT throughput factors: {machine.smt_throughput}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_nas

    if _unknown_bench(args.bench, args.klass):
        return 2
    result = run_nas(args.bench, args.klass, args.regime, seed=args.seed)
    print(f"{result.program_name} under {args.regime} (seed {args.seed}):")
    print(f"  execution time : {result.app_time_s:.3f} s")
    print(f"  wall time      : {result.wall_time / 1e6:.3f} s")
    print(f"  cpu-migrations : {result.cpu_migrations}")
    print(f"  context-switches: {result.context_switches}")
    return 0


def _cmd_stat(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_nas_observed
    from repro.obs import render_stat

    profilers: list = []
    observed_kwargs = {}
    if args.sim_profile:
        from repro.obs.metrics import SimProfiler

        def attach_profiler(kernel) -> None:
            profilers.append(SimProfiler(kernel.sim))

        observed_kwargs["instrument"] = attach_profiler
    run = run_nas_observed(
        args.bench, args.klass, args.regime, seed=args.seed, with_trace=False,
        **observed_kwargs,
    )
    if args.ranks_only and run.kernel.perf.task_counters is not None:
        wanted = set(run.rank_pids)
        for pid in list(run.kernel.perf.task_counters):
            if pid not in wanted:
                del run.kernel.perf.task_counters[pid]
    print(
        render_stat(
            run.kernel.perf,
            wall_time_us=run.result.wall_time,
            app_time_s=run.result.app_time_s,
            title=f"{run.result.program_name} under {args.regime} (seed {args.seed})",
        ),
        end="",
    )
    if profilers:
        from repro.obs.metrics import render_sim_profile

        profilers[0].finalize()
        print()
        print(render_sim_profile(profilers[0]), end="")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_nas_observed
    from repro.obs import render_latency_table

    run = run_nas_observed(
        args.bench, args.klass, args.regime, seed=args.seed,
        with_trace=False, with_counters=False,
    )
    pids = None if args.all_tasks else run.rank_pids
    print(
        f"{run.result.program_name} under {args.regime} (seed {args.seed}) — "
        f"scheduling latencies"
        + ("" if args.all_tasks else " of the application ranks")
        + ":"
    )
    print(
        render_latency_table(
            run.observer.latency,
            pids=pids,
            names=run.names,
            with_histogram=args.histogram,
        ),
        end="",
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_nas_observed
    from repro.obs import trace_to_chrome, trace_to_ftrace

    if _unknown_bench(args.bench, args.klass):
        return 2
    reason = _unwritable(args.output)
    if reason is not None:
        print(f"error: cannot write -o {args.output}: {reason}", file=sys.stderr)
        return 2
    run = run_nas_observed(
        args.bench, args.klass, args.regime, seed=args.seed,
        with_latency=False, with_counters=False,
    )
    trace = run.observer.trace
    if args.fmt == "chrome":
        import json

        payload = json.dumps(
            trace_to_chrome(
                trace,
                names=run.names,
                idle_pids=run.observer.idle_pids(),
                end_time=run.kernel.sim.now,
            )
        )
    else:
        payload = trace_to_ftrace(trace, names=run.names)
    if args.output == "-":
        print(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(
            f"wrote {args.output} ({len(trace)} events, {args.fmt} format; "
            f"dropped {trace.dropped})"
        )
    return 0


def _campaign_command(args: argparse.Namespace, run, header, report) -> int:
    """The frame every campaign-running command shares.

    Checks the --resume/--provenance/--telemetry preconditions (exit 2
    before any simulation), calls ``run(telemetry)`` inside the telemetry
    bracket (a missing --resume journal exits 2), then prints
    ``header(campaign)``, ``report(campaign)`` — or the all-holes note —
    and the exec, supervision, provenance and telemetry footer.  Retries,
    holes and resume replay get a line only when they happened, so clean
    campaigns print exactly what they always did."""
    from repro.parallel.supervisor import NoJournalError

    if not _resume_usable(args):
        return 2
    provenance = getattr(args, "provenance", None)
    for flag, path in (("--provenance", provenance),
                       ("--telemetry", args.telemetry)):
        if path is not None:
            reason = _unwritable(path)
            if reason is not None:
                print(f"error: cannot write {flag} {path}: {reason}",
                      file=sys.stderr)
                return 2
    telemetry = _make_telemetry(args)
    try:
        campaign = run(telemetry)
    except NoJournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if telemetry is not None:
            telemetry.close()
    print(header(campaign))
    if campaign.results:
        report(campaign)
    else:
        print("  (no repetition completed — every run is a hole)")
    print(f"  exec  {campaign.jobs} worker(s), "
          f"{campaign.cache_hits}/{campaign.n_runs} runs from cache")
    if campaign.retries:
        print(f"  retried {campaign.retries} attempt(s)")
    if campaign.holes:
        print(f"  partial: {len(campaign.holes)} hole(s) at run "
              f"indices {campaign.holes}")
    if args.resume:
        print(f"  resumed: {campaign.replayed} run(s) replayed from the journal")
    if provenance:
        print(f"  provenance -> {provenance} ({campaign.n_runs} records)")
    if args.telemetry:
        print(f"  telemetry  -> {args.telemetry}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_nas_campaign

    if _unknown_bench(args.bench, args.klass):
        return 2

    def run(telemetry):
        return run_nas_campaign(
            args.bench, args.klass, args.regime, args.runs, base_seed=args.seed,
            provenance_path=args.provenance,
            n_jobs=args.jobs, use_cache=args.use_cache, cache_dir=args.cache_dir,
            supervise=_supervisor_config(args), resume=args.resume,
            telemetry=telemetry,
        )

    def report(campaign) -> None:
        times = summarize(campaign.app_times_s())
        migs = summarize([float(v) for v in campaign.migrations()], metric="count")
        switches = summarize([float(v) for v in campaign.context_switches()], metric="count")
        print(
            f"  time  min {times.minimum:.2f}  avg {times.mean:.2f}  "
            f"max {times.maximum:.2f}  var {times.variation:.2f}%"
        )
        print(
            f"  migr  min {migs.minimum:.0f}  avg {migs.mean:.2f}  max {migs.maximum:.0f}"
        )
        print(
            f"  ctxsw min {switches.minimum:.0f}  avg {switches.mean:.2f}  "
            f"max {switches.maximum:.0f}"
        )

    def header(campaign) -> str:
        return f"{campaign.label} under {args.regime}, {args.runs} runs:"

    return _campaign_command(args, run, header, report)


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import read_telemetry, render_top, summarize_telemetry

    try:
        events = read_telemetry(args.feed)
    except OSError as exc:
        print(f"error: cannot read {args.feed}: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"error: {args.feed} contains no telemetry events "
              f"(is it a --telemetry feed?)", file=sys.stderr)
        return 2
    print(render_top(summarize_telemetry(events)), end="")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.replay import gantt_svg, load_trace

    reason = _unwritable(args.output)
    if reason is not None:
        print(f"error: cannot write -o {args.output}: {reason}", file=sys.stderr)
        return 2
    try:
        replayed = load_trace(args.trace_file, fmt=args.fmt)
    except OSError as exc:
        print(f"error: cannot read {args.trace_file}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        svg = gantt_svg(replayed, width=args.width, title=args.title)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output == "-":
        print(svg, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.output} ({len(replayed)} events, "
              f"{len(replayed.cpus)} CPUs, {replayed.source} format)")
    return 0


def _cmd_faults_cluster(args: argparse.Namespace) -> int:
    """The --cluster arm of 'hpl-repro faults': one benchmark sharded
    across N co-simulated nodes, under node-scoped fault domains."""
    from repro.topology.presets import power6_js22
    from repro.apps.nas import nas_program, nas_spec
    from repro.cluster.multinode import ClusterIncompleteError, ClusterJob
    from repro.experiments.runner import _JOB_START, run_cluster_campaign
    from repro.faults import ClusterTolerance, FaultEvent, FaultKind, FaultPlan

    if args.regime not in ("stock", "hpl", "rt"):
        print(f"error: --cluster supports regimes stock, hpl, rt "
              f"(got {args.regime!r})", file=sys.stderr)
        return 2
    try:
        spec = nas_spec(args.bench, args.klass)
    except KeyError:
        print(f"error: unknown benchmark {args.bench}.{args.klass} "
              f"(see 'hpl-repro list')", file=sys.stderr)
        return 2
    for flag, value in (("--crash-node", args.crash_node),
                        ("--slow-node", args.slow_node)):
        if value is not None and value >= args.nodes:
            print(f"error: {flag} {value} targets a node outside the "
                  f"{args.nodes}-node cluster", file=sys.stderr)
            return 2

    machine = power6_js22()
    program = nas_program(spec, machine)
    nprocs_per_node = max(1, spec.nprocs // args.nodes)
    fault_at = _JOB_START + int(args.offline_at_frac * spec.target_time)

    events_by_node: dict = {}
    if args.crash_node is not None:
        events_by_node.setdefault(args.crash_node, []).append(
            FaultEvent(at=fault_at, kind=FaultKind.NODE_CRASH))
    if args.slow_node is not None:
        events_by_node.setdefault(args.slow_node, []).append(
            FaultEvent(at=fault_at, kind=FaultKind.NODE_SLOWDOWN,
                       factor=args.slow_factor, duration=args.slow_for))
    if args.degrade_link is not None:
        events_by_node.setdefault(0, []).append(
            FaultEvent(at=fault_at, kind=FaultKind.LINK_DEGRADE,
                       latency=args.degrade_link, duration=args.degrade_for))
    plans = {
        node: FaultPlan.schedule(events, label=f"cli-node{node}")
        for node, events in sorted(events_by_node.items())
    } or None
    tolerance = ClusterTolerance(
        mode=args.ft_mode,
        recover=args.recover,
        detection_timeout=args.detection_timeout,
        checkpoint_every=args.checkpoint_every,
        restart_cost=args.restart_cost,
    )

    if args.runs > 1:
        from repro.parallel.engine import CampaignRunError

        def run(telemetry):
            return run_cluster_campaign(
                lambda: program, args.nodes, args.regime, args.runs,
                base_seed=args.seed,
                nprocs_per_node=nprocs_per_node,
                fault_plans=plans, tolerance=tolerance,
                spare_nodes=args.spares,
                label=f"{spec.label}@{args.nodes}n",
                n_jobs=args.jobs, use_cache=args.use_cache,
                supervise=_supervisor_config(args), resume=args.resume,
                telemetry=telemetry,
            )

        def header(campaign) -> str:
            n_events = sum(len(p) for p in (plans or {}).values())
            return (f"{campaign.label} under {args.regime}, {args.runs} runs, "
                    f"{args.nodes} node(s) + {args.spares} spare(s), "
                    f"{n_events} planned fault event(s):")

        def report(campaign) -> None:
            times = summarize(campaign.app_times_s())
            print(f"  time  min {times.minimum:.2f}  avg {times.mean:.2f}  "
                  f"max {times.maximum:.2f}  var {times.variation:.2f}%")
            print(f"  completed {len(campaign.results)}/{args.runs}  "
                  f"detections {campaign.total('detections')}  "
                  f"restarts {campaign.total('restarts')}  "
                  f"failovers {campaign.total('failovers')}")

        try:
            return _campaign_command(args, run, header, report)
        except CampaignRunError as exc:
            # Expected under --ft-mode abort with a crash planned: the job
            # fail-stops by design.  Summarize instead of tracebacking.
            print(f"campaign failed: {exc}", file=sys.stderr)
            return 1

    job = ClusterJob(
        program,
        n_nodes=args.nodes,
        nprocs_per_node=nprocs_per_node,
        regime=args.regime,
        seed=args.seed,
        fault_plans=plans,
        tolerance=tolerance,
        spare_nodes=args.spares,
    )
    try:
        result = job.run()
    except ClusterIncompleteError as exc:
        print(f"{spec.label} across {args.nodes} node(s) under {args.regime} "
              f"(seed {args.seed}): FAILED")
        print(exc)
        return 1
    print(f"{spec.label} across {result.n_nodes} node(s) under {args.regime} "
          f"(seed {args.seed}, {nprocs_per_node} ranks/node):")
    print(f"  execution time  : {result.app_time_s:.3f} s")
    print(f"  surviving nodes : {result.surviving_nodes} "
          f"(+{len(job._idle_spares)} idle spare(s))")
    if result.faults_injected or result.detections:
        print(f"  node crashes    : {result.node_crashes}")
        print(f"  detections      : {result.detections}"
              + (f"  (latency {result.detection_latency_us} us)"
                 if result.detection_latency_us is not None else ""))
        print(f"  restarts        : {result.restarts}  "
              f"failovers {result.failovers}  shrinks {result.shrinks}")
        print(f"  lost work       : {result.lost_work_us} us")
        print(f"  recovery time   : {result.recovery_time_us} us")
    print("  fault log:")
    fired = [
        (applied.time, handle.index, applied)
        for handle in job.nodes if handle.injector is not None
        for applied in handle.injector.applied
    ]
    if not fired:
        print("    (no faults fired before completion)")
    for time_, node, applied in sorted(fired, key=lambda x: (x[0], x[1])):
        print(f"    t={time_:>10} node{node} "
              f"{applied.event.kind:<13} {applied.note}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.units import msecs
    from repro.topology.presets import power6_js22
    from repro.apps.nas import nas_spec
    from repro.experiments.runner import _JOB_START, run_nas_faulted
    from repro.faults import FaultEvent, FaultKind, FaultPlan, FaultTolerance

    if args.cluster:
        return _cmd_faults_cluster(args)
    try:
        spec = nas_spec(args.bench, args.klass)
    except KeyError:
        print(f"error: unknown benchmark {args.bench}.{args.klass} "
              f"(see 'hpl-repro list')", file=sys.stderr)
        return 2
    machine = power6_js22()
    fault_at = _JOB_START + int(args.offline_at_frac * spec.target_time)

    if args.random is not None:
        plan = FaultPlan.random(
            args.plan_seed,
            horizon=_JOB_START + spec.target_time,
            n_cpus=machine.n_cpus,
            n_ranks=spec.nprocs,
            n_faults=args.random,
        )
    else:
        events = []
        if args.offline_cores:
            cores = []
            for cpu in machine.cpus:
                if cpu.core not in cores:
                    cores.append(cpu.core)
            if args.offline_cores >= len(cores):
                print(f"error: cannot offline {args.offline_cores} of "
                      f"{len(cores)} cores", file=sys.stderr)
                return 2
            cpus = [
                t.cpu_id
                for core in reversed(cores[-args.offline_cores:])
                for t in core.threads
            ]
            for i, c in enumerate(cpus):
                at = fault_at + i * 200
                events.append(FaultEvent(at=at, kind=FaultKind.CPU_OFFLINE, cpu=c))
                if args.online_after is not None:
                    events.append(FaultEvent(
                        at=at + args.online_after, kind=FaultKind.CPU_ONLINE, cpu=c,
                    ))
        if args.crash_rank is not None:
            events.append(FaultEvent(
                at=fault_at, kind=FaultKind.RANK_CRASH, rank=args.crash_rank,
            ))
        plan = FaultPlan.schedule(events, label="cli") if events else FaultPlan.none()

    tolerance = FaultTolerance(
        mode=args.ft_mode,
        detection_timeout=args.detection_timeout,
        checkpoint_every=args.checkpoint_every,
        restart_cost=args.restart_cost,
    )
    if args.runs > 1:
        from repro.experiments.runner import run_nas_campaign

        if args.watchdog:
            print("note: --watchdog applies to single runs only; "
                  "ignored with -n > 1", file=sys.stderr)

        def run(telemetry):
            return run_nas_campaign(
                args.bench, args.klass, args.regime, args.runs,
                base_seed=args.seed,
                fault_plan=plan, fault_tolerance=tolerance,
                n_jobs=args.jobs, use_cache=args.use_cache,
                supervise=_supervisor_config(args), resume=args.resume,
                telemetry=telemetry,
            )

        def header(campaign) -> str:
            return (f"{campaign.label} under {args.regime}, {args.runs} runs, "
                    f"fault plan {plan.label!r} "
                    f"({len(plan)} events, digest {plan.digest()}):")

        def report(campaign) -> None:
            times = summarize(campaign.app_times_s())
            walls = [r.wall_time / 1e6 for r in campaign.results]
            stats = [r.app_stats for r in campaign.results if r.app_stats is not None]
            aborted = sum(1 for s in stats if s.aborted)
            crashes = sum(s.rank_crashes for s in stats)
            restarts = sum(s.restarts for s in stats)
            print(f"  time  min {times.minimum:.2f}  avg {times.mean:.2f}  "
                  f"max {times.maximum:.2f}  var {times.variation:.2f}%")
            print(f"  wall  min {min(walls):.2f}  avg {sum(walls) / len(walls):.2f}  "
                  f"max {max(walls):.2f}")
            line = f"  completed {args.runs - aborted}/{args.runs}"
            if crashes:
                line += f"  rank crashes {crashes}  restarts {restarts}"
            print(line)

        return _campaign_command(args, run, header, report)
    if args.telemetry is not None:
        print("note: --telemetry records campaign execution; "
              "ignored with -n 1", file=sys.stderr)
    run = run_nas_faulted(
        args.bench, args.klass, args.regime, seed=args.seed,
        fault_plan=plan, fault_tolerance=tolerance,
        with_watchdog=args.watchdog,
    )
    result = run.result
    stats = result.app_stats
    print(f"{result.program_name} under {args.regime} (seed {args.seed}), "
          f"fault plan {plan.label!r} ({len(plan)} events, digest {plan.digest()}):")
    print(f"  wall time       : {result.wall_time / 1e6:.3f} s")
    print(f"  execution time  : {result.app_time_s:.3f} s")
    print(f"  cpu-migrations  : {result.cpu_migrations}")
    print(f"  context-switches: {result.context_switches}")
    print(f"  completed       : {'aborted' if stats.aborted else 'yes'}")
    if stats.rank_crashes:
        print(f"  rank crashes    : {stats.rank_crashes}")
        print(f"  detection       : {stats.detection_latency_us} us")
        print(f"  restarts        : {stats.restarts}")
        print(f"  lost work       : {stats.lost_work_us} us")
        print(f"  recovery time   : {stats.recovery_time_us} us")
    print("  fault log:")
    if not run.applied:
        print("    (no faults fired before completion)")
    for applied in run.applied:
        print(f"    t={applied.time:>10} {applied.event.kind:<12} {applied.note}")
    if args.watchdog:
        print(f"  watchdog: {len(run.incidents)} starvation incident(s)")
        for inc in run.incidents[:10]:
            print(f"    t={inc.time:>10} cpu{inc.cpu} pid {inc.pid} "
                  f"({inc.name}) waited {inc.waited_us} us")
    return 0


def _batch_fault_plan(args):
    """Fold the batch fault flags into one FaultPlan (None = unarmed).

    Explicit ``--fail-node/--drain-node/--return-node`` events merge with
    the seeded ``--mtbf`` timeline; the result is validated against the
    pool before any work starts.
    """
    from repro.batch.dispatcher import validate_batch_fault_plan
    from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

    events = []
    for node, at in args.fail_node or ():
        events.append(FaultEvent(at=at, kind=FaultKind.NODE_FAIL, node=node))
    for node, at in args.drain_node or ():
        events.append(FaultEvent(at=at, kind=FaultKind.NODE_DRAIN, node=node,
                                 preempt=args.drain_preempt))
    for node, at in args.return_node or ():
        events.append(FaultEvent(at=at, kind=FaultKind.NODE_RETURN, node=node))
    if args.mtbf is not None:
        seed = args.plan_seed if args.plan_seed is not None else args.seed
        mtbf_plan = FaultPlan.mtbf(
            seed,
            horizon=args.fault_horizon,
            n_nodes=args.pool,
            mtbf_us=args.mtbf,
            repair_us=args.repair,
        )
        events.extend(mtbf_plan.events)
        label = mtbf_plan.label if not (args.fail_node or args.drain_node
                                        or args.return_node) else "cli+mtbf"
    else:
        label = "cli"
    if not events:
        return None
    plan = FaultPlan.schedule(events, label=label)
    validate_batch_fault_plan(plan, args.pool)
    return plan


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch.campaign import run_batch_campaign
    from repro.batch.workload import WorkloadConfig

    if args.max_nodes > args.pool:
        print(f"error: --max-nodes {args.max_nodes} exceeds --pool "
              f"{args.pool}; the widest job could never start",
              file=sys.stderr)
        return 2
    try:
        fault_plan = _batch_fault_plan(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WorkloadConfig(
        n_jobs=args.trace_jobs,
        interarrival_us=args.interarrival,
        max_nodes=args.max_nodes,
    )
    policy_params = (
        {"max_share": args.max_share} if args.policy == "share" else None
    )

    def run(telemetry):
        return run_batch_campaign(
            args.policy, args.pool, args.regime, args.runs,
            base_seed=args.seed,
            workload=workload,
            runtime_model=args.runtime_model,
            policy_params=policy_params,
            fault_plan=fault_plan,
            job_retries=args.job_retries,
            restart_cost_us=args.restart_cost,
            placement=args.placement,
            provenance_path=args.provenance,
            n_jobs=args.jobs, use_cache=args.use_cache,
            cache_dir=args.cache_dir,
            supervise=_supervisor_config(args), resume=args.resume,
            telemetry=telemetry,
        )

    def header(campaign) -> str:
        return (f"batch {args.policy} on {args.pool} nodes under {args.regime}, "
                f"{args.runs} trace(s) x {args.trace_jobs} jobs "
                f"({args.runtime_model} runtimes):")

    def report(campaign) -> None:
        results = campaign.results
        # waits legitimately bottom out at 0 (a job that starts the instant
        # it is submitted), so use the counter variation semantics
        waits = summarize([r.mean_wait_us / 1000 for r in results],
                          metric="count")
        bslds = summarize([r.mean_bsld for r in results])
        spans = summarize([r.makespan_us / 1000 for r in results])
        utils = summarize([r.utilization for r in results])
        print(f"  wait (ms)  min {waits.minimum:.2f}  avg {waits.mean:.2f}  "
              f"max {waits.maximum:.2f}")
        print(f"  bsld       min {bslds.minimum:.2f}  avg {bslds.mean:.2f}  "
              f"max {bslds.maximum:.2f}")
        print(f"  makespan   min {spans.minimum:.1f}  avg {spans.mean:.1f}  "
              f"max {spans.maximum:.1f}  (ms)")
        print(f"  util       min {utils.minimum:.3f}  avg {utils.mean:.3f}  "
              f"max {utils.maximum:.3f}")
        print(f"  traffic    backfills {campaign.total('backfills')}  "
              f"colocations {campaign.total('colocations')}  "
              f"kills {campaign.total('kills')}")
        if fault_plan is not None:
            print(f"  faults     plan '{fault_plan.label}' "
                  f"({len(fault_plan)} event(s))  "
                  f"requeues {campaign.total('requeues')}  "
                  f"preempts {campaign.total('preempts')}  "
                  f"failed {campaign.total('failed')}  "
                  f"node-lost {campaign.total('node_lost_us') / 1000:.1f} ms")

    return _campaign_command(args, run, header, report)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import (
        noise_intensity_sweep,
        smt_factor_sweep,
        spin_threshold_sweep,
    )

    if not _resume_usable(args):
        return 2
    runner = {
        "noise": noise_intensity_sweep,
        "smt": smt_factor_sweep,
        "spin": spin_threshold_sweep,
    }[args.which]
    result = runner(
        n_runs=args.runs, base_seed=args.seed,
        n_jobs=args.jobs, use_cache=args.use_cache,
        supervise=_supervisor_config(args), resume=args.resume,
    )
    print(result.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    if not _resume_usable(args):
        return 2
    print(generate_report(
        args.runs, args.seed, n_jobs=args.jobs, use_cache=args.use_cache,
        supervise=_supervisor_config(args), resume=args.resume,
    ))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_figures

    if not _resume_usable(args):
        return 2
    written = export_figures(
        args.out_dir, n_runs=args.runs, seed=args.seed,
        n_jobs=args.jobs, use_cache=args.use_cache,
        supervise=_supervisor_config(args), resume=args.resume,
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import get_experiment

    try:
        exp = get_experiment(args.exp_id)
    except KeyError:
        print(f"error: unknown experiment {args.exp_id!r} "
              f"(see 'hpl-repro list')", file=sys.stderr)
        return 2
    if not _resume_usable(args):
        return 2
    result = exp.run(
        args.runs, args.seed, n_jobs=args.jobs, use_cache=args.use_cache,
        supervise=_supervisor_config(args), resume=args.resume,
    )
    print(result.render())  # type: ignore[attr-defined]
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.parallel.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        print(cache.info().render())
        return 0
    info = cache.info()
    cache.clear()
    print(f"cleared {info.entries} cached result(s) from {cache.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "topology":
        return _cmd_topology()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "stat":
        return _cmd_stat(args)
    if args.command == "latency":
        return _cmd_latency(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
