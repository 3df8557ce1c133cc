"""Pool-mode supervision: hung workers, worker death, degradation.

Workers here are module-level functions (optionally bound with
``functools.partial``) because they cross the process boundary by pickling.
Cross-attempt state lives in flag files under a tmp directory — worker
processes share no memory with the test.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List

import pytest

from repro.apps.spmd import Program
from repro.experiments.runner import build_campaign_specs
from repro.parallel import (
    RetryPolicy,
    SupervisorConfig,
    WorkerPoolError,
    supervise_campaign,
)
from repro.parallel.supervisor import _exit_with_parent
from repro.topology.presets import generic_smp
from repro.units import msecs


def _tiny_program() -> Program:
    return Program.iterative(
        name="pool", n_iters=2, iter_work=msecs(1), init_ops=1, finalize_ops=0
    )


def _specs(n_runs: int, base_seed: int = 0):
    return build_campaign_specs(
        _tiny_program, 4, "stock", n_runs,
        base_seed=base_seed, machine_factory=lambda: generic_smp(4),
    )


def _ok(spec):
    return spec.seed * 2, None


def _hang_once(flag_dir: str, spec):
    """Run 1 wedges for 30s on its first attempt only (flag file marks it)."""
    flag = os.path.join(flag_dir, f"hung-{spec.run_index}")
    if spec.run_index == 1 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        time.sleep(30)
    return spec.seed, None


def _die_once(flag_dir: str, spec):
    """Run 1 hard-kills its worker process on the first attempt only."""
    flag = os.path.join(flag_dir, f"died-{spec.run_index}")
    if spec.run_index == 1 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(1)  # simulates an OOM-killed / segfaulted worker
    return spec.seed, None


def _die_always(spec):
    os._exit(1)


def _hang_hard_once(flag_dir: str, spec):
    """Run 1 wedges with SIGALRM blocked on its first attempt only — the
    in-worker alarm cannot fire, so only the supervisor's hard deadline
    (pool kill) can unstick the campaign."""
    flag = os.path.join(flag_dir, f"hard-{spec.run_index}")
    if spec.run_index == 1 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        time.sleep(30)
    return spec.seed, None


def test_pool_matches_serial_records(tmp_path):
    specs = _specs(6, base_seed=11)
    serial = supervise_campaign(specs, _ok, n_jobs=1)
    pooled = supervise_campaign(specs, _ok, n_jobs=3)
    key = lambda r: (r.run_index, r.seed, r.digest, r.result)
    assert [key(r) for r in serial.records] == [key(r) for r in pooled.records]


def test_hung_worker_is_killed_retried_and_campaign_completes(tmp_path):
    specs = _specs(4, base_seed=4)
    result = supervise_campaign(
        specs, partial(_hang_once, str(tmp_path)), n_jobs=2,
        config=SupervisorConfig(timeout_s=1.0),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3]
    assert result.timeouts == 1
    assert result.retries >= 1
    assert not result.holes


def test_dead_worker_breaks_pool_requeues_and_completes(tmp_path):
    specs = _specs(4, base_seed=7)
    result = supervise_campaign(
        specs, partial(_die_once, str(tmp_path)), n_jobs=2,
        config=SupervisorConfig(retry=RetryPolicy(max_retries=3)),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3]
    assert [r.result for r in result.records] == [s.seed for s in specs]
    assert result.retries >= 1
    assert not result.holes


def test_worker_pool_error_reports_pool_size_and_survivors():
    specs = _specs(3, base_seed=9)
    with pytest.raises(WorkerPoolError) as excinfo:
        supervise_campaign(
            specs, _die_always, n_jobs=2,
            config=SupervisorConfig(retry=RetryPolicy(max_retries=0)),
        )
    err = excinfo.value
    assert err.pool_size == 2
    assert err.survivors is not None
    assert "workers surviving" in str(err)


def test_pool_break_does_not_drop_unsubmitted_runs(tmp_path):
    # Regression: with more runs than the submission window
    # (chunk_factor * jobs), a pool break used to discard the unsubmitted
    # remainder of the queue and terminate with silently truncated records.
    specs = _specs(6, base_seed=13)
    result = supervise_campaign(
        specs, partial(_die_once, str(tmp_path)), n_jobs=2, chunk_factor=1,
        config=SupervisorConfig(retry=RetryPolicy(max_retries=3)),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3, 4, 5]
    assert [r.result for r in result.records] == [s.seed for s in specs]
    assert not result.holes


def test_hard_deadline_kill_charges_only_the_wedged_run(tmp_path):
    # A worker stuck with SIGALRM blocked can only be unstuck by the
    # supervisor's hard-deadline pool kill; the synthesized timeout must
    # carry the wedged run's own index/seed and count exactly one timeout
    # (co-resident runs are requeued as pool casualties, not timeouts).
    specs = _specs(4, base_seed=17)
    result = supervise_campaign(
        specs, partial(_hang_hard_once, str(tmp_path)), n_jobs=2,
        chunk_factor=1,
        config=SupervisorConfig(timeout_s=0.3, kill_grace=1.0),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3]
    assert result.timeouts == 1
    assert result.retries >= 1
    assert not result.holes


def test_repeated_death_shrinks_pool_then_salvages(tmp_path):
    specs = _specs(4, base_seed=3)
    result = supervise_campaign(
        specs, _die_always, n_jobs=4,
        config=SupervisorConfig(
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.01),
            allow_partial=True,
        ),
    )
    # Every repetition exhausted its retries against a pool that always
    # dies: the campaign survives as all-holes, with the shrink recorded.
    assert result.records == []
    assert sorted(result.hole_indices) == [0, 1, 2, 3]
    assert result.pool_shrinks >= 1
    for hole in result.holes:
        assert all(a.classification == "transient" for a in hole.attempts)


def _proc_stat(pid: int):
    """(state, ppid) of *pid* from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _running(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"  # a zombie has exited


def _descendants(root: int) -> List[int]:
    """Live descendants of *root*: its pool workers, and under spawn and
    forkserver also multiprocessing's helpers (the resource tracker, the
    fork server that is the workers' parent), which must not outlive it
    either."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        stat = _proc_stat(int(name)) if name.isdigit() else None
        if stat is not None and stat[0] != "Z":
            children.setdefault(stat[1], []).append(int(name))
    found, frontier = [], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found += kids
        frontier += kids
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_exit_when_the_campaign_parent_is_killed(tmp_path):
    """A SIGKILLed campaign cannot shut its pool down; its workers notice
    the parent's death themselves instead of idling forever.

    The CLI uses the platform's default start method.  Under fork (the
    Linux default before Python 3.14) the parent's descendants are exactly
    its two workers; under spawn and forkserver the helpers are counted
    and checked too."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    parent = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", "is", "A", "-n", "24",
         "--seed", "9", "--jobs", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # Wait for the journal's header and first 'done' line.
        deadline = time.monotonic() + 120
        while not any(
            len(j.read_text().splitlines()) >= 2
            for j in (tmp_path / "journal").glob("*.jsonl")
        ):
            assert parent.poll() is None, "campaign ended before the kill"
            assert time.monotonic() < deadline, "no run was journaled"
            time.sleep(0.05)
        workers = _descendants(parent.pid)
        if multiprocessing.get_all_start_methods()[0] == "fork":
            assert len(workers) == 2
        else:
            assert len(workers) >= 2
    finally:
        parent.kill()
        parent.wait()
    deadline = time.monotonic() + 10
    while any(_running(w) for w in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not [w for w in workers if _running(w)]


def _start_worker_then_idle(creator: int, start_method: str) -> None:
    _exit_with_parent(creator, start_method)
    time.sleep(60)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="forks a stand-in worker")
@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
def test_worker_whose_creator_is_already_gone_exits_at_once(start_method):
    """A worker that starts after its creator died must not wait for a
    parent-pid change that already happened (or a probe that never
    succeeds): it leaves on its first check."""
    gone = subprocess.Popen([sys.executable, "-c", "pass"])
    gone.wait()  # reaped: its pid names no process
    worker = multiprocessing.get_context("fork").Process(
        target=_start_worker_then_idle, args=(gone.pid, start_method))
    worker.start()
    worker.join(timeout=10)
    if worker.is_alive():
        worker.kill()
        worker.join()
    assert worker.exitcode == 1
