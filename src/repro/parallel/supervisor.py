"""Supervised campaign execution: timeouts, seeded retry, crash-safe resume.

A bare process-pool fan-out is brittle: one hung run, one dead worker, or a
SIGKILL'd parent loses the whole campaign.  Every campaign therefore runs
through :func:`supervise_campaign`, which treats the *execution harness* as
a system to be made fault-tolerant in its own right:

* **Per-run timeouts.**  Each repetition gets a wall-clock budget.  In a
  worker process the budget is enforced by a POSIX interval timer armed
  around the simulation (so a wedged event loop raises
  :class:`RunTimeoutError` from inside); the supervisor additionally holds a
  hard deadline per in-flight future and forcibly kills the pool's worker
  processes when even the in-worker alarm cannot fire (e.g. a worker stuck
  outside the interpreter), requeueing everything that was in flight.

* **Bounded, classified, seeded retry.**  Failures are classified by
  :func:`classify_failure`: *transient* faults of the harness (worker death,
  timeouts, OS errors) retry up to ``RetryPolicy.max_retries`` times with
  exponential backoff and **seeded** jitter (deterministic per run-seed and
  attempt — see :func:`backoff_schedule`); *deterministic* simulation errors
  (same seed, same spec digest in, same exception out) fail fast after a
  single confirmation retry; :class:`~repro.kernel.invariants.InvariantViolation`
  is *fatal* — never retried, because a correctness violation must surface
  as a hard error, not be laundered into the statistics by a retry loop.

* **Graceful degradation.**  Repeated worker death shrinks the pool
  (halving down to one worker) instead of aborting; with ``allow_partial``,
  runs that exhaust their retry budget become explicit *holes* — the
  campaign result keeps every completed repetition and records the missing
  run indices (plus their full attempt history) in provenance.

* **Crash-safe checkpointing.**  Every finished run index is appended to an
  fsync'd JSONL journal (``.repro-cache/journal/<campaign-digest>.jsonl``)
  the moment it completes.  After a crash — SIGKILL included — a ``--resume``
  run replays journal-confirmed indices from the result cache and executes
  only the remainder; because records are merged in run-index order either
  way, the resumed campaign's results and provenance are byte-identical to
  an uninterrupted run.

Ordering contract: records (and therefore provenance JSONL) are emitted
strictly in run-index order, byte-identical to a serial run at any worker
count.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.parallel.cache import ResultCache
from repro.parallel.engine import (
    CampaignRunError,
    ProgressFn,
    RunRecord,
    WorkerPoolError,
    Worker,
    resolve_jobs,
)
from repro.parallel.jobspec import RunSpec, stable_digest

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "AttemptFailure",
    "CampaignJournal",
    "NoJournalError",
    "RetryPolicy",
    "RunHole",
    "RunTimeoutError",
    "SupervisedResult",
    "SupervisorConfig",
    "backoff_delay",
    "backoff_schedule",
    "campaign_digest",
    "classify_failure",
    "journal_path_for",
    "supervise_campaign",
]

#: Bump when the journal line layout changes; older journals then refuse to
#: resume (the cache digests still protect correctness either way).
JOURNAL_SCHEMA_VERSION = 1

#: Failure classifications (see :func:`classify_failure`).
FATAL = "fatal"
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: Exception type names treated as transient harness faults even when the
#: type itself cannot be imported here (BrokenProcessPool pickles oddly).
_TRANSIENT_NAMES = frozenset(
    {"BrokenProcessPool", "BrokenExecutor", "TimeoutError", "RunTimeoutError"}
)

#: ``OSError`` errnos plausibly raised by the *harness* (fork pressure, fd
#: exhaustion, interrupted syscalls, pool pipes torn by a dying worker)
#: rather than by simulation code.  Any other ``OSError`` — e.g. a
#: ``FileNotFoundError`` for a missing input — is a property of the spec and
#: classifies as deterministic, so it fails fast instead of burning the
#: transient retry budget.
_TRANSIENT_ERRNOS = frozenset(
    {
        errno.EAGAIN,
        errno.ENOMEM,
        errno.EMFILE,
        errno.ENFILE,
        errno.EINTR,
        errno.ECHILD,
        errno.EPIPE,
        errno.ECONNRESET,
    }
)


class _NullTelemetry:
    """No-op stand-in for :class:`repro.obs.telemetry.CampaignTelemetry`.

    Local (not imported from ``repro.obs``) so the supervisor keeps zero
    import coupling to the observability stack — workers pickle specs, not
    telemetry, and a campaign without a telemetry sink pays nothing."""

    def run_finished(self, **kw) -> None: ...
    def retry(self, **kw) -> None: ...
    def timeout(self, **kw) -> None: ...
    def pool_death(self, **kw) -> None: ...
    def pool_shrink(self, **kw) -> None: ...
    def hole(self, **kw) -> None: ...


_NULL_TELEMETRY = _NullTelemetry()


class RunTimeoutError(RuntimeError):
    """A repetition exceeded its per-run wall-clock budget."""

    def __init__(self, run_index: int, seed: int, timeout_s: float) -> None:
        self.run_index = run_index
        self.seed = seed
        self.timeout_s = timeout_s
        super().__init__(
            f"campaign run {run_index} (seed {seed}) exceeded its "
            f"{timeout_s:g}s wall-clock budget"
        )

    def __reduce__(self):
        # Custom __init__ args: spell out how to rebuild across the pickle
        # boundary (a worker raises this, the parent classifies it).
        return RunTimeoutError, (self.run_index, self.seed, self.timeout_s)


class NoJournalError(RuntimeError):
    """``--resume`` was asked for but no matching journal exists."""

    def __init__(self, path: str) -> None:
        self.path = path
        super().__init__(
            f"no journal to resume from at {path} — run the campaign once "
            f"(with caching enabled) before --resume"
        )


def classify_failure(exc: BaseException) -> str:
    """Sort a repetition failure into the supervisor's retry classes.

    * ``"fatal"`` — :class:`~repro.kernel.invariants.InvariantViolation`:
      a scheduler correctness violation.  Never retried.
    * ``"transient"`` — the harness failed, not the simulation: a worker
      process died (``BrokenProcessPool``), the run timed out, or the OS
      refused a *harness-plausible* resource (an ``OSError`` whose errno is
      in :data:`_TRANSIENT_ERRNOS` — EAGAIN, ENOMEM, EMFILE, …).  Retried
      up to :attr:`RetryPolicy.max_retries` times.
    * ``"deterministic"`` — everything else, including ``OSError``\\ s the
      simulation raises for conditions of the spec itself (a missing input
      file is ENOENT every time).  The simulation is a pure function of the
      spec, so the same seed and digest will fail the same way; one
      confirmation retry, then fail fast.
    """
    from repro.kernel.invariants import InvariantViolation

    if isinstance(exc, InvariantViolation):
        return FATAL
    if type(exc).__name__ == "InvariantViolation":  # crossed a pickle boundary
        return FATAL
    if isinstance(exc, RunTimeoutError):
        return TRANSIENT
    if isinstance(exc, OSError):
        return TRANSIENT if exc.errno in _TRANSIENT_ERRNOS else DETERMINISTIC
    if type(exc).__name__ in _TRANSIENT_NAMES:
        return TRANSIENT
    return DETERMINISTIC


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    Delay before attempt ``k`` (1-based count of *failures so far*) is
    ``min(backoff_max_s, backoff_base_s * backoff_factor**(k-1))`` scaled by
    a jitter factor in ``[1 - jitter_frac, 1 + jitter_frac]`` drawn from an
    RNG seeded by ``(run seed, k)`` — so the whole backoff schedule is a
    deterministic function of the run's identity, reproducible in tests and
    identical across resumes.
    """

    #: Retry budget for *transient* failures (worker death, timeout, OSError).
    max_retries: int = 3
    #: Retry budget for *deterministic* simulation errors (fail fast).
    deterministic_retries: int = 1
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 10.0
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.deterministic_retries < 0:
            raise ValueError("retry budgets cannot be negative")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError("jitter_frac must be in [0, 1]")

    def retries_for(self, classification: str) -> int:
        """Retry budget for one :func:`classify_failure` class."""
        if classification == FATAL:
            return 0
        if classification == TRANSIENT:
            return self.max_retries
        return self.deterministic_retries


def backoff_delay(policy: RetryPolicy, seed: int, attempt: int) -> float:
    """Seconds to wait after the *attempt*-th failure (attempt >= 1).

    Pure function of ``(policy, seed, attempt)`` — the same mixing
    discipline as ``_derive_seed``: integer arithmetic into a private
    :class:`random.Random`, never ``hash()``, so schedules are equal across
    processes, platforms and resumes.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    base = min(
        policy.backoff_max_s,
        policy.backoff_base_s * policy.backoff_factor ** (attempt - 1),
    )
    if policy.jitter_frac == 0.0 or base == 0.0:
        return base
    rng = Random((seed * 1_000_003 + attempt * 7_919 + 29) & 0x7FFFFFFF)
    jitter = 1.0 + policy.jitter_frac * (2.0 * rng.random() - 1.0)
    return base * jitter


def backoff_schedule(policy: RetryPolicy, seed: int, n: int) -> List[float]:
    """The first *n* backoff delays for a run with *seed* (tests, docs)."""
    return [backoff_delay(policy, seed, k) for k in range(1, n + 1)]


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt at one repetition."""

    attempt: int
    error: str            #: exception class name
    classification: str   #: fatal | transient | deterministic
    message: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "error": self.error,
            "classification": self.classification,
            "message": self.message,
        }


@dataclass(frozen=True)
class RunHole:
    """A repetition the campaign completed *without* (``allow_partial``)."""

    run_index: int
    seed: int
    digest: str
    attempts: Tuple[AttemptFailure, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "run_index": self.run_index,
            "seed": self.seed,
            "digest": self.digest,
            "attempts": [a.as_dict() for a in self.attempts],
        }


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervised execution layer."""

    #: Per-run wall-clock budget in seconds (None = unlimited).
    timeout_s: Optional[float] = None
    retry: RetryPolicy = RetryPolicy()
    #: Salvage completed runs into a partial result instead of failing the
    #: campaign when a repetition exhausts its retries (fatal still raises).
    allow_partial: bool = False
    #: Pool-shrink floor under repeated worker death.
    min_workers: int = 1
    #: Supervisor-side hard deadline, as a multiple of ``timeout_s``, after
    #: which an in-flight worker is presumed wedged beyond its own alarm and
    #: the pool is killed.  The in-worker timer fires first in the normal
    #: case; this is the backstop for workers stuck outside the interpreter.
    kill_grace: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.kill_grace < 1.0:
            raise ValueError("kill_grace must be >= 1")


@dataclass
class SupervisedResult:
    """What a supervised campaign produced, holes and all."""

    records: List[RunRecord]
    holes: List[RunHole] = field(default_factory=list)
    #: Total retry attempts performed (beyond each run's first attempt).
    retries: int = 0
    #: Runs that hit their per-run timeout at least once.
    timeouts: int = 0
    #: Times the worker pool was rebuilt smaller after repeated death.
    pool_shrinks: int = 0
    #: Runs replayed from the journal + cache instead of executed.
    replayed: int = 0
    #: Whether a journal was resumed (False when a lenient resume found
    #: none and the campaign ran fresh).
    resumed: bool = False

    @property
    def hole_indices(self) -> List[int]:
        return [h.run_index for h in self.holes]


# --------------------------------------------------------------------- journal


def campaign_digest(specs: Sequence[RunSpec]) -> str:
    """Content identity of a whole campaign: the ordered spec digests.

    Any change to any repetition's inputs (seed, config, fault plan,
    package version) moves this digest, so a journal can never resume a
    different campaign than the one that wrote it.
    """
    return _campaign_digest([s.digest() for s in specs])


def _campaign_digest(digests: Sequence[str]) -> str:
    return stable_digest({"n_runs": len(digests), "runs": list(digests)})


def journal_path_for(cache_root, digest: str) -> Path:
    """Journal location for a campaign digest under a cache root."""
    return Path(cache_root) / "journal" / f"{digest}.jsonl"


class CampaignJournal:
    """Append-only fsync'd JSONL journal of per-run completion.

    One header line names the campaign digest; every subsequent line records
    one repetition's fate (``done`` or ``failed``).  Lines are flushed and
    fsync'd as written, so a SIGKILL at any instant loses at most the line
    being written — and a torn trailing line is ignored on read.
    """

    def __init__(self, path, digest: str, n_runs: int, *, resume: bool = False) -> None:
        self.path = Path(path)
        self.digest = digest
        self.path.parent.mkdir(parents=True, exist_ok=True)
        exists = self.path.is_file()
        self._fh = open(self.path, "a" if resume else "w", encoding="utf-8")
        if not (resume and exists):
            self._write(
                {
                    "record": "journal",
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "campaign_digest": digest,
                    "n_runs": n_runs,
                }
            )

    def _write(self, entry: Dict[str, object]) -> None:
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_done(self, record: RunRecord) -> None:
        self._write(
            {
                "run_index": record.run_index,
                "seed": record.seed,
                "digest": record.digest,
                "status": "done",
            }
        )

    def record_failed(self, hole: RunHole) -> None:
        self._write(dict(hole.as_dict(), status="failed"))

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - close failures are benign
            pass

    # ------------------------------------------------------------------ read

    @staticmethod
    def read_done(path, digest: str) -> Dict[int, str]:
        """Run indices the journal confirms finished, mapped to their spec
        digests.  A missing file, foreign digest, wrong schema, or torn
        trailing line all degrade to "nothing confirmed" (the cache still
        guards correctness; the journal only skips work)."""
        done: Dict[int, str] = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return done
        valid = False
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write (SIGKILL mid-line)
            if not isinstance(entry, dict):
                continue
            if entry.get("record") == "journal":
                valid = (
                    entry.get("schema") == JOURNAL_SCHEMA_VERSION
                    and entry.get("campaign_digest") == digest
                )
                continue
            if not valid:
                continue
            if entry.get("status") == "done":
                try:
                    done[int(entry["run_index"])] = str(entry["digest"])
                except (KeyError, TypeError, ValueError):
                    continue
        return done


# -------------------------------------------------------------- timed workers


def _arm_alarm(handler) -> Optional[Tuple[object, float]]:
    """Install *handler* for SIGALRM if this thread may; returns restore
    state (previous handler, previous timer seconds) or None."""
    if not hasattr(signal, "SIGALRM"):
        return None
    try:
        previous = signal.signal(signal.SIGALRM, handler)
    except ValueError:  # not the main thread
        return None
    prev_timer = signal.getitimer(signal.ITIMER_REAL)[0]
    return previous, prev_timer


def _disarm_alarm(restore: Tuple[object, float], elapsed: float) -> None:
    previous, prev_timer = restore
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)
    if prev_timer > 0:
        # Re-arm whatever outer clock (e.g. a test timeout) was running.
        signal.setitimer(signal.ITIMER_REAL, max(prev_timer - elapsed, 0.001))


def _call_with_timeout(
    worker: Worker, spec: RunSpec, timeout_s: Optional[float]
) -> Tuple[object, Optional[dict]]:
    """Run one repetition under a wall-clock budget.

    Module-level and picklable-by-reference, so it crosses the process
    boundary as the pool's actual work item; in a worker process the main
    thread is ours, so the interval timer is always available on POSIX.
    Where SIGALRM cannot be armed (non-POSIX, non-main thread) the run is
    simply untimed — the supervisor's hard deadline still covers pool mode.
    """
    if timeout_s is None:
        return worker(spec)

    def _expired(signum, frame):
        raise RunTimeoutError(spec.run_index, spec.seed, timeout_s)

    restore = _arm_alarm(_expired)
    if restore is None:
        return worker(spec)
    started = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        return worker(spec)
    finally:
        _disarm_alarm(restore, time.monotonic() - started)


# ------------------------------------------------------------------ internals


@dataclass
class _PendingRun:
    """One repetition still owed a result, with its failure history."""

    spec: RunSpec
    digest: str
    attempts: List[AttemptFailure] = field(default_factory=list)
    #: monotonic() instant before which this run must not be redispatched.
    eligible_at: float = 0.0
    #: monotonic() instant since which this run has been dispatchable —
    #: campaign start, or the end of the latest backoff.  Queue-wait
    #: telemetry is dispatch time minus this.
    ready_at: float = 0.0
    timed_out: bool = False


class _Supervisor:
    """One campaign's supervised execution (single use)."""

    def __init__(
        self,
        specs: Sequence[RunSpec],
        worker: Worker,
        *,
        digests: Sequence[str],
        n_jobs: int,
        cache: Optional[ResultCache],
        config: SupervisorConfig,
        progress: Optional[ProgressFn],
        on_record: Optional[Callable[[RunRecord], None]],
        journal: Optional[CampaignJournal],
        replayable: Dict[int, str],
        chunk_factor: int,
        sleep: Callable[[float], None],
        telemetry=None,
    ) -> None:
        self.specs = specs
        self.digests = digests
        self.worker = worker
        self.n_jobs = n_jobs
        self.cache = cache
        self.config = config
        self.progress = progress
        self.on_record = on_record
        self.journal = journal
        self.replayable = replayable
        self.chunk_factor = chunk_factor
        self.sleep = sleep
        self.telemetry = telemetry if telemetry is not None else _NULL_TELEMETRY

        self.result = SupervisedResult(records=[])
        # Pool-path parking lots: runs waiting out their backoff between
        # redispatches, and runs requeued by a pool break for the next pool
        # incarnation.
        self._deferred: List[_PendingRun] = []
        self._waiting: List[_PendingRun] = []
        self._pending: Dict[int, RunRecord] = {}
        self._holes_by_index: Dict[int, RunHole] = {}
        self._next_index = specs[0].run_index if specs else 0
        self._completed = 0
        self._total = len(specs)

    # ------------------------------------------------------- ordered merging

    def _emit_ready(self) -> None:
        """Flush the contiguous prefix of finished/holed indices in order."""
        while True:
            if self._next_index in self._pending:
                record = self._pending.pop(self._next_index)
                self.result.records.append(record)
                if self.on_record is not None:
                    self.on_record(record)
            elif self._next_index not in self._holes_by_index:
                return
            self._next_index += 1

    def _finish(
        self,
        record: RunRecord,
        *,
        wall_s: float = 0.0,
        wait_s: float = 0.0,
        attempts: int = 0,
    ) -> None:
        self._completed += 1
        if self.cache is not None and not record.cache_hit:
            self.cache.put(record.digest, record.result, record.faults)
        if self.journal is not None and not record.cache_hit:
            self.journal.record_done(record)
        self.telemetry.run_finished(
            run_index=record.run_index,
            seed=record.seed,
            cache_hit=record.cache_hit,
            wait_s=max(wait_s, 0.0),
            wall_s=max(wall_s, 0.0),
            attempts=attempts,
        )
        self._pending[record.run_index] = record
        self._emit_ready()
        if self.progress is not None:
            self.progress(self._completed, self._total)

    def _hole(self, run: _PendingRun) -> None:
        hole = RunHole(
            run_index=run.spec.run_index,
            seed=run.spec.seed,
            digest=run.digest or run.spec.digest(),
            attempts=tuple(run.attempts),
        )
        self.result.holes.append(hole)
        self._holes_by_index[hole.run_index] = hole
        if self.journal is not None:
            self.journal.record_failed(hole)
        self.telemetry.hole(
            run_index=hole.run_index, attempts=len(hole.attempts)
        )
        self._completed += 1
        self._emit_ready()
        if self.progress is not None:
            self.progress(self._completed, self._total)

    # --------------------------------------------------------------- failure

    def _register_failure(self, run: _PendingRun, exc: BaseException) -> bool:
        """Account one failed attempt.  Returns True when the run should be
        retried; raises when the failure is final (unless ``allow_partial``,
        in which case the run becomes a hole and False is returned)."""
        classification = classify_failure(exc)
        attempt = len(run.attempts) + 1
        run.attempts.append(
            AttemptFailure(
                attempt=attempt,
                error=type(exc).__name__,
                classification=classification,
                message=str(exc)[:500],
            )
        )
        is_timeout = (
            isinstance(exc, RunTimeoutError)
            or type(exc).__name__ == "RunTimeoutError"
        )
        if is_timeout and not run.timed_out:
            run.timed_out = True
            self.result.timeouts += 1
            self.telemetry.timeout(
                run_index=run.spec.run_index,
                timeout_s=self.config.timeout_s or 0.0,
            )
        allowed = self.config.retry.retries_for(classification)
        if classification != FATAL and attempt <= allowed:
            self.result.retries += 1
            delay = backoff_delay(self.config.retry, run.spec.seed, attempt)
            run.eligible_at = time.monotonic() + delay
            run.ready_at = run.eligible_at
            self.telemetry.retry(
                run_index=run.spec.run_index,
                attempt=attempt,
                error=type(exc).__name__,
                classification=classification,
                delay_s=delay,
            )
            return True
        if classification != FATAL and self.config.allow_partial:
            self._hole(run)
            return False
        raise CampaignRunError(
            run.spec.run_index,
            run.spec.seed,
            run.digest or run.spec.digest(),
            exc,
            attempts=tuple(run.attempts),
        ) from exc

    # --------------------------------------------------------------- running

    def run(self) -> SupervisedResult:
        to_run: List[_PendingRun] = []
        settled: List[RunRecord] = []
        journal_done: Set[int] = set(self.replayable)
        started = time.monotonic()
        for spec, digest in zip(self.specs, self.digests):
            if self.cache is not None:
                found = self.cache.get(digest)
                if found is not None:
                    result, faults = found
                    record = RunRecord(
                        run_index=spec.run_index,
                        seed=spec.seed,
                        digest=digest,
                        result=result,
                        faults=faults,
                        cache_hit=True,
                    )
                    settled.append(record)
                    if (
                        spec.run_index in journal_done
                        and self.replayable[spec.run_index] == digest
                    ):
                        self.result.replayed += 1
                    continue
            to_run.append(
                _PendingRun(spec=spec, digest=digest, ready_at=started)
            )

        if self.n_jobs == 1 or len(to_run) <= 1:
            self._run_serial(to_run, settled)
        else:
            for record in settled:
                self._finish(record)
            self._run_pool(to_run)
        return self.result

    # ---------------------------------------------------------- serial path

    def _run_serial(self, to_run: List[_PendingRun], settled: List[RunRecord]) -> None:
        """In-process loop in run-index order, hits interleaved — the exact
        legacy serial path, plus the attempt loop around each miss."""
        misses = {run.spec.run_index: run for run in to_run}
        hits = {r.run_index: r for r in settled}
        for spec in self.specs:
            if spec.run_index in hits:
                self._finish(hits[spec.run_index])
                continue
            run = misses[spec.run_index]
            while True:
                dispatched = time.monotonic()
                try:
                    result, faults = _call_with_timeout(
                        self.worker, run.spec, self.config.timeout_s
                    )
                except Exception as exc:
                    if self._register_failure(run, exc):
                        delay = run.eligible_at - time.monotonic()
                        if delay > 0:
                            self.sleep(delay)
                        continue
                    break  # salvaged as a hole
                self._finish(
                    RunRecord(
                        run_index=run.spec.run_index,
                        seed=run.spec.seed,
                        digest=run.digest,
                        result=result,
                        faults=faults,
                    ),
                    wall_s=time.monotonic() - dispatched,
                    wait_s=dispatched - run.ready_at,
                    attempts=len(run.attempts) + 1,
                )
                break

    # ------------------------------------------------------------ pool path

    def _hard_deadline(self) -> Optional[float]:
        """Seconds after dispatch at which an in-flight future is presumed
        wedged.  Submission windows hold at most ``chunk_factor`` runs per
        worker, so a healthy future must start (and alarm) well within
        ``chunk_factor + kill_grace`` budgets."""
        if self.config.timeout_s is None:
            return None
        return self.config.timeout_s * (self.chunk_factor + self.config.kill_grace)

    def _kill_pool(self, pool: ProcessPoolExecutor) -> int:
        """Forcibly terminate a pool's worker processes; returns survivors.

        SIGTERM is asynchronous, so each process gets a short ``join`` to
        actually exit before it is counted — otherwise every worker would
        still look alive here and the survivor count would be noise."""
        processes = list(getattr(pool, "_processes", {}).values())
        for proc in processes:
            try:
                proc.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + 1.0
        for proc in processes:
            try:
                proc.join(max(deadline - time.monotonic(), 0.05))
            except (OSError, ValueError):  # pragma: no cover - already reaped
                pass
        return sum(1 for proc in processes if proc.is_alive())

    def _run_pool(self, to_run: List[_PendingRun]) -> None:
        queue: List[_PendingRun] = list(to_run)
        jobs = self.n_jobs
        consecutive_breaks = 0
        hard_deadline = self._hard_deadline()

        while queue or self._has_waiting():
            queue.extend(self._waiting)
            self._waiting = []
            if not queue:
                wake = min(run.eligible_at for run in self._deferred)
                self.sleep(max(wake - time.monotonic(), 0.01))
                queue, self._deferred = self._deferred, []
                continue
            window = self.chunk_factor * jobs
            pool = ProcessPoolExecutor(max_workers=min(jobs, max(len(queue), 1)))
            futures: Dict[object, Tuple[_PendingRun, float]] = {}
            broke = False
            try:
                while queue or futures or self._deferred:
                    now = time.monotonic()
                    # Re-admit deferred runs whose backoff expired.
                    still: List[_PendingRun] = []
                    for run in self._deferred:
                        (queue if run.eligible_at <= now else still).append(run)
                    self._deferred = still
                    while queue and len(futures) < window:
                        run = queue.pop(0)
                        futures[
                            pool.submit(
                                _call_with_timeout,
                                self.worker,
                                run.spec,
                                self.config.timeout_s,
                            )
                        ] = (run, now)
                    if not futures:
                        wake = min(r.eligible_at for r in self._deferred)
                        self.sleep(max(wake - time.monotonic(), 0.01))
                        continue
                    timeout = 0.25 if (hard_deadline or self._deferred) else None
                    done, _ = wait(
                        futures, timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    if not done and hard_deadline is not None:
                        oldest = min(t for _, t in futures.values())
                        if time.monotonic() - oldest > hard_deadline:
                            broke = self._break_pool(pool, futures, None)
                            break
                        continue
                    for future in done:
                        run, dispatched = futures.pop(future)
                        try:
                            result, faults = future.result()
                        except Exception as exc:
                            if type(exc).__name__ in (
                                "BrokenProcessPool",
                                "BrokenExecutor",
                            ):
                                futures[future] = (run, 0.0)
                                broke = self._break_pool(pool, futures, exc)
                                break
                            if self._register_failure(run, exc):
                                self._deferred.append(run)
                            continue
                        self._finish(
                            RunRecord(
                                run_index=run.spec.run_index,
                                seed=run.spec.seed,
                                digest=run.digest,
                                result=result,
                                faults=faults,
                            ),
                            wall_s=time.monotonic() - dispatched,
                            wait_s=dispatched - run.ready_at,
                            attempts=len(run.attempts) + 1,
                        )
                    if broke:
                        break
            finally:
                if not broke:
                    pool.shutdown(wait=True)
            if broke:
                consecutive_breaks += 1
                if consecutive_breaks >= 2 and jobs > self.config.min_workers:
                    jobs = max(self.config.min_workers, jobs // 2)
                    self.result.pool_shrinks += 1
                    self.telemetry.pool_shrink(jobs=jobs)
            else:
                consecutive_breaks = 0
            # On a clean drain the queue is already empty; after a break it
            # still holds the unsubmitted remainder of the window, which the
            # next pool incarnation picks up alongside the requeued
            # in-flight runs — nothing is dropped.

    def _has_waiting(self) -> bool:
        return bool(self._deferred) or bool(self._waiting)

    def _break_pool(
        self,
        pool: ProcessPoolExecutor,
        futures: Dict[object, Tuple[_PendingRun, float]],
        cause: Optional[BaseException],
    ) -> bool:
        """A worker died (or the supervisor killed a wedged pool): charge
        every in-flight run one transient failure and requeue the rest.

        On a hard-deadline kill (*cause* is None) each run is charged an
        error of its own: a :class:`RunTimeoutError` carrying *its* run
        index and seed when that run actually outlived the deadline, and a
        plain pool-killed :class:`BrokenExecutor` for healthy co-resident
        runs — so no attempt history records another run's timeout and
        ``result.timeouts`` counts only true deadline breaches."""
        pool_size = getattr(pool, "_max_workers", 0)
        now = time.monotonic()  # before the kill's join grace distorts ages
        survivors = self._kill_pool(pool)
        self.telemetry.pool_death(pool_size=pool_size, survivors=survivors)
        in_flight = sorted(
            futures.values(), key=lambda item: item[0].spec.run_index
        )
        futures.clear()
        hard_deadline = self._hard_deadline()
        for run, dispatched in in_flight:
            exc: BaseException
            if cause is not None:
                exc = cause
            elif hard_deadline is None or now - dispatched > hard_deadline:
                exc = RunTimeoutError(
                    run.spec.run_index,
                    run.spec.seed,
                    self.config.timeout_s or 0.0,
                )
            else:
                exc = BrokenExecutor(
                    "worker pool killed after a co-resident run breached "
                    "its hard deadline"
                )
            try:
                retry = self._register_failure(run, exc)
            except CampaignRunError as final:
                # Wrap with the pool's account so the operator sees both.
                raise WorkerPoolError(
                    [r.spec for r, _ in in_flight],
                    exc,
                    pool_size=pool_size,
                    survivors=survivors,
                ) from final
            if retry:
                self._waiting.append(run)
        return True


# ------------------------------------------------------------------ front API


def supervise_campaign(
    specs: Sequence[RunSpec],
    worker: Worker,
    *,
    n_jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    config: Optional[SupervisorConfig] = None,
    progress: Optional[ProgressFn] = None,
    on_record: Optional[Callable[[RunRecord], None]] = None,
    resume: bool = False,
    resume_missing_ok: bool = False,
    chunk_factor: int = 4,
    sleep: Callable[[float], None] = time.sleep,
    telemetry=None,
) -> SupervisedResult:
    """Execute every spec under supervision; records ordered by run index.

    *worker* must be a module-level function mapping one spec to
    ``(result, faults-or-None)`` (it crosses the process boundary by
    reference).  Records are emitted strictly in run-index order: each
    fires *on_record* as soon as all its predecessors are complete,
    whatever order workers finish in, so outputs are byte-identical at any
    ``n_jobs`` (``1`` never touches ``multiprocessing``).  *progress* fires
    on every completion with a monotonically increasing count.  On top
    sit per-run timeouts (``config.timeout_s``), classified seeded retry
    (``config.retry``), graceful pool degradation and partial salvage
    (``config.allow_partial``).

    With a *cache*, each spec is hashed exactly once: that digest list
    names the campaign, locates its crash-safe journal under the cache
    root, and keys the cache lookups — hits skip execution, misses are
    stored on completion.  With *resume*, run indices the journal confirms
    done are replayed from the cache (counted in
    :attr:`SupervisedResult.replayed`); a confirmed index whose cache entry
    has meanwhile vanished or been quarantined is simply re-executed.  A
    missing journal raises :class:`NoJournalError` unless
    *resume_missing_ok*, in which case the campaign runs fresh.  *sleep*
    is injectable so tests can observe backoff schedules without waiting
    them out.

    *telemetry*, when given, is a
    :class:`repro.obs.telemetry.CampaignTelemetry`-shaped sink: the
    supervisor reports ``run_finished`` (with queue-wait and wall time),
    ``retry``, ``timeout``, ``pool_death``, ``pool_shrink`` and ``hole``
    events to it.  Telemetry is strictly an observer — it never alters
    dispatch order, retry schedules, or the byte-identical result contract.
    """
    n_jobs = resolve_jobs(n_jobs)
    if chunk_factor < 1:
        raise ValueError("chunk_factor must be >= 1")
    config = config or SupervisorConfig()

    digests = [""] * len(specs)
    journal: Optional[CampaignJournal] = None
    replayable: Dict[int, str] = {}
    if cache is not None:
        digests = [spec.digest() for spec in specs]
        digest = _campaign_digest(digests)
        journal_path = journal_path_for(cache.root, digest)
        if resume and not journal_path.is_file():
            if not resume_missing_ok:
                raise NoJournalError(str(journal_path))
            resume = False  # nothing to replay; run this campaign fresh
        if resume:
            replayable = CampaignJournal.read_done(journal_path, digest)
        journal = CampaignJournal(
            journal_path, digest, len(specs), resume=resume
        )
    elif resume:
        raise NoJournalError("<no journal path — is the result cache enabled?>")

    supervisor = _Supervisor(
        specs,
        worker,
        digests=digests,
        n_jobs=n_jobs,
        cache=cache,
        config=config,
        progress=progress,
        on_record=on_record,
        journal=journal,
        replayable=replayable,
        chunk_factor=chunk_factor,
        sleep=sleep,
        telemetry=telemetry,
    )
    try:
        result = supervisor.run()
    finally:
        if journal is not None:
            journal.close()
    result.resumed = resume
    return result
