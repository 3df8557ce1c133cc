"""Campaign execution vocabulary shared by the supervisor and the driver.

:class:`RunRecord` is one merged repetition; :class:`CampaignRunError`
names a failed repetition (run index, seed, spec digest) so it can be
replayed serially; :class:`WorkerPoolError` reports a worker process that
died, listing every in-flight repetition instead of a bare
``BrokenProcessPool``.  Execution itself — ordering, caching, retry,
journaling — lives in :func:`repro.parallel.supervisor.supervise_campaign`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.parallel.jobspec import RunSpec

__all__ = [
    "RunRecord",
    "CampaignRunError",
    "WorkerPoolError",
    "resolve_jobs",
]

#: A worker maps one spec to ``(result, faults-dict-or-None)``.
Worker = Callable[[RunSpec], Tuple[object, Optional[dict]]]
#: Progress callbacks receive ``(completed, total)`` after every repetition.
ProgressFn = Callable[[int, int], None]


@dataclass
class RunRecord:
    """One merged repetition: the spec's identity plus its outcome."""

    run_index: int
    seed: int
    digest: str
    result: object
    faults: Optional[dict] = None
    cache_hit: bool = False


class CampaignRunError(RuntimeError):
    """One repetition failed; names the run so it can be replayed serially.

    When raised by the supervised layer, *attempts* carries the full retry
    history — one ``AttemptFailure`` per failed attempt, each with its error
    class and :func:`~repro.parallel.supervisor.classify_failure` verdict.
    """

    def __init__(
        self,
        run_index: int,
        seed: int,
        digest: str,
        cause: BaseException,
        *,
        attempts: Sequence[object] = (),
    ):
        self.run_index = run_index
        self.seed = seed
        self.digest = digest
        self.cause = cause
        self.attempts = tuple(attempts)
        history = ""
        if self.attempts:
            classes = ", ".join(
                f"{a.error}/{a.classification}" for a in self.attempts
            )
            history = f" after {len(self.attempts)} attempt(s) [{classes}]"
        super().__init__(
            f"campaign run {run_index} failed{history} (seed {seed}, spec "
            f"digest {digest}): {cause!r} — replay with n_jobs=1 and this "
            f"seed to debug"
        )


class WorkerPoolError(RuntimeError):
    """The pool itself broke (a worker process died mid-run).

    *pool_size* and *survivors* record the pool's account at failure time:
    how many worker processes it was built with and how many were still
    alive when the supervisor gave up.
    """

    def __init__(
        self,
        in_flight: Sequence[RunSpec],
        cause: BaseException,
        *,
        pool_size: Optional[int] = None,
        survivors: Optional[int] = None,
    ):
        self.in_flight = list(in_flight)
        self.cause = cause
        self.pool_size = pool_size
        self.survivors = survivors
        runs = ", ".join(
            f"run {s.run_index} (seed {s.seed}, digest {s.digest()})"
            for s in self.in_flight
        ) or "none"
        account = ""
        if pool_size is not None:
            alive = "?" if survivors is None else survivors
            account = f" [{alive}/{pool_size} workers surviving]"
        super().__init__(
            f"worker process died ({cause!r}){account}; in-flight "
            f"repetitions: {runs}"
        )


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` argument: None → ``os.cpu_count()``, floor 1."""
    if n_jobs is None:
        n_jobs = os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return n_jobs
