"""Timed-event calendar queue.

Events are ordered by ``(time, priority, seq)``: earlier time first, then a
small integer priority (lower runs first — used to make, e.g., wakeups process
before the balance timer at the same instant), then insertion order.  The
explicit sequence number makes ordering total and deterministic, which keeps
campaign replays bit-identical.

Structure
---------
The queue is a two-rung calendar/ladder tuned for the simulator's traffic,
which is overwhelmingly *near-monotone*: per-CPU timers re-armed a few µs to
ms ahead of the clock, popped in time order, plus a thin haze of far-future
events (fault strikes, watchdog horizons) that must not tax the hot window.

* ``_near`` — the current rung: entries sorted ascending by the full
  ``(time, priority, seq)`` key, consumed through a moving ``_head`` index.
  A pop is ``_head += 1`` — no heap sift, no memmove.  New events whose time
  falls inside the rung are placed by ``bisect.insort`` (a C binary search;
  for monotone traffic the position is the tail, so the insert degenerates
  to an append).
* ``_far`` — the overflow ladder: an *unsorted* list of every entry at or
  beyond ``_split``.  Scheduling there is a plain ``append``.  When the rung
  drains, the next rung is carved out of ``_far`` by time window and sorted
  once (``list.sort`` is C and runs once per entry's lifetime).  The carve
  window adapts so rungs stay mid-sized whatever the time scale of the
  traffic.

Equal-time cohorts never straddle the ``_split`` boundary (partitioning is
strictly on time), so the pop sequence is *exactly* the sorted order of the
keys — the same total order the historical binary heap produced, entry for
entry.  That heap survives verbatim in the test tree
(``tests/heap_oracle.py``) as the differential-testing oracle.

Cancellation is lazy: :meth:`Event.cancel` marks the event and immediately
updates the queue's live count; the entry itself is skipped when the head
reaches it (and dropped for free when a carve re-partitions it).  This is
O(1) per cancel and avoids list surgery, while ``len(queue)`` stays exact at
all times.

Hot path
--------
The engine's run loop uses the fused :meth:`EventQueue.next_live` /
:meth:`EventQueue.pop_head` pair: one pass drops cancelled heads and exposes
the next live event, and the subsequent pop removes it without re-scanning.
Both are O(1) outside the amortized carve.  ``peek_time``/``pop`` remain as
the compatibility API on top of them.
"""

from __future__ import annotations

import heapq
from bisect import insort
from itertools import chain
from typing import Any, Callable, List, Optional

__all__ = ["Event", "EventQueue"]

#: Pending-entry count above which the rung's tail is evicted to the ladder
#: (keeps mid-rung inserts bounded when traffic is not monotone).
_NEAR_EVICT = 8192

#: Target carve size; the carve window shrinks until a rung is at most
#: this many entries (except when one instant alone exceeds it).
_CARVE_MAX = 8192

#: Consumed-prefix length above which the rung is compacted in place.
#: Consumed slots are nulled immediately (see ``pop_head``), so the prefix
#: holds only ``None`` — compaction just keeps the list's length bounded.
_COMPACT_AT = 512


class Event:
    """A scheduled callback.

    Instances are created by :meth:`EventQueue.schedule`; user code only holds
    them to :meth:`cancel` or inspect scheduling metadata.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        label: str,
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        #: Owning queue while the event is pending; detached once it fires
        #: so a late cancel() cannot corrupt the live count.
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent: only the first cancel
        of a still-pending event adjusts the queue's live count."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._live -= 1
                self._queue = None

    # Only ever compared through the entry tuple, but define a repr for traces.
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event {self.label!r} t={self.time} prio={self.priority} {state}>"


class EventQueue:
    """Calendar/ladder queue of :class:`Event` objects, totally ordered on
    ``(time, priority, seq)``."""

    def __init__(self) -> None:
        #: Current rung: ascending ``(time, priority, seq, event)`` entries;
        #: indices below ``_head`` are already consumed.
        self._near: List[tuple] = []
        self._head = 0
        #: Overflow ladder: unsorted entries, every one at time >= ``_split``.
        self._far: List[tuple] = []
        #: Lower time bound of the ladder; ``None`` means the ladder is empty
        #: and the rung receives everything.
        self._split: Optional[int] = None
        #: Carve window width (µs), adapted after every carve.
        self._chunk = 1 << 16
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def depth(self) -> int:
        """Total pending entries, *including* lazily-cancelled ones — the
        structure's working-set size (what the profiler's depth probe
        reports, matching the old heap's ``len(_heap)``)."""
        return (len(self._near) - self._head) + len(self._far)

    def schedule(
        self,
        time: int,
        callback: Callable[[], Any],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Insert a callback to fire at *time*.

        ``priority`` breaks ties at equal times (lower first); ``label`` is
        carried for tracing.  Returns the :class:`Event` handle.
        """
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, label, self)
        self._live += 1
        entry = (time, priority, seq, event)
        split = self._split
        if split is None or time < split:
            near = self._near
            # Monotone traffic lands at the tail: one tuple compare and an
            # append, no binary search.  A ``None`` tail means the consumed
            # prefix spans the whole rung (see ``pop_head``), so the append
            # still lands exactly at ``_head``.
            last = near[-1] if near else None
            if last is None or last <= entry:
                near.append(entry)
            else:
                insort(near, entry, self._head)
                if len(near) - self._head > _NEAR_EVICT:
                    self._evict_tail()
        else:
            self._far.append(entry)
        return event

    # ------------------------------------------------------------- hot path

    def next_live(self) -> Optional[Event]:
        """Drop cancelled heads and return the next live event *without*
        removing it, or ``None`` when the queue is empty.

        Cancelled entries skipped here were already discounted from the live
        count by :meth:`Event.cancel`.

        Consumed slots (skipped or popped) are nulled on the spot so their
        entry tuples and events die in the youngest GC generation — exactly
        the lifetime a binary heap gives them.  Retaining them until bulk
        compaction looks harmless but promotes thousands of survivors into
        the older generations, and the collector's repeated scans of that
        retained prefix cost more than the queue operations themselves."""
        while True:
            near = self._near
            head = self._head
            n = len(near)
            while head < n:
                event = near[head][3]
                if not event.cancelled:
                    if head > _COMPACT_AT:
                        del near[:head]
                        head = 0
                    self._head = head
                    return event
                near[head] = None
                head += 1
            self._head = head
            if not self._carve():
                return None

    def pop_head(self) -> Event:
        """Remove and return the head event.  Must directly follow a
        :meth:`next_live` that returned an event, with no intervening
        mutation — the head is then known live, so no re-scan is needed.

        The consumed slot is nulled so the entry tuple is freed now (young,
        cheap for the GC) rather than at the next bulk compaction."""
        near = self._near
        head = self._head
        self._head = head + 1
        self._live -= 1
        event = near[head][3]
        near[head] = None
        event._queue = None
        return event

    # ------------------------------------------------- rung/ladder plumbing

    def _carve(self) -> bool:
        """The rung is exhausted: carve the next one out of the ladder.

        Partitions strictly on time, so an equal-time cohort always lands in
        one rung and the (priority, seq) tie-break happens inside the single
        ``sort``.  Cancelled entries are dropped during the partition (their
        live discount already happened at ``cancel()``)."""
        while True:
            far = self._far
            if not far:
                self._near.clear()
                self._head = 0
                self._split = None
                return False
            tmin = min(entry[0] for entry in far)
            width = self._chunk
            while True:
                boundary = tmin + width
                carved = [e for e in far if e[0] < boundary and not e[3].cancelled]
                if len(carved) <= _CARVE_MAX or width <= 1:
                    break
                width = max(1, width >> 2)
            self._far = [e for e in far if e[0] >= boundary and not e[3].cancelled]
            carved.sort()
            self._near = carved
            self._head = 0
            self._split = boundary if self._far else None
            # Adapt the window toward mid-sized rungs: halve after an
            # oversized carve, widen after a trickle (so sparse far-future
            # traffic is swallowed in few passes).
            n = len(carved)
            if n > _CARVE_MAX:
                self._chunk = max(1, width >> 1)
            elif n < 64 and self._far:
                self._chunk = width << 2
            else:
                self._chunk = width
            if carved:
                return True
            # The whole window was lazily-cancelled entries: advance to the
            # next window (the ladder strictly shrank, so this terminates).

    def _evict_tail(self) -> None:
        """Move the rung's tail half to the ladder so mid-rung inserts stay
        cheap.  The cut never splits an equal-time cohort."""
        near = self._near
        head = self._head
        cut = head + ((len(near) - head) >> 1)
        n = len(near)
        while cut < n and near[cut][0] == near[cut - 1][0]:
            cut += 1
        if cut >= n:
            return  # one giant same-instant cohort: nothing to evict
        self._far.extend(near[cut:])
        self._split = near[cut][0]
        del near[cut:]

    def _pending_entries(self):
        """Iterate every stored entry (live and lazily-cancelled)."""
        return chain(self._near[self._head:], self._far)

    # -------------------------------------------------- compatibility layer

    def peek_time(self) -> Optional[int]:
        """Return the firing time of the next live event, or ``None``."""
        event = self.next_live()
        return None if event is None else event.time

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        if self.next_live() is None:
            return None
        return self.pop_head()

    def clear(self) -> None:
        """Drop all pending events.  The dropped events are marked cancelled
        so that outstanding handles stay inert (a later ``cancel()`` is a
        no-op, not a live-count corruption)."""
        for entry in self._pending_entries():
            event = entry[3]
            event.cancelled = True
            event._queue = None
        self._near.clear()
        self._head = 0
        self._far.clear()
        self._split = None
        self._live = 0

    def summary(self, limit: int = 8) -> str:
        """One-line human summary of the queue head, for stall diagnostics.

        Lists the next *limit* live events as ``label@time`` so a
        :class:`~repro.sim.engine.SimStallError` can show *what* the
        simulation was about to do when the guard tripped.  The live count
        comes straight from the exact ``_live`` tally — no rescans — and
        only the head selection walks the stored entries."""
        live = self._live
        head = heapq.nsmallest(
            limit,
            (entry for entry in self._pending_entries() if not entry[3].cancelled),
        )
        shown = ", ".join(
            f"{event.label or '<unlabelled>'}@{event.time}"
            for _, _, _, event in head
        )
        extra = live - len(head)
        tail = f", ... +{extra} more" if extra > 0 else ""
        return f"{live} live event(s): {shown}{tail}" if head else "queue empty"
