"""The historical binary-heap event queue: the calendar queue's oracle.

Moved here from :mod:`repro.sim.events` unchanged; only
``tests/test_calendar_queue.py`` uses it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.events import Event


class BinaryHeapEventQueue:
    """The historical stable binary-heap queue, kept verbatim.

    Retired from the engine by the calendar queue
    (:class:`repro.sim.events.EventQueue`), but preserved as
    the *differential-testing oracle*: the Hypothesis suite drives both
    queues through identical schedule/cancel/pop/clear interleavings and
    asserts identical pop order and live counts
    (``tests/test_calendar_queue.py``)."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def depth(self) -> int:
        return len(self._heap)

    def schedule(
        self,
        time: int,
        callback: Callable[[], Any],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, label, self)  # type: ignore[arg-type]
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def next_live(self) -> Optional[Event]:
        heap = self._heap
        while heap:
            event = heap[0][3]
            if not event.cancelled:
                return event
            heapq.heappop(heap)
        return None

    def pop_head(self) -> Event:
        self._live -= 1
        event = heapq.heappop(self._heap)[3]
        event._queue = None
        return event

    def peek_time(self) -> Optional[int]:
        event = self.next_live()
        return None if event is None else event.time

    def pop(self) -> Optional[Event]:
        if self.next_live() is None:
            return None
        return self.pop_head()

    def clear(self) -> None:
        for entry in self._heap:
            event = entry[3]
            event.cancelled = True
            event._queue = None
        self._heap.clear()
        self._live = 0

    def summary(self, limit: int = 8) -> str:
        live = self._live
        head = heapq.nsmallest(
            limit, (entry for entry in self._heap if not entry[3].cancelled)
        )
        shown = ", ".join(
            f"{event.label or '<unlabelled>'}@{event.time}"
            for _, _, _, event in head
        )
        extra = live - len(head)
        tail = f", ... +{extra} more" if extra > 0 else ""
        return f"{live} live event(s): {shown}{tail}" if head else "queue empty"
