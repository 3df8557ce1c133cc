"""The host-speed reference: a fixed pure-Python loop timed around every op.

The host these figures come from changes speed by up to 2x, for seconds at
a time (see README.md).  A run therefore times this loop right before and
right after every op and scales the op's host time by how fast the loop ran
around it: ``calibrated = host × REF_S / mean(before, after)``.  A calibrated
time reads as host time on a host that runs the loop in ``REF_S``.

The loop is a small event loop (a heap of timestamps, slotted objects,
dictionary lookups, integer arithmetic), the same instruction mix as the
package's simulator and dispatcher, so a slowdown of the host slows both
alike.  It uses nothing from the package: a change to the package leaves
the reference as it is.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one sample takes on a calm 2 GHz Xeon; the calibration target.
REF_S = 0.005
#: Events one sample processes.
EVENTS = 6000
ITEMS = 64


class _Item:
    __slots__ = ("key", "load", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.load = 0
        self.hits = 0


def _loop(events: int) -> int:
    items = {key: _Item(key) for key in range(ITEMS)}
    heap = [(key * 7 % 13, key, items[key]) for key in range(ITEMS)]
    heapq.heapify(heap)
    x, acc = 12345, 0
    for seq in range(ITEMS, ITEMS + events):
        t, _, item = heapq.heappop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item.load += x % 97
        item.hits += 1
        acc += item.load // item.hits
        heapq.heappush(heap, (t + 1 + x % 50, seq, items[(item.key + x) % ITEMS]))
    return acc


def sample(repeats: int = 1) -> float:
    """Mean host seconds of *repeats* back-to-back runs of the loop, now."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _loop(EVENTS)
    return (time.perf_counter() - t0) / repeats


def calibrate(seconds: float, before: float, after: float) -> float:
    """*seconds* of host time bracketed by samples *before* and *after*."""
    return seconds * 2 * REF_S / (before + after)
