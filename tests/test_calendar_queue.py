"""Differential and structural tests for the calendar event queue.

The calendar queue (:class:`repro.sim.events.EventQueue`) replaced the
binary heap as the engine's event core.  Its correctness contract is
simple to state — pops come out in exactly ``(time, priority, seq)``
order, ``len`` counts live events — and easy to get subtly wrong in the
rung/ladder machinery (carves, tail evictions, consumed-prefix
compaction).  So the historical heap is kept verbatim as
:class:`tests.heap_oracle.BinaryHeapEventQueue` and used here as a
differential oracle: Hypothesis drives both queues through identical
schedule/cancel/pop/clear interleavings and demands identical behavior.

The deterministic tests below the property pin the structural edge cases
(carve loops, rung eviction, summary/len agreement) and the engine's
same-instant cascade contract.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from tests.heap_oracle import BinaryHeapEventQueue


def _noop() -> None:
    pass


# ------------------------------------------------- differential property


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=-3, max_value=3),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("clear")),
    ),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_calendar_queue_matches_heap_oracle(ops) -> None:
    """Any interleaving of schedule/cancel/pop/clear produces the same pop
    order and the same live counts on both queue implementations."""
    cal = EventQueue()
    heap = BinaryHeapEventQueue()
    pairs: list = []  # scheduled (cal_event, heap_event), in schedule order
    n = 0
    for op in ops:
        if op[0] == "schedule":
            _, t, prio = op
            label = f"e{n}"
            n += 1
            pairs.append(
                (
                    cal.schedule(t, _noop, priority=prio, label=label),
                    heap.schedule(t, _noop, priority=prio, label=label),
                )
            )
        elif op[0] == "cancel":
            live = [p for p in pairs if not p[0].cancelled]
            if live:
                a, b = live[op[1] % len(live)]
                a.cancel()
                b.cancel()
        elif op[0] == "pop":
            a, b = cal.pop(), heap.pop()
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.time, a.priority, a.label) == (b.time, b.priority, b.label)
        else:  # clear
            cal.clear()
            heap.clear()
            pairs.clear()
        assert len(cal) == len(heap)
    # Drain what's left: the full remaining order must agree.
    while True:
        a, b = cal.pop(), heap.pop()
        assert (a is None) == (b is None)
        if a is None:
            break
        assert (a.time, a.priority, a.label) == (b.time, b.priority, b.label)
    assert len(cal) == len(heap) == 0


# ------------------------------------------------------ structural cases


class TestCalendarStructure:
    def test_far_future_overflow_carves_in_order(self) -> None:
        """A wide spread of times exercises the overflow ladder and the
        carve loop; pops must still come out fully sorted."""
        q = EventQueue()
        times = [(i * 7919) % 1_000_003 for i in range(5000)]
        for t in times:
            q.schedule(t, _noop)
        popped = []
        while True:
            ev = q.pop()
            if ev is None:
                break
            popped.append(ev.time)
        assert popped == sorted(times)

    def test_rung_eviction_preserves_order(self) -> None:
        """Over-filling the near rung (past the eviction threshold) moves
        its tail to the ladder without reordering or splitting an
        equal-time cohort."""
        q = EventQueue()
        times = [i % 97 for i in range(20_000)]  # heavy equal-time cohorts
        for t in times:
            q.schedule(t, _noop)
        seen = []
        while True:
            ev = q.pop()
            if ev is None:
                break
            seen.append((ev.time, ev.seq))
        assert [t for t, _ in seen] == sorted(times)
        # Within one time, schedule (seq) order is preserved.
        for (t0, s0), (t1, s1) in zip(seen, seen[1:]):
            if t0 == t1:
                assert s0 < s1

    def test_interleaved_schedule_pop_monotone_stream(self) -> None:
        """The engine's usual pattern: pop one, schedule a few slightly
        ahead — exercises the tail-append fast path and compaction."""
        q = EventQueue()
        q.schedule(0, _noop)
        now = 0
        popped = 0
        while True:
            ev = q.pop()
            if ev is None:
                break
            assert ev.time >= now
            now = ev.time
            popped += 1
            if popped < 1500:
                q.schedule(now + (popped % 5), _noop)
                q.schedule(now + 13, _noop)
        assert popped == 1 + 2 * 1499  # the seed event plus every refill

    def test_negative_time_rejected(self) -> None:
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(-1, _noop)

    def test_depth_counts_stored_not_live(self) -> None:
        q = EventQueue()
        events = [q.schedule(i, _noop) for i in range(10)]
        events[3].cancel()
        assert len(q) == 9  # live
        assert q.depth() == 10  # cancelled entry still stored


# --------------------------------------------------- summary/len contract


class TestSummaryAgreesWithLen:
    def test_summary_count_is_len(self) -> None:
        """The summary's live count must agree with ``len(queue)`` exactly
        — the historical summary rescanned the heap and re-counted, and
        could disagree with the O(1) live tally."""
        q = EventQueue()
        events = [q.schedule(i % 50, _noop, label=f"e{i}") for i in range(40)]
        for ev in events[::3]:
            ev.cancel()
        for _ in range(5):
            q.pop()
        live = len(q)
        assert q.summary().startswith(f"{live} live event(s):")

    def test_summary_lists_head_in_order_and_counts_tail(self) -> None:
        q = EventQueue()
        for i in range(12):
            q.schedule(100 - i, _noop, label=f"job{i}")
        s = q.summary(limit=3)
        assert s.startswith("12 live event(s): job11@89, job10@90, job9@91")
        assert s.endswith("+9 more")

    def test_summary_empty(self) -> None:
        q = EventQueue()
        assert q.summary() == "queue empty"
        ev = q.schedule(5, _noop)
        ev.cancel()
        assert q.summary() == "queue empty"


# ---------------------------------------------- same-instant cascade pass


class TestSameInstantCascade:
    def test_cohort_fires_in_time_priority_seq_order(self) -> None:
        sim = Simulator()
        fired: list = []
        sim.at(50, lambda: fired.append("p2"), priority=2)
        sim.at(50, lambda: fired.append("p0a"), priority=0)
        sim.at(50, lambda: fired.append("p1"), priority=1)
        sim.at(50, lambda: fired.append("p0b"), priority=0)
        sim.at(40, lambda: fired.append("early"))
        sim.run_until()
        # time first, then priority, then schedule (seq) order.
        assert fired == ["early", "p0a", "p0b", "p1", "p2"]

    def test_same_instant_lower_priority_jumps_ahead(self) -> None:
        """An event scheduled *during* the cascade, at the current instant
        with a lower priority number, must fire before the cohort's
        remaining (higher-priority-number) members — the inner pass
        re-peeks after every callback rather than draining a snapshot."""
        sim = Simulator()
        fired: list = []

        def first() -> None:
            fired.append("first")
            sim.at(10, lambda: fired.append("injected"), priority=0)

        sim.at(10, first, priority=5)
        sim.at(10, lambda: fired.append("second"), priority=5)
        sim.at(10, lambda: fired.append("third"), priority=7)
        sim.run_until()
        assert fired == ["first", "injected", "second", "third"]

    def test_trace_hooks_fire_once_per_event_in_order(self) -> None:
        sim = Simulator()
        trace: list = []
        sim.add_trace_hook(lambda t, label: trace.append((t, label)))
        sim.at(10, _noop, label="a", priority=1)
        sim.at(10, _noop, label="b", priority=2)
        sim.at(20, _noop, label="c")
        sim.run_until()
        assert trace == [(10, "a"), (10, "b"), (20, "c")]
        assert sim.events_processed == 3

    def test_cascade_respects_stop_mid_cohort(self) -> None:
        sim = Simulator()
        fired: list = []
        sim.at(10, lambda: (fired.append("a"), sim.stop()))
        sim.at(10, lambda: fired.append("b"))
        sim.run_until()
        assert fired == ["a"]  # stop honored before the cohort's remainder
        sim.run_until()
        assert fired == ["a", "b"]

    def test_cascade_respects_horizon_boundary(self) -> None:
        sim = Simulator()
        fired: list = []
        sim.at(10, lambda: fired.append("in"))
        sim.at(11, lambda: fired.append("out"))
        assert sim.run_until(10) == 10  # horizon inclusive
        assert fired == ["in"]
        sim.run_until()
        assert fired == ["in", "out"]
