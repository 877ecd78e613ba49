"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventEngine


class TestEventEngine:
    def test_events_in_time_order(self):
        e = EventEngine()
        e.schedule(3.0, "c")
        e.schedule(1.0, "a")
        e.schedule(2.0, "b")
        kinds = []
        while (ev := e.pop()) is not None:
            kinds.append(ev[1])
        assert kinds == ["a", "b", "c"]

    def test_fifo_tiebreak_at_same_time(self):
        e = EventEngine()
        for i in range(5):
            e.schedule(1.0, "k", payload=i)
        payloads = []
        while (ev := e.pop()) is not None:
            payloads.append(ev[2])
        assert payloads == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        e = EventEngine()
        e.schedule(5.0, "x")
        assert e.now == 0.0
        e.pop()
        assert e.now == 5.0

    def test_schedule_after(self):
        e = EventEngine()
        e.schedule(2.0, "first")
        e.pop()
        e.schedule_after(3.0, "second")
        t, kind, _ = e.pop()
        assert t == 5.0
        assert kind == "second"

    def test_past_scheduling_rejected(self):
        e = EventEngine()
        e.schedule(5.0, "x")
        e.pop()
        with pytest.raises(ValueError):
            e.schedule(1.0, "y")
        with pytest.raises(ValueError):
            e.schedule_after(-1.0, "y")

    def test_empty_pop(self):
        assert EventEngine().pop() is None

    def test_pending_and_peek(self):
        e = EventEngine()
        assert e.peek_time() is None
        e.schedule(7.0, "x")
        assert e.pending == 1
        assert e.peek_time() == 7.0


class TestPastTimeTolerance:
    """Regression: the past-time epsilon must scale with the clock.

    The engine used an absolute 1e-12 tolerance, which is smaller than
    one ulp of ``now`` as soon as ``now`` exceeds ~1e4 seconds — at
    fleet scale (clocks in the 1e7–1e9 range) legitimate float
    round-off in ``now + delay`` arithmetic raised ValueError.  The
    tolerance is now symmetric and relative (:meth:`EventEngine.tolerance`),
    and in-band stragglers clamp to ``now`` so time stays monotone.
    """

    def test_one_ulp_behind_large_now_is_clamped(self):
        import math

        e = EventEngine()
        big = 1e12
        e.schedule(big, "sync")
        e.pop()
        assert e.now == big
        # One ulp below now: far outside 1e-12, inside the relative band.
        straggler = math.nextafter(big, 0.0)
        assert straggler < big
        e.schedule(straggler, "straggler")
        t, kind, _ = e.pop()
        assert kind == "straggler"
        assert t == big  # clamped: the clock never runs backwards
        assert e.now == big

    def test_accumulated_roundoff_at_fleet_scale(self):
        """now + many tiny deltas drifts below a later checkpoint sum."""
        e = EventEngine()
        base = 86400.0 * 365.0 * 10.0  # a decade of simulated seconds
        e.schedule(base, "sync")
        e.pop()
        drifted = base * (1.0 - 1e-12)  # float accumulation artefact
        e.schedule(drifted, "evt")  # must not raise
        t, _, _ = e.pop()
        assert t == e.now == base

    def test_truly_past_events_still_rejected(self):
        e = EventEngine()
        e.schedule(1e9, "sync")
        e.pop()
        with pytest.raises(ValueError):
            e.schedule(1e9 - 10.0, "too-old")
        # The band stays tight at large clocks: a discipline bug half a
        # second stale must still raise, not silently clamp.
        with pytest.raises(ValueError):
            e.schedule(1e9 - 0.5, "stale-now-bug")
        # Near zero the band is the absolute floor, still strict.
        small = EventEngine()
        small.schedule(5.0, "x")
        small.pop()
        with pytest.raises(ValueError):
            small.schedule(4.9999, "y")

    def test_tolerance_is_symmetric_and_relative(self):
        e = EventEngine()
        assert e.tolerance(0.0) == pytest.approx(1e-11)
        e.schedule(2e12, "sync")
        e.pop()
        assert e.tolerance(0.0) == pytest.approx(20.0)
        assert e.tolerance(4e12) == pytest.approx(40.0)


class TestPriorityOrdering:
    """Regression: event order is ``(time, priority, seq)`` on the engine
    and on its reference heap engine (``tests/reference/replay.py``).

    Fleet-dynamics events carry :data:`~repro.sim.engine.FLEET_PRIORITY`
    (0) so a mutation at time ``t`` always pops before job events at the
    same ``t`` — regardless of how late it was scheduled (its sequence
    number is necessarily higher than the bulk-scheduled arrivals').
    Before priorities existed the tie-break was ``(time, seq)`` alone,
    which made same-timestamp fleet mutations order-dependent on
    scheduling history.
    """

    def _engines(self):
        from reference.replay import HeapEventEngine

        return [EventEngine(), HeapEventEngine()]

    def test_priority_beats_sequence_at_same_time(self):
        from repro.sim.engine import DEFAULT_PRIORITY, FLEET_PRIORITY

        for engine in self._engines():
            engine.schedule(5.0, "job", payload="a")
            engine.schedule(5.0, "job", payload="b")
            # Scheduled last (highest seq), must still pop first.
            engine.schedule(5.0, "fleet", payload="f", priority=FLEET_PRIORITY)
            engine.schedule(5.0, "job", payload="c", priority=DEFAULT_PRIORITY)
            order = []
            while (ev := engine.pop()) is not None:
                order.append(ev[2])
            assert order == ["f", "a", "b", "c"], type(engine).__name__

    def test_sequence_breaks_ties_within_a_priority(self):
        from repro.sim.engine import FLEET_PRIORITY

        for engine in self._engines():
            for i in range(4):
                engine.schedule(1.0, "fleet", payload=i, priority=FLEET_PRIORITY)
            order = [engine.pop()[2] for _ in range(4)]
            assert order == [0, 1, 2, 3], type(engine).__name__

    def test_time_still_dominates_priority(self):
        from repro.sim.engine import FLEET_PRIORITY

        for engine in self._engines():
            engine.schedule(2.0, "fleet", payload="late", priority=FLEET_PRIORITY)
            engine.schedule(1.0, "job", payload="early")
            assert engine.pop()[2] == "early", type(engine).__name__
            assert engine.pop()[2] == "late", type(engine).__name__

    def test_schedule_many_priority_interleaves_with_heap_events(self):
        """Bulk-scheduled fleet events vs singly scheduled job events."""
        from repro.sim.engine import FLEET_PRIORITY

        for engine in self._engines():
            engine.schedule_many(
                [1.0, 3.0], "fleet", ["f1", "f3"], priority=FLEET_PRIORITY
            )
            engine.schedule(1.0, "job", payload="j1")
            engine.schedule(3.0, "job", payload="j3")
            engine.schedule(2.0, "job", payload="j2")
            order = []
            while (ev := engine.pop()) is not None:
                order.append(ev[2])
            assert order == ["f1", "j1", "j2", "f3", "j3"], type(engine).__name__

    def test_default_priority_preserves_legacy_order(self):
        """Without explicit priorities the old (time, seq) order holds."""
        for engine in self._engines():
            engine.schedule_many([1.0, 1.0], "bulk", ["m0", "m1"])
            engine.schedule(1.0, "solo", payload="s")
            order = [engine.pop()[2] for _ in range(3)]
            assert order == ["m0", "m1", "s"], type(engine).__name__
