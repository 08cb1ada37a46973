"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Simulation
from repro.sim.events import AnyOf
from repro.sim.process import Interrupt


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        fired = []

        def proc():
            yield sim.timeout(25)
            fired.append(sim.now)

        sim.process(proc())
        sim.run()
        assert fired == [25.0]

    def test_timeouts_fire_in_order(self, sim):
        order = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc(30, "late"))
        sim.process(proc(10, "early"))
        sim.process(proc(20, "middle"))
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_equal_timestamps_preserve_creation_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(10)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_run_until_stops_early(self, sim):
        fired = []

        def proc():
            yield sim.timeout(100)
            fired.append("late")

        sim.process(proc())
        end = sim.run(until=50)
        assert end == 50
        assert fired == []
        sim.run()
        assert fired == ["late"]

    def test_run_returns_final_time(self, sim):
        sim.process(iter([]) and (sim.timeout(5) for _ in ()))  # no-op
        def proc():
            yield sim.timeout(42)
        sim.process(proc())
        assert sim.run() == 42

    def test_timeout_value_passed_to_process(self, sim):
        seen = []

        def proc():
            value = yield sim.timeout(5, value="payload")
            seen.append(value)

        sim.process(proc())
        sim.run()
        assert seen == ["payload"]


class TestEventsAndProcesses:
    def test_event_succeed_resumes_waiter(self, sim):
        event = sim.event()
        results = []

        def waiter():
            value = yield event
            results.append((sim.now, value))

        def trigger():
            yield sim.timeout(7)
            event.succeed("done")

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert results == [(7.0, "done")]

    def test_event_fail_raises_in_waiter(self, sim):
        event = sim.event()
        caught = []

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        def trigger():
            yield sim.timeout(1)
            event.fail(RuntimeError("boom"))

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert caught == ["boom"]

    def test_double_succeed_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_process_return_value_is_event_value(self, sim):
        def child():
            yield sim.timeout(3)
            return 99

        results = []

        def parent():
            value = yield sim.process(child())
            results.append(value)

        sim.process(parent())
        sim.run()
        assert results == [99]

    def test_uncaught_process_exception_surfaces(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("protocol bug")

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_kill(self, sim):
        progress = []

        def worker():
            try:
                while True:
                    yield sim.timeout(10)
                    progress.append(sim.now)
            finally:
                progress.append("cleaned-up")

        proc = sim.process(worker())

        def killer():
            yield sim.timeout(35)
            proc.kill()

        sim.process(killer())
        sim.run()
        assert progress == [10.0, 20.0, 30.0, "cleaned-up"]
        assert not proc.is_alive

    def test_process_interrupt_stops_the_wait(self, sim):
        seen = []
        gate = sim.event()

        def waiter():
            try:
                yield gate
                seen.append("gate")
            except Interrupt:
                seen.append(("interrupted", sim.now))
            yield sim.timeout(100)
            seen.append(("done", sim.now))

        proc = sim.process(waiter())

        def interrupter():
            yield sim.timeout(5)
            proc.interrupt()
            proc.interrupt()  # already interrupted: no second throw
            gate.succeed()  # fires unobserved

        sim.process(interrupter())
        sim.run()
        assert seen == [("interrupted", 5.0), ("done", 105.0)]

    def test_active_process_is_the_running_one_also_after_an_inline_start(self, sim):
        seen = []

        def child():
            seen.append(("child", sim.active_process))
            yield sim.timeout(1)

        def parent():
            yield sim.timeout(1)
            spawned = sim.process(child())
            seen.append(("parent", sim.active_process))
            yield spawned
            seen.append(("parent", sim.active_process))

        proc = sim.process(parent())
        sim.run()
        assert [name for name, _ in seen] == ["child", "parent", "parent"]
        assert seen[0][1] is not proc and seen[1][1] is proc and seen[2][1] is proc

    def test_interrupt_after_the_event_fired_is_a_no_op(self, sim):
        gate = sim.event()

        def waiter():
            return (yield gate)

        proc = sim.process(waiter())
        gate.succeed("value")
        proc.interrupt()
        sim.run()
        assert proc.value == "value"

    def test_any_of_fires_on_first(self, sim):
        results = []

        def proc():
            first = sim.timeout(5, value="fast")
            second = sim.timeout(50, value="slow")
            yield sim.any_of([first, second])
            results.append((first.triggered, second.triggered, sim.now))

        sim.process(proc())
        sim.run()
        assert results[0][0] is True
        assert results[0][1] is False
        assert results[0][2] == 5.0

    def test_fired_any_of_is_not_pinned_by_its_pending_children(self, sim):
        # A round's fallback timer outlives the round by far; once the
        # round is decided the timer must not keep it alive.
        class WeaklyReferable(AnyOf):
            __slots__ = ("__weakref__",)

        guard = sim.timeout(50_000)
        reply = sim.event()
        composite = WeaklyReferable(sim, [reply, guard])
        alive = weakref.ref(composite)
        reply.succeed("vote")
        sim.run(until=10)
        assert composite.triggered
        assert guard.callbacks == []
        del composite
        gc.collect()
        assert alive() is None
        before = sim.processed_events
        sim.run()
        assert sim.processed_events == before + 1  # the guard's own timer, no dispatch

    def test_all_of_waits_for_every_child(self, sim):
        results = []

        def proc():
            events = [sim.timeout(5), sim.timeout(20), sim.timeout(10)]
            yield sim.all_of(events)
            results.append(sim.now)

        sim.process(proc())
        sim.run()
        assert results == [20.0]

    def test_condition_fires_when_predicate_becomes_true(self, sim):
        state = {"value": 0}
        signal = sim.signal("state")
        woke = []

        def waiter():
            yield sim.condition(lambda: state["value"] >= 2, signal)
            woke.append(sim.now)

        def bumper():
            for _ in range(3):
                yield sim.timeout(10)
                state["value"] += 1
                signal.notify()

        sim.process(waiter())
        sim.process(bumper())
        sim.run()
        assert woke == [20.0]

    def test_condition_already_true_fires_immediately(self, sim):
        signal = sim.signal()
        woke = []

        def waiter():
            yield sim.condition(lambda: True, signal)
            woke.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert woke == [0.0]

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulation(seed=5)
            log = []

            def proc(name):
                for _ in range(3):
                    delay = sim.rng.stream(name).uniform(1, 10)
                    yield sim.timeout(delay)
                    log.append((name, round(sim.now, 6)))

            sim.process(proc("a"))
            sim.process(proc("b"))
            sim.run()
            return log

        assert run_once() == run_once()

