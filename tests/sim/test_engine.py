"""Unit tests for the DES environment and clock semantics."""

import pytest

from repro.sim import EmptySchedule, Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_clock_custom_initial_time():
    env = Environment(initial_time=100)
    assert env.now == 100


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return env.now

    handle = env.process(proc(env))
    env.run()
    assert handle.value == 5
    assert env.now == 5


def test_timeout_value_passes_through():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1, value="payload")
        return got

    handle = env.process(proc(env))
    env.run()
    assert handle.value == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_before_horizon_events():
    env = Environment()
    log = []

    def proc(env):
        while True:
            log.append(env.now)
            yield env.timeout(2)

    env.process(proc(env))
    env.run(until=4)
    # The event at t=4 must NOT be processed.
    assert log == [0, 2]
    assert env.now == 4


def test_run_until_past_time_is_error():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "done"

    handle = env.process(proc(env))
    result = env.run(until=handle)
    assert result == "done"
    assert env.now == 3


def test_run_until_already_processed_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 7

    handle = env.process(proc(env))
    env.run()
    assert env.run(until=handle) == 7


def test_run_drains_queue_when_until_none():
    env = Environment()

    def proc(env):
        for _ in range(3):
            yield env.timeout(1)

    env.process(proc(env))
    env.run()
    assert env.now == 3


def test_step_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_interleaving_is_deterministic():
    env = Environment()
    log = []

    def clock(env, name, tick):
        while True:
            log.append((name, env.now))
            yield env.timeout(tick)

    env.process(clock(env, "fast", 1))
    env.process(clock(env, "slow", 2))
    env.run(until=4)
    assert log == [
        ("fast", 0), ("slow", 0),
        ("fast", 1),
        ("slow", 2), ("fast", 2),
        ("fast", 3),
    ]


def test_simultaneous_events_fifo_order():
    env = Environment()
    log = []

    def proc(env, name):
        yield env.timeout(1)
        log.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(env, name))
    env.run()
    assert log == ["a", "b", "c"]


def test_unhandled_process_failure_crashes_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_nested_process_waiting():
    env = Environment()

    def child(env):
        yield env.timeout(5)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return f"parent got {result}"

    handle = env.process(parent(env))
    env.run()
    assert handle.value == "parent got child-result"


def test_process_failure_propagates_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise ValueError("inner")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught {exc}"

    handle = env.process(parent(env))
    env.run()
    assert handle.value == "caught inner"


def test_yielding_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()
