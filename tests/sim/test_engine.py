"""Unit tests for the DES environment and clock semantics."""

import pytest

from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_clock_custom_initial_time():
    env = Environment(initial_time=100)
    assert env.now == 100


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(5)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [5]
    assert env.now == 5


def test_timeout_value_passes_through():
    env = Environment()

    got = []

    def proc(env):
        got.append((yield env.timeout(1, value="payload")))

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


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
    with pytest.raises(IndexError):
        env.step()


def test_interleaving_is_deterministic():
    env = Environment()
    log = []

    def clock(env, name, tick, ticks):
        for _ in range(ticks):
            log.append((name, env.now))
            yield env.timeout(tick)

    env.process(clock(env, "fast", 1, 4))
    env.process(clock(env, "slow", 2, 2))
    env.run()
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


def test_yielding_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()
