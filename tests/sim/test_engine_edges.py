"""Edge-case tests for the DES engine not covered by the basic suite."""

import pytest

from repro.sim import Environment


def test_schedule_after_partial_run_continues():
    env = Environment()
    log = []

    def proc(env):
        while True:
            log.append(env.now)
            yield env.timeout(3)

    env.process(proc(env))
    for _ in range(2):
        env.step()
    assert log == [0, 3]
    for _ in range(2):
        env.step()
    assert log == [0, 3, 6, 9]
    assert env.now == 9


def test_two_processes_wait_on_same_event():
    env = Environment()
    gate = env.timeout(5, value="open")
    results = []

    def waiter(env, gate, name):
        value = yield gate
        results.append((name, value, env.now))

    env.process(waiter(env, gate, "a"))
    env.process(waiter(env, gate, "b"))
    env.run()
    assert results == [("a", "open", 5), ("b", "open", 5)]


def test_zero_delay_timeout_runs_in_order():
    env = Environment()
    log = []

    def proc(env, name):
        yield env.timeout(0)
        log.append(name)

    env.process(proc(env, "first"))
    env.process(proc(env, "second"))
    env.run()
    assert log == ["first", "second"]
    assert env.now == 0


def test_float_times_are_supported():
    env = Environment()

    seen = []

    def proc(env):
        yield env.timeout(0.5)
        yield env.timeout(0.25)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [pytest.approx(0.75)]


def test_new_process_starts_before_same_instant_events():
    """A process registered at an instant runs its first step before the
    ordinary events already due at that instant (the online lane's
    deferred commits rely on this order)."""
    env = Environment()
    log = []

    def ticker(env, name):
        yield env.timeout(1)
        log.append(name)

    def spawner(env):
        yield env.timeout(1)
        log.append("spawner")
        env.process(starter(env))

    def starter(env):
        log.append("started")
        yield env.timeout(0)

    env.process(spawner(env))
    env.process(ticker(env, "ticker"))
    env.run()
    assert log == ["spawner", "started", "ticker"]

