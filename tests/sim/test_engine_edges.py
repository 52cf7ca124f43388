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
    env.run(until=4)
    env.run(until=10)
    assert log == [0, 3, 6, 9]


def test_run_until_event_that_fails():
    env = Environment()

    def failer(env):
        yield env.timeout(2)
        raise ValueError("kaput")

    handle = env.process(failer(env))
    with pytest.raises(ValueError, match="kaput"):
        env.run(until=handle)


def test_two_processes_wait_on_same_event():
    env = Environment()
    gate = env.event()
    results = []

    def waiter(env, gate, name):
        value = yield gate
        results.append((name, value, env.now))

    env.process(waiter(env, gate, "a"))
    env.process(waiter(env, gate, "b"))

    def opener(env, gate):
        yield env.timeout(5)
        gate.succeed("open")

    env.process(opener(env, gate))
    env.run()
    assert results == [("a", "open", 5), ("b", "open", 5)]


def test_process_value_before_completion_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    handle = env.process(proc(env))
    with pytest.raises(RuntimeError):
        _ = handle.value


def test_event_failure_without_handler_crashes_at_step():
    env = Environment()
    event = env.event()

    def waiter(env, event):
        yield event  # no try/except: failure propagates

    env.process(waiter(env, event))
    event.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_failed_event_with_no_waiters_crashes_unless_defused():
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("lonely failure"))
    with pytest.raises(RuntimeError, match="lonely failure"):
        env.run()

    env2 = Environment()
    event2 = env2.event()
    event2.fail(RuntimeError("defused"))
    event2.defused = True
    env2.run()  # no crash


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

    def proc(env):
        yield env.timeout(0.5)
        yield env.timeout(0.25)
        return env.now

    handle = env.process(proc(env))
    env.run()
    assert handle.value == pytest.approx(0.75)
