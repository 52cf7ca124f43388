"""Unit tests for event lifecycle, conditions, and failure handling."""

import pytest

from repro.sim import AllOf, Environment, Event


def test_event_lifecycle_states():
    env = Environment()
    event = env.event()
    assert not event.triggered
    assert not event.processed
    event.succeed("v")
    assert event.triggered
    assert not event.processed
    env.run()
    assert event.processed
    assert event.value == "v"


def test_event_value_before_trigger_is_error():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_double_trigger_is_error():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()
    with pytest.raises(RuntimeError):
        event.fail(ValueError())


def test_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_failed_event_throws_into_waiter():
    env = Environment()
    event = env.event()

    def proc(env, event):
        try:
            yield event
        except KeyError as exc:
            return f"caught {exc}"

    handle = env.process(proc(env, event))
    event.fail(KeyError("oops"))
    env.run()
    assert handle.value == "caught 'oops'"


def test_waiting_on_already_processed_event():
    env = Environment()
    event = env.event()
    event.succeed("early")
    env.run()

    def proc(env, event):
        value = yield event
        return value

    handle = env.process(proc(env, event))
    env.run()
    assert handle.value == "early"


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(3, value="b")
        results = yield env.all_of([t1, t2])
        return (env.now, results, t1, t2)

    handle = env.process(proc(env))
    env.run()
    now, results, t1, t2 = handle.value
    assert now == 3
    assert results == {t1: "a", t2: "b"}
    assert list(results) == [t1, t2]


def test_all_of_empty_list_triggers_immediately():
    env = Environment()

    def proc(env):
        results = yield env.all_of([])
        return (env.now, len(results))

    handle = env.process(proc(env))
    env.run()
    assert handle.value == (0, 0)


def test_condition_fails_if_subevent_fails():
    env = Environment()

    def failer(env):
        yield env.timeout(1)
        raise ValueError("sub failed")

    def proc(env):
        sub = env.process(failer(env))
        other = env.timeout(10)
        try:
            yield env.all_of([sub, other])
        except ValueError as exc:
            return f"caught {exc}"

    handle = env.process(proc(env))
    env.run()
    assert handle.value == "caught sub failed"


def test_condition_rejects_foreign_environment():
    env1, env2 = Environment(), Environment()
    event_foreign = Event(env2)
    with pytest.raises(ValueError):
        AllOf(env1, [event_foreign])
