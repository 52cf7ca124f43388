"""Unit tests for Resource and its Request/Release events."""

import pytest

from repro.sim import Environment, Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def user(env, resource, name, hold):
        with resource.request() as req:
            yield req
            log.append((name, "start", env.now))
            yield env.timeout(hold)
            log.append((name, "end", env.now))

    env.process(user(env, resource, "a", 3))
    env.process(user(env, resource, "b", 3))
    env.process(user(env, resource, "c", 3))
    env.run()
    starts = {name: t for name, kind, t in log if kind == "start"}
    assert starts == {"a": 0, "b": 0, "c": 3}


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_count_and_queue():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env, resource):
        with resource.request() as req:
            yield req
            yield env.timeout(10)

    def observer(env, resource, out):
        yield env.timeout(1)
        out.append((len(resource.users), len(resource.queue)))

    out = []
    env.process(holder(env, resource))
    env.process(holder(env, resource))
    env.process(observer(env, resource, out))
    env.run()
    assert out == [(1, 1)]


def test_release_outside_context_manager():
    env = Environment()
    resource = Resource(env, capacity=1)

    def proc(env, resource):
        req = resource.request()
        yield req
        yield env.timeout(1)
        resource.release(req)
        return env.now

    handle = env.process(proc(env, resource))
    env.run()
    assert handle.value == 1
    assert not resource.users


def test_request_cancel_from_queue():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env, resource):
        with resource.request() as req:
            yield req
            yield env.timeout(5)

    def impatient(env, resource):
        req = resource.request()
        yield env.timeout(1)
        assert req in resource.queue and not req.triggered
        req.cancel()
        return "gave up"

    env.process(holder(env, resource))
    handle = env.process(impatient(env, resource))
    env.run()
    assert handle.value == "gave up"
    assert not resource.queue
    assert not resource.users
