"""Unit tests for deterministic named random streams."""

import pytest

from repro.sim import RandomStreams, stable_hash


def test_stable_hash_is_deterministic():
    assert stable_hash("arrivals") == stable_hash("arrivals")
    assert stable_hash("arrivals") != stable_hash("departures")


def test_same_seed_same_draws():
    a = RandomStreams(seed=7).stream("x")
    b = RandomStreams(seed=7).stream("x")
    assert list(a.integers(0, 1000, size=10)) == list(b.integers(0, 1000, size=10))


def test_different_names_are_independent():
    streams = RandomStreams(seed=7)
    a = streams.stream("a")
    b = streams.stream("b")
    assert list(a.integers(0, 10**9, size=5)) != list(b.integers(0, 10**9, size=5))


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("x")
    b = RandomStreams(seed=2).stream("x")
    assert list(a.integers(0, 10**9, size=5)) != list(b.integers(0, 10**9, size=5))


def test_stream_is_cached():
    streams = RandomStreams(seed=0)
    assert streams.stream("s") is streams.stream("s")


def test_fork_is_order_independent():
    streams = RandomStreams(seed=3)
    first = streams.fork("jobs", 5).integers(0, 10**9)
    # Consuming other forks must not change fork 5.
    streams.fork("jobs", 0).integers(0, 10**9, size=100)
    second = streams.fork("jobs", 5).integers(0, 10**9)
    assert first == second


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStreams(seed=-1)
