"""Deterministic named random-number streams.

Every stochastic component of the simulator draws from its own named
stream so that (a) a single experiment seed reproduces a whole run and
(b) changing how one component consumes randomness does not perturb any
other component's draws.  Streams are ``numpy.random.Generator`` objects
derived from the experiment seed and a stable hash of the stream name.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["stable_hash", "RandomStreams"]


def stable_hash(name: str) -> int:
    """A process-independent 32-bit hash of ``name``.

    Python's builtin ``hash`` is salted per process, so it cannot seed
    reproducible streams; CRC-32 is stable everywhere.
    """
    return zlib.crc32(name.encode("utf-8"))


class RandomStreams:
    """Factory of named, deterministic random generators.

    >>> streams = RandomStreams(seed=42)
    >>> a1 = streams.stream("arrivals")
    >>> a2 = RandomStreams(seed=42).stream("arrivals")
    >>> bool(a1.integers(0, 100) == a2.integers(0, 100))
    True
    """

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so consumption is cumulative within a run.
        """
        if name not in self._streams:
            sequence = np.random.SeedSequence([self.seed, stable_hash(name)])
            self._streams[name] = np.random.default_rng(sequence)
        return self._streams[name]

    def fork(self, name: str, index: int) -> np.random.Generator:
        """Return a fresh generator for the ``index``-th child of ``name``.

        Unlike :meth:`stream`, each call creates a new generator seeded
        only by ``(seed, name, index)`` — useful for per-job randomness
        that must not depend on generation order.
        """
        sequence = np.random.SeedSequence(
            [self.seed, stable_hash(name), int(index)])
        return np.random.default_rng(sequence)
