"""Performance instrumentation: counters and timers.

The scheduling kernel reports into a process-global
:class:`~repro.perf.registry.PerfRegistry` (``PERF``) when it is
enabled; the hot paths guard every report behind ``PERF.enabled`` so
the disabled-by-default cost is a single attribute read.  The pinned
end-to-end benchmark (``benchmarks/e2e``) reads these counters for its
per-layer report.
"""

from .registry import PERF, PerfRegistry, derive_cache_stats

__all__ = [
    "PERF",
    "PerfRegistry",
    "derive_cache_stats",
]
