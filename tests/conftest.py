"""Suite-wide pytest wiring: every schedule built anywhere is verified.

A session-scoped autouse fixture wraps
:meth:`repro.core.critical_works.CriticalWorksScheduler.build_schedule`
— the single choke point through which all supporting schedules are
produced (directly, via :class:`~repro.core.strategy.StrategyGenerator`,
the experiment studies, and the flow-level metascheduler) — and runs
the static verifier of :mod:`repro.analysis.verify` on every outcome.
Any invariant breach (double-booking, precedence, deadline/admissibility
inconsistency, ``CF`` mismatch, collision-record drift) fails the test
that triggered it, so regressions surface at their source even in tests
that never look at the schedule.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.analysis.verify import verify_outcome
from repro.core.critical_works import CriticalWorksScheduler

#: ``pytest --hypothesis-profile dp-deep`` runs the exhaustive DP
#: reference check of tests/property/test_dp_properties.py at ten times
#: its default examples (600 instead of 60; that test scales with the
#: profile).  Nothing loads it by default.
settings.register_profile("dp-deep", max_examples=1000)


@pytest.fixture(autouse=True, scope="session")
def _verify_every_schedule():
    """Wrap the scheduler so each built schedule is invariant-checked."""
    original = CriticalWorksScheduler.build_schedule
    if getattr(original, "_invariant_checked", False):  # pragma: no cover
        yield
        return

    def checked_build_schedule(self, job, calendars, level=0.0, release=0,
                               warm_hint=None, context=None):
        outcome = original(self, job, calendars, level=level,
                           release=release, warm_hint=warm_hint,
                           context=context)
        report = verify_outcome(
            job, outcome, self.pool, transfer_model=self.transfer_model,
            release=release, accounting_model=self.accounting_model)
        if not report.ok:
            pytest.fail(
                f"schedule invariant violation (auto-verifier):\n"
                f"{report.summary()}")
        return outcome

    checked_build_schedule._invariant_checked = True
    CriticalWorksScheduler.build_schedule = checked_build_schedule
    try:
        yield
    finally:
        CriticalWorksScheduler.build_schedule = original
