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

A second autouse fixture wraps
:meth:`repro.flow.metascheduler.Metascheduler._book`, the flow layer's
only calendar booking, and verifies every booked variant as booked:
against its strategy's scheduled job, at the variant's level, the
dispatch's release and the family's data-policy model.  That covers
what the build-time check never sees — plans rebound off a template
sibling and every commit of both flow lanes.

A third wraps :func:`repro.grid.execution.replay_fcfs`, the online
lane's execution replay: every replayed trace must respect its
reservations and its inputs' actual arrival under the family's policy
model (:func:`~repro.analysis.verify.verify_trace`), and no two runs may
overlap on one node, across jobs.  A fourth wraps
:meth:`repro.flow.simulation.OnlineSimulation.run` and, after each run,
checks the committed set for capacity overcommits against the
background load (:func:`~repro.analysis.verify.verify_coallocation`),
as the end-to-end benchmark's gate does.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

import repro.flow.simulation
import repro.grid.execution
from repro.analysis.verify import (
    verify_coallocation,
    verify_distribution,
    verify_outcome,
    verify_trace,
)
from repro.core.calendar import ReservationCalendar
from repro.core.critical_works import CriticalWorksScheduler
from repro.flow.metascheduler import Metascheduler
from repro.flow.simulation import OnlineSimulation

#: ``pytest --hypothesis-profile dp-deep`` runs the exhaustive DP
#: reference check, the warm-context equivalence check, the skip-edge
#: check and the generation-inputs check of
#: tests/property/test_dp_properties.py at ten times their default
#: examples (600 instead of 60, 400 instead of 40 per family, and 200
#: instead of 20; all scale with the profile), and the ``latest_fit``
#: reference check of tests/property/test_calendar_reference.py at
#: 1000 instead of 100.
#: Nothing loads it by default.
settings.register_profile("dp-deep", max_examples=1000)


@pytest.fixture(autouse=True, scope="session")
def _verify_every_schedule():
    """Wrap the scheduler so each built schedule is invariant-checked."""
    original = CriticalWorksScheduler.build_schedule
    if getattr(original, "_invariant_checked", False):  # pragma: no cover
        yield
        return

    def checked_build_schedule(self, job, calendars, level=0.0, release=0,
                               context=None, dead_chains=None):
        outcome = original(self, job, calendars, level=level,
                           release=release, context=context,
                           dead_chains=dead_chains)
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


@pytest.fixture(autouse=True, scope="session")
def _verify_every_booking():
    """Wrap the metascheduler's booking so each booked variant is
    checked as it is committed."""
    original = Metascheduler._book

    def checked_book(self, domain, strategy, variant, release):
        manager = next(m for m in self.managers if m.domain == domain)
        report = verify_distribution(
            strategy.scheduled_job, variant.distribution, manager.pool,
            transfer_model=manager.generator.policy_models[
                strategy.spec.policy],
            level=variant.level, release=release)
        if not report.ok:
            pytest.fail(
                f"booked schedule violation (auto-verifier):\n"
                f"{report.summary()}")
        return original(self, domain, strategy, variant, release)

    Metascheduler._book = checked_book
    try:
        yield
    finally:
        Metascheduler._book = original


@pytest.fixture(autouse=True, scope="session")
def _verify_every_replay():
    """Wrap the shared-node replay at both of its import sites so each
    trace is checked, and no node runs two tasks at once."""
    original = repro.grid.execution.replay_fcfs
    sites = (repro.grid.execution, repro.flow.simulation)

    def checked_replay(booked, pool):
        traces = original(booked, pool)
        runs_by_node: dict[int, list] = {}
        for item, trace in zip(booked, traces):
            report = verify_trace(item.job, item.distribution, trace, pool,
                                  transfer_model=item.transfer_model)
            if not report.ok:
                pytest.fail(f"replayed trace violation (auto-verifier):\n"
                            f"{report.summary()}")
            for run in trace.runs.values():
                runs_by_node.setdefault(run.node_id, []).append(
                    (run.actual_start, run.actual_end, trace.job_id,
                     run.task_id))
        for node_id, runs in runs_by_node.items():
            runs.sort()
            for before, after in zip(runs, runs[1:]):
                if after[0] < before[1]:
                    pytest.fail(f"replay ran two tasks at once on node "
                                f"{node_id}: {before} and {after}")
        return traces

    for site in sites:
        site.replay_fcfs = checked_replay
    try:
        yield
    finally:
        for site in sites:
            site.replay_fcfs = original


@pytest.fixture(autouse=True, scope="session")
def _verify_every_online_run():
    """After each online run, check the committed set against the
    background load and against itself."""
    original = OnlineSimulation.run

    def checked_run(self):
        outcomes = original(self)
        background = {node_id: ReservationCalendar(
            r for r in calendar.reservations if r.tag == "background")
            for node_id, calendar in self.grid.calendars.items()}
        report = verify_coallocation(
            [r.chosen.distribution for r in self.metascheduler.records
             if r.committed], self.pool, background)
        if not report.ok:
            pytest.fail(f"committed set violation (auto-verifier):\n"
                        f"{report.summary()}")
        return outcomes

    OnlineSimulation.run = checked_run
    try:
        yield
    finally:
        OnlineSimulation.run = original
