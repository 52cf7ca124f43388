"""Unit tests for DES node agents."""

import pytest

from repro.core.resources import ProcessorNode
from repro.grid.node import NodeAgent
from repro.sim import Environment


def test_execute_waits_for_reservation_start():
    sim = Environment()
    agent = NodeAgent(sim, ProcessorNode(node_id=1, performance=1.0))
    handle = agent.execute("T1", not_before=5, duration=3)
    sim.run()
    run = handle.value
    assert run.start == 5
    assert run.end == 8
    assert agent.completed == [run]


def test_execute_serializes_on_one_node():
    sim = Environment()
    agent = NodeAgent(sim, ProcessorNode(node_id=1, performance=1.0))
    agent.execute("T1", not_before=0, duration=4)
    agent.execute("T2", not_before=0, duration=2)
    sim.run()
    spans = {run.task_id: (run.start, run.end) for run in agent.completed}
    assert spans["T1"] == (0, 4)
    assert spans["T2"] == (4, 6)


def test_execute_validation():
    sim = Environment()
    agent = NodeAgent(sim, ProcessorNode(node_id=1, performance=1.0))
    with pytest.raises(ValueError):
        agent.execute("T1", not_before=0, duration=0)


def test_utilization():
    sim = Environment()
    agent = NodeAgent(sim, ProcessorNode(node_id=1, performance=1.0))
    assert agent.utilization() == 0.0
    agent.execute("T1", not_before=0, duration=4)
    sim.run(until=8)
    assert agent.utilization() == 0.5
    assert agent.utilization(horizon=4) == 1.0
