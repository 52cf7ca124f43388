"""Online operation: the framework running live on the simulation clock.

Jobs arrive as a Poisson stream; each is planned and committed by the
metascheduler on arrival, and the committed jobs are then *executed*
with actual (randomized) task durations, each node serving its ready
tasks first come, first served — producers that run long really do
delay their consumers and the node's later work.  Two passes compare the punctual regime (actual
durations within the activated schedule's estimates) against an
overrun regime (estimates sometimes wrong), showing how QoS erodes.

Run with::

    python examples/online_operation.py
"""

from repro.flow import OnlineConfig, OnlineSimulation
from repro.sim import RandomStreams
from repro.workload import generate_pool


def describe(title: str, simulation: OnlineSimulation) -> None:
    outcomes = simulation.run()
    executed = [o for o in outcomes if o.slack is not None]
    late = [o for o in executed if o.slack < 0]
    print(f"{title}")
    print(f"  arrivals: {len(outcomes)}, "
          f"admitted: {simulation.admission_rate():.0%}, "
          f"deadline hit rate: {simulation.deadline_hit_rate():.0%}")
    if executed:
        mean_slack = sum(o.slack for o in executed) / len(executed)
        print(f"  executed jobs: {len(executed)}, late: {len(late)}, "
              f"mean slack (planned - actual finish): {mean_slack:+.1f}")
    utilization = simulation.node_utilization()
    print(f"  mean node utilization: "
          f"{sum(utilization.values()) / len(utilization):.1%}\n")


def main(seed: int = 9) -> None:
    def fresh_pool():
        return generate_pool(RandomStreams(seed).stream("pool"))

    describe(
        "Punctual regime (actual durations within the activated level):",
        OnlineSimulation(fresh_pool(), seed=seed, config=OnlineConfig(
            horizon=300, mean_interarrival=10.0,
            actual_within_plan=True)))

    describe(
        "Overrun regime (estimates sometimes undershoot reality):",
        OnlineSimulation(fresh_pool(), seed=seed, config=OnlineConfig(
            horizon=300, mean_interarrival=10.0,
            actual_within_plan=False)))

    print("The wall-time reservations keep the punctual regime at a "
          "100% hit rate;\nunder overruns, lateness cascades through "
          "precedence and node contention —\nthe erosion the paper's "
          "supporting-schedule switching is designed to absorb.")


if __name__ == "__main__":
    main()
