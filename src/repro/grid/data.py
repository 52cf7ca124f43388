"""Data-policy transfer models for the three strategy families.

The paper abstracts data handling into the strategies' data policies; we
model each policy as a transfer-time rule applied when a consumer task
runs on a different node than its producer (co-located tasks never pay
for data movement):

* **active replication** (S1, MS1) — replicas are pushed toward likely
  consumers ahead of time, so only part of the transfer remains on the
  critical path: ``ceil(overlap × base_time)`` with ``overlap = 0.5`` by
  default;
* **remote data access** (S2) — data is pulled on demand when the
  consumer starts, serializing the full base time before execution;
* **static data storage** (S3) — data stays at its producer/store; a
  consumer elsewhere must fetch inputs *and* register outputs back,
  costing ``round_trip × base_time`` (2.0 by default).

These factors are modelling constants of the reproduction (the original
simulator's internals are unpublished); EXPERIMENTS.md records how the
qualitative results depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.job import DataTransfer
from ..core.resources import ProcessorNode
from ..core.strategy import DataPolicyKind
from ..core.transfers import TransferModel
from ..core.units import ceil_units

__all__ = [
    "ReplicationModel",
    "RemoteAccessModel",
    "StaticStorageModel",
    "default_policy_models",
]


@dataclass(frozen=True)
class ReplicationModel:
    """Active data replication: transfers partially overlap computation."""

    #: Fraction of the base transfer time left on the critical path.
    overlap: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.overlap <= 1:
            raise ValueError(
                f"overlap must lie in [0, 1], got {self.overlap}")

    def time(self, transfer: DataTransfer, src_node: ProcessorNode,
             dst_node: ProcessorNode) -> int:
        """Critical-path lag: the non-overlapped remainder."""
        if src_node.node_id == dst_node.node_id:
            return 0
        return ceil_units(self.overlap * transfer.base_time)

    def estimate(self, transfer: DataTransfer) -> int:
        """Node-independent estimate for critical-work ranking."""
        return ceil_units(self.overlap * transfer.base_time)

    def uniform_lag(self, transfer: DataTransfer) -> int:
        """The node-independent cross-node lag (DP fast path)."""
        return ceil_units(self.overlap * transfer.base_time)


@dataclass(frozen=True)
class RemoteAccessModel:
    """Remote data access: the full pull serializes before execution."""

    def time(self, transfer: DataTransfer, src_node: ProcessorNode,
             dst_node: ProcessorNode) -> int:
        """The full on-demand pull serializes before execution."""
        if src_node.node_id == dst_node.node_id:
            return 0
        return transfer.base_time

    def estimate(self, transfer: DataTransfer) -> int:
        """Node-independent estimate for critical-work ranking."""
        return transfer.base_time

    def uniform_lag(self, transfer: DataTransfer) -> int:
        """The node-independent cross-node lag (DP fast path)."""
        return transfer.base_time


@dataclass(frozen=True)
class StaticStorageModel:
    """Static storage: fetch inputs and ship outputs back to the store."""

    #: Multiplier over the base time for the fetch + write-back round trip.
    round_trip: float = 2.0

    def __post_init__(self) -> None:
        if self.round_trip < 1:
            raise ValueError(
                f"round_trip must be >= 1, got {self.round_trip}")

    def time(self, transfer: DataTransfer, src_node: ProcessorNode,
             dst_node: ProcessorNode) -> int:
        """Fetch from the static store plus the write-back."""
        if src_node.node_id == dst_node.node_id:
            return 0
        return ceil_units(self.round_trip * transfer.base_time)

    def estimate(self, transfer: DataTransfer) -> int:
        """Node-independent estimate for critical-work ranking."""
        return ceil_units(self.round_trip * transfer.base_time)

    def uniform_lag(self, transfer: DataTransfer) -> int:
        """The node-independent cross-node lag (DP fast path)."""
        return ceil_units(self.round_trip * transfer.base_time)


def default_policy_models() -> dict[DataPolicyKind, TransferModel]:
    """The standard mapping from policy kinds to timing models."""
    return {
        DataPolicyKind.REPLICATION: ReplicationModel(),
        DataPolicyKind.REMOTE_ACCESS: RemoteAccessModel(),
        DataPolicyKind.STATIC: StaticStorageModel(),
    }
