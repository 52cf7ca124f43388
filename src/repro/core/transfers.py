"""Transfer-time models: how long data dependencies take between nodes.

The strategy families of the paper differ in their data handling —
active replication (S1/MS1), remote data access (S2), static storage
(S3).  The scheduling core only needs two questions answered, captured
by the :class:`TransferModel` protocol; the concrete policy models live
in :mod:`repro.grid.data`.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .job import DataTransfer
from .resources import ProcessorNode

__all__ = ["TransferModel", "NeutralTransferModel", "transfer_time_fn"]


class TransferModel(Protocol):
    """Timing model of data movement under one data policy.

    A model whose cross-node lag depends only on the transfer — not on
    *which* two distinct nodes move the data (true for every built-in
    policy: free co-located, one constant otherwise) — may additionally
    provide ``uniform_lag(transfer) -> int`` returning that constant.
    The DP then compares node ids instead of consulting the per-pair
    lag memo; models with genuinely pairwise timings (per-link
    topology, say) simply omit the method.
    """

    def time(self, transfer: DataTransfer, src_node: ProcessorNode,
             dst_node: ProcessorNode) -> int:
        """Slots between producer end and consumer start on concrete nodes."""
        ...  # pragma: no cover - protocol

    def estimate(self, transfer: DataTransfer) -> int:
        """Node-independent estimate used to rank critical works."""
        ...  # pragma: no cover - protocol


class NeutralTransferModel:
    """The baseline model: free on one node, base time across nodes.

    This is the model implied by the Fig. 2 worked example, where every
    transfer contributes its base time to a critical work's length.
    """

    def time(self, transfer: DataTransfer, src_node: ProcessorNode,
             dst_node: ProcessorNode) -> int:
        if src_node.node_id == dst_node.node_id:
            return 0
        return transfer.base_time

    def estimate(self, transfer: DataTransfer) -> int:
        return transfer.base_time

    def uniform_lag(self, transfer: DataTransfer) -> int:
        """The node-independent cross-node lag (see ``TransferModel``)."""
        return transfer.base_time


def transfer_time_fn(model: TransferModel
                     ) -> Callable[[DataTransfer, ProcessorNode,
                                    ProcessorNode], int]:
    """Adapt a :class:`TransferModel` to the plain-function signature
    expected by :func:`repro.core.schedule.check_distribution`."""

    def fn(transfer: DataTransfer, src_node: ProcessorNode,
           dst_node: ProcessorNode) -> int:
        return model.time(transfer, src_node, dst_node)

    return fn
