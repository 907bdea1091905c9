"""End-to-end latency estimation for a partitioned DNN — Eqn. 3.

    T = T_edge + T_transfer + T_cloud

The final result shipped back to the edge is assumed negligible (Sec. V-B:
"the size of the final result is so small that the latency of transferring
it back to the edge can be ignored").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..contracts import require_positive
from ..model.spec import ModelSpec
from ..obs.trace import span
from .devices import DeviceProfile
from .transfer import TransferModel


@dataclass(frozen=True)
class LatencyBreakdown:
    """The three terms of Eqn. 3 plus their total, in milliseconds."""

    edge_ms: float
    transfer_ms: float
    cloud_ms: float

    @property
    def total_ms(self) -> float:
        return self.edge_ms + self.transfer_ms + self.cloud_ms


class LatencyEstimator:
    """Estimates Eqn. 3 for a model partitioned at a layer boundary.

    Parameters
    ----------
    edge:
        Compute profile of the edge device.
    cloud:
        Compute profile of the cloud server.
    transfer:
        Transfer-latency model (Eqn. 6).
    """

    def __init__(
        self,
        edge: DeviceProfile,
        cloud: DeviceProfile,
        transfer: TransferModel,
    ) -> None:
        self.edge = edge
        self.cloud = cloud
        self.transfer = transfer

    def estimate(
        self,
        spec: ModelSpec,
        partition_index: int,
        bandwidth_mbps: float,
    ) -> LatencyBreakdown:
        """Latency of running layers [0, partition) on edge, rest on cloud.

        ``partition_index == len(spec)`` means fully on-edge (no transfer);
        ``partition_index == 0`` ships the raw input to the cloud.
        """
        require_positive(bandwidth_mbps, "bandwidth_mbps")
        if not 0 <= partition_index <= len(spec):
            raise ValueError(
                f"partition index {partition_index} out of range for "
                f"{len(spec)}-layer model"
            )
        edge_part = spec.slice(0, partition_index)
        cloud_part = spec.slice(partition_index, len(spec))
        edge_ms = self.edge.model_latency_ms(edge_part) if len(edge_part) else 0.0
        cloud_ms = self.cloud.model_latency_ms(cloud_part) if len(cloud_part) else 0.0
        if partition_index == len(spec):
            transfer_ms = 0.0
        else:
            size_bytes = spec.feature_bytes_after(partition_index - 1)
            transfer_ms = self.transfer.latency_ms(size_bytes, bandwidth_mbps)
        return LatencyBreakdown(edge_ms, transfer_ms, cloud_ms)

    def estimate_composed(
        self,
        edge_spec: Optional[ModelSpec],
        cloud_spec: Optional[ModelSpec],
        bandwidth_mbps: float,
    ) -> LatencyBreakdown:
        """Latency for explicit edge/cloud halves (the edge half may be
        compressed, so the simple partition-index form does not apply)."""
        require_positive(bandwidth_mbps, "bandwidth_mbps")
        with span("latency.estimate_composed"):
            edge_ms = self.edge.model_latency_ms(edge_spec) if edge_spec and len(edge_spec) else 0.0
            cloud_ms = (
                self.cloud.model_latency_ms(cloud_spec) if cloud_spec and len(cloud_spec) else 0.0
            )
            if cloud_spec is None or not len(cloud_spec):
                transfer_ms = 0.0
            else:
                if edge_spec and len(edge_spec):
                    size_bytes = edge_spec.output_shape.num_bytes
                else:
                    size_bytes = cloud_spec.input_shape.num_bytes
                transfer_ms = self.transfer.latency_ms(size_bytes, bandwidth_mbps)
            return LatencyBreakdown(edge_ms, transfer_ms, cloud_ms)
