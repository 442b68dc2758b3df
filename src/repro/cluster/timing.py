"""Multi-node timing: filter-partitioned layers over a node mesh.

Following DaDianNao's organization, a conv layer's ``N`` filters are
partitioned across nodes (each node already time-multiplexes its 256
concurrent filters); every node sees the full input neuron stream, which
the mesh broadcasts.  A layer's time is therefore

    max over nodes of node_conv_cycles(filters_of_node)
    + un-overlapped share of the input broadcast

and non-conv layers run replicated (they are neuron-bound, not
filter-bound).  Capacity accounting answers the sizing question the paper
raises: a network needs enough aggregate SB for its largest layer's
synapses and enough NM for the largest inter-layer activation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends import architectures, get_backend
from repro.baseline.other_layers import other_layers_timing
from repro.baseline.timing import conv_works_from_inputs
from repro.baseline.workload import ConvWork, ceil_div
from repro.cluster.config import ClusterConfig
from repro.nn.network import Network

__all__ = [
    "ClusterLayerTiming",
    "cluster_network_timing",
    "nodes_required",
    "capacity_report",
]

@dataclass
class ClusterLayerTiming:
    """One layer's multi-node execution."""

    name: str
    kind: str
    compute_cycles: int
    broadcast_cycles: int
    nodes_used: int

    @property
    def cycles(self) -> int:
        return self.compute_cycles + self.broadcast_cycles


@dataclass
class ClusterTiming:
    """Whole-network multi-node timing."""

    network: str
    architecture: str
    cluster: ClusterConfig
    layers: list[ClusterLayerTiming]

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)


def _partition_filters(work: ConvWork, num_nodes: int) -> list[int]:
    """Filters per node, group-aware (each group splits independently)."""
    per_group = work.filters_per_group
    filters_per_node = ceil_div(per_group, num_nodes)
    counts = []
    remaining = per_group
    for _ in range(num_nodes):
        take = min(filters_per_node, remaining)
        counts.append(take)
        remaining -= take
    return [c for c in counts if c > 0]


def _node_work(work: ConvWork, node_filters: int) -> ConvWork:
    """The same window stream with a node's filter share."""
    geometry = dict(work.geometry)
    geometry["num_filters"] = node_filters * work.num_groups
    return ConvWork(
        name=work.name,
        geometry=geometry,
        activations=work.activations,
        is_first=work.is_first,
    )


def cluster_network_timing(
    network: Network,
    conv_inputs: dict,
    cluster: ClusterConfig,
    architecture: str = "dadiannao",
) -> ClusterTiming:
    """Timing of one network over ``cluster.num_nodes`` nodes.

    ``architecture`` names any registered backend that models activations
    alone (its ``NetworkTiming.architecture`` string).
    """
    backend = get_backend(architectures()[architecture])
    layers: list[ClusterLayerTiming] = []
    data_bytes = cluster.node.data_bits // 8
    for work in conv_works_from_inputs(network, conv_inputs):
        shares = _partition_filters(work, cluster.num_nodes)
        slowest = 0
        for node_filters in set(shares):
            node_cycles = backend.layer_timing(
                _node_work(work, node_filters), cluster.node
            ).cycles
            slowest = max(slowest, node_cycles)
        input_bytes = work.activations.size * data_bytes
        broadcast = 0
        if cluster.num_nodes > 1:
            raw = input_bytes / cluster.bytes_per_cycle
            broadcast = int(raw * (1.0 - cluster.broadcast_overlap))
        layers.append(
            ClusterLayerTiming(
                name=work.name,
                kind="conv",
                compute_cycles=slowest,
                broadcast_cycles=broadcast,
                nodes_used=len(shares),
            )
        )
    for timing in other_layers_timing(network, cluster.node):
        layers.append(
            ClusterLayerTiming(
                name=timing.name,
                kind=timing.kind,
                compute_cycles=timing.cycles,
                broadcast_cycles=0,
                nodes_used=1,
            )
        )
    return ClusterTiming(
        network=network.name,
        architecture=architecture,
        cluster=cluster,
        layers=layers,
    )


def nodes_required(network: Network, node_config) -> int:
    """Minimum nodes so the heaviest layer's synapses fit in aggregate SB
    and the largest activation fits in aggregate NM — the sizing rule of
    Section IV-A ('multiple nodes ... for larger DNNs')."""
    data_bytes = node_config.data_bits // 8
    macs = network.macs_per_layer()
    max_synapse_bytes = 0
    for layer in network.layers:
        if layer.name not in macs:
            continue
        if layer.is_conv:
            geom = network.conv_geometry(layer)
            synapses = (
                geom["num_filters"]
                * (geom["in_depth"] // layer.groups)
                * layer.kernel
                * layer.kernel
            )
        else:  # fc
            in_shape = network.input_shape_of(layer.name)
            synapses = layer.num_filters * in_shape[0] * in_shape[1] * in_shape[2]
        max_synapse_bytes = max(max_synapse_bytes, synapses * data_bytes)

    max_act_bytes = 0
    for layer in network.layers:
        d, h, w = network.output_shape(layer.name)
        max_act_bytes = max(max_act_bytes, d * h * w * data_bytes)

    sb_nodes = ceil_div(max_synapse_bytes, int(node_config.sb_bytes_total))
    nm_nodes = ceil_div(
        max_act_bytes, int(node_config.nm_mbytes * 1024 * 1024)
    )
    return max(1, sb_nodes, nm_nodes)


def capacity_report(network: Network, node_config) -> dict[str, float]:
    """Capacity summary used by the sizing example and tests."""
    data_bytes = node_config.data_bits // 8
    largest_act = max(
        (
            network.output_shape(layer.name)[0]
            * network.output_shape(layer.name)[1]
            * network.output_shape(layer.name)[2]
            for layer in network.layers
        ),
        default=0,
    )
    return {
        "nodes_required": nodes_required(network, node_config),
        "largest_activation_mb": largest_act * data_bytes / (1024 * 1024),
        "nm_capacity_mb": node_config.nm_mbytes,
        "sb_capacity_mb": node_config.sb_mbytes_per_unit * node_config.num_units,
    }
