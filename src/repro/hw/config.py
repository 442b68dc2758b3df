"""Architecture configuration shared by the baseline and CNV models.

The paper's node (Section IV-A) has 16 units; each unit processes 16 input
neurons and 256 synapses from 16 filters per cycle.  All of these are
"design time parameters that could be changed", so they are configuration
here — the ablation benchmarks vary brick size and lane counts, and the
structural micro-simulator uses scaled-down configs for tractable
cycle-by-cycle runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ArchConfig", "PAPER_CONFIG", "small_config"]


@dataclass(frozen=True)
class ArchConfig:
    """Geometry and technology parameters of one accelerator node.

    Attributes
    ----------
    num_units:
        NFUs per node (16 in DaDianNao/CNV).
    neuron_lanes:
        Neuron lanes per unit; equals the number of CNV subunits per unit
        and the fetch-block / brick width in neurons.
    filters_per_unit:
        Filter lanes per unit; each neuron lane feeds this many synapse
        sublanes (16 x 16 = 256 multipliers per unit).
    brick_size:
        Neurons per ZFNAf brick.  The paper uses 16 (equal to
        ``neuron_lanes``), giving 4-bit offsets.
    data_bits:
        Neuron/synapse width in bits (16-bit fixed point).
    frequency_ghz:
        Clock frequency used to convert cycles to seconds (1 GHz).
    nm_mbytes, sb_mbytes_per_unit:
        Neuron Memory (4 MB central eDRAM) and per-unit Synapse Buffer
        capacity (2 MB x 16 units = 32 MB).
    nbin_entries:
        Depth of each (sub)unit NBin (64 entries, Section IV-B).
    offchip_gbytes_per_sec:
        Off-chip bandwidth for streaming synapses that exceed SB capacity.
        ``None`` models perfectly-overlapped prefetch (compute-bound FC
        layers), which matches the paper's conv-dominated activity
        breakdowns; see DESIGN.md.
    first_layer_encoded:
        CNV processes the first conv layer unencoded (raw 3-channel image);
        a per-layer software flag selects the mode (Section IV-B).  Kept
        for ablation.
    empty_brick_cycles:
        Cycles a CNV neuron lane spends on a brick with no non-zero
        neurons.  1 models the NM-bank one-brick-per-cycle supply limit
        (Section IV-B3); 0 models a free skip (ablation).
    fetch_packing:
        How the baseline packs a window into fetch blocks when the input
        depth is not a multiple of ``neuron_lanes`` (only conv1 and
        google's depth-24 layers in practice).  ``"window"`` (default)
        packs the whole (features, x, y) traversal densely — consistent
        with Section II's "time increases mostly linearly with the number
        of elements" and the paper's ~21% average conv1 runtime share.
        ``"row"`` restricts blocks to NM-contiguous window rows
        (``Fy * ceil(Fx*i/16)`` cycles), an ablation that makes shallow
        first layers costlier, toward google's 35% conv1 share.
    """

    num_units: int = 16
    neuron_lanes: int = 16
    filters_per_unit: int = 16
    brick_size: int = 16
    data_bits: int = 16
    frequency_ghz: float = 1.0
    nm_mbytes: float = 4.0
    sb_mbytes_per_unit: float = 2.0
    nbin_entries: int = 64
    offchip_gbytes_per_sec: float | None = None
    first_layer_encoded: bool = False
    empty_brick_cycles: int = 1
    fetch_packing: str = "window"

    def __post_init__(self) -> None:
        if self.num_units <= 0 or self.neuron_lanes <= 0 or self.filters_per_unit <= 0:
            raise ValueError("unit geometry must be positive")
        if self.brick_size <= 0:
            raise ValueError("brick_size must be positive")
        if self.empty_brick_cycles not in (0, 1):
            raise ValueError("empty_brick_cycles must be 0 or 1")
        if self.fetch_packing not in ("window", "row"):
            raise ValueError("fetch_packing must be 'window' or 'row'")

    @property
    def filters_per_pass(self) -> int:
        """Filters processed concurrently across the node (256 in the paper)."""
        return self.num_units * self.filters_per_unit

    @property
    def multipliers_per_unit(self) -> int:
        return self.neuron_lanes * self.filters_per_unit

    @property
    def offset_bits(self) -> int:
        """Bits needed for a ZFNAf offset within one brick."""
        return max(1, (self.brick_size - 1).bit_length())

    @property
    def sb_bytes_total(self) -> float:
        return self.sb_mbytes_per_unit * self.num_units * 1024 * 1024

    def with_(self, **kwargs) -> "ArchConfig":
        """Functional update helper (``dataclasses.replace`` wrapper)."""
        return replace(self, **kwargs)


#: The configuration evaluated in the paper.
PAPER_CONFIG = ArchConfig()


def small_config(
    num_units: int = 2,
    neuron_lanes: int = 4,
    filters_per_unit: int = 2,
    brick_size: int = 4,
) -> ArchConfig:
    """A scaled-down config for structural cycle-by-cycle simulation/tests."""
    return ArchConfig(
        num_units=num_units,
        neuron_lanes=neuron_lanes,
        filters_per_unit=filters_per_unit,
        brick_size=brick_size,
        nbin_entries=8,
    )
