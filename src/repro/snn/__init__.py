"""Spiking-neural-network substrate of the IzhiRISC-V reproduction.

Double-precision and NPU-bit-exact fixed-point Izhikevich populations,
synaptic connectivity containers, the network simulation engine, the
80-20 cortical workload and spike-train analysis utilities.
"""

from .analysis import (
    SpikeRaster,
    band_power,
    histogram_similarity,
    interspike_intervals,
    isi_histogram,
    population_rate,
    render_ascii_raster,
    rhythm_summary,
)
from .eighty_twenty import (
    EightyTwentyConfig,
    EightyTwentyNetwork,
    build_eighty_twenty,
    eighty_twenty_config,
    run_eighty_twenty,
)
from .fixed_izhikevich import FixedPointPopulation, decay_current_raw
from .izhikevich import SPIKE_THRESHOLD_MV, IzhikevichPopulation, euler_step, izhikevich_derivatives
from .network import SNNNetwork
from .synapse import CurrentState, DenseSynapses, SparseSynapses

__all__ = [
    "SpikeRaster",
    "band_power",
    "histogram_similarity",
    "interspike_intervals",
    "isi_histogram",
    "population_rate",
    "render_ascii_raster",
    "rhythm_summary",
    "EightyTwentyConfig",
    "EightyTwentyNetwork",
    "build_eighty_twenty",
    "eighty_twenty_config",
    "run_eighty_twenty",
    "FixedPointPopulation",
    "decay_current_raw",
    "SPIKE_THRESHOLD_MV",
    "IzhikevichPopulation",
    "euler_step",
    "izhikevich_derivatives",
    "SNNNetwork",
    "CurrentState",
    "DenseSynapses",
    "SparseSynapses",
]
