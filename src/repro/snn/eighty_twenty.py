"""Izhikevich's "80-20" cortical network (1000 neurons, 80 % excitatory).

This is the first evaluation workload of the paper (§VI-B, Fig. 2, Fig. 3,
Table V): Izhikevich's 2003 pulse-coupled network of 800 excitatory
(regular-spiking-like, with per-neuron heterogeneity) and 200 inhibitory
(fast-spiking-like) neurons, fully connected with random weights and
driven by per-step thalamic noise.  The population exhibits alpha and
gamma rhythms visible in the raster plot.

The builder produces either the double-precision reference network or the
fixed-point network running on the NPU datapath, using the same weights
and the same thalamic-noise stream so the comparison isolates the effect
of the 16-bit arithmetic (paper Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .analysis import SpikeRaster, isi_histogram, rhythm_summary
from .fixed_izhikevich import FixedPointPopulation
from .izhikevich import IzhikevichPopulation
from .network import SNNNetwork
from .synapse import DenseSynapses

__all__ = [
    "EightyTwentyConfig",
    "EightyTwentyNetwork",
    "build_eighty_twenty",
    "eighty_twenty_config",
    "run_eighty_twenty",
]


@dataclass(frozen=True)
class EightyTwentyConfig:
    """Construction parameters of the 80-20 network."""

    num_excitatory: int = 800
    num_inhibitory: int = 200
    #: Scale of excitatory synaptic weights (Izhikevich 2003 uses 0.5).
    excitatory_weight: float = 0.5
    #: Scale of inhibitory synaptic weights (Izhikevich 2003 uses -1.0).
    inhibitory_weight: float = -1.0
    #: Standard deviation of the thalamic input to excitatory neurons.
    thalamic_excitatory: float = 5.0
    #: Standard deviation of the thalamic input to inhibitory neurons.
    thalamic_inhibitory: float = 2.0
    seed: int = 2003

    @property
    def num_neurons(self) -> int:
        return self.num_excitatory + self.num_inhibitory


def eighty_twenty_config(num_neurons: Optional[int], seed: int) -> EightyTwentyConfig:
    """The canonical 80/20 excitatory/inhibitory split for a scaled network.

    The one place that decides the split: the batched replicas, their
    vectorised noise provider and the generated ISA workload all build
    from it, so they agree on which columns are excitatory.  ``None``
    selects the paper-scale 800/200 network.
    """
    if num_neurons is None:
        return EightyTwentyConfig(seed=seed)
    num_exc = int(round(0.8 * num_neurons))
    return EightyTwentyConfig(
        num_excitatory=num_exc, num_inhibitory=num_neurons - num_exc, seed=seed
    )


@dataclass
class EightyTwentyNetwork:
    """The assembled network plus the shared random streams."""

    config: EightyTwentyConfig
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    weights: np.ndarray
    rng: np.random.Generator

    @property
    def num_neurons(self) -> int:
        return self.config.num_neurons

    def thalamic_input(self, step: int) -> np.ndarray:
        """Fresh thalamic noise for one network step (Izhikevich 2003)."""
        cfg = self.config
        return np.concatenate(
            [
                cfg.thalamic_excitatory * self.rng.standard_normal(cfg.num_excitatory),
                cfg.thalamic_inhibitory * self.rng.standard_normal(cfg.num_inhibitory),
            ]
        )

    # ------------------------------------------------------------------ #
    def float_network(self) -> SNNNetwork:
        """Double-precision reference network (the "MATLAB" column of Fig. 3)."""
        population = IzhikevichPopulation.from_parameters(self.a, self.b, self.c, self.d)
        return SNNNetwork(
            population=population,
            synapses=DenseSynapses(self.weights),
            external_input=self.thalamic_input,
        )

    def fixed_network(self, *, h_shift: int = 1, current_mode: str = "recompute") -> SNNNetwork:
        """Fixed-point network bit-exact with the IzhiRISC-V NPU."""
        population = FixedPointPopulation.from_float_parameters(
            self.a, self.b, self.c, self.d, h_shift=h_shift
        )
        return SNNNetwork(
            population=population,
            synapses=DenseSynapses(self.weights),
            external_input=self.thalamic_input,
            current_mode=current_mode,
        )


def build_eighty_twenty(config: Optional[EightyTwentyConfig] = None) -> EightyTwentyNetwork:
    """Instantiate the 80-20 network exactly as Izhikevich's script does.

    Excitatory neurons: ``(a, b) = (0.02, 0.2)``,
    ``(c, d) = (-65 + 15 r², 8 - 6 r²)`` with ``r ~ U(0, 1)``;
    inhibitory neurons: ``(a, b) = (0.02 + 0.08 r, 0.25 - 0.05 r)``,
    ``(c, d) = (-65, 2)``.  Weights: excitatory columns ``0.5 U(0, 1)``,
    inhibitory columns ``-U(0, 1)``.
    """
    cfg = config if config is not None else EightyTwentyConfig()
    rng = np.random.default_rng(cfg.seed)
    ne, ni = cfg.num_excitatory, cfg.num_inhibitory

    re = rng.random(ne)
    ri = rng.random(ni)
    a = np.concatenate([0.02 * np.ones(ne), 0.02 + 0.08 * ri])
    b = np.concatenate([0.2 * np.ones(ne), 0.25 - 0.05 * ri])
    c = np.concatenate([-65.0 + 15.0 * re**2, -65.0 * np.ones(ni)])
    d = np.concatenate([8.0 - 6.0 * re**2, 2.0 * np.ones(ni)])
    weights = np.concatenate(
        [
            cfg.excitatory_weight * rng.random((ne + ni, ne)),
            cfg.inhibitory_weight * rng.random((ne + ni, ni)),
        ],
        axis=1,
    )
    return EightyTwentyNetwork(config=cfg, a=a, b=b, c=c, d=d, weights=weights, rng=rng)


def run_eighty_twenty(
    *,
    num_steps: int = 1000,
    backend: str = "fixed",
    config: Optional[EightyTwentyConfig] = None,
    h_shift: int = 1,
    current_mode: str = "recompute",
) -> Tuple[SpikeRaster, dict]:
    """Run the 80-20 workload and return the raster plus a rhythm summary.

    Parameters
    ----------
    num_steps:
        Simulation length in 1 ms steps (the paper uses 1000).
    backend:
        ``"float64"`` for the double-precision reference or ``"fixed"``
        for the NPU fixed-point datapath.
    """
    net_def = build_eighty_twenty(config)
    if backend == "float64":
        network = net_def.float_network()
    elif backend == "fixed":
        network = net_def.fixed_network(h_shift=h_shift, current_mode=current_mode)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    raster = network.run(num_steps)
    summary = rhythm_summary(raster)
    summary["backend"] = backend
    edges, counts = isi_histogram(raster)
    summary["isi_mode_ms"] = float(edges[int(np.argmax(counts))]) if counts.any() else 0.0
    return raster, summary
