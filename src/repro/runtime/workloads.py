"""The 80-20 seed sweep on the batch engine.

:func:`eighty_twenty_seed_sweep` runs the 80-20 cortical network for a
list of seeds.  With ``batched=True`` (default) the replicas are stacked
into one :class:`~repro.runtime.batch.BatchedNetwork` and advanced in
fused ``(B, N)`` updates; with ``batched=False`` the same networks are
run through the sequential ``SNNNetwork`` loop (the baseline the
batched-runtime benchmark measures against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..snn.analysis import SpikeRaster, rhythm_summary
from ..snn.eighty_twenty import EightyTwentyConfig, build_eighty_twenty, eighty_twenty_config
from ..snn.network import SNNNetwork
from .batch import BatchedNetwork
from .drives import compile_batched_external

__all__ = [
    "SeedSweepResult",
    "build_eighty_twenty_replicas",
    "batched_thalamic_provider",
    "eighty_twenty_seed_sweep",
]


@dataclass
class SeedSweepResult:
    """Rasters plus per-replica rhythm summaries of one seed sweep."""

    seeds: List[int]
    rasters: List[SpikeRaster]
    summaries: List[Dict[str, Any]]
    backend: str
    batched: bool

    @property
    def mean_rate_hz(self) -> float:
        """Mean firing rate across all replicas."""
        if not self.rasters:
            return 0.0
        return float(np.mean([r.mean_rate_hz() for r in self.rasters]))


def build_eighty_twenty_replicas(
    seeds: Sequence[int],
    *,
    backend: str = "fixed",
    num_neurons: Optional[int] = None,
    current_mode: str = "recompute",
    h_shift: int = 1,
) -> List[SNNNetwork]:
    """One freshly built 80-20 network per seed (ready for stacking).

    Every network draws its parameters, weights and thalamic-noise stream
    from its own seeded generator, exactly as a sequential
    :func:`repro.snn.eighty_twenty.run_eighty_twenty` call would.
    """
    if backend not in ("fixed", "float64"):
        raise ValueError(f"backend {backend!r} is not a network-level backend")
    networks: List[SNNNetwork] = []
    for seed in seeds:
        net_def = build_eighty_twenty(eighty_twenty_config(num_neurons, int(seed)))
        if backend == "float64":
            networks.append(net_def.float_network())
        else:
            networks.append(net_def.fixed_network(h_shift=h_shift, current_mode=current_mode))
    return networks


def batched_thalamic_provider(
    configs: Sequence[EightyTwentyConfig], *, seed: int = 0
) -> Callable[[int], np.ndarray]:
    """Fully-vectorised thalamic noise for a batch of 80-20 replicas.

    Draws the whole ``(B, N)`` input in one generator call per step and
    scales the excitatory/inhibitory columns, instead of two draws plus a
    concatenation per replica.  The noise is statistically identical to
    the per-replica streams but comes from a single batch generator, so
    runs using this provider are *not* bit-comparable with sequential
    per-replica runs — use per-replica providers (the default) for
    equivalence checks.
    """
    profiles = {
        (c.num_excitatory, c.num_inhibitory, c.thalamic_excitatory, c.thalamic_inhibitory)
        for c in configs
    }
    if len(profiles) != 1:
        raise ValueError(
            "all replicas must share the excitatory/inhibitory split and thalamic scales"
        )
    num_exc, num_inh, _, _ = next(iter(profiles))
    scale = np.concatenate(
        [
            np.full(num_exc, configs[0].thalamic_excitatory),
            np.full(num_inh, configs[0].thalamic_inhibitory),
        ]
    )
    rng = np.random.default_rng(seed)
    batch = len(configs)

    def provider(step: int) -> np.ndarray:
        return rng.standard_normal((batch, num_exc + num_inh)) * scale

    return provider


def eighty_twenty_seed_sweep(
    seeds: Sequence[int],
    *,
    num_steps: int = 1000,
    backend: str = "fixed",
    num_neurons: Optional[int] = None,
    current_mode: str = "recompute",
    batched: bool = True,
    fused: bool = False,
) -> SeedSweepResult:
    """Run the 80-20 network once per seed and summarise every raster.

    Parameters
    ----------
    batched:
        ``True`` stacks the replicas into a :class:`BatchedNetwork`;
        ``False`` runs the identical sequential loop (baseline).
    fused:
        With ``batched=True``, additionally vectorise the synaptic
        propagation and the thalamic noise across the batch (the
        high-throughput mode; see :mod:`repro.runtime.batch` for the
        exactness trade-off); the batch noise generator is seeded with
        the first sweep seed.
    """
    seeds = [int(s) for s in seeds]
    networks = build_eighty_twenty_replicas(
        seeds, backend=backend, num_neurons=num_neurons, current_mode=current_mode
    )
    if not batched:
        rasters = [net.run(num_steps) for net in networks]
    elif fused:
        configs = [eighty_twenty_config(num_neurons, seed) for seed in seeds]
        provider = batched_thalamic_provider(configs, seed=seeds[0])
        batch = BatchedNetwork.from_networks(
            networks, synapse_mode="fused", batched_external=provider
        )
        rasters = batch.run(num_steps)
    else:
        # The per-replica thalamic closures compile into one bit-exact
        # vectorised provider (per-replica streams pregenerated in
        # chunks), so the exact sweep stays bit-identical to the
        # sequential loop while skipping B Python calls per step.
        batch = BatchedNetwork.from_networks(
            networks,
            synapse_mode="exact",
            batched_external=compile_batched_external(networks),
        )
        rasters = batch.run(num_steps)
    summaries = []
    for seed, raster in zip(seeds, rasters):
        summary = rhythm_summary(raster)
        summary["seed"] = seed
        summary["backend"] = backend
        summaries.append(summary)
    return SeedSweepResult(
        seeds=seeds, rasters=rasters, summaries=summaries, backend=backend, batched=batched
    )
