"""Calibrated cost model: workload quantities → paper-scale timings.

The reproduction runs *real* (small) simulations and analyses, measuring
machine-independent workload quantities — particle counts, potential
pair-interaction counts, bytes written/read/moved.  This module converts
those quantities into projected wall-clock seconds on the paper's
machines, using a handful of rate constants calibrated against anchor
numbers quoted in the paper (Table 4's measured phases):

========================  ===========================================
anchor (paper)            constant calibrated
========================  ===========================================
halo find, 1024³ / 32     ``fof_rate`` (particles/s/node, CPU path)
  nodes: ~300 s
centers ≤ 300k: ~61 s;    ``pair_rate_gpu`` (pair interactions/s/node
centers all: ~422 s         on a Titan K20X)
"factor of fifty          ``gpu_cpu_factor = 50``
  speed-up"
write/read Level 1:       ``io_rate`` (bytes/s/node, Lustre) with an
  5 s each                  aggregate cap
redistribute Level 1:     ``redist_rate`` (bytes/s/node)
  435 s; Level 2: 75 s
sim: 772 s                ``sim_rate`` (particle-steps/s/node)
subhalos: slowest node    ``subhalo_coeff`` (n log n per-halo model)
  8172 s on 32 nodes
========================  ===========================================

All projections then follow from the model — the reproduced tables are
*predictions* of the calibrated model driven by measured workload
distributions, not transcriptions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .machine import MachineSpec

__all__ = ["CostModel", "PAPER_CALIBRATION"]


@dataclass(frozen=True)
class CostModel:
    """Rate constants (per Titan node unless noted) and conversions."""

    #: FOF halo-finding throughput, particles/s/node (CPU code path).
    fof_rate: float = 1.1e5
    #: MBP brute-force pair interactions/s/node on a Titan K20X GPU.
    pair_rate_gpu: float = 1.54e10
    #: GPU-to-CPU speed ratio for the center finder (paper: "approximately
    #: a factor of fifty speed-up").
    gpu_cpu_factor: float = 50.0
    #: File-system bandwidth per node, bytes/s, and the aggregate cap
    #: (Lustre saturates well below nodes x per-node rate at scale).
    #: The floor models small-client-count transfers, which see a larger
    #: per-client share of the OSTs (calibrated from the 4-node Level 2
    #: read taking 3 s): effective bw = max(min(n*rate, cap), floor).
    io_rate_per_node: float = 2.42e8
    io_aggregate_cap: float = 35.0e9
    io_floor: float = 2.58e9
    #: Particle redistribution: per-node rate with a small-n floor
    #: (4-node Level 2 redistribution achieved ~100 MB/s aggregate while
    #: 32 nodes managed ~89 MB/s — all-to-all congestion dominates at
    #: small scale): effective bw = max(n*rate, floor).
    redist_rate: float = 2.78e6
    redist_floor: float = 9.0e7
    #: Simulation throughput, particle-steps/s/node.
    sim_rate: float = 2.6e6
    #: Subhalo-finding cost coefficient: seconds/node = coeff * sum over
    #: parent halos of n*log2(n) (serial tree code, CPU only).
    subhalo_coeff: float = 2.7e-5

    # -- per-phase projections ------------------------------------------------

    def sim_seconds(self, n_particles: int, n_steps: int, n_nodes: int) -> float:
        """Wall seconds for the main simulation."""
        return n_particles * n_steps / (self.sim_rate * n_nodes)

    def fof_seconds(self, particles_per_node: float) -> float:
        """Wall seconds of FOF on the busiest node (find is well balanced,
        so the mean per-node load is representative)."""
        return particles_per_node / self.fof_rate

    def pair_rate(self, machine: MachineSpec, backend: str = "gpu") -> float:
        """Pair-interaction rate per node on ``machine``."""
        if backend == "gpu":
            if not machine.has_gpu:
                raise ValueError(f"{machine.name} has no GPUs")
            return self.pair_rate_gpu * machine.gpu_factor
        return self.pair_rate_gpu / self.gpu_cpu_factor

    def center_seconds(
        self, pairs: float | np.ndarray, machine: MachineSpec, backend: str = "gpu"
    ) -> float | np.ndarray:
        """Wall seconds to evaluate ``pairs`` pair interactions on one node."""
        return np.asarray(pairs, dtype=float) / self.pair_rate(machine, backend)

    def io_seconds(self, nbytes: float, n_nodes: int) -> float:
        """Wall seconds to write or read ``nbytes`` with ``n_nodes`` writers."""
        bandwidth = max(
            min(self.io_rate_per_node * n_nodes, self.io_aggregate_cap), self.io_floor
        )
        return nbytes / bandwidth

    def redistribute_seconds(self, nbytes: float, n_nodes: int) -> float:
        """Wall seconds to redistribute ``nbytes`` across ``n_nodes``."""
        bandwidth = max(self.redist_rate * n_nodes, self.redist_floor)
        return nbytes / bandwidth

    def subhalo_seconds(self, parent_counts: np.ndarray) -> float:
        """Wall seconds on one node to find subhalos in the given parents."""
        parent_counts = np.asarray(parent_counts, dtype=float)
        if parent_counts.size == 0:
            return 0.0
        work = np.sum(parent_counts * np.log2(np.maximum(parent_counts, 2.0)))
        return float(self.subhalo_coeff * work)

    # -- calibration helpers ---------------------------------------------------

    def with_anchor_fof(self, particles_per_node: float, seconds: float) -> "CostModel":
        """Recalibrate ``fof_rate`` against a measured find time."""
        return replace(self, fof_rate=particles_per_node / seconds)

    def with_anchor_sim(
        self, n_particles: int, n_steps: int, n_nodes: int, seconds: float
    ) -> "CostModel":
        """Recalibrate ``sim_rate`` against a measured simulation time."""
        return replace(self, sim_rate=n_particles * n_steps / (seconds * n_nodes))


#: Rates calibrated against the paper's Table 4 anchors (1024³ particles
#: on 32 Titan nodes, last time step):
#:
#: * sim 772 s           -> sim_rate = 1024³·60/(772·32) = 2.6e6
#: * find ≈ 300 s        -> fof_rate = 1024³/32/300 = 1.12e5
#: * centers (largest halo 2,548,321 particles dominates the slowest
#:   node at ~422 s of the 722 s full in-situ analysis)
#:                        -> pair_rate_gpu = 2548321²/422 ≈ 1.54e10
#: * write/read Level 1 (36 B × 1024³ = 38.7 GB) at 5 s
#:                        -> io_rate_per_node = 38.7e9/5/32 = 2.42e8
#: * redistribute Level 1 435 s -> redist_rate = 38.7e9/435/32 = 2.78e6
#: * subhalos slowest node 8172 s (≈1/32 of halos > 5000 particles)
#:                        -> subhalo_coeff fitted in the benchmarks
PAPER_CALIBRATION = CostModel()
