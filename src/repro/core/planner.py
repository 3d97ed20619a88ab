"""Automated in-situ/off-line split planning (paper §4.1).

The paper chose the 300,000-particle threshold manually but sketches the
automation this module implements:

    "First, one would estimate the time the code will spend in I/O,
    t_io, if the analysis were off-line. ... The mass of the largest
    halo, m_max_io, that could be analyzed in time less than t_io,
    would then be estimated. ... During the simulation, all halo
    finding occurs in-situ, and the mass of the largest halo,
    m_max_sim, can be found.  If m_max_sim < m_max_io, the centers for
    all halos can be computed in-situ.  If m_max_sim > m_max_io, then
    all particles in halos with mass greater than m_max_io should be
    saved out for off-line center-finding.  To set up an optimized
    co-scheduling job, one would first estimate the time, T, to analyze
    all halos ... From this, the time, t_max, it will take to analyze
    the largest halo can be estimated.  The number of ranks for the
    co-scheduling task should be set equal to T/t_max.  The halos
    should be distributed so that each rank has roughly the same
    workload."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.centers import center_finding_cost
from ..machines.cost import CostModel
from ..machines.machine import MachineSpec
from .workload import WorkloadProfile

__all__ = ["SplitPlan", "plan_split", "lpt_assign"]


@dataclass(frozen=True)
class SplitPlan:
    """Outcome of the automated planning rule."""

    t_io: float
    m_max_io: int
    m_max_sim: int
    threshold: int | None  # None = everything in-situ
    offload_total_seconds: float  # T
    offload_max_seconds: float  # t_max
    n_offline_ranks: int
    assignment: np.ndarray  # offloaded halo -> off-line rank
    offload_mask: np.ndarray  # over the profile's halos

    @property
    def all_in_situ(self) -> bool:
        return self.threshold is None


def lpt_assign(costs: np.ndarray, n_ranks: int) -> np.ndarray:
    """Longest-processing-time greedy assignment of jobs to ranks.

    Classic 4/3-approximate makespan scheduling: sort jobs by descending
    cost, give each to the currently least-loaded rank.  Returns the
    rank index per job.
    """
    costs = np.asarray(costs, dtype=float)
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    assignment = np.empty(len(costs), dtype=np.intp)
    loads = np.zeros(n_ranks)
    for j in np.argsort(-costs, kind="stable"):
        r = int(np.argmin(loads))
        assignment[j] = r
        loads[r] += costs[j]
    return assignment


def plan_split(
    profile: WorkloadProfile,
    cost: CostModel,
    machine: MachineSpec,
    analysis_machine: MachineSpec | None = None,
) -> SplitPlan:
    """Apply the paper's automated split rule to a workload.

    ``t_io`` is the off-line I/O + redistribution cost the in-situ
    analysis of a halo must undercut to be worthwhile; the threshold is
    the largest halo analyzable within ``t_io`` on one node.
    """
    analysis_machine = analysis_machine or machine

    # off-line I/O tax: write + read + redistribute the Level 1 data
    nbytes = profile.level1_bytes
    t_io = 2.0 * cost.io_seconds(nbytes, profile.n_sim_nodes) + cost.redistribute_seconds(
        nbytes, profile.n_sim_nodes
    )

    rate = cost.pair_rate(machine)
    # pairs(c) = c(c-1) <= t_io * rate  ->  c = floor of positive root
    m_max_io = int(0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_io * rate)))
    m_max_sim = profile.largest_halo

    if m_max_sim <= m_max_io:
        return SplitPlan(
            t_io=t_io,
            m_max_io=m_max_io,
            m_max_sim=m_max_sim,
            threshold=None,
            offload_total_seconds=0.0,
            offload_max_seconds=0.0,
            n_offline_ranks=0,
            assignment=np.empty(0, dtype=np.intp),
            offload_mask=np.zeros(profile.n_halos, dtype=bool),
        )

    threshold = m_max_io
    offload_mask = profile.halo_counts > threshold
    off_counts = profile.halo_counts[offload_mask]
    off_weights = profile.halo_weight[offload_mask]
    off_rate = cost.pair_rate(analysis_machine)
    off_seconds = center_finding_cost(off_counts) / off_rate
    total = float((off_seconds * off_weights).sum())
    t_max = float(off_seconds.max())
    n_ranks = max(int(np.ceil(total / t_max)), 1)
    assignment = lpt_assign(off_seconds, n_ranks)
    return SplitPlan(
        t_io=t_io,
        m_max_io=m_max_io,
        m_max_sim=m_max_sim,
        threshold=threshold,
        offload_total_seconds=total,
        offload_max_seconds=t_max,
        n_offline_ranks=n_ranks,
        assignment=assignment,
        offload_mask=offload_mask,
    )
