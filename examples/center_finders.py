#!/usr/bin/env python
"""The three MBP center finders on one halo, timed side by side.

The paper writes its brute-force center finder once on PISTON/Thrust and
reports "approximately a factor of fifty speed-up" on Titan's GPUs over
the serial CPU code (§3.3.2).  Here the serial CPU code is played by
``potential_reference`` (a per-pair Python loop) and the GPU path by the
one blocked vectorized kernel behind ``mbp_center_bruteforce``; the
serial A* search of Ref. [10] is the third finder.  All three must pick
the same most-bound particle.

A* hands halos of at most 512 particles straight to the blocked kernel,
so its pruning is shown on a second, 2000-particle halo.

Usage::

    python examples/center_finders.py
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.analysis import mbp_center_astar, mbp_center_bruteforce, potential_reference


def plummer_halo(n: int, seed: int = 7) -> np.ndarray:
    """Sample a Plummer-profile halo (a realistic dense structure)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.001, 0.999, n)
    r = 1.0 / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return r[:, None] * v + 10.0


def best_of(fn: Callable[[], Any], rounds: int) -> tuple[Any, float]:
    """``fn()``'s result and its fastest wall time over ``rounds`` calls."""
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def main() -> None:
    halo = plummer_halo(400)
    print(f"halo: {len(halo)} particles (Plummer profile)\n")

    phi_ref, t_ref = best_of(lambda: potential_reference(halo), rounds=1)
    ref = int(np.argmin(phi_ref))
    (kernel, _, _), t_kernel = best_of(lambda: mbp_center_bruteforce(halo), rounds=5)
    (astar, _, _), t_astar = best_of(lambda: mbp_center_astar(halo), rounds=5)
    for label, idx, seconds in [
        ("potential_reference (CPU loop)", ref, t_ref),
        ("blocked kernel (vector)", kernel, t_kernel),
        ("A* search", astar, t_astar),
    ]:
        print(f"{label:32s}: center particle {idx:4d}  {seconds * 1e3:8.1f} ms")
    assert ref == kernel == astar, f"finders disagree: {ref}, {kernel}, {astar}"
    print("\nall three found the same most-bound particle.")
    print(f"blocked kernel over the CPU loop: {t_ref / t_kernel:.0f}x "
          f"(the paper's GPU factor: ~50x)")

    big = plummer_halo(2000)
    (i_b, _, brute), t_b = best_of(lambda: mbp_center_bruteforce(big), rounds=3)
    (i_a, _, stats), t_a = best_of(lambda: mbp_center_astar(big), rounds=3)
    assert i_a == i_b, f"A* and brute force disagree on {len(big)} particles"
    print(f"\n{len(big)}-particle halo, same center: A* {t_a * 1e3:.1f} ms, "
          f"kernel {t_b * 1e3:.1f} ms")
    print(f"A* exact potentials: {stats.exact_potentials} of {len(big)}; pair operations "
          f"{stats.pair_evaluations:,} vs {brute.pair_evaluations:,} for brute force")


if __name__ == "__main__":
    main()
