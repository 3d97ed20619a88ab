"""Live workflow driver: execute the full combined pipeline for real.

Unlike :mod:`repro.core.strategies` (which *prices* workflows at paper
scale through the cost model), this module actually runs everything at
mini-HACC scale on the local machine:

1. run the simulation with CosmoTools in-situ analysis (halos, centers
   below the threshold, Level 2 files into a spool directory);
2. a :class:`~repro.machines.listener.Listener` watches the spool and
   fires the off-line analysis job per snapshot (the co-scheduling
   path), or the off-line pass runs after the simulation (the simple
   path);
3. the off-line job reads the Level 2 blocks, finds the MBP centers of
   the off-loaded halos, and writes its own catalog;
4. the in-situ and off-line catalogs are merged into the final Level 3
   product.

This is the code path the integration tests and examples exercise; its
outputs are bit-identical between the simple and co-scheduled variants
(only scheduling differs), and match a full in-situ run with threshold
infinity — the workflow correctness property the paper relies on.

Failure model (see ``docs/failures.md``): every off-line center job
runs under the listener's :class:`~repro.faults.RetryPolicy` (with
``"offline.job"`` fault injection per attempt).  A snapshot whose job
exhausts its retries does **not** abort the campaign — the run
completes with the in-situ leg of the catalog, ``degraded=True``, and
a :class:`~repro.core.accounting.FailureRecord` per missing snapshot,
so a degraded Level 3 product always states exactly what is absent.
"""

from __future__ import annotations

import contextlib
import os
import re
import threading
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Any, Iterator

import numpy as np

from ..analysis.centers import halo_centers
from ..faults import RetryPolicy, get_fault_plan, maybe_inject, resolve_retry
from ..insitu.algorithms import (
    HaloCenterAlgorithm,
    HaloFinderAlgorithm,
    Level2StageAlgorithm,
    Level2WriterAlgorithm,
)
from ..insitu.manager import InSituAnalysisManager
from ..insitu.pipeline import AsyncInSituManager
from ..io.catalog import HaloCatalog, merge_catalogs
from ..io.genericio import GenericIOFile
from ..machines.listener import Listener
from ..machines.staging import StagingArea
from ..obs import RunTelemetry, TelemetryRecorder, get_recorder, set_recorder
from ..obs.journal import RunJournal
from ..sim.hacc import HACCSimulation, SimulationConfig
from .accounting import FailureRecord

__all__ = [
    "CombinedRunResult",
    "offline_center_job",
    "run_combined_workflow",
    "run_intransit_workflow",
    "centers_from_level2_arrays",
]


@dataclass
class CombinedRunResult:
    """Everything a live combined run produced."""

    catalog: HaloCatalog  # merged, complete Level 3
    insitu_catalog: HaloCatalog
    offline_catalog: HaloCatalog
    offloaded_halo_tags: list[int]
    level2_paths: list[str] = field(default_factory=list)
    listener_stats: object | None = None
    #: :class:`~repro.obs.report.RunTelemetry` snapshot of the run
    #: (``None`` when telemetry is disabled — the default).
    telemetry: RunTelemetry | None = None
    #: ``True`` when an off-line leg exhausted its retries: ``catalog``
    #: is then missing the failed snapshots' off-loaded halos (worst
    #: case: the in-situ-only catalog), and ``failures`` says which.
    degraded: bool = False
    failures: list[FailureRecord] = field(default_factory=list)


def centers_from_level2_arrays(
    data: dict[str, np.ndarray],
    particle_mass: float = 1.0,
    softening: float = 1.0e-5,
    method: str = "bruteforce",
    workers: int | None = None,
) -> HaloCatalog:
    """Find MBP centers for a Level 2 bundle (pos/tag/halo_tag arrays).

    ``workers > 1`` routes the batch through the :mod:`repro.exec`
    work-stealing engine — the off-loaded halos are exactly the giant
    ones, so this is where slab-splitting pays off most.
    """
    pos = np.asarray(data["pos"], dtype=float)
    tags = np.asarray(data["tag"], dtype=np.int64)
    halo_tags = np.asarray(data["halo_tag"], dtype=np.int64)
    if len(pos) == 0:
        return HaloCatalog()

    res = halo_centers(
        pos,
        tags,
        halo_tags,
        mass=particle_mass,
        softening=softening,
        method=method,
        workers=workers,
    )
    # One O(n log n) pass instead of the former O(halos × particles)
    # per-tag scan: count every tag once, then gather in result order.
    uniq, uniq_counts = np.unique(halo_tags, return_counts=True)
    counts = uniq_counts[np.searchsorted(uniq, res.halo_tags)].astype(np.int64)
    return HaloCatalog.from_columns(
        halo_tag=res.halo_tags.astype(np.uint64),
        count=counts,
        center=res.centers,
        mbp_tag=res.mbp_tags.astype(np.uint64),
        potential=res.potentials,
        particle_mass=particle_mass,
    )


def offline_center_job(
    level2_path: str | os.PathLike,
    particle_mass: float = 1.0,
    softening: float = 1.0e-5,
    method: str = "bruteforce",
    block: int | None = None,
    workers: int | None = None,
) -> HaloCatalog:
    """The stand-alone analysis driver the listener launches.

    Reads one Level 2 file (or a single block of it, the Moonlight
    single-node-job pattern), groups particles by halo tag, and finds
    each halo's MBP center.  ``workers > 1`` fills the analysis node's
    cores through the :mod:`repro.exec` engine.
    """
    rec = get_recorder()
    with rec.span(
        "offline.center_job", path=os.fspath(level2_path), block=block, workers=workers
    ):
        gio = GenericIOFile(level2_path)
        if block is not None:
            data = gio.read_block(block)
        else:
            data = gio.read_all()
        catalog = centers_from_level2_arrays(
            data,
            particle_mass=particle_mass,
            softening=softening,
            method=method,
            workers=workers,
        )
    rec.counter("offline_jobs_total").inc()
    return catalog


def run_combined_workflow(
    config: SimulationConfig,
    spool_dir: str | os.PathLike,
    threshold: int,
    linking_length_factor: float = 0.2,
    min_count: int = 40,
    n_ranks: int = 8,
    coschedule: bool = False,
    listener_poll: float = 0.1,
    analysis_workers: int | None = None,
    retry: RetryPolicy | None = None,
    journal_dir: str | os.PathLike | None = None,
    run_id: str | None = None,
    spmd_transport=None,
    pipeline_insitu: bool = False,
    analysis_steps: list[int] | None = None,
) -> CombinedRunResult:
    """Run the combined in-situ/off-line workflow for real.

    With ``coschedule=True`` a threaded listener watches the spool while
    the simulation runs and analyzes each Level 2 file as it appears;
    otherwise the off-line pass runs after the simulation completes
    (the "simple" variant).  Results are identical either way.

    ``analysis_workers > 1`` runs every off-line center job on the
    :mod:`repro.exec` multi-process engine (same results, the node's
    cores actually used).

    ``spmd_transport`` selects the halo finder's SPMD substrate
    (``"thread"`` or ``"process"``); ``"process"`` forks
    one OS process per analysis rank for real multi-core FOF.
    ``pipeline_insitu=True`` runs the in-situ chain on a snapshot buffer
    concurrently with the next simulation steps
    (:class:`~repro.insitu.pipeline.AsyncInSituManager`): the catalogs
    are bit-identical to the serial run, but analysis wall time overlaps
    simulation wall time (``WorkflowTimeline.overlap_fraction() > 0``).
    ``analysis_steps`` lists the steps the in-situ chain fires at
    (default: the final step only, the paper's Level 2 cadence); it must
    include ``config.n_steps``, whose catalog is the final product —
    earlier steps' products stay available through the analysis history
    and give the pipelining something to overlap.

    ``retry`` is the listener's submit policy (``None`` → the tree-wide
    default of 3 attempts).  An off-line job that fails every attempt
    (e.g. an ``"offline.job"`` fault with ``always=True``) degrades the
    run instead of aborting it: the result carries ``degraded=True``
    plus one :class:`~repro.core.accounting.FailureRecord` per missing
    snapshot, and ``catalog`` contains whatever legs completed.

    ``journal_dir`` makes the run *durable*: a run directory
    ``<journal_dir>/<run_id>/`` is created with a manifest (config hash,
    seeds, fault plan, code version) and every event / span / metric
    snapshot / failure record streams into its crash-safe journal
    (see :mod:`repro.obs.journal`; explore it with
    ``python -m repro.obs``).  A live recorder is installed for the
    run's duration if telemetry was off.  ``run_id`` names the run
    directory (defaults to the recorder's generated id).
    """
    manifest = {
        "config": {
            "workflow": {
                "kind": "combined",
                "threshold": threshold,
                "linking_length_factor": linking_length_factor,
                "min_count": min_count,
                "n_ranks": n_ranks,
                "coschedule": coschedule,
                "analysis_workers": analysis_workers,
                "spmd_transport": str(spmd_transport) if spmd_transport else None,
                "pipeline_insitu": pipeline_insitu,
                "analysis_steps": analysis_steps,
            },
            "sim": asdict(config),
        },
        "seeds": {"sim": config.seed, "retry": resolve_retry(retry).seed},
    }
    with _journal_scope(journal_dir, run_id, manifest) as outcome:
        rec = get_recorder()
        spool_dir = os.fspath(spool_dir)
        os.makedirs(spool_dir, exist_ok=True)
        last_step = config.n_steps
        steps = sorted(set(analysis_steps)) if analysis_steps is not None else [last_step]
        if last_step not in steps:
            raise ValueError(
                f"analysis_steps must include the final step {last_step} "
                "(its catalog is the run's Level 3 product)"
            )
        rec.event(
            "workflow.start",
            mode="coscheduled" if coschedule else "simple",
            threshold=threshold,
            n_steps=config.n_steps,
            pipeline_insitu=pipeline_insitu,
        )
        manager = _insitu_manager(
            steps,
            Level2WriterAlgorithm(at_steps=steps, output_dir=spool_dir),
            threshold=threshold,
            linking_length_factor=linking_length_factor,
            min_count=min_count,
            n_ranks=n_ranks,
            transport=spmd_transport,
        )
        exec_manager = AsyncInSituManager(manager) if pipeline_insitu else manager

        offline_catalogs: list[tuple[int, HaloCatalog]] = []
        completed_steps: set[int] = set()

        def submit(path: str, step: int, script: str) -> None:
            maybe_inject("offline.job", key=step)
            offline_catalogs.append((step, offline_center_job(path, workers=analysis_workers)))
            completed_steps.add(step)

        sim = HACCSimulation(config, analysis_manager=exec_manager)

        if coschedule:
            listener = Listener(
                spool_dir, "l2_step*.gio", submit, poll_interval=listener_poll, retry=retry
            )
            with rec.span("workflow.sim", coschedule=True):
                listener.start()
                try:
                    sim.run()
                finally:
                    # pipelined analyses must land (Level 2 files written)
                    # before the listener's final poll; close() re-raises
                    # their failures
                    try:
                        if pipeline_insitu:
                            exec_manager.close()
                    finally:
                        listener.stop(final_poll=True)
            level2_paths = sorted(listener.seen)
        else:
            with rec.span("workflow.sim", coschedule=False):
                sim.run()
            if pipeline_insitu:
                exec_manager.close()
            listener = Listener(spool_dir, "l2_step*.gio", submit, retry=retry)
            with rec.span("workflow.offline"):
                # one shot after the run ("queued after sim")
                level2_paths = listener.poll_once()

        # graceful degradation: snapshots whose off-line job exhausted its
        # retries are recorded, not raised — the campaign's other legs stand
        jobs_failed = getattr(listener.stats, "jobs_failed", 0)
        failures = [
            FailureRecord(
                stage="offline",
                key=str(step),
                reason="off-line center job failed every retry attempt",
                attempts=listener.retry.max_attempts,
            )
            for step in sorted(_steps_of(level2_paths) - completed_steps)
        ]
        if failures:
            rec.event(
                "workflow.degraded",
                level="warning",
                missing_steps=[f.key for f in failures],
                jobs_failed=jobs_failed,
            )
        # the Level 3 product is single-epoch: only the final step's
        # off-line catalog merges in (earlier analysis_steps' catalogs
        # stay reachable through manager.history / the spool)
        outcome.result = _merged_result(
            rec,
            manager,
            last_step,
            [cat for step, cat in offline_catalogs if step == last_step],
            {"jobs_failed": jobs_failed, "degraded": bool(failures)},
            level2_paths=list(level2_paths),
            listener_stats=listener.stats,
            degraded=bool(failures),
            failures=failures,
        )
    return outcome.result


@contextlib.contextmanager
def _journal_scope(
    journal_dir: str | os.PathLike | None, run_id: str | None, manifest: dict[str, Any]
) -> Iterator[SimpleNamespace]:
    """Make the enclosed run durable in ``<journal_dir>/<run_id>/``.

    A no-op without ``journal_dir``.  Otherwise it opens the run
    directory and journal (``manifest`` supplies the config and seeds),
    installs a live recorder for the run if telemetry was off, scopes it
    to the run id, and guarantees the journal's terminal records
    (failures, final metrics snapshot, ``run.end``) even when the run
    raises — a crashed run keeps its tail via the journal's ``atexit``
    flush.  The body stores its :class:`CombinedRunResult` on the
    yielded namespace's ``result``.
    """
    outcome = SimpleNamespace(result=None)
    if journal_dir is None:
        yield outcome
        return
    rec = get_recorder()
    previous_rec = None
    if not rec.enabled:
        rec = TelemetryRecorder(run_id=run_id)
        previous_rec = set_recorder(rec)
    rid = run_id or rec.run_id or "run"
    plan = get_fault_plan()
    try:
        journal = RunJournal.create(
            journal_dir,
            rid,
            fault_plan=plan.to_dict() if plan is not None else None,
            **manifest,
        )
        status = "error"
        with rec.run_scope(rid):
            rec.attach_journal(journal)
            try:
                yield outcome
                status = "ok"
            finally:
                result = outcome.result
                for f in result.failures if result is not None else []:
                    journal.failure(dict(f.as_dict(), run=rid))
                journal.metrics_snapshot(rec.metrics.as_dict(), label="final")
                rec.detach_journal()
                journal.close(
                    status=status,
                    degraded=bool(result is not None and result.degraded),
                )
    finally:
        if previous_rec is not None:
            set_recorder(previous_rec)


def _insitu_manager(
    steps: list[int], sink: Any, threshold: int, transport: Any = None, **finder: Any
) -> InSituAnalysisManager:
    """The in-situ chain: FOF, then centers, then ``sink`` (Level 2 out)."""
    manager = InSituAnalysisManager()
    manager.register(HaloFinderAlgorithm(at_steps=steps, transport=transport, **finder))
    manager.register(HaloCenterAlgorithm(at_steps=steps, threshold=threshold))
    manager.register(sink)
    return manager


def _merged_result(
    rec: Any,
    manager: InSituAnalysisManager,
    last_step: int,
    offline_catalogs: list[HaloCatalog],
    done_fields: dict[str, Any],
    **result_fields: Any,
) -> CombinedRunResult:
    """Merge the final step's in-situ catalog with its off-line legs."""
    ctx = manager.history[last_step]
    insitu_catalog: HaloCatalog = ctx.store["centers"]["catalog"]
    offloaded = ctx.store["centers"]["offloaded_halo_tags"]
    with rec.span("workflow.merge"):
        offline_catalog = (
            merge_catalogs(*offline_catalogs) if offline_catalogs else HaloCatalog()
        )
        merged = merge_catalogs(insitu_catalog, offline_catalog)
    rec.event("workflow.done", halos=len(merged), offloaded=len(offloaded), **done_fields)
    return CombinedRunResult(
        catalog=merged,
        insitu_catalog=insitu_catalog,
        offline_catalog=offline_catalog,
        offloaded_halo_tags=offloaded,
        telemetry=RunTelemetry.from_recorder(rec),
        **result_fields,
    )


_STEP_RE = re.compile(r"step(\d+)")


def _steps_of(paths: list[str]) -> set[int]:
    """Timesteps encoded in a list of Level 2 file names."""
    out: set[int] = set()
    for p in paths:
        m = _STEP_RE.search(os.path.basename(p))
        if m:
            out.add(int(m.group(1)))
    return out


def run_intransit_workflow(
    config: SimulationConfig,
    threshold: int,
    linking_length_factor: float = 0.2,
    min_count: int = 40,
    n_ranks: int = 8,
    staging_capacity: int | None = None,
    analysis_workers: int | None = None,
) -> CombinedRunResult:
    """The paper's hypothetical *in-transit* variant, implemented live.

    Level 2 data never touches disk: the in-situ reduction stages it in
    a shared-memory :class:`~repro.machines.staging.StagingArea` (the
    NVRAM/burst-buffer stand-in) and a consumer thread — standing in for
    the analysis cluster reading the shared device — runs the off-line
    center finding as soon as the item appears, draining the device.

    Results are identical to :func:`run_combined_workflow` with the same
    parameters (only the transport differs).
    """
    rec = get_recorder()
    last_step = config.n_steps
    staging = StagingArea(capacity_bytes=staging_capacity)
    rec.event(
        "workflow.start", mode="intransit", threshold=threshold, n_steps=config.n_steps
    )
    stager = Level2StageAlgorithm(at_steps=[last_step])
    stager.staging = staging
    manager = _insitu_manager(
        [last_step],
        stager,
        threshold=threshold,
        linking_length_factor=linking_length_factor,
        min_count=min_count,
        n_ranks=n_ranks,
    )

    offline_catalogs: list[HaloCatalog] = []
    errors: list[BaseException] = []
    # trace context captured on the driver thread: the consumer binds to
    # it so its offline.* spans parent under this workflow's trace
    consumer_trace = rec.trace_context()

    def consumer() -> None:
        rec.bind_thread(consumer_trace)
        try:
            item = staging.wait_for(f"l2_step{last_step:04d}", timeout=600.0)
            with rec.span("offline.center_job", step=last_step, transport="staging"):
                offline_catalogs.append(
                    centers_from_level2_arrays(item.read_all(), workers=analysis_workers)
                )
            rec.counter("offline_jobs_total").inc()
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            rec.event(
                "workflow.intransit_error",
                level="error",
                error=f"{type(exc).__name__}: {exc}",
            )
            errors.append(exc)

    analysis_thread = threading.Thread(target=consumer, name="intransit", daemon=True)
    analysis_thread.start()
    sim = HACCSimulation(config, analysis_manager=manager)
    with rec.span("workflow.sim", coschedule=True, transport="staging"):
        sim.run()
        analysis_thread.join(timeout=600.0)
    if errors:
        raise errors[0]
    # nothing on disk (that is the point): the device carries the stats
    return _merged_result(
        rec, manager, last_step, offline_catalogs, {}, level2_paths=[], listener_stats=staging
    )
