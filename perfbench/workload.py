"""One iteration of one benchmark workload, in a fresh interpreter.

Usage::

    python3 perfbench/workload.py '<json request>'

Request keys: ``workload``, ``seed``, ``mode``, ``work`` (scratch
directory, removed by the caller) and ``result`` (where the JSON result
goes).  Modes:

* ``measure`` — the timed call, with one timer around the workload's
  repeated operation (the ``op_*`` metrics);
* ``trace`` — the same call with every layer wrapped (:mod:`tracing`);
  spans are written next to the result;
* ``reference`` — the independent path the golden digests were
  cross-checked against (untimed);
* ``make`` — write the ``stream-catalog`` snapshot.  The runner starts
  it as a process of its own before the measured one, so that its arrays
  count toward no measured peak RSS, the children's included.

The program is driven only through ``repro.core.run_combined_workflow``,
``repro.streaming.StreamingAnalysis.run`` and
``repro.service.CampaignService``; every input is generated from the
seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import multiprocessing.resource_tracker as resource_tracker
import os
import re
import resource
import sys
import threading
import time
from typing import Any, Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _sha(*arrays: Any) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _by_tag(records: Any) -> Any:
    import numpy as np

    return records[np.argsort(records["halo_tag"], kind="stable")]


def _on_return(owner: Any, attr: str, hook: Callable[[Any, Any], None]) -> None:
    """Call ``hook(args, result)`` after every call of ``owner.attr``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        out = original(*args, **kwargs)
        hook(args, out)
        return out

    setattr(owner, attr, wrapper)


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


# -- workloads -------------------------------------------------------------------


class Combined:
    """Shared driver for the two combined-workflow strategies."""

    op_span = "sim.step"

    def __init__(self, seed: int, work: str) -> None:
        from repro.sim.hacc import SimulationConfig

        self.config = SimulationConfig(
            np_per_dim=32, ng=self.ng, n_steps=self.n_steps, seed=seed
        )
        self.steps = list(range(self.every, self.n_steps + 1, self.every))
        self.spool = os.path.join(work, "spool")
        self.kwargs = dict(self.settings)
        if self.kwargs.pop("journaled", False):
            self.kwargs.update(journal_dir=os.path.join(work, "journal"), run_id="bench")
        #: every analysis step's products: step -> in-situ catalog, and
        #: (step, catalog) per off-line job
        self.insitu: dict[int, Any] = {}
        self.offline: list[tuple[int, Any]] = []
        self._capture()

    def _capture(self) -> None:
        """Keep each analysis step's in-situ and off-line catalogs.

        The driver merges only the last step's off-line catalog into the
        Level 3 product; these hooks let the digests cover every step.
        """
        from repro.core import driver
        from repro.insitu.algorithms import HaloCenterAlgorithm

        def insitu(args: Any, out: Any) -> None:
            context = args[2]
            self.insitu[context.step] = context.store["centers"]["catalog"]

        def offline(args: Any, out: Any) -> None:
            step = re.search(r"step(\d+)", os.path.basename(os.fspath(args[0])))
            self.offline.append((int(step.group(1)) if step else -1, out))

        _on_return(HaloCenterAlgorithm, "execute", insitu)
        _on_return(driver, "offline_center_job", offline)

    def planned_ops(self) -> int:
        # one in-situ analysis step and one off-line job per analysis step
        return 2 * len(self.steps)

    def run(self, threshold: int = 100) -> Any:
        from repro.core import run_combined_workflow

        return run_combined_workflow(
            self.config,
            self.spool,
            threshold,
            n_ranks=2,
            analysis_steps=self.steps,
            **self.kwargs,
        )

    def evaluate(self, result: Any) -> dict[str, Any]:
        records = result.catalog.sorted_by_tag().records
        done = len(self.insitu.keys() & set(self.steps)) + len(
            {step for step, _ in self.offline} & set(self.steps)
        )
        planned = self.planned_ops()
        return {
            "attempted": planned,
            # a step whose in-situ analysis or off-line job did not run (or
            # failed every retry) is a failure
            "failed": max(planned - done, len(result.failures)),
            "digests": {
                "l3_sha256": _sha(records),
                "l3_identity_sha256": self.identity(result),
                **self.step_digests(),
            },
            "facts": {
                "halos": len(records),
                "offloaded": len(result.offloaded_halo_tags),
                "degraded": bool(result.degraded),
            },
        }

    @staticmethod
    def identity(result: Any) -> str:
        # what the all-in-situ path must reproduce exactly: which halos,
        # their sizes and their most-bound particles (Level 2 stores
        # positions as float32, so potentials agree only to rounding)
        r = result.catalog.sorted_by_tag().records
        return _sha(r["halo_tag"], r["count"], r["mbp_tag"])

    def step_digests(self) -> dict[str, str]:
        """Every analysis step's in-situ and off-line catalogs, in step order."""
        import numpy as np

        from repro.io.catalog import HaloCatalog

        full, identity = hashlib.sha256(), hashlib.sha256()
        for step in self.steps:
            insitu = self.insitu.get(step)
            offline = [cat.records for s, cat in self.offline if s == step]
            parts = [
                _by_tag(insitu.records) if insitu is not None else None,
                _by_tag(np.concatenate(offline)) if offline else None,
            ]
            for part in parts:
                full.update(b"|-" if part is None else b"|" + part.tobytes())
            # the halos this step found, wherever their centers were computed
            found = [p for p in parts if p is not None] or [HaloCatalog().records]
            union = _by_tag(np.concatenate(found))
            identity.update(_sha(union["halo_tag"], union["count"], union["mbp_tag"]).encode())
        return {"steps_sha256": full.hexdigest(), "steps_identity_sha256": identity.hexdigest()}

    def layer_facts(self, result: Any) -> dict[str, float]:
        stats = result.listener_stats
        facts = {
            "machines.listener_polls": stats.polls,
            "machines.listener_jobs": stats.jobs_submitted,
            "obs.journal_bytes": 0,
            "obs.journal_records": 0,
        }
        journal = self.kwargs.get("journal_dir")
        if journal:
            facts["obs.journal_bytes"] = _tree_bytes(journal)
            for d, _, files in os.walk(journal):
                for f in files:
                    if f.endswith(".jsonl"):
                        with open(os.path.join(d, f), "rb") as fh:
                            facts["obs.journal_records"] += sum(1 for _ in fh)
        return facts

    def reference(self) -> dict[str, Any]:
        """All in-situ (``threshold=10**9``): nothing is off-loaded."""
        result = self.run(threshold=10**9)
        if result.offloaded_halo_tags:
            raise RuntimeError("all-in-situ reference off-loaded halos")
        return {
            "l3_identity_sha256": self.identity(result),
            "steps_identity_sha256": self.step_digests()["steps_identity_sha256"],
        }


class SimpleProcess(Combined):
    """The paper's "combined simple" strategy on forked rank processes.

    Why: PM force is about 57% and process-rank FOF about 30% of the
    wall, so PM and SPMD-transport work shows up here.
    """

    name = "simple-process"
    ng, n_steps, every = 64, 60, 6
    settings = dict(spmd_transport="process", coschedule=False, analysis_workers=2)


class CoscheduledPipelined(Combined):
    """The "combined co-scheduled" strategy with pipelined in-situ analysis.

    Why: thread-rank FOF on the analysis thread is the critical path and
    PM runs off it, so a PM gain should leave ``wall_s`` flat here while
    an FOF or thread-transport gain moves it.  The only workload with the
    listener, the pipeline overlap and the run journal.
    """

    name = "coscheduled-pipelined"
    ng, n_steps, every = 32, 48, 3
    # analysis_workers stays at the library default (None): with 2 exec
    # workers this configuration can crash (see NOTES.md, known defect)
    settings = dict(
        spmd_transport="thread",
        coschedule=True,
        pipeline_insitu=True,
        journaled=True,
        analysis_workers=None,
    )


class StreamCatalog:
    """One bounded-memory streaming pass over a seeded clustered snapshot.

    Why: the same FOF kernel as incremental chunk ingest (about 93% of the
    wall) under bounded memory, reading instead of writing; ``peak_rss_mb``
    is what matters here.
    """

    name = "stream-catalog"
    op_span = "streaming.ingest"
    n = 2**19
    chunk_rows = 32768
    box = 81.0  # round(n ** (1/3)): unit mean spacing
    linking_length = 0.2
    min_count = 10
    mf_bins = (10.0, 1e6, 32)
    ps_ng = 64
    hh_k = 32

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.path = os.path.join(work, "snapshot.gio")

    def make(self) -> None:
        """Seeded clustered particles as a slab-ordered snapshot."""
        import numpy as np

        from repro.streaming import write_slab_snapshot

        rng = np.random.default_rng(self.seed)
        n_blob = self.n // 4
        centers = rng.uniform(0, self.box, (self.n // 2000, 3))
        blob = centers[rng.integers(0, len(centers), n_blob)] + rng.normal(
            0, 0.15, (n_blob, 3)
        )
        pos = np.concatenate([blob, rng.uniform(0, self.box, (self.n - n_blob, 3))])
        write_slab_snapshot(self.path, np.mod(pos, self.box), box=self.box, block_rows=131072)

    def planned_ops(self) -> int:
        return -(-self.n // self.chunk_rows)

    def run(self) -> Any:
        from repro.streaming import GenericIOStream, StreamingAnalysis

        engine = StreamingAnalysis(
            linking_length=self.linking_length,
            min_count=self.min_count,
            mass_function_bins=self.mf_bins,
            power_spectrum_ng=self.ps_ng,
            heavy_hitter_k=self.hh_k,
            prefetch_depth=1,
        )
        return engine.run(GenericIOStream(self.path, chunk_rows=self.chunk_rows))

    def evaluate(self, result: Any) -> dict[str, Any]:
        cat = result.catalog
        planned = self.planned_ops()
        return {
            "attempted": planned,
            "failed": planned - min(result.n_chunks, planned),
            "digests": {
                **self.digests(cat.halo_tags, cat.halo_counts, result.mass_function),
                **self.accumulator_digests(result),
            },
            "facts": {"halos": int(cat.n_halos), "particles": int(result.n_particles)},
        }

    @staticmethod
    def digests(tags: Any, counts: Any, mf: Any) -> dict[str, str]:
        import numpy as np

        return {
            "catalog_sha256": _sha(tags.astype(np.int64), counts.astype(np.int64)),
            "mass_function_sha256": _sha(mf.counts.astype(np.int64)),
        }

    @staticmethod
    def accumulator_digests(result: Any) -> dict[str, str]:
        # both are deterministic for a fixed chunking
        import numpy as np

        ps, hh = result.power_spectrum, result.heavy_hitters
        return {
            "power_spectrum_sha256": (
                _sha(ps.k, ps.power, ps.n_modes) if ps is not None else "missing"
            ),
            "heavy_hitters_sha256": _sha(np.asarray(hh, dtype=np.int64)) if hh else "missing",
        }

    def layer_facts(self, result: Any) -> dict[str, float]:
        return {"streaming.peak_resident_particles": result.peak_resident_particles}

    def reference(self) -> dict[str, Any]:
        """In memory: the whole snapshot through ``fof_grid`` at once."""
        import numpy as np

        from repro.analysis.fof import fof_grid
        from repro.analysis.mass_function import mass_function
        from repro.io.genericio import read_genericio

        self.make()
        data = read_genericio(self.path)
        pos = np.asarray(data["pos"], dtype=np.float64)
        fof = fof_grid(
            pos,
            self.linking_length,
            tags=np.asarray(data["tag"], dtype=np.int64),
            min_count=self.min_count,
            box=self.box,
        )
        order = np.argsort(fof.halo_tags, kind="stable")
        tags, counts = fof.halo_tags[order], fof.halo_counts[order]
        lo, hi, n_bins = self.mf_bins
        # P(k) and the heavy hitters have no bit-exact in-memory twin: the
        # streamed ones are checked within tolerance here, and their
        # digests then hold later runs to the streaming path exactly
        streamed = self.run()
        self.check_accumulators(streamed, pos, dict(zip(tags.tolist(), counts.tolist())))
        return {
            **self.digests(tags, counts, mass_function(counts, n_bins, lo, hi)),
            **self.accumulator_digests(streamed),
        }

    def check_accumulators(self, streamed: Any, pos: Any, sizes: dict[int, int]) -> None:
        """Streamed P(k) against the in-memory one; Misra–Gries against exact sizes."""
        import numpy as np

        from repro.analysis.power_spectrum import measure_power_spectrum

        ps, ref = streamed.power_spectrum, measure_power_spectrum(pos, self.box, self.ps_ng)
        atol = 1e-9 * np.abs(ref.power).max()
        if not (
            np.array_equal(ps.n_modes, ref.n_modes)
            and np.allclose(ps.k, ref.k, rtol=1e-12)
            and np.allclose(ps.power, ref.power, rtol=1e-6, atol=atol)
        ):
            raise RuntimeError("streamed P(k) disagrees with measure_power_spectrum")
        # every halo heavier than W / (k + 1) is kept, and every estimate
        # undercounts its halo's size by at most that much
        slack = sum(sizes.values()) / (self.hh_k + 1)
        top = dict(streamed.heavy_hitters)
        for tag, estimate in top.items():
            if not sizes.get(tag, 0) - slack <= estimate <= sizes.get(tag, 0):
                raise RuntimeError(f"heavy hitter {tag}: estimate {estimate} out of bounds")
        missing = [t for t, size in sizes.items() if size > slack and t not in top]
        if missing:
            raise RuntimeError(f"heavy halos missing from the sketch: {missing}")


class CampaignDrain:
    """A campaign of small jobs submitted, packed and drained by one worker.

    Why: the only workload that exercises ``repro.service``.  The store's
    per-transition fsync sets ``op_p50_ms`` (noop jobs) and the small
    ``fof_grid`` + ``halo_centers`` payloads set ``op_p90_ms``.
    """

    name = "campaign-drain"
    op_span = "service.job"
    n_jobs = 750  # every 5th a synthetic_centers job: 150 of them, 600 noop

    def __init__(self, seed: int, work: str) -> None:
        from repro.service import CampaignService, JobSpec

        self.seed = seed
        self.root = os.path.join(work, "store")
        self.service = CampaignService.create(self.root, seed=seed)
        self.specs = [
            JobSpec(
                name=f"centers-{i:04d}",
                kind="synthetic_centers",
                params={"seed": seed * 100_000 + i},
                wall_estimate=40.0 + 10.0 * (i % 3),
            )
            if i % 5 == 0
            else JobSpec(name=f"noop-{i:04d}", kind="noop", params={"i": i, "seed": seed})
            for i in range(self.n_jobs)
        ]

    def planned_ops(self) -> int:
        return self.n_jobs

    def run(self) -> Any:
        self.service.submit("bench", self.specs, seed=self.seed)
        self.service.pack(max_nodes=16, max_wall=3600.0)
        self.service.drain()
        return self.service.store

    def evaluate(self, store: Any) -> dict[str, Any]:
        finished = sum(1 for j in store.jobs.values() if j.finished)
        planned = self.planned_ops()
        return {
            "attempted": planned,
            "failed": planned - min(finished, planned),
            "digests": {"fingerprint": store.fingerprint()},
            "facts": {"finished": finished},
        }

    def layer_facts(self, store: Any) -> dict[str, float]:
        return {"service.store_bytes": _tree_bytes(self.root)}

    def reference(self) -> dict[str, Any]:
        """A second drain of the same campaign into its own store."""
        store = self.run()
        try:
            return {"fingerprint": store.fingerprint()}
        finally:
            store.close()

    def close(self) -> None:
        self.service.store.close()


WORKLOADS = {w.name: w for w in (SimpleProcess, CoscheduledPipelined, StreamCatalog, CampaignDrain)}


# -- tracing ---------------------------------------------------------------------


def _io_read_bytes(tracer: Any, sid: int, args: Any, out: Any) -> None:
    tracer.bytes[sid] = sum(getattr(v, "nbytes", 0) for v in out.values())


def _io_write_bytes(tracer: Any, sid: int, args: Any, out: Any) -> None:
    tracer.bytes[sid] = int(out)


def _l2_written(tracer: Any, sid: int, args: Any, out: Any) -> None:
    level2 = args[2].store.get("level2")
    if level2:
        tracer.note("l2_written", (sid, level2["path"]))


def _job_path(tracer: Any, sid: int, args: Any, out: Any) -> None:
    tracer.note("job_started", (sid, os.fspath(args[0])))


def install_full_trace(tracer: Any) -> None:
    """Wrap every public call the per-layer table is built from."""
    from repro.insitu import algorithms
    from repro.insitu.manager import InSituAnalysisManager
    from repro.insitu.pipeline import AsyncInSituManager
    from repro.io.genericio import GenericIOFile
    from repro.machines.listener import Listener
    from repro.service import CampaignService, CampaignStore, ServiceWorker
    from repro.sim.hacc import HACCSimulation
    from repro.sim.pmsolver import PMSolver
    from repro.streaming import StreamingAnalysis, StreamingFOF, StreamingPowerSpectrum

    for cls, attr, name, note in (
        (HACCSimulation, "run", "sim.run", None),
        (HACCSimulation, "advance_step", "sim.step", None),
        (PMSolver, "accelerations", "sim.force", None),
        (InSituAnalysisManager, "execute", "insitu.hook", None),
        (AsyncInSituManager, "execute", "insitu.async_execute", None),
        (AsyncInSituManager, "close", "insitu.async_close", None),
        (algorithms.HaloFinderAlgorithm, "execute", "insitu.fof", None),
        (algorithms.HaloCenterAlgorithm, "execute", "insitu.centers", None),
        (algorithms.Level2WriterAlgorithm, "execute", "insitu.l2_write", _l2_written),
        (GenericIOFile, "read_all", "io.read", _io_read_bytes),
        (GenericIOFile, "read_block", "io.read", _io_read_bytes),
        (Listener, "poll_once", "machines.poll", None),
        (StreamingAnalysis, "run", "streaming.run", None),
        (StreamingFOF, "ingest", "streaming.ingest", None),
        (StreamingFOF, "finalize", "streaming.finalize", None),
        (StreamingPowerSpectrum, "update", "streaming.ps_update", None),
        (CampaignService, "submit", "service.submit", None),
        (CampaignService, "pack", "service.pack", None),
        (CampaignService, "drain", "service.drain", None),
        (ServiceWorker, "run_job", "service.job", None),
        (CampaignStore, "transition", "service.transition", None),
    ):
        tracer.patch_method(cls, attr, name, note)
    for module, attr, name, note in (
        ("repro.core.driver", "run_combined_workflow", "core.workflow", None),
        ("repro.core.driver", "offline_center_job", "core.offline_job", _job_path),
        ("repro.io.catalog", "merge_catalogs", "core.merge", None),
        ("repro.parallel.communicator", "run_spmd", "parallel.spmd", None),
        ("repro.analysis.fof", "fof_grid", "analysis.fof_grid", None),
        ("repro.analysis.centers", "halo_centers", "analysis.halo_centers", None),
        ("repro.exec.engine", "parallel_halo_centers", "exec.centers", None),
        ("repro.io.genericio", "write_genericio", "io.write", _io_write_bytes),
        ("repro.service.worker", "run_payload", "service.payload", None),
    ):
        tracer.patch_function(module, attr, name, note)


def _install_op_timer(tracer: Any, op_span: str) -> None:
    """Time only the workload's repeated operation (the ``op_*`` metrics)."""
    from repro.service import ServiceWorker
    from repro.sim.hacc import HACCSimulation
    from repro.streaming import StreamingFOF

    cls, attr = {
        "sim.step": (HACCSimulation, "advance_step"),
        "streaming.ingest": (StreamingFOF, "ingest"),
        "service.job": (ServiceWorker, "run_job"),
    }[op_span]
    tracer.patch_method(cls, attr, op_span)


def main(request: dict[str, Any]) -> None:
    _import_program()
    # every layer is imported before the clock starts: imports are set-up
    import repro.core
    import repro.exec
    import repro.service
    import repro.streaming  # noqa: F401
    from tracing import Tracer, layer_metrics

    mode = request["mode"]
    os.makedirs(request["work"], exist_ok=True)
    workload = WORKLOADS[request["workload"]](request["seed"], request["work"])
    if mode == "make":
        workload.make()
        return
    out: dict[str, Any] = {"mode": mode}
    if mode == "reference":
        out["digests"] = workload.reference()
    else:
        tracer = Tracer()
        if mode == "trace":
            install_full_trace(tracer)
        else:
            _install_op_timer(tracer, workload.op_span)
        timed = tracer.wrap("workload.run", workload.run)
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        children0 = _cpu(resource.RUSAGE_CHILDREN)
        out["t_start"] = time.monotonic()
        t0 = time.perf_counter()
        try:
            result = timed()
        except Exception as exc:  # the run is reported as failed, not raised
            result = None
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["wall_s"] = time.perf_counter() - t0
        # children reaped so far are the SPMD rank processes; the exec
        # pool's workers are reaped by shutdown_pool below
        out["rank_cpu_s"] = _cpu(resource.RUSAGE_CHILDREN) - children0
        repro.exec.shutdown_pool()
        # reap the resource tracker too, rather than leave it to init
        getattr(resource_tracker._resource_tracker, "_stop", lambda: None)()
        out["leaked_children"] = [p.name for p in multiprocessing.active_children()]
        out["cpu_s"] = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
        # the largest single process of the tree: the workload process, or
        # a reaped child (SPMD rank process, exec worker)
        out["peak_rss_mb"] = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024
        out["op_s"] = [s[3] - s[2] for s in tracer.spans if s[1] == workload.op_span]
        if result is None:
            planned = workload.planned_ops()
            out.update(attempted=planned, failed=planned, digests={})
        else:
            out.update(workload.evaluate(result))
        if mode == "trace" and result is not None:
            layers = layer_metrics(tracer, threading.get_ident())
            layers.update(workload.layer_facts(result))
            layers["parallel.rank_cpu_s"] = out["rank_cpu_s"]
            out["layers"] = layers
            with open(request["result"] + ".spans.json", "w") as fh:
                json.dump({"spans": tracer.resolved()}, fh)
        if hasattr(workload, "close"):
            workload.close()
    with open(request["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main(json.loads(sys.argv[1]))
