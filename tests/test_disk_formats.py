"""On-disk compatibility: committed stores and journals still read the same.

``tests/data/`` holds files written by an earlier version of the code:

* ``campaign_store/`` — a ``repro-service/1`` store whose ``jobs.jsonl``
  has a requeue, a dead-letter, a job left in flight, and a torn tail;
* ``run_journal/fixture-run/`` — a ``repro-journal/1`` run directory
  with one corrupt interior line and a torn tail;
* ``formats.json`` — the numbers those files must read back as, plus
  the manifest ``config_hash`` of a journaled
  :func:`~repro.core.driver.run_combined_workflow` call.

The tests open each fixture read-only (through a copy) and check the
recorded numbers, then re-drive the same operations with a frozen clock
and assert the current code writes the very same line bytes.

To regenerate the fixtures (only when a format change is intended)::

    PYTHONPATH=src python tests/test_disk_formats.py
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import pytest

from repro.obs.journal import RunJournal, read_journal
from repro.service import CampaignStore, JobSpec, JobState

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
STORE = os.path.join(DATA, "campaign_store")
RUN_ROOT = os.path.join(DATA, "run_journal")
RUN_ID = "fixture-run"
FORMATS = os.path.join(DATA, "formats.json")

FROZEN = 1_700_000_000.25
STORE_TORN = b'{"seq": 99, "wall": 1700000000.25, "kind": "job.transi'
JOURNAL_TORN = b'{"seq": 12, "kind": "eve'
JOURNAL_GARBAGE = b"NOT JSON: a line no writer of ours produced\n"


def drive_store(root: str) -> CampaignStore:
    """Submit one campaign and walk its jobs through every record kind."""
    store = CampaignStore.create(root, seed=5, extra={"fixture": True}, clock=lambda: FROZEN)
    store.submit_campaign(
        "fx",
        [
            JobSpec(name="requeued", kind="noop", params={"i": 0}, max_requeues=1),
            JobSpec(name="dead", kind="noop", params={"i": 1}, max_requeues=0),
            JobSpec(name="inflight", kind="synthetic_centers", params={"seed": 7},
                    n_nodes=2, wall_estimate=40.0),
        ],
        seed=5,
    )
    lifecycle = [
        JobState.STAGED_IN,
        JobState.PREPROCESSED,
        JobState.RUNNING,
        JobState.RUN_DONE,
        JobState.POSTPROCESSED,
        JobState.JOB_FINISHED,
    ]
    store.transition("fx.00000", JobState.STAGED_IN)
    store.transition("fx.00000", JobState.FAILED, error="stage-in: disk full")
    store.transition("fx.00000", JobState.CREATED, error="stage-in: disk full")
    for state in lifecycle:
        result = {"halos": 3, "checksum": "ab12"} if state is JobState.RUN_DONE else None
        store.transition("fx.00000", state, result=result)
    store.transition("fx.00001", JobState.STAGED_IN)
    store.transition("fx.00001", JobState.FAILED, error="payload raised")
    store.mark_dead_letter("fx.00001", "requeue budget exhausted: payload raised")
    store.transition("fx.00002", JobState.STAGED_IN)
    store.transition("fx.00002", JobState.PREPROCESSED)
    return store


def drive_journal(root: str, garbage: bool = False) -> RunJournal:
    """One small run journal; ``garbage`` splices in a foreign line."""
    journal = RunJournal.create(
        root,
        RUN_ID,
        config={"workflow": {"kind": "combined", "threshold": 100}, "sim": {"np": 8}},
        seeds={"sim": 42, "retry": 0},
        fault_plan={"seed": 7, "sites": {"io.write": {"fail_first": 1}}},
        code_version="fixture",
        extra={"note": "compat"},
    )
    journal.write({"kind": "event", "name": "workflow.start", "t": 1.5, "wall": FROZEN,
                   "level": "info", "run": RUN_ID, "fields": {"mode": "simple"}})
    journal.write({"kind": "span", "name": "sim.step", "span_id": 1, "parent_id": None,
                   "t0": 1.0, "t1": 2.0, "thread": "MainThread", "run": RUN_ID,
                   "step": 1, "fields": {}})
    if garbage:
        journal.flush()
        with open(journal.journal_path, "ab") as fh:
            fh.write(JOURNAL_GARBAGE)
    for i in range(6):
        journal.write({"kind": "event", "name": f"tick{i}", "t": 2.0 + i, "wall": FROZEN,
                       "level": "warning" if i % 2 else "info", "run": RUN_ID,
                       "fields": {"i": i, "ratio": i / 3}})
    journal.failure({"stage": "offline", "key": "2", "reason": "retries exhausted",
                     "attempts": 3, "run": RUN_ID})
    journal.metrics_snapshot({"sim_steps_total": 2.0, "peak_rss_bytes": 1.5e8}, label="final")
    journal.close(status="ok", degraded=True)
    return journal


def hashed_config_run(tmp: str) -> str:
    """Manifest ``config_hash`` of a journaled run with fixed arguments."""
    from repro.core import run_combined_workflow
    from repro.sim.hacc import SimulationConfig

    run_combined_workflow(
        SimulationConfig(np_per_dim=8, box=32.0, n_steps=2, seed=3),
        os.path.join(tmp, "spool"),
        threshold=100,
        n_ranks=2,
        journal_dir=os.path.join(tmp, "journal"),
        run_id="hashed",
    )
    with open(os.path.join(tmp, "journal", "hashed", "manifest.json")) as fh:
        return json.load(fh)["config_hash"]


@pytest.fixture
def formats():
    with open(FORMATS) as fh:
        return json.load(fh)


@pytest.fixture
def frozen_time(monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FROZEN)
    monkeypatch.setenv("REPRO_CODE_VERSION", "fixture")


def _lines(path: str | Path) -> list[bytes]:
    return Path(path).read_bytes().splitlines(keepends=True)


# -- reading the committed fixtures --------------------------------------------


def test_committed_store_reads_back(tmp_path, formats):
    expect = formats["campaign_store"]
    before = Path(STORE, "jobs.jsonl").read_bytes()
    view = CampaignStore.open(STORE, readonly=True)
    assert view.fingerprint() == expect["fingerprint"]
    assert len(view.jobs) == expect["jobs"]
    assert view.status() == expect["status"]
    assert sorted(j.id for j in view.jobs.values() if j.dead_lettered) == expect["dead_lettered"]
    view.close()
    # a readonly open leaves the torn tail where it is
    assert Path(STORE, "jobs.jsonl").read_bytes() == before

    copy = tmp_path / "store"
    shutil.copytree(STORE, copy)
    store = CampaignStore.open(copy)
    assert store.recovered_bytes == len(STORE_TORN)
    assert store.fingerprint() == expect["fingerprint"]
    store.close()
    assert len(_lines(copy / "jobs.jsonl")) == expect["records"]


def test_committed_run_journal_reads_back(formats):
    expect = formats["run_journal"]
    view = read_journal(os.path.join(RUN_ROOT, RUN_ID))
    assert len(view.records) == expect["records"]
    assert view.truncated is expect["truncated"]
    assert view.corrupt == expect["corrupt"]
    assert view.complete
    assert view.manifest.config_hash == expect["config_hash"]
    assert [r["seq"] for r in view.records] == list(range(expect["records"]))


def test_combined_workflow_config_hash_is_pinned(tmp_path, formats):
    assert hashed_config_run(str(tmp_path)) == formats["workflow_config_hash"]


# -- writing the same bytes ----------------------------------------------------


def test_store_writes_the_same_bytes(tmp_path, frozen_time):
    drive_store(str(tmp_path / "store")).close()
    fixture = _lines(os.path.join(STORE, "jobs.jsonl"))
    assert fixture[-1] == STORE_TORN
    assert _lines(tmp_path / "store" / "jobs.jsonl") == fixture[:-1]
    manifest = Path(STORE, "manifest.json").read_bytes()
    assert (tmp_path / "store" / "manifest.json").read_bytes() == manifest


def test_run_journal_writes_the_same_bytes(tmp_path, frozen_time):
    drive_journal(str(tmp_path))
    fixture = _lines(os.path.join(RUN_ROOT, RUN_ID, "journal.jsonl"))
    assert fixture[-1] == JOURNAL_TORN
    clean = [line for line in fixture[:-1] if line != JOURNAL_GARBAGE]
    assert _lines(tmp_path / RUN_ID / "journal.jsonl") == clean
    manifest = Path(RUN_ROOT, RUN_ID, "manifest.json").read_bytes()
    assert (tmp_path / RUN_ID / "manifest.json").read_bytes() == manifest


def _regenerate() -> None:  # pragma: no cover - run by hand, see the docstring
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        workflow_hash = hashed_config_run(tmp)
    time.time = lambda: FROZEN
    os.environ["REPRO_CODE_VERSION"] = "fixture"
    shutil.rmtree(STORE, ignore_errors=True)
    shutil.rmtree(RUN_ROOT, ignore_errors=True)
    store = drive_store(STORE)
    store.close()
    with open(os.path.join(STORE, "jobs.jsonl"), "ab") as fh:
        fh.write(STORE_TORN)
    drive_journal(RUN_ROOT, garbage=True)
    with open(os.path.join(RUN_ROOT, RUN_ID, "journal.jsonl"), "ab") as fh:
        fh.write(JOURNAL_TORN)
    view = CampaignStore.open(STORE, readonly=True)
    journal = read_journal(os.path.join(RUN_ROOT, RUN_ID))
    formats = {
        "campaign_store": {
            "fingerprint": view.fingerprint(),
            "jobs": len(view.jobs),
            "records": len(_lines(os.path.join(STORE, "jobs.jsonl"))) - 1,
            "status": view.status(),
            "dead_lettered": sorted(j.id for j in view.jobs.values() if j.dead_lettered),
        },
        "run_journal": {
            "records": len(journal.records),
            "truncated": journal.truncated,
            "corrupt": journal.corrupt,
            "config_hash": journal.manifest.config_hash,
        },
        "workflow_config_hash": workflow_hash,
    }
    with open(FORMATS, "w") as fh:
        json.dump(formats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(formats, indent=2, sort_keys=True))


if __name__ == "__main__":
    _regenerate()
