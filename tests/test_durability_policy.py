"""Durability policies of the append logs, counted at ``os.fsync``.

The campaign store must survive power loss, so every record it appends
is fsynced before the call returns; the run journal batches, so it
fsyncs once, on close; a read-only store open never writes at all.
A refactor that silently dropped an fsync would pass every other test
(and look faster), so these count the calls.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.obs.journal import RunJournal
from repro.service import CampaignStore, JobSpec, JobState


@pytest.fixture
def fsyncs(monkeypatch):
    calls: list[int] = []
    monkeypatch.setattr(os, "fsync", calls.append)
    return calls


def _records(store: CampaignStore) -> int:
    with open(store.jobs_path, "rb") as fh:
        return sum(1 for _ in fh)


def test_store_fsyncs_once_per_record_and_once_on_close(tmp_path, fsyncs):
    store = CampaignStore.create(tmp_path / "s", clock=lambda: 1.0)
    fsyncs.clear()  # the manifest's atomic write

    def expect_one_fsync_per_record(op, kinds):
        before_calls, before_records = len(fsyncs), _records(store)
        op()
        assert _records(store) - before_records == len(kinds)
        assert len(fsyncs) - before_calls == len(kinds), kinds

    specs = [JobSpec(name="a", max_requeues=0), JobSpec(name="b")]
    expect_one_fsync_per_record(
        lambda: store.submit_campaign("c", specs),
        ["campaign.create", "job.create", "job.create"],
    )
    expect_one_fsync_per_record(
        lambda: store.transition("c.00000", JobState.STAGED_IN), ["job.transition"]
    )
    expect_one_fsync_per_record(
        lambda: store.transition("c.00000", JobState.FAILED, error="boom"),
        ["job.transition"],
    )
    expect_one_fsync_per_record(
        lambda: store.mark_dead_letter("c.00000", "budget"), ["job.dead_letter"]
    )
    before = len(fsyncs)
    store.close()
    assert len(fsyncs) - before == 1


def test_store_fsyncs_the_discard_of_a_partial_campaign(tmp_path, fsyncs):
    store = CampaignStore.create(tmp_path / "s", clock=lambda: 1.0)
    # a submission a crash cut short: two jobs announced, one created
    store._append({"kind": "campaign.create", "campaign": "p", "seed": 0, "jobs": 2})
    store._append({"kind": "job.create", "job": {"id": "p.00000", "campaign": "p"}})
    store.close()
    fsyncs.clear()
    reopened = CampaignStore.open(tmp_path / "s")  # journals campaign.discard
    assert "p" not in reopened.campaigns
    assert len(fsyncs) == 1
    reopened.close()
    assert len(fsyncs) == 2


def test_run_journal_fsyncs_only_on_close(tmp_path, fsyncs):
    journal = RunJournal.create(tmp_path, run_id="r")
    fsyncs.clear()  # the manifest's atomic write
    for i in range(100):
        journal.write({"kind": "event", "name": f"e{i}"})
    journal.flush()
    assert fsyncs == []
    journal.close()
    assert len(fsyncs) == 1


def test_readonly_store_open_never_fsyncs_or_writes(tmp_path, fsyncs):
    store = CampaignStore.create(tmp_path / "s", clock=lambda: 1.0)
    store.submit_campaign("c", [JobSpec(name="a")])
    store.close()
    with open(store.jobs_path, "ab") as fh:
        fh.write(b'{"seq": 2, "wall": 1.0, "kind": "job.tr')  # torn tail
    fsyncs.clear()
    before = sorted(os.listdir(tmp_path / "s"))
    data = Path(store.jobs_path).read_bytes()
    view = CampaignStore.open(tmp_path / "s", readonly=True)
    assert len(view.jobs) == 1
    view.close()
    assert fsyncs == []
    assert Path(store.jobs_path).read_bytes() == data
    assert sorted(os.listdir(tmp_path / "s")) == before
