"""Durability contract tests: journal, checkpoints, and recovery.

Four layers of proof on top of the fault-injection matrix
(``test_fault_injection.py``):

* journal unit behaviour — header config, payload round-trips,
  torn-tail truncation on resume, mid-file corruption rejection;
* torn-write exhaustion — the journal tail and the newest checkpoint
  each truncated at **every byte boundary** of the last record, with
  recovery falling back to the last complete entry / previous valid
  checkpoint; and the same for a whole *uncommitted group* (appended,
  never synced), any suffix of which a power cut may take;
* the group-commit barrier — ``append`` is write-ahead for a process
  death, ``sync`` / ``commit`` is the one ``fsync`` per group, and a
  death at ``journal-pre-sync`` recovers to the uninterrupted trace;
* format and worker-count portability — format-1 *and* format-2
  checkpoints (the latter taken while advertisers are paused) each
  restored onto 1, 2, and 4 workers with the journaled suffix
  replayed on top;
* a Hypothesis property — a random budget/churn stream cut at a
  random index recovers (checkpointed or from genesis) to records,
  balances, and emissions identical to the uninterrupted service,
  for every method.
"""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stream import (
    DurableAuctionService,
    EventJournal,
    OnlineAuctionService,
    RecoveryError,
    align_traces,
    diff_traces,
    recover,
    scan_journal,
)
from repro.stream.journal import HEADER_KIND, JOURNAL_FORMAT
from repro.stream.recovery import list_checkpoints, load_latest_valid
from repro.stream.snapshot import CheckpointPolicy, checkpoint_name
from repro.workloads import (
    ChurnStreamConfig,
    PaperWorkload,
    PaperWorkloadConfig,
    generate_stream,
)

CONFIG = PaperWorkloadConfig(num_advertisers=24, num_slots=3,
                             num_keywords=2, seed=1)
SEED = 3
METHODS = ("rh", "lp", "hungarian", "rhtalu")


def make_stream(num_events: int, *, budget_low: float = 4.0,
                budget_high: float = 30.0, topup_weight: float = 0.5,
                seed: int = 11):
    workload = PaperWorkload(CONFIG)
    return generate_stream(workload, ChurnStreamConfig(
        num_events=num_events, churn_rate=0.25, genesis=12,
        min_active=4, budget_low=budget_low, budget_high=budget_high,
        topup_weight=topup_weight, seed=seed))


@pytest.fixture(scope="module")
def pressure_stream():
    """Small join budgets + heavy top-ups: checkpoints land while
    advertisers are paused, and many are later re-admitted."""
    return make_stream(140, budget_low=3.0, budget_high=25.0,
                       topup_weight=2.0)


@pytest.fixture(scope="module")
def untracked_stream():
    """Zero-budget joins: nobody is budget-tracked (the format-1
    world, where snapshots predate the lifecycle)."""
    return make_stream(60, budget_low=0.0, budget_high=0.0)


def durable_prefix(tmp_path: Path, stream, upto: int, *,
                   method: str = "rh", every: int = 0,
                   retain: int = 2) -> tuple[Path, Path]:
    """Run a durable service over ``stream[:upto]`` and abandon it —
    the in-process stand-in for a crash (every append was fsync'd, so
    the artifacts are exactly what a death at that point leaves)."""
    journal = tmp_path / "journal.jsonl"
    checkpoint_dir = tmp_path / "checkpoints"
    durable = DurableAuctionService.open(
        CONFIG, journal, method=method, engine_seed=SEED,
        checkpoint_dir=checkpoint_dir if every else None,
        checkpoint_every=every, checkpoint_retain=retain)
    durable.run(stream[:upto])
    durable.close()
    return journal, checkpoint_dir


def end_state(service) -> dict:
    return {
        "active": service.active_advertisers(),
        "paused": service.paused_advertisers(),
        "balances": {advertiser: service.budget_of(advertiser)
                     for advertiser in service.active_advertisers()},
    }


class TestJournal:
    def test_header_carries_format_and_config(self, tmp_path):
        service = OnlineAuctionService(CONFIG, engine_seed=SEED)
        path = tmp_path / "journal.jsonl"
        EventJournal.create(path, service.config_payload()).close()
        service.close()

        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == HEADER_KIND
        assert header["format"] == JOURNAL_FORMAT
        scanned = scan_journal(path)
        assert scanned.config == service.config_payload()
        assert scanned.entries == []
        assert not scanned.torn_tail

    def test_event_payloads_round_trip(self, tmp_path):
        stream = make_stream(20)
        path = tmp_path / "journal.jsonl"
        with EventJournal.create(path, {"method": "rh"}) as journal:
            for seq, event in enumerate(stream):
                journal.append(seq, event)
        scanned = scan_journal(path)
        assert [entry.event for entry in scanned.entries] \
            == list(stream)
        assert [entry.seq for entry in scanned.entries] \
            == list(range(len(stream)))
        assert all(entry.origin == "input"
                   for entry in scanned.entries)
        assert scanned.max_seq == len(stream) - 1

    def test_scan_rejects_bad_headers(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ValueError, match="journal"):
            scan_journal(path)
        path.write_text(json.dumps({"kind": HEADER_KIND,
                                    "format": "something-else",
                                    "config": {}}) + "\n")
        with pytest.raises(ValueError, match="journal"):
            scan_journal(path)

    def test_mid_file_corruption_is_not_a_tear(self, tmp_path):
        stream = make_stream(20)
        path = tmp_path / "journal.jsonl"
        with EventJournal.create(path, {}) as journal:
            for seq, event in enumerate(stream.prefix(6)):
                journal.append(seq, event)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3][: len(lines[3]) // 2] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError):
            scan_journal(path)

    def test_resume_truncates_the_torn_tail(self, tmp_path):
        stream = make_stream(20)
        path = tmp_path / "journal.jsonl"
        with EventJournal.create(path, {}) as journal:
            for seq, event in enumerate(stream.prefix(5)):
                journal.append(seq, event)
        data = path.read_bytes()
        last_start = data.rfind(b"\n", 0, len(data) - 1) + 1
        path.write_bytes(data[: last_start + 7])  # torn 5th entry
        assert scan_journal(path).torn_tail

        with EventJournal.resume(path) as journal:
            journal.append(4, stream[4])
        scanned = scan_journal(path)
        assert not scanned.torn_tail
        assert [entry.seq for entry in scanned.entries] \
            == [0, 1, 2, 3, 4]
        assert scanned.entries[-1].event == stream[4]


class TestGroupCommitBarrier:
    def test_append_is_visible_before_sync_and_sync_is_one_fsync(
            self, tmp_path, monkeypatch):
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            "repro.stream.journal.os.fsync",
            lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
        stream = make_stream(20)
        path = tmp_path / "journal.jsonl"
        journal = EventJournal.create(path, {})
        created = len(fsyncs)  # the header's own barrier
        for seq, event in enumerate(stream.prefix(6)):
            journal.append(seq, event)
        # Write-ahead for a process death: the lines are in the file
        # (another handle reads them) with no fsync issued yet.
        assert len(fsyncs) == created
        assert journal.unsynced == 6
        assert [entry.seq for entry in scan_journal(path).entries] \
            == list(range(6))
        journal.sync()
        assert len(fsyncs) == created + 1 and journal.unsynced == 0
        journal.sync()  # clean: no second fsync
        assert len(fsyncs) == created + 1
        journal.append(6, stream[6])
        journal.close()  # close never leaves a line behind a barrier
        assert len(fsyncs) == created + 2

    def test_durable_commit_points(self, tmp_path, monkeypatch):
        """Offline ``process`` commits per event, ``commit=False``
        defers to the caller, and a due checkpoint is always written
        behind the barrier."""
        order = []
        sync = EventJournal.sync
        write = CheckpointPolicy.write

        def logged_sync(journal):
            if journal.unsynced:
                order.append(("sync", journal.unsynced))
            sync(journal)

        def logged_write(policy, snapshot):
            order.append(("checkpoint", snapshot.events_processed))
            return write(policy, snapshot)

        monkeypatch.setattr(EventJournal, "sync", logged_sync)
        monkeypatch.setattr(CheckpointPolicy, "write", logged_write)
        stream = make_stream(20, budget_low=0.0, budget_high=0.0)
        with DurableAuctionService.open(
                CONFIG, tmp_path / "journal.jsonl", engine_seed=SEED,
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=8) as durable:
            for event in stream.prefix(3):
                durable.process(event)
            assert order == [("sync", 1)] * 3
            for event in stream[3:10]:
                durable.process(event, commit=False)
            # Deferred — except that event 8's checkpoint forced the
            # barrier for everything before it.
            assert order[3:] == [("sync", 5), ("checkpoint", 8)]
            assert durable.journal.unsynced == 2
            durable.commit()
            assert order[5:] == [("sync", 2)]
            durable.process(stream[10], commit=False)
        assert order[6:] == [("sync", 1)]  # close() commits

    def test_crash_before_the_barrier_recovers_identically(
            self, tmp_path):
        """``journal-pre-sync``: the process dies with the 30th
        event's line written but its fsync never issued.  A process
        death keeps the line, so recovery replays it."""
        from repro.stream.crash import EXIT_CODE, CrashPoint
        from tests.stream.fault_injection import (
            audit,
            recover_and_resume,
            run_crashing_stream,
        )

        stream = make_stream(60)
        events_path = tmp_path / "events.jsonl"
        stream.to_jsonl(events_path)
        run = run_crashing_stream(
            tmp_path, events_path,
            CrashPoint.from_env("journal-pre-sync@30"), CONFIG,
            seed=SEED - 1, checkpoint_every=20)  # engine seed: SEED
        assert run.proc.returncode == EXIT_CODE, run.proc.stderr
        result, recovered = recover_and_resume(run, stream)
        assert result.checkpoint_events == 20
        assert result.replayed_events == 10  # the 30th line included
        baseline = OnlineAuctionService(
            replace(CONFIG, seed=SEED - 1), engine_seed=SEED)
        try:
            diff = audit(baseline.run(stream), recovered)
        finally:
            baseline.close()
        assert diff.identical, diff.format_report()


class TestCheckBeforeJournal:
    """The durable wrapper asks ``check`` before the first
    ``journal.append``: nothing the service refuses reaches the file
    (it used to be appended first, so the ``ValueError`` surfaced
    with a poison line already on disk, and ``recover()`` raised the
    same error on it)."""

    def test_refused_event_leaves_the_journal_untouched(self,
                                                        tmp_path):
        from repro.stream import BidProgramUpdate, QueryArrival

        stream = make_stream(10)
        path = tmp_path / "journal.jsonl"
        durable = DurableAuctionService.open(CONFIG, path,
                                             engine_seed=SEED)
        try:
            durable.run(stream)
            members = durable.service.active_advertisers()
            first, second = [
                advertiser for advertiser
                in range(CONFIG.num_advertisers)
                if advertiser not in members][:2]
            join = stream[0]
            bad_events = [
                replace(join, advertiser=second, target=0),
                BidProgramUpdate(members[0], "kw0", bid=1.0,
                                 maxbid=-1),
                QueryArrival("nope"),
            ]
            # One uncommitted line, so "unsynced unchanged" can tell
            # an untouched journal from a committed one.
            durable.process(replace(join, advertiser=first),
                            commit=False)
            before = path.read_bytes()
            unsynced = durable.journal.unsynced
            assert unsynced == 1
            for bad in bad_events:
                with pytest.raises((KeyError, ValueError)):
                    durable.process(bad)
                with pytest.raises((KeyError, ValueError)):
                    durable.process(bad, commit=False)
            # One bad query journals none of its window.
            window = [QueryArrival("kw0"), QueryArrival("nope"),
                      QueryArrival("kw1")]
            with pytest.raises(KeyError, match="unknown keyword"):
                durable.process_window(window)
            assert path.read_bytes() == before
            assert durable.journal.unsynced == unsynced
            assert durable.events_processed == len(stream) + 1
        finally:
            durable.close()
        result = recover(path)
        try:
            assert result.events_processed == len(stream) + 1
        finally:
            result.service.close()


class TestCheckpointPolicy:
    def test_naming_orders_by_watermark(self):
        names = [checkpoint_name(n) for n in (7, 40, 123, 4000)]
        assert names == sorted(names)

    def test_due_on_multiples_only(self, tmp_path):
        policy = CheckpointPolicy(directory=tmp_path, every=25)
        assert not policy.due(0)
        assert policy.due(25) and policy.due(50)
        assert not policy.due(26)

    def test_retention_prunes_oldest(self, tmp_path, stream=None):
        events = make_stream(40)
        durable_prefix(tmp_path, events, len(events), every=10,
                       retain=2)
        files = list_checkpoints(tmp_path / "checkpoints")
        assert len(files) == 2
        watermarks = [int(path.stem.split("-")[1]) for path in files]
        assert watermarks == sorted(watermarks)
        assert watermarks[-1] - watermarks[0] == 10

    def test_write_fsyncs_the_directory_entry(self, tmp_path,
                                              monkeypatch):
        """File durability alone is not enough: ``write()`` must fsync
        the checkpoint *directory* too, or a crash after the file
        fsync can leave a fully-written checkpoint with no durable
        directory entry — and prune's unlinks are directory mutations
        that need the same treatment."""
        service = OnlineAuctionService(CONFIG, engine_seed=SEED)
        try:
            service.run(make_stream(10))
            snapshot = service.snapshot()
        finally:
            service.close()

        real_fsync = os.fsync
        synced_dir_inodes = []

        def recording_fsync(fd):
            status = os.fstat(fd)
            if stat.S_ISDIR(status.st_mode):
                synced_dir_inodes.append(status.st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        policy = CheckpointPolicy(directory=tmp_path / "checkpoints",
                                  every=5, retain=1)
        policy.write(snapshot)
        directory_inode = (tmp_path / "checkpoints").stat().st_ino
        assert synced_dir_inodes == [directory_inode]

        # A second checkpoint at a later watermark prunes the first
        # (retain=1): one dir fsync for the new entry, one for the
        # unlink.
        policy.write(replace(snapshot,
                             events_processed=snapshot.events_processed
                             + 5))
        assert synced_dir_inodes == [directory_inode] * 3
        assert len(list_checkpoints(policy.directory)) == 1


class TestTornWrites:
    def test_journal_tail_torn_at_every_byte(self, tmp_path):
        """Truncate the final journal record at every byte boundary:
        scan always keeps exactly the complete prefix, and flags the
        tear unless the cut removed the whole line."""
        stream = make_stream(20)
        journal, _ = durable_prefix(tmp_path, stream, len(stream))
        data = journal.read_bytes()
        complete = len(scan_journal(journal).entries)
        last_start = data.rfind(b"\n", 0, len(data) - 1) + 1

        torn = tmp_path / "torn.jsonl"
        for cut in range(last_start, len(data)):
            torn.write_bytes(data[:cut])
            scanned = scan_journal(torn)
            assert len(scanned.entries) == complete - 1, cut
            assert scanned.torn_tail == (cut > last_start), cut
        torn.write_bytes(data)
        assert len(scan_journal(torn).entries) == complete

    def test_uncommitted_group_torn_at_every_byte(self, tmp_path):
        """A power cut may take any suffix of a group that was
        appended but never synced.  Cut the file at every byte of
        such a group: scan keeps exactly the complete lines, and
        recovery from each line boundary (and a mid-line tear)
        resumes to the uninterrupted trace."""
        stream = make_stream(30)
        committed, group = 18, 6
        path = tmp_path / "journal.jsonl"
        durable = DurableAuctionService.open(CONFIG, path,
                                             engine_seed=SEED)
        try:
            durable.run(stream[:committed])
            group_start = path.stat().st_size
            for event in stream[committed:committed + group]:
                durable.process(event, commit=False)
            assert durable.journal.unsynced >= group
            data = path.read_bytes()  # flushed, not yet fsync'd
        finally:
            durable.close()
        baseline = OnlineAuctionService(CONFIG, engine_seed=SEED)
        expected = baseline.run(stream)
        baseline.close()

        torn = tmp_path / "torn.jsonl"
        boundaries = [group_start]
        for cut in range(group_start, len(data) + 1):
            torn.write_bytes(data[:cut])
            scanned = scan_journal(torn)
            complete = data[:cut].count(b"\n") - 1  # minus header
            assert len(scanned.entries) == complete, cut
            at_boundary = data[cut - 1:cut] == b"\n"
            assert scanned.torn_tail == (not at_boundary), cut
            if at_boundary and cut > group_start:
                boundaries.append(cut)
        assert len(boundaries) > group  # inputs + their emissions
        for cut in [*boundaries, boundaries[-1] - 9]:
            torn.write_bytes(data[:cut])
            result = recover(torn)
            try:
                assert committed <= result.events_processed \
                    <= committed + group
                tail = result.service.run(
                    stream[result.events_processed:])
                assert diff_traces(expected,
                                   result.records + tail).identical
            finally:
                result.service.close()

    def test_checkpoint_torn_at_every_byte_falls_back(self,
                                                      tmp_path):
        """Truncate the newest checkpoint at every byte boundary:
        recovery always skips it and lands on the previous valid
        checkpoint."""
        stream = make_stream(30)
        journal, checkpoint_dir = durable_prefix(
            tmp_path, stream, len(stream), every=10)
        previous, newest = list_checkpoints(checkpoint_dir)
        data = newest.read_bytes()

        # Cutting only the trailing newline leaves complete JSON —
        # not a tear.  Every cut inside the record itself must fall
        # back.
        content = len(data.rstrip(b"\n"))
        for cut in range(len(data)):
            newest.write_bytes(data[:cut])
            snapshot, path, skipped = load_latest_valid(
                checkpoint_dir)
            if cut < content:
                assert path == previous, cut
                assert skipped == [newest], cut
            else:
                assert path == newest, cut
                assert skipped == [], cut
        # Full recovery from a representative tear: replay resumes
        # from the fallback watermark and reaches the stream's end
        # state.
        newest.write_bytes(data[: len(data) // 2])
        baseline = OnlineAuctionService(CONFIG, engine_seed=SEED)
        expected = baseline.run(stream)
        result = recover(journal, checkpoint_dir=checkpoint_dir)
        try:
            assert result.checkpoints_skipped == 1
            assert result.checkpoint_path == previous
            aligned, candidate = align_traces(expected,
                                              result.records)
            assert diff_traces(aligned, candidate).identical
            assert end_state(result.service) == end_state(baseline)
        finally:
            result.service.close()
            baseline.close()


class TestRecoveryAcrossFormatsAndWorkers:
    CUT = 130  # leaves a journaled suffix past the last checkpoint
    EVERY = 25

    @pytest.fixture(scope="class")
    def pressure_baseline(self, pressure_stream):
        service = OnlineAuctionService(CONFIG, method="rh",
                                       engine_seed=SEED)
        records = service.run(pressure_stream)
        state = end_state(service)
        emitted = list(service.emitted)
        service.close()
        return records, state, emitted

    @pytest.fixture(scope="class")
    def pressure_artifacts(self, pressure_stream, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("format2")
        return durable_prefix(tmp_path, pressure_stream, self.CUT,
                              every=self.EVERY)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_format_2_restores_paused_state_to_any_worker_count(
            self, pressure_stream, pressure_baseline,
            pressure_artifacts, workers):
        journal, checkpoint_dir = pressure_artifacts
        records, state, emitted = pressure_baseline

        # The satellite's precondition: the checkpoint being restored
        # was taken *while advertisers were paused*.
        snapshot, _, _ = load_latest_valid(checkpoint_dir)
        paused_at_checkpoint = [
            advertiser for advertiser, entry
            in snapshot.registry.items() if entry["paused"]]
        assert paused_at_checkpoint

        result = recover(journal, checkpoint_dir=checkpoint_dir,
                         workers=workers)
        try:
            assert result.checkpoint_events == 125
            assert result.replayed_events == self.CUT - 125
            tail = result.service.run(pressure_stream[self.CUT:])
            recovered = result.records + tail
            aligned, candidate = align_traces(records, recovered)
            assert diff_traces(aligned, candidate).identical
            assert end_state(result.service) == state
            # Emissions re-derived from the watermark onward are the
            # exact suffix of the uninterrupted run's emission log.
            rederived = list(result.service.emitted)
            assert rederived == emitted[len(emitted) - len(rederived):]
            assert rederived  # the lifecycle was live in the span
        finally:
            result.service.close()

    @pytest.fixture(scope="class")
    def untracked_baseline(self, untracked_stream):
        service = OnlineAuctionService(CONFIG, method="rh",
                                       engine_seed=SEED)
        records = service.run(untracked_stream)
        state = end_state(service)
        assert not service.emitted  # untracked: lifecycle inert
        service.close()
        return records, state

    @pytest.fixture(scope="class")
    def format_1_artifacts(self, untracked_stream, tmp_path_factory):
        """Durable artifacts whose newest checkpoint is down-edited
        to the format-1 (pre-lifecycle) schema."""
        tmp_path = tmp_path_factory.mktemp("format1")
        journal, checkpoint_dir = durable_prefix(
            tmp_path, untracked_stream, 66, every=15)
        newest = list_checkpoints(checkpoint_dir)[-1]
        payload = json.loads(newest.read_text(encoding="utf-8"))
        payload["format"] = "repro-stream-snapshot/1"
        for entry in payload["registry"].values():
            del entry["paused"]
            if entry["budget"] is None:
                entry["budget"] = 0.0
        payload["backend_state"].pop("paused", None)
        newest.write_text(json.dumps(payload), encoding="utf-8")
        return journal, checkpoint_dir

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_format_1_checkpoint_recovers_to_any_worker_count(
            self, untracked_stream, untracked_baseline,
            format_1_artifacts, workers):
        journal, checkpoint_dir = format_1_artifacts
        records, state = untracked_baseline

        result = recover(journal, checkpoint_dir=checkpoint_dir,
                         workers=workers)
        try:
            assert result.checkpoint_events == 60
            assert result.replayed_events == 66 - 60
            tail = result.service.run(untracked_stream[66:])
            recovered = result.records + tail
            aligned, candidate = align_traces(records, recovered)
            assert diff_traces(aligned, candidate).identical
            # Format-1 restores untracked — and the stream really is.
            for advertiser in result.service.active_advertisers():
                assert result.service.budget_of(advertiser) \
                    == math.inf
            assert result.service.active_advertisers() \
                == state["active"]
            assert result.service.paused_advertisers() == []
        finally:
            result.service.close()


class TestRecoveryEdges:
    def test_genesis_recovery_without_checkpoints(self, tmp_path):
        stream = make_stream(40)
        journal, _ = durable_prefix(tmp_path, stream, len(stream))
        baseline = OnlineAuctionService(CONFIG, engine_seed=SEED)
        expected = baseline.run(stream)

        result = recover(journal)
        try:
            assert result.checkpoint_path is None
            assert result.checkpoint_events == 0
            assert result.replayed_events == len(stream)
            assert diff_traces(expected, result.records).identical
            assert end_state(result.service) == end_state(baseline)
        finally:
            result.service.close()
            baseline.close()

    def test_recovery_needs_a_config_source(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        EventJournal.create(path, {}).close()
        with pytest.raises(RecoveryError, match="config"):
            recover(path)

    def test_resume_durable_continues_the_same_journal(self,
                                                       tmp_path):
        stream = make_stream(40)
        journal, checkpoint_dir = durable_prefix(
            tmp_path, stream, 23, every=10)
        result = recover(journal, checkpoint_dir=checkpoint_dir)
        durable = result.resume_durable(checkpoint_every=10)
        try:
            durable.run(stream[result.events_processed:])
        finally:
            durable.close()

        scanned = scan_journal(journal)
        seqs = [entry.seq for entry in scanned.entries
                if entry.origin == "input"]
        assert seqs == list(range(len(stream)))
        baseline = OnlineAuctionService(CONFIG, engine_seed=SEED)
        baseline.run(stream)
        assert end_state(durable.service) == end_state(baseline)
        baseline.close()


class TestCrashAnywhereProperty:
    """Satellite 1: a random stream cut at a random index always
    recovers — records, balances, and emissions — for every method."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    @given(data=st.data())
    def test_random_crash_index_recovers_identically(self, data):
        method = data.draw(st.sampled_from(METHODS), label="method")
        stream_seed = data.draw(st.integers(0, 3),
                                label="stream_seed")
        every = data.draw(st.sampled_from((0, 7, 20)),
                          label="checkpoint_every")
        stream = make_stream(40, budget_low=3.0, budget_high=25.0,
                             topup_weight=1.5, seed=stream_seed)
        crash_at = data.draw(
            st.integers(1, len(stream) - 1), label="crash_at")

        baseline = OnlineAuctionService(CONFIG, method=method,
                                        engine_seed=SEED)
        expected = baseline.run(stream)
        expected_state = end_state(baseline)
        expected_emitted = list(baseline.emitted)
        baseline.close()

        with tempfile.TemporaryDirectory() as tmp:
            journal, checkpoint_dir = durable_prefix(
                Path(tmp), stream, crash_at, method=method,
                every=every)
            result = recover(
                journal,
                checkpoint_dir=checkpoint_dir if every else None)
            try:
                tail = result.service.run(stream[crash_at:])
                recovered = result.records + tail
                if every == 0:
                    # Genesis recovery replays everything: the whole
                    # trace and emission log must match exactly.
                    assert result.replayed_events == crash_at
                    assert diff_traces(expected,
                                       recovered).identical
                    assert len(recovered) == len(expected)
                    assert list(result.service.emitted) \
                        == expected_emitted
                else:
                    aligned, candidate = align_traces(expected,
                                                      recovered)
                    assert diff_traces(aligned, candidate).identical
                    rederived = list(result.service.emitted)
                    assert rederived == expected_emitted[
                        len(expected_emitted) - len(rederived):]
                assert end_state(result.service) == expected_state
            finally:
                result.service.close()
