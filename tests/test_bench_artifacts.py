"""The committed benchmark artifacts back the claims the docs make.

``BENCH_rhtalu.json`` (PR 2), ``BENCH_shards.json`` (PR 3),
``BENCH_stream.json`` (PR 4), ``BENCH_recovery.json`` (PR 6),
``BENCH_supervision.json`` (PR 7) and ``BENCH_obs.json`` (PR 9)
are regenerated by their
``benchmarks/bench_*.py`` drivers and committed;
these tests pin the *structure and acceptance properties* of what is
committed — bit-identity verdicts recorded true, the shard sweep
showing >= 2x critical-path speedup at 4 workers over 1, incremental
churn maintenance beating rebuild-per-event, every recovery cell
replaying to an identical trace — so a regenerated artifact that
regresses fails the suite instead of silently landing.  No wall-clock
numbers are pinned (they vary per machine); shapes, verdicts, and
monotone relations are.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent


def load(name: str) -> dict:
    path = REPO / name
    assert path.exists(), f"{name} must be committed at the repo root"
    return json.loads(path.read_text(encoding="utf-8"))


class TestShardScalingArtifact:
    @pytest.fixture(scope="class")
    def artifact(self) -> dict:
        return load("BENCH_shards.json")

    def test_figure_12_workload(self, artifact):
        workload = artifact["workload"]
        assert workload["num_slots"] == 15
        assert workload["num_keywords"] == 10
        assert workload["method"] == "rh"
        assert workload["num_advertisers"] >= 5000

    def test_sweep_covers_1_2_4_workers(self, artifact):
        assert [cell["workers"] for cell in artifact["cells"]] \
            == [1, 2, 4]

    def test_all_cells_bit_identical_to_sequential(self, artifact):
        assert artifact["summary"]["all_identical"] is True
        for cell in artifact["cells"]:
            assert cell["identical_to_sequential"] is True

    def test_four_workers_at_least_twice_one_worker(self, artifact):
        # The PR's acceptance bar: >= 2x auctions/sec (median measured
        # critical path) at 4 workers over 1 worker.
        assert artifact["summary"]["max_workers"] == 4
        speedup = artifact["summary"]["critical_path_speedup_max_vs_1w"]
        assert speedup >= 2.0
        cells = {cell["workers"]: cell for cell in artifact["cells"]}
        assert (cells[4]["median_critical_path_auctions_per_second"]
                >= 2.0 * cells[1][
                    "median_critical_path_auctions_per_second"])

    def test_cells_carry_parallel_wd_accounting(self, artifact):
        for cell in artifact["cells"]:
            parallel = cell["profile"]["parallel_wd"]
            assert parallel["num_leaves"] == cell["workers"]
            assert parallel["critical_path_max"] >= parallel[
                "leaf_work_max"]

    def test_model_speedup_recorded_for_comparison(self, artifact):
        for cell in artifact["cells"]:
            assert cell["model_scan_speedup"] >= 1.0


class TestStreamChurnArtifact:
    @pytest.fixture(scope="class")
    def artifact(self) -> dict:
        return load("BENCH_stream.json")

    def test_figure_12_workload_under_churn(self, artifact):
        workload = artifact["workload"]
        assert workload["num_slots"] == 15
        assert workload["num_keywords"] == 10
        assert workload["num_advertisers"] >= 2000
        assert workload["method"] == "rhtalu"

    def test_sweep_covers_no_churn_and_heavy_churn(self, artifact):
        rates = [cell["churn_rate"] for cell in artifact["cells"]]
        assert rates == sorted(rates)
        assert rates[0] == 0.0
        assert rates[-1] >= 0.2

    def test_incremental_is_bit_identical_to_rebuild(self, artifact):
        assert artifact["summary"]["all_identical"] is True
        for cell in artifact["cells"]:
            assert cell["identical"] is True

    def test_incremental_beats_rebuild_under_churn(self, artifact):
        # The PR's acceptance bar: incremental maintenance wins on the
        # Figure-12 workload under churn.
        top = artifact["summary"][
            "incremental_speedup_at_max_churn"]
        assert top >= 1.2
        for cell in artifact["cells"]:
            if cell["churn_rate"] > 0:
                assert cell["incremental_speedup"] >= 1.1

    def test_cells_carry_per_event_type_timings(self, artifact):
        for cell in artifact["cells"]:
            for side in ("incremental", "rebuild"):
                timings = cell[side]["event_timings"]["by_kind"]
                assert "query" in timings
                assert timings["query"]["count"] == cell["auctions"]
            if cell["churn_rate"] > 0:
                kinds = set(
                    cell["incremental"]["event_timings"]["by_kind"])
                assert {"join", "leave", "update"} <= kinds

    def test_exhaustion_cell_exercises_the_budget_lifecycle(
            self, artifact):
        # The sweep's final cell runs under exhaustion pressure: small
        # join budgets, frequent top-ups.  Pauses AND top-up
        # re-admissions must actually fire there — and the cell is
        # still bit-identical between maintenance strategies, which is
        # the PR's acceptance bar for pause/resume maintenance.
        cell = artifact["cells"][-1]
        assert cell["label"] == "exhaustion"
        lifecycle = cell["budget_lifecycle"]
        assert lifecycle["budget_high"] < 50.0
        assert lifecycle["pauses"] > 0
        assert lifecycle["resumes"] > 0
        assert cell["identical"] is True
        assert artifact["summary"]["exhaustion_pauses"] \
            == lifecycle["pauses"]
        assert artifact["summary"]["exhaustion_resumes"] \
            == lifecycle["resumes"]
        # Incremental maintenance must win under lifecycle pressure
        # too; the summary reports it separately from the plain
        # max-churn speedup the --min-speedup gate reads.
        assert artifact["summary"]["exhaustion_speedup"] \
            == cell["incremental_speedup"]
        assert artifact["summary"]["exhaustion_speedup"] >= 1.1
        # ... and the gate's key comes from a plain churn cell.
        churn_cells = [other for other in artifact["cells"]
                       if other["label"] == "churn"]
        assert artifact["summary"]["incremental_speedup_at_max_churn"] \
            == churn_cells[-1]["incremental_speedup"]

    def test_every_cell_reports_lifecycle_counts(self, artifact):
        for cell in artifact["cells"]:
            lifecycle = cell["budget_lifecycle"]
            assert lifecycle["pauses"] >= 0
            assert lifecycle["resumes"] >= 0
            assert lifecycle["paused_at_end"] >= 0


class TestRecoveryArtifact:
    @pytest.fixture(scope="class")
    def artifact(self) -> dict:
        return load("BENCH_recovery.json")

    def test_sweep_includes_journal_only_and_checkpoints(
            self, artifact):
        intervals = [cell["checkpoint_every"]
                     for cell in artifact["cells"]]
        assert intervals == sorted(intervals)
        assert intervals[0] == 0  # the journal-only cell
        assert artifact["cells"][0]["label"] == "journal-only"
        assert len([every for every in intervals if every > 0]) >= 2

    def test_every_cell_recovered_identically(self, artifact):
        assert artifact["all_identical"] is True
        for cell in artifact["cells"]:
            assert cell["identical"] is True

    def test_replay_length_is_the_watermark_gap(self, artifact):
        cut = artifact["config"]["cut"]
        for cell in artifact["cells"]:
            recovery = cell["recovery"]
            assert recovery["replayed_events"] \
                == cut - recovery["checkpoint_events"]
            if cell["checkpoint_every"] == 0:
                assert recovery["checkpoint_events"] == 0
            else:
                # The newest checkpoint is the last interval multiple
                # at or before the cut.
                assert recovery["checkpoint_events"] \
                    == (cut // cell["checkpoint_every"]) \
                    * cell["checkpoint_every"]

    def test_tighter_intervals_replay_no_more(self, artifact):
        # The trade-off's monotone half: a finer checkpoint schedule
        # never lengthens the replayed suffix.
        checkpointed = [cell for cell in artifact["cells"]
                        if cell["checkpoint_every"] > 0]
        replays = [cell["recovery"]["replayed_events"]
                   for cell in checkpointed]
        assert replays == sorted(replays)
        journal_only = artifact["cells"][0]
        assert all(replay
                   <= journal_only["recovery"]["replayed_events"]
                   for replay in replays)

    def test_serving_cost_is_accounted(self, artifact):
        for cell in artifact["cells"]:
            serving = cell["serving"]
            assert serving["journal_bytes"] > 0
            if cell["checkpoint_every"] == 0:
                assert serving["checkpoints_written"] == 0
                assert serving["checkpoints_retained"] == 0
            else:
                assert serving["checkpoints_written"] \
                    == (artifact["config"]["cut"]
                        // cell["checkpoint_every"])
                assert 1 <= serving["checkpoints_retained"] \
                    <= artifact["config"]["retain"]
                assert serving["checkpoint_bytes_retained"] > 0


class TestSupervisionArtifact:
    @pytest.fixture(scope="class")
    def artifact(self) -> dict:
        return load("BENCH_supervision.json")

    def test_cells_cover_baseline_and_both_heal_paths(self, artifact):
        assert [cell["label"] for cell in artifact["cells"]] \
            == ["baseline", "respawn", "degraded"]

    def test_every_cell_is_bit_identical_to_the_oracle(self,
                                                       artifact):
        # The PR's acceptance bar: healing never costs correctness.
        assert artifact["all_identical"] is True
        for cell in artifact["cells"]:
            assert cell["identical"] is True

    def test_baseline_cell_saw_no_failures(self, artifact):
        baseline = artifact["cells"][0]
        assert baseline["kills"] == 0
        assert baseline["supervision"]["worker_failures"] == 0
        assert baseline["workers_at_end"] \
            == artifact["config"]["workers"]

    def test_respawn_cell_healed_in_place(self, artifact):
        respawn = artifact["cells"][1]
        supervision = respawn["supervision"]
        assert respawn["kills"] >= 1
        assert supervision["respawns"] >= 1
        assert supervision["reshards"] == 0
        assert supervision["mean_heal_seconds"] > 0
        assert supervision["max_heal_seconds"] \
            >= supervision["mean_heal_seconds"]
        # Fleet size preserved: the dead shard came back.
        assert respawn["workers_at_end"] \
            == artifact["config"]["workers"]

    def test_degraded_cell_reshards_to_fewer_workers(self, artifact):
        degraded = artifact["cells"][2]
        supervision = degraded["supervision"]
        assert degraded["max_worker_restarts"] == 0
        assert supervision["reshards"] >= 1
        assert supervision["respawns"] == 0
        assert degraded["workers_at_end"] \
            == artifact["config"]["workers"] - 1

    def test_throughputs_recorded_not_pinned(self, artifact):
        # Wall-clock varies per machine: require only presence and
        # positivity, never magnitudes.
        assert artifact["oracle_wall_seconds"] > 0
        for cell in artifact["cells"]:
            assert cell["wall_seconds"] > 0
            assert cell["events_per_second"] > 0


class TestObsArtifact:
    @pytest.fixture(scope="class")
    def artifact(self) -> dict:
        return load("BENCH_obs.json")

    def test_full_size_figure_12_workload(self, artifact):
        workload = artifact["workload"]
        assert workload["num_slots"] == 15
        assert workload["num_keywords"] == 10
        assert workload["quick"] is False
        assert workload["repeats"] >= 2

    def test_cells_cover_inproc_batched_and_sharded(self, artifact):
        assert [cell["label"] for cell in artifact["cells"]] \
            == ["rh-inproc", "rh-batched", "rh-sharded"]
        cells = {cell["label"]: cell for cell in artifact["cells"]}
        assert cells["rh-batched"]["window"] >= 2
        assert cells["rh-sharded"]["workers"] >= 2

    def test_instrumented_runs_are_non_perturbing(self, artifact):
        # The PR's correctness headline: observing never moves a
        # decision, and the span trace covers every event exactly
        # once, per cell.
        assert artifact["summary"]["all_identical"] is True
        for cell in artifact["cells"]:
            assert cell["identical"] is True
            assert cell["trace_schema_clean"] is True
            assert cell["root_spans"] == cell["events"]

    def test_overhead_within_asserted_bound(self, artifact):
        # The PR's acceptance bar: instrumented query-serving time
        # within the committed bound of the dark run's, every cell.
        summary = artifact["summary"]
        assert summary["within_bound"] is True
        assert summary["max_overhead_ratio"] <= summary["bound"]
        assert summary["max_overhead_ratio"] == max(
            cell["overhead_ratio"] for cell in artifact["cells"])
        for cell in artifact["cells"]:
            assert cell["overhead_ratio"] <= summary["bound"]

    def test_timings_recorded_not_pinned(self, artifact):
        for cell in artifact["cells"]:
            assert cell["dark_query_seconds"] > 0
            assert cell["instrumented_query_seconds"] > 0
            assert cell["auctions"] > 0


class TestRhtaluArtifactStillPresent:
    def test_pr2_artifact_remains_and_is_identical(self):
        artifact = load("BENCH_rhtalu.json")
        for cell in artifact["cells"]:
            assert cell["identical"] is True
