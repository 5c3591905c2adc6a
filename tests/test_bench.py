"""Tests for the benchmark utilities."""

from repro.bench import PHASES, profile_run, records_identical
from repro.workloads import PaperWorkload, PaperWorkloadConfig


class TestPhaseProfiles:
    def _engine(self):
        workload = PaperWorkload(PaperWorkloadConfig(
            num_advertisers=15, num_slots=3, num_keywords=2, seed=1))
        return workload.build_engine("rh", engine_seed=2)

    def test_profile_run_aggregates_phases(self):
        records, profile = profile_run(self._engine(), 12, batch=True)
        assert len(records) == 12
        assert profile.auctions == 12
        assert profile.batched
        assert profile.auctions_per_second > 0
        phases = profile.phase_ms()
        assert set(phases) == set(PHASES)
        assert all(value >= 0.0 for value in phases.values())

    def test_records_identical_detects_differences(self):
        engine_a, engine_b = self._engine(), self._engine()
        records_a = engine_a.run(6)
        records_b = engine_b.run_batch(6)
        assert records_identical(records_a, records_b)
        assert not records_identical(records_a, records_b[:-1])
        assert not records_identical(records_a[:3], records_b[3:])
