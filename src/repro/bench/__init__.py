"""Benchmark utilities: per-phase profiles, record identity, event timings."""

from repro.bench.profiles import (
    PHASES,
    PhaseProfile,
    aggregate_wd_stats,
    profile_from_records,
    profile_run,
    records_identical,
)
from repro.bench.stream_stats import EventTimings

__all__ = [
    "EventTimings",
    "PHASES",
    "PhaseProfile",
    "aggregate_wd_stats",
    "profile_from_records",
    "profile_run",
    "records_identical",
]
