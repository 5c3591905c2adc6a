"""The sharded runtime's contract: bit-identical to the engine.

The invariant PR 1 established for batching and PR 2 for the
vectorized RHTALU path, extended across process boundaries: under a
fixed seed, the multi-process runtime's merged records, prices,
account balances, and decision metrics equal the single-process
engine's *exactly* (float equality), for every supported method, for
worker counts that divide the population evenly, unevenly, and not at
all (empty shards).  Timing stamps and work accounting (TA access
counts) are execution-shape dependent and are the only exempt fields.
"""

from __future__ import annotations

import pytest

from repro.auction.metrics import summarize
from repro.bench import records_identical
from repro.runtime import ShardedAuctionRuntime
from repro.workloads import PaperWorkload, PaperWorkloadConfig

NUM_SLOTS = 5
NUM_KEYWORDS = 4
AUCTIONS = 40

METHODS = ("rh", "lp", "rhtalu")


def workload_config(num_advertisers: int,
                    seed: int = 11) -> PaperWorkloadConfig:
    return PaperWorkloadConfig(
        num_advertisers=num_advertisers, num_slots=NUM_SLOTS,
        num_keywords=NUM_KEYWORDS, seed=seed)


def sequential_run(config: PaperWorkloadConfig, method: str,
                   auctions: int = AUCTIONS, engine_seed: int = 5):
    engine = PaperWorkload(config).build_engine(
        method, engine_seed=engine_seed)
    records = engine.run(auctions)
    return records, engine.accounts


def sharded_run(config: PaperWorkloadConfig, method: str, workers: int,
                auctions: int = AUCTIONS, engine_seed: int = 5):
    with ShardedAuctionRuntime(config, method=method, workers=workers,
                               engine_seed=engine_seed) as runtime:
        records = runtime.run_batch(auctions)
    return records, runtime.accounts


def assert_equivalent(reference, sharded):
    ref_records, ref_accounts = reference
    got_records, got_accounts = sharded
    assert records_identical(ref_records, got_records)
    # Balances: every counter and every charged cent, exactly.
    assert ref_accounts.provider_revenue == got_accounts.provider_revenue
    assert set(ref_accounts.accounts) == set(got_accounts.accounts)
    for advertiser, account in ref_accounts.accounts.items():
        assert got_accounts.accounts[advertiser] == account
    # Decision metrics (timing means are execution-dependent).
    ref_summary = summarize(ref_records)
    got_summary = summarize(got_records)
    assert ref_summary.auctions == got_summary.auctions
    assert (ref_summary.total_expected_revenue
            == got_summary.total_expected_revenue)
    assert (ref_summary.total_realized_revenue
            == got_summary.total_realized_revenue)
    assert ref_summary.total_clicks == got_summary.total_clicks
    assert ref_summary.total_impressions == got_summary.total_impressions


class TestBitIdentity:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_even_population(self, method, workers):
        config = workload_config(num_advertisers=36)
        assert_equivalent(sequential_run(config, method),
                          sharded_run(config, method, workers))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_uneven_shards(self, method, workers):
        # 37 % 4 != 0: shard sizes differ by one.
        config = workload_config(num_advertisers=37)
        assert_equivalent(sequential_run(config, method),
                          sharded_run(config, method, workers))

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_shards(self, method):
        # More workers than advertisers: trailing shards own nobody.
        config = workload_config(num_advertisers=3, seed=2)
        assert_equivalent(sequential_run(config, method),
                          sharded_run(config, method, workers=5))

    def test_candidate_counts_match_for_rhtalu(self):
        # mean_candidates is part of the run metrics; RHTALU's sharded
        # TA must select the same candidate union.
        config = workload_config(num_advertisers=36)
        ref_records, _ = sequential_run(config, "rhtalu")
        got_records, _ = sharded_run(config, "rhtalu", workers=3)
        assert (summarize(ref_records).mean_candidates
                == summarize(got_records).mean_candidates)


class TestRuntimeBehaviour:
    def test_consecutive_batches_continue_the_stream(self):
        config = workload_config(num_advertisers=24)
        reference = sequential_run(config, "rh", auctions=50)
        with ShardedAuctionRuntime(config, method="rh", workers=3,
                                   engine_seed=5) as runtime:
            records = runtime.run_batch(20) + runtime.run_batch(30)
            accounts = runtime.accounts
        assert_equivalent(reference, (records, accounts))

    def test_records_carry_parallel_wd_stats(self):
        config = workload_config(num_advertisers=24)
        with ShardedAuctionRuntime(config, method="rh", workers=3,
                                   engine_seed=5) as runtime:
            records = runtime.run_batch(5)
        for record in records:
            stats = record.wd_stats
            assert stats is not None
            assert stats["num_leaves"] == 3
            assert stats["leaf_work_max"] >= 8 * NUM_SLOTS
            assert (stats["critical_path_work"]
                    == stats["leaf_work_max"]
                    + stats["merge_work_total"])

    def test_run_is_run_batch(self):
        config = workload_config(num_advertisers=12)
        reference = sequential_run(config, "rh", auctions=10)
        with ShardedAuctionRuntime(config, method="rh", workers=2,
                                   engine_seed=5) as runtime:
            records = runtime.run(10)
            accounts = runtime.accounts
        assert_equivalent(reference, (records, accounts))

    def test_close_is_idempotent_and_final(self):
        config = workload_config(num_advertisers=12)
        runtime = ShardedAuctionRuntime(config, method="rh", workers=2,
                                        engine_seed=5)
        runtime.run_batch(3)
        runtime.close()
        runtime.close()
        # Shard state died with the workers; silently respawning fresh
        # shards against an advanced coordinator stream would break the
        # bit-identity contract, so running again must fail loudly.
        with pytest.raises(RuntimeError, match="closed"):
            runtime.run_batch(1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ShardedAuctionRuntime(workload_config(8), workers=0)

    def test_profile_run_integration(self):
        from repro.bench import profile_run

        config = workload_config(num_advertisers=24)
        with ShardedAuctionRuntime(config, method="rh", workers=2,
                                   engine_seed=5) as runtime:
            records, profile = profile_run(runtime, 12, batch=True)
        assert profile.auctions == 12
        assert profile.batched
        assert "parallel_wd" in profile.extra
        assert profile.extra["parallel_wd"]["num_leaves"] == 2
        assert profile.pipeline_auctions_per_second > 0
