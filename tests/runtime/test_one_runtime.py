"""One runtime class, one control ladder per representation.

What the fold of the streaming subclass into
:class:`~repro.runtime.ShardedAuctionRuntime` newly makes expressible,
and the seams it rests on:

* the fixed population and supervision compose — an offline
  ``run_batch`` heals a killed worker (respawn, then degrade) and stays
  bit-identical to the sequential engine, with the healed shard rebuilt
  from the workload recipe plus replayed history;
* ``restore_capture`` is the one discriminator between the offline
  population (``None``: workers bulk-join the workload's rows) and the
  service's (a capture, empty at genesis), all the way into
  :class:`~repro.runtime.worker.WorkerInit`;
* a runtime fed empty captures and join notices serves the same
  auctions offline ``run_batch`` serves over the bulk-joined
  population — a control notice and a bulk-joined row are the same row.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.auction.batch import BatchStats, PacerArrays
from repro.bench import records_identical
from repro.evaluation.evaluator import RhtaluEvaluator
from repro.evaluation.pacer_arrays import LazyPacerArrays
from repro.runtime import ShardedAuctionRuntime
from repro.runtime.messages import ControlNotice
from repro.workloads import PaperWorkload, PaperWorkloadConfig

CONFIG = PaperWorkloadConfig(num_advertisers=20, num_slots=3,
                             num_keywords=3, seed=11)
METHODS = ("rh", "lp", "rhtalu")


def sequential(method, auctions, engine_seed=5):
    engine = PaperWorkload(CONFIG).build_engine(method,
                                                engine_seed=engine_seed)
    return engine.run(auctions), engine.accounts


class TestSupervisedFixedPopulation:
    @pytest.mark.parametrize("method", METHODS)
    def test_killed_worker_heals_bit_identically(self, method):
        reference, accounts = sequential(method, 30)
        with ShardedAuctionRuntime(
                CONFIG, method=method, workers=3, engine_seed=5,
                supervise=True, round_timeout=60.0,
                max_worker_restarts=1) as runtime:
            records = runtime.run_batch(8)
            for _ in range(2):  # a respawn, then a degraded re-shard
                victim = runtime._processes[1]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                records += runtime.run_batch(8)
            records += runtime.run_batch(6)
            stats = runtime.supervisor.stats
            assert (stats.respawns, stats.reshards) == (1, 1)
            assert runtime.plan.num_shards == 2
        assert records_identical(reference, records)
        assert accounts.provider_revenue \
            == runtime.accounts.provider_revenue


class TestPopulationSource:
    def test_offline_workers_populate_from_the_recipe(self):
        runtime = ShardedAuctionRuntime(CONFIG, workers=2)
        assert runtime._active.all()
        init = runtime._make_worker_init(1)
        assert init.restore is None
        assert (init.lo, init.hi) == runtime.plan.spans()[1]
        assert init.maintenance == "incremental"
        # A supervisor-retained capture wins over the spawn recipe.
        assert runtime._make_worker_init(1, {"ids": []}).restore \
            == {"ids": []}

    def test_service_shards_start_from_captures(self):
        runtime = ShardedAuctionRuntime(CONFIG, workers=2,
                                        maintenance="rebuild",
                                        restore_capture={})
        assert not runtime._active.any()
        init = runtime._make_worker_init(0)
        assert init.restore == {} and init.restore is not None
        assert init.maintenance == "rebuild"

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="maintenance"):
            ShardedAuctionRuntime(CONFIG, maintenance="lazy")
        with pytest.raises(ValueError, match="max_worker_restarts"):
            ShardedAuctionRuntime(CONFIG, max_worker_restarts=-1)

    @pytest.mark.parametrize("method", METHODS)
    def test_joined_by_notice_equals_bulk_joined(self, method):
        """Empty captures + one join notice per advertiser is the
        fixed population: the offline entry point serves it alike."""
        workload = PaperWorkload(CONFIG)
        targets, bids, maxbids, values = workload.pacer_rows()
        with ShardedAuctionRuntime(CONFIG, method=method, workers=2,
                                   engine_seed=5) as bulk:
            expected = bulk.run_batch(25)
        with ShardedAuctionRuntime(
                CONFIG, method=method, workers=2, engine_seed=5,
                restore_capture={}) as fed:
            for advertiser in range(CONFIG.num_advertisers):
                fed.apply_control(ControlNotice(
                    kind="join", advertiser=advertiser,
                    target=float(targets[advertiser]),
                    bids=bids[advertiser], maxbids=maxbids[advertiser],
                    values=values[advertiser]))
            assert fed._active.all()
            records = fed.run_batch(25)
        assert records_identical(expected, records)


class TestLadders:
    def test_unknown_kind_is_refused_by_both(self):
        notice = ControlNotice(kind="rename", advertiser=0)
        with pytest.raises(ValueError, match="unknown control kind"):
            PacerArrays.for_universe(2, ["kw"]).apply_control(notice, 1.0)
        with pytest.raises(ValueError, match="unknown control kind"):
            RhtaluEvaluator(np.ones((2, 1)), LazyPacerArrays(2, ["kw"])
                            ).apply_control(notice)

    def test_offset_translates_global_ids(self):
        arrays = PacerArrays.for_universe(3, ["kw"])
        one = np.ones(1)
        arrays.apply_control(ControlNotice(
            kind="join", advertiser=12, target=1.0, bids=one,
            maxbids=2 * one, values=one), step=0.5, offset=10)
        assert arrays.active_ids().tolist() == [2]
        arrays.apply_control(ControlNotice(kind="pause", advertiser=12),
                             step=0.5, offset=10)
        assert list(arrays.paused) == [2]


def test_batch_stats_observe_counts_signatures_and_groups():
    stats = BatchStats()
    firsts = [stats.observe(keyword)
              for keyword in ("a", "a", "b", "a", "a", "c")]
    assert firsts == [True, False, True, False, False, True]
    assert (stats.auctions, stats.groups, stats.signatures) == (6, 4, 3)
    assert stats.mean_group_length == 1.5
