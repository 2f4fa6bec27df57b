"""Unit tests for the shard plan, path namespacing, and metric merging."""

import zlib

import pytest

from repro.obs.tracing import seed_from_config
from repro.service.engine import EngineConfig
from repro.service.sharding import (
    merge_scenario_metrics,
    plan_shards,
    shard_for_job,
    shard_for_submit,
    shard_for_user,
    shard_node_counts,
    shard_path,
    shard_port,
)


class TestNodeCounts:
    def test_even_split(self):
        assert shard_node_counts(128, 4) == (32, 32, 32, 32)

    def test_remainder_goes_to_the_first_shards(self):
        assert shard_node_counts(10, 3) == (4, 3, 3)

    def test_one_node_per_shard_floor(self):
        assert shard_node_counts(5, 5) == (1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            shard_node_counts(3, 4)

    def test_counts_always_sum_and_stay_balanced(self):
        for nodes in range(1, 40):
            for shards in range(1, nodes + 1):
                counts = shard_node_counts(nodes, shards)
                assert sum(counts) == nodes
                assert max(counts) - min(counts) <= 1


class TestRoutingHash:
    def test_job_hash_is_pinned(self):
        # Pinned values: these are wire/WAL compatibility, not style.
        # crc32 over b"job:<id>" must never silently change.
        assert [shard_for_job(i, 4) for i in range(1, 9)] == \
            [1, 3, 1, 2, 0, 2, 0, 1]

    def test_user_hash_is_pinned(self):
        assert [shard_for_user(u, 4) for u in
                ("alice", "bob", "carol", "dave")] == [2, 2, 2, 0]

    def test_hash_matches_the_documented_formula(self):
        assert shard_for_job(7, 4) == zlib.crc32(b"job:7") % 4
        assert shard_for_user("eve", 3) == zlib.crc32(b"user:eve") % 3

    def test_fallback_chain_id_then_user_then_zero(self):
        assert shard_for_submit(7, "alice", 4) == shard_for_job(7, 4)
        assert shard_for_submit(None, "alice", 4) == shard_for_user("alice", 4)
        assert shard_for_submit(None, None, 4) == 0

    def test_every_shard_is_reachable(self):
        owners = {shard_for_job(i, 4) for i in range(100)}
        assert owners == {0, 1, 2, 3}


class TestPlanShards:
    def base(self, **kw) -> EngineConfig:
        return EngineConfig(policy="librarisk", num_nodes=128, **kw)

    def test_single_shard_is_the_base_config_verbatim(self):
        base = self.base()
        (only,) = plan_shards(base, 1)
        assert only is base
        assert only.as_dict() == base.as_dict()

    def test_shard_fields_are_omitted_from_unsharded_as_dict(self):
        # Pre-sharding WAL headers and trace seeds hash the config
        # dict; an unsharded engine must keep serializing exactly as it
        # did before shard identity existed.
        data = self.base().as_dict()
        assert "shard_id" not in data
        assert "shard_count" not in data

    def test_plan_slices_nodes_and_stamps_identity(self):
        configs = plan_shards(self.base(), 4)
        assert [c.num_nodes for c in configs] == [32, 32, 32, 32]
        assert [(c.shard_id, c.shard_count) for c in configs] == \
            [(i, 4) for i in range(4)]

    def test_every_shard_gets_a_distinct_trace_seed(self):
        configs = plan_shards(self.base(), 4)
        seeds = {seed_from_config(c.as_dict()) for c in configs}
        assert len(seeds) == 4
        assert seed_from_config(self.base().as_dict()) not in seeds

    def test_resharding_a_shard_is_rejected(self):
        sharded = plan_shards(self.base(), 2)[0]
        with pytest.raises(ValueError):
            plan_shards(sharded, 2)

    def test_shard_identity_is_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(shard_id=2, shard_count=2)
        with pytest.raises(ValueError):
            EngineConfig(shard_count=0)


class TestShardPaths:
    def test_suffix_lands_before_the_extension(self):
        assert shard_path("/var/svc.wal", 0, 4) == "/var/svc.shard0of4.wal"
        assert shard_path("state/ckpt.json", 3, 4) == \
            "state/ckpt.shard3of4.json"

    def test_extensionless_base(self):
        assert shard_path("wal", 1, 2) == "wal.shard1of2"

    def test_paths_never_collide_in_a_shared_directory(self):
        paths = {shard_path("/tmp/fleet.wal", i, 8) for i in range(8)}
        assert len(paths) == 8

    def test_bad_identity_is_rejected(self):
        with pytest.raises(ValueError):
            shard_path("w.wal", 4, 4)
        with pytest.raises(ValueError):
            shard_path("w.wal", 0, 0)

    def test_worker_ports_follow_the_router(self):
        assert [shard_port(8331, i) for i in range(3)] == [8332, 8333, 8334]
        assert shard_port(0, 2) == 0


def metrics_dict(**overrides) -> dict:
    base = {
        "total_submitted": 10, "accepted": 8, "rejected": 2, "completed": 7,
        "unfinished": 1, "failed": 0, "deadlines_fulfilled": 6,
        "pct_deadlines_fulfilled": 60.0, "avg_slowdown": 1.5,
        "avg_delay_of_late_jobs": 4.0, "completed_late": 1,
        "utilisation": 0.5, "acceptance_pct": 80.0,
        "high_pct_fulfilled": 50.0, "low_pct_fulfilled": 62.5,
        "high_submitted": 2, "high_fulfilled": 1,
        "low_submitted": 8, "low_fulfilled": 5,
    }
    base.update(overrides)
    return base


class TestMergeScenarioMetrics:
    def test_single_shard_passes_through_untouched(self):
        one = metrics_dict()
        assert merge_scenario_metrics([one], [128]) == one

    def test_counts_sum_and_ratios_recompute_exactly(self):
        a = metrics_dict()
        b = metrics_dict(
            total_submitted=30, accepted=15, deadlines_fulfilled=12,
            completed_late=3, avg_slowdown=2.5, avg_delay_of_late_jobs=8.0,
            utilisation=0.25, high_submitted=10, high_fulfilled=4,
            low_submitted=20, low_fulfilled=8,
        )
        merged = merge_scenario_metrics([a, b], [32, 96])
        assert merged["total_submitted"] == 40
        assert merged["accepted"] == 23
        assert merged["pct_deadlines_fulfilled"] == 100.0 * 18 / 40
        assert merged["acceptance_pct"] == 100.0 * 23 / 40
        # Job-count-weighted means, not naive averages of averages.
        assert merged["avg_slowdown"] == (1.5 * 6 + 2.5 * 12) / 18
        assert merged["avg_delay_of_late_jobs"] == (4.0 * 1 + 8.0 * 3) / 4
        # Node-count-weighted utilisation.
        assert merged["utilisation"] == (0.5 * 32 + 0.25 * 96) / 128
        assert merged["high_pct_fulfilled"] == 100.0 * 5 / 12
        assert merged["low_pct_fulfilled"] == 100.0 * 13 / 28

    def test_key_order_matches_a_single_engine_dict(self):
        merged = merge_scenario_metrics(
            [metrics_dict(), metrics_dict()], [64, 64]
        )
        assert list(merged) == list(metrics_dict())

    def test_zero_denominators_do_not_divide(self):
        empty = metrics_dict(
            total_submitted=0, accepted=0, rejected=0, completed=0,
            unfinished=0, deadlines_fulfilled=0, completed_late=0,
            utilisation=0.0, avg_slowdown=0.0, avg_delay_of_late_jobs=0.0,
            high_submitted=0, high_fulfilled=0, low_submitted=0,
            low_fulfilled=0,
        )
        merged = merge_scenario_metrics([empty, empty], [4, 4])
        assert merged["pct_deadlines_fulfilled"] == 0.0
        assert merged["avg_slowdown"] == 0.0

    def test_mismatched_inputs_are_rejected(self):
        with pytest.raises(ValueError):
            merge_scenario_metrics([metrics_dict()], [64, 64])
        with pytest.raises(ValueError):
            merge_scenario_metrics([], [])

