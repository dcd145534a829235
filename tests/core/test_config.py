"""DLRMConfig: Table I presets and Table II derived quantities."""

import dataclasses

import pytest

from repro.core.config import (
    CONFIGS,
    LARGE,
    MLPERF,
    SMALL,
    get_config,
    table_one,
    table_two,
)


class TestPresets:
    def test_small_matches_table_one(self):
        assert SMALL.minibatch == 2048
        assert SMALL.global_minibatch == 8192
        assert SMALL.local_minibatch == 1024
        assert SMALL.lookups_per_table == 50
        assert SMALL.num_tables == 8
        assert SMALL.embedding_dim == 64
        assert all(m == 1_000_000 for m in SMALL.table_rows)

    def test_large_matches_table_one(self):
        assert LARGE.global_minibatch == 16384
        assert LARGE.local_minibatch == 512
        assert LARGE.lookups_per_table == 100
        assert LARGE.num_tables == 64
        assert LARGE.embedding_dim == 256
        assert all(m == 6_000_000 for m in LARGE.table_rows)
        assert len(LARGE.bottom_mlp) == 8
        assert len(LARGE.top_mlp) == 16

    def test_mlperf_matches_table_one(self):
        assert MLPERF.num_tables == 26
        assert MLPERF.embedding_dim == 128
        assert MLPERF.lookups_per_table == 1
        assert MLPERF.dense_features == 13
        assert max(MLPERF.table_rows) <= 40_000_000
        assert MLPERF.bottom_mlp == (512, 256, 128)

    def test_get_config_case_insensitive(self):
        assert get_config("Small") is SMALL
        assert get_config("MLPERF") is MLPERF

    def test_get_config_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown config"):
            get_config("resnet50")


class TestDerivedShapes:
    def test_interaction_dim_small(self):
        # 9 vectors -> 36 pairs + E=64 = 100 (Sect. II math).
        assert SMALL.interaction_dim == 100

    def test_interaction_dim_large(self):
        assert LARGE.interaction_dim == 256 + 65 * 64 // 2

    def test_interaction_dim_cat(self):
        cat = dataclasses.replace(SMALL, interaction="cat")
        assert cat.interaction_dim == 9 * 64

    def test_bottom_ends_at_embedding_dim(self):
        for cfg in CONFIGS.values():
            assert cfg.bottom_mlp[-1] == cfg.embedding_dim

    def test_layer_shapes_chain(self):
        for cfg in CONFIGS.values():
            shapes = cfg.mlp_layer_shapes()
            bottom = cfg.bottom_layer_shapes()
            assert bottom[0][0] == cfg.dense_features
            assert cfg.top_layer_shapes()[0][0] == cfg.interaction_dim
            for (a, b), (c, d) in zip(bottom, bottom[1:]):
                assert b == c
            assert shapes[-1][1] == 1

    def test_bottom_must_end_at_e(self):
        with pytest.raises(ValueError, match="embedding dimension"):
            dataclasses.replace(SMALL, bottom_mlp=(512, 32))

    def test_top_must_end_at_one(self):
        with pytest.raises(ValueError, match="single logit"):
            dataclasses.replace(SMALL, top_mlp=(1024, 8))


class TestTableTwo:
    """The paper's Table II values, from Eq. 1 and Eq. 2."""

    def test_allreduce_sizes_match_paper(self):
        # Paper: 9.5 / 1047 / 9.0 MB.
        assert SMALL.allreduce_bytes / 2**20 == pytest.approx(9.5, rel=0.02)
        assert LARGE.allreduce_bytes / 2**20 == pytest.approx(1047, rel=0.01)
        assert MLPERF.allreduce_bytes / 2**20 == pytest.approx(9.0, rel=0.01)

    def test_alltoall_volumes_match_paper(self):
        # Paper: 15.8 / 1024 / 208 MB at the strong-scaling GN.
        assert SMALL.alltoall_bytes() / 2**20 == pytest.approx(16.0, rel=0.02)
        assert LARGE.alltoall_bytes() / 2**20 == pytest.approx(1024, rel=0.01)
        assert MLPERF.alltoall_bytes() / 2**20 == pytest.approx(208, rel=0.01)

    def test_alltoall_scales_with_global_minibatch(self):
        assert SMALL.alltoall_bytes(4096) * 2 == SMALL.alltoall_bytes(8192)

    def test_embedding_capacities_match_paper(self):
        # Paper: 2 / 384 / 98 GB.
        assert SMALL.embedding_bytes / 1e9 == pytest.approx(2.0, rel=0.05)
        assert LARGE.embedding_bytes / 1e9 == pytest.approx(393, rel=0.05)
        assert MLPERF.embedding_bytes / 1e9 == pytest.approx(96, rel=0.05)

    def test_min_sockets_match_paper(self):
        # Paper: 1 / 4 / 1 at 192 GB per socket.
        cap = 192e9
        assert SMALL.min_sockets(cap) == 1
        assert LARGE.min_sockets(cap) == 4
        assert MLPERF.min_sockets(cap) == 1

    def test_large_needs_450gb_on_one_socket(self):
        # Sect. VI-C: "it needs minimum of 450GB DRAM memory capacity".
        assert LARGE.required_memory_bytes() / 1e9 == pytest.approx(450, rel=0.1)

    def test_max_ranks_equals_table_count(self):
        assert SMALL.max_ranks == 8
        assert LARGE.max_ranks == 64
        assert MLPERF.max_ranks == 26

    def test_table_renderers_cover_all_configs(self):
        assert {r["config"] for r in table_one()} == set(CONFIGS)
        assert {r["config"] for r in table_two()} == set(CONFIGS)


class TestScaledDown:
    def test_preserves_structure(self):
        s = LARGE.scaled_down(rows_cap=100, minibatch=8)
        assert s.num_tables == LARGE.num_tables
        assert s.bottom_mlp == LARGE.bottom_mlp
        assert s.top_mlp == LARGE.top_mlp
        assert all(m <= 100 for m in s.table_rows)
        assert s.minibatch == 8

    def test_validation_rejects_empty_tables(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, table_rows=())
