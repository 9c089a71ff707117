import pytest

from placement_opt.datagen import (
    BRANCH_BLOCKS,
    ENCODER_DECODER,
    LAYERED_RANDOM,
    MAX_DATASET_SIZE,
    MAX_GRAPH_SIZE,
    DatagenError,
    FamilySpec,
    generate_family,
    read_dataset,
    split,
    write_dataset,
)
from placement_opt.graph_core import reachability, relation_sets, save_graph, topological_order


def encoder_decoder_node_count(layers: int, unroll: int) -> int:
    """2*L*T cells plus T attention nodes."""
    return 2 * layers * unroll + unroll


def spec(**kw):
    base = dict(family=BRANCH_BLOCKS, count=4, seed=0)
    base.update(kw)
    return FamilySpec(**base)


class TestBranchBlocks:
    def test_minimal_block_is_diamond(self):
        s = spec(blocks=1, branches_lo=2, branches_hi=2, branch_ops_lo=1, branch_ops_hi=1)
        g = generate_family(s)[0]
        assert g.num_nodes == 4
        idx = reachability(g)
        assert relation_sets(idx, 1)[2] == [2]  # the two branch ops run in parallel

    def test_blocks_chain_up(self):
        s = spec(blocks=3, branches_lo=2, branches_hi=2, branch_ops_lo=1, branch_ops_hi=1)
        g = generate_family(s)[0]
        assert g.num_nodes == 12  # 3 blocks x (entry + 2 branch ops + join)
        order = topological_order(g)
        assert len(order) == 12

    def test_eight_group_family(self):
        s = spec(blocks=1, branches_lo=2, branches_hi=2, branch_ops_lo=3, branch_ops_hi=3)
        for g in generate_family(s):
            assert g.num_nodes == 8


class TestEncoderDecoder:
    def test_node_count_closed_form(self):
        s = spec(family=ENCODER_DECODER, layers_lo=2, layers_hi=2, unroll_lo=3, unroll_hi=3)
        g = generate_family(s)[0]
        # 2 stacks x 2 layers x 3 steps = 12 cells plus 3 attention nodes
        assert encoder_decoder_node_count(2, 3) == 15
        assert g.num_nodes == 15

    def test_count_matches_sampled_shape(self):
        s = spec(family=ENCODER_DECODER, layers_lo=1, layers_hi=3, unroll_lo=2, unroll_hi=5)
        for g in generate_family(s):
            n = g.num_nodes
            assert any(
                n == encoder_decoder_node_count(l, t) for l in range(1, 4) for t in range(2, 6)
            )


class TestLayeredRandom:
    def test_every_node_past_first_layer_has_a_parent(self):
        s = spec(family=LAYERED_RANDOM, layers_lo=3, layers_hi=5, branches_lo=2, branches_hi=4)
        for g in generate_family(s):
            depthless = [v for v in range(g.num_nodes) if not g.parents[v]]
            # sources only in the first layer; every graph is a valid DAG by
            # construction (build() validates)
            assert len(depthless) >= 1


class TestDeterminismAndSplit:
    def test_same_spec_same_bytes(self):
        s = spec(count=6)
        a = [save_graph(g) for g in generate_family(s)]
        b = [save_graph(g) for g in generate_family(s)]
        assert a == b

    def test_distinct_seeds_distinct_graphs(self):
        seen = set()
        for seed in range(1000):
            s = spec(count=2, seed=seed)
            seen.add(save_graph(generate_family(s)[0]))
        assert len(seen) == 1000

    def test_split_16_16(self):
        s = spec(count=32)
        graphs = generate_family(s)
        train, test = split(graphs, 0.5, seed=0)
        assert len(train) == 16 and len(test) == 16
        names = {g.name for g in graphs}
        assert {g.name for g in train} | {g.name for g in test} == names
        assert {g.name for g in train} & {g.name for g in test} == set()

    def test_split_seeded(self):
        graphs = generate_family(spec(count=10))
        a = split(graphs, 0.3, seed=4)
        b = split(graphs, 0.3, seed=4)
        assert [g.name for g in a[0]] == [g.name for g in b[0]]
        assert len(a[0]) == 3  # ceil(0.3 * 10)

    def test_validation(self):
        with pytest.raises(DatagenError):
            FamilySpec(family="nope")
        with pytest.raises(DatagenError):
            spec(count=1)
        with pytest.raises(DatagenError):
            spec(compute_lo=2.0, compute_hi=1.0)
        with pytest.raises(DatagenError):
            split([], 1.5, 0)

    @pytest.mark.parametrize(
        "field, value",
        [("blocks", 0), ("blocks", -2), ("branches_lo", 0), ("branch_ops_lo", 0), ("layers_lo", 0),
         ("unroll_lo", 0), ("compute_lo", -0.5), ("compute_lo", float("nan")), ("bytes_lo", -1.0)],
    )
    def test_degenerate_sizes_rejected(self, field, value):
        hi = {"compute_lo": "compute_hi", "bytes_lo": "bytes_hi"}.get(field, field.replace("_lo", "_hi"))
        kw = {field: value} if field == "blocks" else {field: value, hi: max(value, 0)}
        with pytest.raises(DatagenError, match=field):
            spec(**kw)

    @pytest.mark.parametrize("family", [BRANCH_BLOCKS, ENCODER_DECODER, LAYERED_RANDOM])
    def test_unit_ranges_generate(self, family):
        # The smallest accepted counts still give valid graphs.
        s = spec(family=family, blocks=1, branches_lo=1, branches_hi=1, branch_ops_lo=1, branch_ops_hi=1,
                 layers_lo=1, layers_hi=1, unroll_lo=1, unroll_hi=1, compute_lo=0.0, bytes_lo=0.0)
        assert all(g.num_nodes >= 1 for g in generate_family(s))


class TestSizeLimits:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(family=BRANCH_BLOCKS, blocks=3, branches_lo=1, branches_hi=4, branch_ops_lo=1, branch_ops_hi=3),
            dict(family=BRANCH_BLOCKS, blocks=2, branches_lo=3, branches_hi=3, branch_ops_lo=2, branch_ops_hi=2),
            dict(family=ENCODER_DECODER, layers_lo=1, layers_hi=3, unroll_lo=1, unroll_hi=5),
            dict(family=ENCODER_DECODER, layers_lo=2, layers_hi=2, unroll_lo=4, unroll_hi=4),
            dict(family=LAYERED_RANDOM, layers_lo=1, layers_hi=5, branches_lo=1, branches_hi=4),
            dict(family=LAYERED_RANDOM, layers_lo=3, layers_hi=3, branches_lo=2, branches_hi=2),
        ],
    )
    def test_largest_graph_bounds_every_graph(self, kw):
        s = spec(count=12, **kw)
        bound, _ = s._largest_graph()
        sizes = [g.num_nodes + len(g.edges) for g in generate_family(s)]
        assert max(sizes) <= bound
        if s.family == ENCODER_DECODER and s.layers_lo == s.layers_hi and s.unroll_lo == s.unroll_hi:
            assert sizes == [bound] * 12  # the bound is exact for a fixed shape

    def test_dataset_limit_is_inclusive(self):
        size, _ = spec()._largest_graph()
        assert spec(count=MAX_DATASET_SIZE // size).count == MAX_DATASET_SIZE // size
        with pytest.raises(DatagenError, match="count"):
            spec(count=MAX_DATASET_SIZE // size + 1)

    @pytest.mark.parametrize(
        "kw, field",
        [
            (dict(family=BRANCH_BLOCKS, blocks=MAX_GRAPH_SIZE), "blocks"),
            (dict(family=BRANCH_BLOCKS, branch_ops_hi=MAX_GRAPH_SIZE), "branch_ops_hi"),
            (dict(family=ENCODER_DECODER, unroll_hi=1000), "unroll_hi"),
            (dict(family=LAYERED_RANDOM, branches_hi=1000), "branches_hi"),
            (dict(family=LAYERED_RANDOM, layers_hi=2**63), "layers_hi"),
        ],
    )
    def test_graph_limit_names_its_fields(self, kw, field):
        with pytest.raises(DatagenError, match=field):
            spec(**kw)


class TestDatasetIO:
    def test_write_read_round_trip(self, tmp_path):
        s = spec(count=6)
        manifest = write_dataset(tmp_path / "ds", s)
        assert len(manifest["members"]) == 6
        loaded, train, test = read_dataset(tmp_path / "ds")
        assert loaded["spec"]["family"] == BRANCH_BLOCKS
        assert len(train) == 3 and len(test) == 3
        regenerated = {g.name: save_graph(g) for g in generate_family(s)}
        for g in train + test:
            assert save_graph(g) == regenerated[g.name]
