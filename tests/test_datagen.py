import sys
import tracemalloc

import numpy as np
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
from placement_opt.graph_core import (
    ComputationGraph,
    OpGroup,
    reachability,
    relation_sets,
    save_graph,
    topological_order,
)


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
        with pytest.raises(DatagenError, match="family key 'family' must be one of "):
            FamilySpec(family="nope")
        with pytest.raises(DatagenError, match="family key 'seed' must be an integer >= 0, not -1"):
            spec(seed=-1)
        with pytest.raises(DatagenError, match="family key 'count' must be an integer >= 2, not 1"):
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

    @pytest.mark.parametrize(
        "kw, field",
        [(dict(compute_hi=10**400), "compute_hi"), (dict(bytes_lo=10**400, bytes_hi=10**401), "bytes_lo"),
         (dict(bytes_hi=-(10**400)), "bytes_hi"), (dict(compute_lo=float("-inf")), "compute_lo")],
    )
    def test_float_bounds_beyond_float_range_rejected(self, kw, field):
        # generate_family would take each bound as a float; 10**400 has none.
        with pytest.raises(DatagenError, match=f"family key '{field}' must be a finite number"):
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


class TestWriteDataset:
    def test_split_matches_splitting_the_graphs(self, tmp_path):
        s = spec(count=7, train_fraction=0.3, seed=12)
        manifest = write_dataset(tmp_path / "ds", s)
        train, test = split(generate_family(s), s.train_fraction, s.seed)
        assert [m["name"] for m in manifest["members"]] == [g.name for g in generate_family(s)]
        assert {m["name"] for m in manifest["members"] if m["split"] == "train"} == {g.name for g in train}
        assert {m["name"] for m in manifest["members"] if m["split"] == "test"} == {g.name for g in test}

    def test_holds_one_graph_at_a_time(self, tmp_path):
        # Graphs of about 500 nodes: holding every graph until the end
        # peaked at about 6x the two-graph peak for 16 of them.
        def peak(count):
            tracemalloc.start()
            try:
                write_dataset(tmp_path / f"ds{count}", spec(count=count, blocks=48, seed=3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        write_dataset(tmp_path / "warm", spec(count=2, blocks=48, seed=3))
        two, sixteen = peak(2), peak(16)
        assert sixteen <= 1.5 * two, (two, sixteen)


# The generator as it drew each node's cost and bytes by two scalar
# Generator.uniform calls, kept here as the reference the column-drawn
# generator must match byte for byte.

def _reference_add_node(nodes, rng, s) -> int:
    v = len(nodes)
    cost, size = rng.uniform(s.compute_lo, s.compute_hi), rng.uniform(s.bytes_lo, s.bytes_hi)
    nodes.append(OpGroup(id=v, compute_seconds=(float(cost),), output_bytes=float(size)))
    return v


def _reference_branch_blocks(rng, s, name):
    nodes, edges = [], []
    prev_join = None
    for _ in range(s.blocks):
        entry = _reference_add_node(nodes, rng, s)
        if prev_join is not None:
            edges.append((prev_join, entry))
        k = int(rng.integers(s.branches_lo, s.branches_hi + 1))
        branch_tails = []
        for _ in range(k):
            length = int(rng.integers(s.branch_ops_lo, s.branch_ops_hi + 1))
            prev = entry
            for _ in range(length):
                v = _reference_add_node(nodes, rng, s)
                edges.append((prev, v))
                prev = v
            branch_tails.append(prev)
        join = _reference_add_node(nodes, rng, s)
        for tail in branch_tails:
            edges.append((tail, join))
        prev_join = join
    return ComputationGraph.build(name, nodes, edges)


def _reference_encoder_decoder(rng, s, name):
    layers = int(rng.integers(s.layers_lo, s.layers_hi + 1))
    unroll = int(rng.integers(s.unroll_lo, s.unroll_hi + 1))
    nodes, edges = [], []
    enc = [[_reference_add_node(nodes, rng, s) for _ in range(unroll)] for _ in range(layers)]
    dec = [[_reference_add_node(nodes, rng, s) for _ in range(unroll)] for _ in range(layers)]
    att = [_reference_add_node(nodes, rng, s) for _ in range(unroll)]
    for stack in (enc, dec):
        for l in range(layers):
            for t in range(unroll):
                if t + 1 < unroll:
                    edges.append((stack[l][t], stack[l][t + 1]))
                if l + 1 < layers:
                    edges.append((stack[l][t], stack[l + 1][t]))
    for t in range(unroll):
        for t_enc in range(unroll):
            edges.append((enc[layers - 1][t_enc], att[t]))
        edges.append((att[t], dec[0][t]))
    return ComputationGraph.build(name, nodes, edges)


def _reference_layered_random(rng, s, name):
    n_layers = int(rng.integers(s.layers_lo, s.layers_hi + 1))
    widths = [int(rng.integers(s.branches_lo, s.branches_hi + 1)) for _ in range(n_layers)]
    nodes, edges = [], []
    layer_ids = [[_reference_add_node(nodes, rng, s) for _ in range(width)] for width in widths]
    for i in range(1, n_layers):
        for v in layer_ids[i]:
            parents = [u for u in layer_ids[i - 1] if rng.random() < 0.5]
            if not parents:
                parents = [layer_ids[i - 1][int(rng.integers(len(layer_ids[i - 1])))]]
            for u in parents:
                edges.append((u, v))
    return ComputationGraph.build(name, nodes, edges)


_REFERENCE_BUILDERS = {
    BRANCH_BLOCKS: _reference_branch_blocks,
    ENCODER_DECODER: _reference_encoder_decoder,
    LAYERED_RANDOM: _reference_layered_random,
}


def reference_documents(s):
    builder = _REFERENCE_BUILDERS[s.family]
    return [
        save_graph(builder(np.random.default_rng([s.seed, i]), s, f"{s.family}-{s.seed}-{i:03d}"))
        for i in range(s.count)
    ]


_FLOAT_MAX = sys.float_info.max
# Value ranges where the mapping of a uniform u must be Generator.uniform's
# own: lo + (hi - lo) * u with both bounds taken as floats first. Above 2**53
# an integer bound rounds when taken as a float, so hi - lo taken in integers
# differs (here 2 against 4).
RANGES = {
    "default": {},
    "zero_width": dict(compute_lo=2.5, compute_hi=2.5, bytes_lo=0, bytes_hi=0),
    "zeros": dict(compute_lo=0.0, compute_hi=0.0, bytes_lo=3e6, bytes_hi=3e6),
    "float_max": dict(compute_lo=0.0, compute_hi=_FLOAT_MAX, bytes_lo=1.0, bytes_hi=_FLOAT_MAX),
    "ints_above_2_53": dict(compute_lo=2**53 + 1, compute_hi=2**53 + 3, bytes_lo=2**60 + 1, bytes_hi=2**64 + 7),
}
SHAPES = {
    BRANCH_BLOCKS: dict(blocks=6, branches_lo=1, branches_hi=4, branch_ops_lo=1, branch_ops_hi=5),
    ENCODER_DECODER: dict(layers_lo=1, layers_hi=4, unroll_lo=1, unroll_hi=7),
    LAYERED_RANDOM: dict(layers_lo=1, layers_hi=7, branches_lo=1, branches_hi=6),
}


@pytest.mark.parametrize("ranges", RANGES, ids=list(RANGES))
@pytest.mark.parametrize("family", [BRANCH_BLOCKS, ENCODER_DECODER, LAYERED_RANDOM])
def test_documents_match_the_per_node_reference(family, ranges):
    for seed in (0, 1, 17, 2**40):
        s = FamilySpec(family=family, count=5, seed=seed, **SHAPES[family], **RANGES[ranges])
        assert [save_graph(g) for g in generate_family(s)] == reference_documents(s), seed


def test_integer_bounds_above_2_53_span_the_float_difference():
    # 2**53 + 1 rounds to 2**53 and 2**53 + 3 to 2**53 + 4, so costs above
    # 2**53 + 2 show the range was taken in floats, as Generator.uniform takes it.
    s = FamilySpec(family=LAYERED_RANDOM, count=2, seed=1, **RANGES["ints_above_2_53"])
    costs = [g.compute_seconds[0] for g in generate_family(s)[0].nodes]
    assert all(2.0**53 <= c <= 2.0**53 + 4 for c in costs)
    assert any(c > 2.0**53 + 2 for c in costs)
