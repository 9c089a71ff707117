"""Byte pins of the CLI's JSON documents.

Each output below is pinned by its sha256, taken when every document was
still written by ``json.dumps(doc, indent=2)``. A writer that moves one byte
(a float's digits, an escape, a line break, the key order) fails here.
"""

import hashlib
import json
import os

import pytest

from placement_opt import cli
from placement_opt.graph_core import ComputationGraph, OpGroup, load_graph, merge_and_colocate, save_graph

# Four devices: two fast ones, one 1.5x and one 2x slower; faster links within
# each pair than across them.
TOPOLOGY = {
    "devices": [{"id": i, "memory_bytes": 12e9, "compute_scale": s} for i, s in enumerate((1.0, 1.0, 1.5, 2.0))],
    "bandwidth_bytes_per_sec": [
        [0.0, 1.6e7, 4.0e6, 4.0e6],
        [1.6e7, 0.0, 4.0e6, 4.0e6],
        [4.0e6, 4.0e6, 0.0, 8.0e6],
        [4.0e6, 4.0e6, 8.0e6, 0.0],
    ],
}
SCHEMES = ("single_device", "random", "mincut", "expert")

PINS = {
    "datagen": "f63296873d386d3f3e31d2ab2d3c591e0936d46ac41ceb532685be3e136671d1",
    "datagen_encoder_decoder": "0c8decc2f6580ee13ab1052074355deca944bc4567397e51227abd21879a2b4d",
    "datagen_layered_random": "0a26c8e527af30af6f32452e9511dd392bf124b118af5a756c3204fe388f9f21",
    "placement_single_device.json": "8932cb6ed80ec57c08672bfe6b7584d3ca18d76c15b770ac0a0fee7b8335ac80",
    "simulation_single_device.json": "28611563090fceb907d396458c039d05a078a7c6088539a45a5808ea941c23a7",
    "placement_random.json": "66e3e7b54951bd0d3c04868b05b2957aa22c039cde26bdac1023d331fc58c8ed",
    "simulation_random.json": "3670bde947ee1f69ae53a9af56d187226ca9c685c4179f9d648002e38f8bac38",
    "placement_mincut.json": "490f46d2056150c60b27c59f2936309a6209180890ff60ac90da1dfa586528b4",
    "simulation_mincut.json": "dce453534158d3f2a78cf6425887644bb97127dbd9066896492bdece20d2df22",
    "placement_expert.json": "fa339fe5a3bd6772ab1a0adbf4a6e90039f7ec24d04de4b568d36538dd87f8b4",
    "simulation_expert.json": "b1b1406a5ed56c0f490ce32725ccaf7752c01ef1ffcac2f77f57355fa4e4d451",
    "simulate": "aabf8bdbf4b1d359ee5f4a559f5c48966bbf488cb5d22c08579cad1470d42e67",
    "oracle": "56620e6a007f34d60b5c30bd331439ab8afff9cc5ca8caa174afd03a6850b143",
    "coarsened": "3b07aeab6613bf9206292da9b7129eecbfbe92b5e0634af88a22332b54a8e66b",
}


def sha(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tree_sha(directory) -> str:
    """sha256 over the sorted file names and bytes of a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run(*argv):
    assert cli.main(list(argv)) == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A seeded datagen directory of two branch_blocks graphs of a few
    hundred nodes, a tiny graph for the oracle, and the 4-device topology."""
    root = tmp_path_factory.mktemp("golden")
    dataset = root / "dataset"
    run("datagen", "--family", "branch_blocks", "--count", "2", "--blocks", "24", "--branches", "2", "4",
        "--branch-ops", "2", "4", "--out", str(dataset), "--seed", "5")
    tiny = root / "tiny"
    run("datagen", "--family", "branch_blocks", "--count", "2", "--blocks", "1", "--branches", "2", "2",
        "--branch-ops", "2", "2", "--out", str(tiny), "--seed", "5")
    assert 200 <= load_graph((dataset / "branch_blocks-5-000.json").read_text()).num_nodes <= 400
    topology = root / "topology.json"
    topology.write_text(json.dumps(TOPOLOGY))
    return {
        "root": root,
        "dataset": dataset,
        "graph": str(dataset / "branch_blocks-5-000.json"),
        "tiny": str(tiny / "branch_blocks-5-000.json"),
        "topology": str(topology),
    }


def test_datagen_directory(inputs):
    assert len(os.listdir(inputs["dataset"])) == 3
    assert tree_sha(inputs["dataset"]) == PINS["datagen"]


# The other two families, pinned when every node's cost and bytes were drawn
# by two scalar Generator.uniform calls.
FAMILY_ARGS = {
    "encoder_decoder": ["--count", "2", "--layers", "2", "4", "--unroll", "8", "16", "--compute", "0.25", "3",
                        "--tensor-bytes", "1e5", "4e6"],
    "layered_random": ["--count", "3", "--layers", "6", "12", "--branches", "3", "9"],
}


@pytest.mark.parametrize("family", FAMILY_ARGS)
def test_datagen_family_directory(tmp_path, family):
    run("datagen", "--family", family, *FAMILY_ARGS[family], "--out", str(tmp_path), "--seed", "5")
    assert len(os.listdir(tmp_path)) == int(FAMILY_ARGS[family][1]) + 1
    assert tree_sha(tmp_path) == PINS[f"datagen_{family}"]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_place_documents(inputs, scheme):
    out = inputs["root"] / "place"
    run("place", "--scheme", scheme, "--graph", inputs["graph"], "--topology", inputs["topology"],
        "--out", str(out), "--seed", "3")
    for doc in (f"placement_{scheme}.json", f"simulation_{scheme}.json"):
        assert sha(out / doc) == PINS[doc], doc


def test_simulate_with_transfers(inputs):
    place_out = inputs["root"] / "place_for_sim"
    run("place", "--scheme", "random", "--graph", inputs["graph"], "--topology", inputs["topology"],
        "--out", str(place_out), "--seed", "11")
    out = inputs["root"] / "simulate"
    run("simulate", "--graph", inputs["graph"], "--topology", inputs["topology"],
        "--placement", str(place_out / "placement_random.json"), "--out", str(out))
    assert json.loads((out / "simulation.json").read_text())["transfers"]
    assert sha(out / "simulation.json") == PINS["simulate"]


def test_oracle_placement(inputs):
    out = inputs["root"] / "oracle"
    run("oracle", "--graph", inputs["tiny"], "--topology", inputs["topology"], "--out", str(out))
    assert sha(out / "placement_exhaustive.json") == PINS["oracle"]


def test_coarsened_graph_with_members_and_cost_vectors(inputs):
    graph = load_graph(open(inputs["graph"]).read())
    scales = (1.0, 1.0, 1.5, 2.0)
    vector = ComputationGraph.build(
        graph.name,
        [OpGroup(g.id, tuple(g.compute_seconds[0] * s for s in scales), g.output_bytes) for g in graph.nodes],
        graph.edges,
    )
    coarse, _ = merge_and_colocate(vector, graph.num_nodes // 4, 0.0)
    assert all(len(g.members) >= 1 and len(g.compute_seconds) == 4 for g in coarse.nodes)
    path = inputs["root"] / "coarse.json"
    path.write_text(save_graph(coarse))
    assert sha(path) == PINS["coarsened"]
