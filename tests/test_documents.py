"""Every input document goes through one checker, fileio.check_object.

A misspelt, unknown or missing key ends in one `error:` line naming the
document and the key, and a seeded fuzz over mutants of valid documents
checks that every input either runs or ends in exactly one `error:` line,
never in a traceback.
"""

import copy
import json
import shutil
import warnings

import numpy as np
import pytest

from placement_opt import cli
from placement_opt.sim_engine import load_topology
from placement_opt.policy_gnn import PolicyConfig, init_policy
from placement_opt.trainer import TrainerConfig, save_policy_checkpoint

DIAMOND = {
    "name": "diamond",
    "nodes": [
        {"id": 0, "cost": 1.0, "output_bytes": 2e6},
        {"id": 1, "cost": [2.0, 2.5], "output_bytes": 0.0, "members": ["a", "b"]},
        {"id": 2, "cost": 2.0, "output_bytes": 2e6},
        {"id": 3, "cost": 1.0, "output_bytes": 0.0},
    ],
    "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
}
TOPOLOGY = {
    "devices": [{"id": 0, "memory_bytes": 12e9, "compute_scale": 1.0}, {"id": 1, "memory_bytes": 12e9}],
    "bandwidth_bytes_per_sec": [[0.0, 1e6], [2e6, 0.0]],
}
PLACEMENT = {"graph": "diamond", "assignment": {"0": 0, "1": 0, "2": 1, "3": 0}}
# The run config's work settings; a fuzzed config never asks for more.
WORK = {"episodes": 1, "workers": 1, "message_rounds": 1}
RUN_CONFIG = {
    "topology": "topology.json",
    "dataset": "ds",
    "seed": 1,
    "env": {"mode": "intermediate", "penalty_per_gb": 2.0},
    "policy": {"message_rounds": WORK["message_rounds"]},
    "trainer": {"episodes": WORK["episodes"], "workers": WORK["workers"], "lr_start": 1e-3},
}
KINDS = ("graph", "topology", "placement", "run_config", "manifest", "checkpoint")


class Documents:
    """Valid documents of every kind in one directory, and the command that
    reads each: simulate, train or evaluate."""

    def __init__(self, directory):
        self.dir = directory
        assert cli.main(["datagen", "--family", "branch_blocks", "--count", "4", "--blocks", "1",
                         "--branch-ops", "1", "2", "--out", "ds", "--seed", "5"]) == 0
        shutil.copytree("ds", "manifest_ds")
        save_policy_checkpoint("checkpoint.json", init_policy(PolicyConfig(num_devices=2, message_rounds=1)))
        self.valid = {"graph": DIAMOND, "topology": TOPOLOGY, "placement": PLACEMENT, "run_config": RUN_CONFIG,
                      "manifest": json.loads((directory / "ds" / "manifest.json").read_text()),
                      "checkpoint": json.loads((directory / "checkpoint.json").read_text())}
        for kind in ("graph", "topology", "placement"):
            (directory / f"{kind}.json").write_text(json.dumps(self.valid[kind]))

    def run(self, kind, doc) -> int:
        """Write doc as the kind's document and run the command reading it.
        A warning would print more lines to stderr, so none may be raised."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = self._run(kind, doc)
        assert not caught, [str(w.message) for w in caught]
        return rc

    def _run(self, kind, doc) -> int:
        path = {"manifest": "manifest_ds/manifest.json"}.get(kind, f"mutant_{kind}.json")
        (self.dir / path).write_text(json.dumps(doc))
        files = {"graph": "graph.json", "topology": "topology.json", "placement": "placement.json",
                 "checkpoint": "checkpoint.json", "dataset": "ds", kind: path}
        if kind == "manifest":
            files["dataset"] = "manifest_ds"
        if kind == "run_config":
            return cli.main(["train", "--config", path, "--out", "out"])
        if kind in ("manifest", "checkpoint"):
            return cli.main(["evaluate", "--checkpoint", files["checkpoint"], "--dataset", files["dataset"],
                             "--topology", "topology.json", "--samples", "1", "--out", "out"])
        return cli.main(["simulate", "--graph", files["graph"], "--topology", files["topology"],
                         "--placement", files["placement"], "--out", "out"])


@pytest.fixture
def docs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return Documents(tmp_path)


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def rename(path, old, new):
    def edit(doc):
        obj = _at(doc, path)
        obj[new] = obj.pop(old)
    return edit


def drop(path, key):
    def edit(doc):
        del _at(doc, path)[key]
    return edit


def put(path, key, value):
    def edit(doc):
        _at(doc, path)[key] = value
    return edit


KEY_CASES = {
    "graph_misspelt_edges": ("graph", rename((), "edges", "edgse"), "unknown graph key(s): edgse"),
    "graph_null_name": ("graph", put((), "name", None), "graph key 'name' must be a string, not null"),
    "graph_no_nodes": ("graph", drop((), "nodes"), "graph lacks key(s): nodes"),
    "node_misspelt_cost": ("graph", rename(("nodes", 2), "cost", "cots"), "unknown graph nodes[2] key(s): cots"),
    "node_no_id": ("graph", drop(("nodes", 2), "id"), "graph nodes[2] lacks key(s): id"),
    "topology_misspelt_bandwidth": ("topology", rename((), "bandwidth_bytes_per_sec", "bandwidth"),
                                    "unknown topology key(s): bandwidth"),
    "topology_no_bandwidth": ("topology", drop((), "bandwidth_bytes_per_sec"),
                              "topology lacks key(s): bandwidth_bytes_per_sec"),
    "device_misspelt_memory": ("topology", rename(("devices", 1), "memory_bytes", "memory"),
                               "unknown topology devices[1] key(s): memory"),
    "device_no_memory": ("topology", drop(("devices", 1), "memory_bytes"),
                         "topology devices[1] lacks key(s): memory_bytes"),
    "placement_unknown_key": ("placement", put((), "notes", "x"), "unknown placement key(s): notes"),
    "placement_no_assignment": ("placement", drop((), "assignment"), "placement lacks key(s): assignment"),
    "placement_key_too_long": ("placement", put(("assignment",), "1" * 5000, 0),
                               f"placement assignment key '{'1' * 57}...' is not a node id in 0..3"),
    "manifest_unknown_key": ("manifest", rename((), "seed", "sede"), "unknown dataset manifest key(s): sede"),
    "manifest_no_members": ("manifest", drop((), "members"), "dataset manifest lacks key(s): members"),
    "member_unknown_key": ("manifest", put(("members", 1), "weight", 2),
                           "unknown dataset manifest members[1] key(s): weight"),
    "member_no_file": ("manifest", drop(("members", 1), "file"), "dataset manifest members[1] lacks key(s): file"),
    "checkpoint_null_format": ("checkpoint", put((), "format", None),
                               'checkpoint key \'format\' must be "placement-opt-checkpoint-v1", not null'),
    "checkpoint_no_format": ("checkpoint", drop((), "format"), "checkpoint lacks key(s): format"),
    "param_unknown_key": ("checkpoint", put(("params", 1), "dtype", "float64"),
                          "unknown checkpoint params[1] key(s): dtype"),
    "param_no_shape": ("checkpoint", drop(("params", 1), "shape"), "checkpoint params[1] lacks key(s): shape"),
    "header_unknown_key": ("checkpoint", put(("extra", "policy"), "dropout", 0.1),
                           "unknown checkpoint policy header key(s): dropout"),
    "header_no_mode": ("checkpoint", drop(("extra", "policy"), "mode"), "policy header lacks key(s): mode"),
    "config_misspelt_seed": ("run_config", rename((), "seed", "sed"), "unknown config key(s): sed"),
    "config_no_topology": ("run_config", drop((), "topology"), "config lacks key(s): topology"),
    "trainer_misspelt_episodes": ("run_config", rename(("trainer",), "episodes", "epsiodes"),
                                  "unknown trainer key(s): epsiodes"),
    "topology_no_devices": ("topology", drop((), "devices"), "topology lacks key(s): devices"),
    "checkpoint_misspelt_params": ("checkpoint", rename((), "params", "paramz"), "unknown checkpoint key(s): paramz"),
    "checkpoint_no_params": ("checkpoint", drop((), "params"), "checkpoint lacks key(s): params"),
    "checkpoint_extra_list": ("checkpoint", put((), "extra", []),
                              "checkpoint key 'extra' must be a JSON object, not []"),
    "checkpoint_extra_unknown_key": ("checkpoint", put(("extra",), "junk", 1), "unknown checkpoint extra key(s): junk"),
    "checkpoint_extra_no_policy": ("checkpoint", drop(("extra",), "policy"), "checkpoint extra lacks key(s): policy"),
}

# Values of the right kind that the topology still refuses, named by entry.
BANDWIDTH = "topology key 'bandwidth_bytes_per_sec' must be"
TOPOLOGY_VALUE_CASES = {
    "no_devices": (put((), "devices", []), "topology key 'devices' must be a non-empty list, not []"),
    "duplicate_id": (put(("devices", 1), "id", 0),
                     "topology devices[1] key 'id' must be an id in 0..1 that no other device has, not 0"),
    "id_out_of_range": (put(("devices", 0), "id", 2),
                        "topology devices[0] key 'id' must be an id in 0..1 that no other device has, not 2"),
    "zero_memory": (put(("devices", 1), "memory_bytes", 0),
                    "topology devices[1] key 'memory_bytes' must be a positive number, not 0.0"),
    "negative_compute_scale": (put(("devices", 0), "compute_scale", -1.5),
                               "topology devices[0] key 'compute_scale' must be a positive number, not -1.5"),
    "negative_bandwidth": (put((), "bandwidth_bytes_per_sec", -1), f"{BANDWIDTH} a positive number, not -1.0"),
    "bandwidth_not_square": (put((), "bandwidth_bytes_per_sec", [[0.0, 1e6]]),
                             f"{BANDWIDTH} a 2x2 matrix, not [[0.0, 1000000.0]]"),
    "bandwidth_zero_entry": (put((), "bandwidth_bytes_per_sec", [[0.0, 1e6], [0.0, 0.0]]),
                             f"{BANDWIDTH} positive at [1][0], not [[0.0, 1000000.0], [0.0, 0.0]]"),
    # devices[1] gives no id, so it takes its position, which devices[0] has.
    "defaulted_id_taken": (put((), "devices", [{"id": 1, "memory_bytes": 12e9}, {"memory_bytes": 12e9}]),
                           "topology devices[1] has no key 'id', so its id is its position 1, "
                           "which topology devices[0] already has"),
}
# Values of the right kind that the graph still refuses, named by entry.
AT_LEAST_0 = "must be a finite number >= 0, not"
GRAPH_VALUE_CASES = {
    "negative_cost": (put(("nodes", 2), "cost", -2.0), f"graph nodes[2] key 'cost' {AT_LEAST_0} -2.0"),
    "negative_cost_entry": (put(("nodes", 1), "cost", [2.0, -1]), f"graph nodes[1] key 'cost' {AT_LEAST_0} -1"),
    "empty_cost_list": (put(("nodes", 3), "cost", []), "graph nodes[3] key 'cost' must be a non-empty list, not []"),
    "negative_output_bytes": (put(("nodes", 0), "output_bytes", -2e6),
                              f"graph nodes[0] key 'output_bytes' {AT_LEAST_0} -2000000.0"),
    "members_not_strings": (put(("nodes", 1), "members", [1, None, {"a": 2}]),
                            """graph nodes[1] key 'members' must be a list of strings, not [1, null, {"a": 2}]"""),
}


def assert_refused(docs, capsys, kind, edit, message):
    """The edited valid document of kind ends in the one error line message."""
    doc = copy.deepcopy(docs.valid[kind])
    edit(doc)
    rc = docs.run(kind, doc)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize("case", KEY_CASES)
def test_keys_are_checked_in_every_document(docs, capsys, case):
    assert_refused(docs, capsys, *KEY_CASES[case])


@pytest.mark.parametrize("case", TOPOLOGY_VALUE_CASES)
def test_topology_values_name_their_entry(docs, capsys, case):
    assert_refused(docs, capsys, "topology", *TOPOLOGY_VALUE_CASES[case])


@pytest.mark.parametrize("case", GRAPH_VALUE_CASES)
def test_graph_values_name_their_entry(docs, capsys, case):
    assert_refused(docs, capsys, "graph", *GRAPH_VALUE_CASES[case])


def test_devices_without_ids_take_their_positions(docs, capsys):
    doc = copy.deepcopy(docs.valid["topology"])
    doc["devices"] = [{"memory_bytes": 6e9}, {"id": 1, "memory_bytes": 12e9}]
    assert docs.run("topology", doc) == 0
    assert [d.id for d in load_topology(json.dumps(doc)).devices] == [0, 1]


def test_devices_in_any_id_order_load_sorted_by_id(docs, capsys):
    doc = copy.deepcopy(docs.valid["topology"])
    doc["devices"] = [{"id": 1, "memory_bytes": 6e9}, {"id": 0, "memory_bytes": 12e9, "compute_scale": -1.0}]
    assert docs.run("topology", doc) == 1
    assert "topology devices[1] key 'compute_scale'" in capsys.readouterr().err
    doc["devices"][1]["compute_scale"] = 2.0
    assert docs.run("topology", doc) == 0
    topo = load_topology(json.dumps(doc))
    assert [(d.id, d.memory_bytes, d.compute_scale) for d in topo.devices] == [(0, 12e9, 2.0), (1, 6e9, 1.0)]


def test_legacy_checkpoint_keys_are_dropped_unread(docs, capsys):
    # Checkpoints written before the optimizer and rng fields were dropped.
    doc = copy.deepcopy(docs.valid["checkpoint"])
    doc.update(adam={"timestep": 3}, rng_state=None)
    assert docs.run("checkpoint", doc) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", KINDS)
def test_valid_documents_run(docs, capsys, kind):
    assert docs.run(kind, docs.valid[kind]) == 0
    assert capsys.readouterr().err == ""


# Replacement values. An integer only ever shrinks, so no mutant asks for
# more epochs, workers, message rounds or nodes than its fixture.
GENERIC = [None, True, False, "", "x", 1.5, [], {}]
FLOATS = [0.0, -1.0, 1e308, -1e308, float("inf"), float("-inf"), float("nan"), 10**400, 5e-324]
INTS = [0, -1, -(10**400)]


def _paths(value, path=()):
    """Every path into value: object keys and each list's first three entries."""
    yield path
    if type(value) is dict:
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif type(value) is list:
        for i, item in enumerate(value[:3]):
            yield from _paths(item, path + (i,))


def _mutate(doc, rng):
    """One edit of doc: drop an object key, or replace a value by another
    type, a nested copy of itself, or a huge or non-finite number."""
    paths = list(_paths(doc))
    path = paths[rng.integers(len(paths))]
    if not path:
        return GENERIC[rng.integers(len(GENERIC))]
    parent, key = _at(doc, path[:-1]), path[-1]
    value = parent[key]
    op = rng.integers(3)
    if op == 0 and type(parent) is dict:
        del parent[key]
    elif op == 1:
        parent[key] = [value] if rng.integers(2) else {"v": value}
    else:
        pool = GENERIC + (INTS if type(value) is int else FLOATS if type(value) is float else [])
        parent[key] = pool[rng.integers(len(pool))]
    return doc


def _asks_for_more_work(doc) -> bool:
    """Whether a run config would train more epochs, workers or message
    rounds than its fixture: a dropped key or section takes the default."""
    if type(doc) is not dict:
        return False
    trainer, policy = (doc.get(s) if type(doc.get(s)) is dict else {} for s in ("trainer", "policy"))
    wanted = {"episodes": trainer.get("episodes", TrainerConfig.episodes),
              "workers": trainer.get("workers", TrainerConfig.workers),
              "message_rounds": policy.get("message_rounds", PolicyConfig.message_rounds)}
    return any(type(v) is int and v > WORK[k] for k, v in wanted.items())


FUZZ_CASES = 50


@pytest.mark.parametrize("kind", KINDS)
def test_fuzzed_documents_run_or_fail_with_one_error_line(docs, capsys, kind):
    rng = np.random.default_rng(KINDS.index(kind))
    outcomes = []
    while len(outcomes) < FUZZ_CASES:
        doc = copy.deepcopy(docs.valid[kind])
        for _ in range(1 + rng.integers(2)):
            doc = _mutate(doc, rng)
        if kind == "run_config" and _asks_for_more_work(doc):
            continue
        try:
            rc = docs.run(kind, doc)
        except Exception as e:  # a traceback at the command line
            pytest.fail(f"{kind} mutant {json.dumps(doc)[:400]} raised {e!r}")
        err = capsys.readouterr().err
        if rc:
            assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, (json.dumps(doc)[:400], err)
        else:
            assert "error:" not in err
        outcomes.append(rc)
    assert 1 in outcomes


def test_integer_too_long_to_read_is_named_by_its_document(docs, capsys):
    (docs.dir / "long.json").write_text('{"nodes": [{"id": ' + "1" * 5000 + "}]}")
    rc = cli.main(["simulate", "--graph", "long.json", "--topology", "topology.json", "--placement", "placement.json"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: graph cannot be read: ") and err.count("\n") == 1, err


def test_overflowing_policy_is_one_error_line(docs, capsys):
    # A finite bias of 1e308 overflows the forward pass (found by the fuzz).
    doc = copy.deepcopy(docs.valid["checkpoint"])
    doc["params"][1]["data"][0] = 1e308
    rc = docs.run("checkpoint", doc)
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: non-finite logits\n"
