"""The package makes no reference cycles, so cli.main runs every command with
automatic cyclic collection paused and hands the caller's collector back as
it found it.

Each command runs once to warm whatever a process builds once (the cached
parser, whose argparse help formatters are the only cycles), then again
with the collector saving everything it finds: the second run must leave
nothing for it.
"""

import collections
import gc
import json

import pytest

from placement_opt import cli

GRAPH = {
    "name": "diamond",
    "nodes": [
        {"id": 0, "cost": 1.0, "output_bytes": 2e6},
        {"id": 1, "cost": [2.0, 2.5], "output_bytes": 0.0},
        {"id": 2, "cost": 2.0, "output_bytes": 2e6},
        {"id": 3, "cost": 1.0, "output_bytes": 0.0},
    ],
    "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
}
TOPOLOGY = {
    "devices": [{"id": 0, "memory_bytes": 12e9}, {"id": 1, "memory_bytes": 12e9, "compute_scale": 1.5}],
    "bandwidth_bytes_per_sec": 1e6,
}
PLACEMENT = {"graph": "diamond", "assignment": {"0": 0, "1": 0, "2": 1, "3": 0}}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """A dataset, a checkpoint trained on it and one document of each other
    kind, valid unless its name says otherwise."""
    d = tmp_path_factory.mktemp("cycles")
    docs = {"graph": GRAPH, "topology": TOPOLOGY, "placement": PLACEMENT,
            "bad_graph": {**GRAPH, "edges": [[0, 9]]},
            "bad_members": {**GRAPH, "nodes": [*GRAPH["nodes"][:3], {"id": 3, "members": [1, None, {"a": 2}]}]}}
    p = {name: str(d / f"{name}.json") for name in docs}
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    p["dir"], p["dataset"] = d, str(d / "ds")
    assert cli.main(["datagen", "--family", "branch_blocks", "--count", "4", "--blocks", "1",
                     "--branch-ops", "1", "2", "--out", p["dataset"], "--seed", "5"]) == 0
    config = {"topology": p["topology"], "dataset": p["dataset"], "seed": 1, "policy": {"message_rounds": 1},
              "trainer": {"episodes": 2, "workers": 2, "randomize_visit_order": True}}
    configs = {mode: {**config, "env": {"mode": mode, "init_mode": "random"}} for mode in ("intermediate", "terminal")}
    configs["bad_config"] = {**config, "trainer": {"episodes": "2"}}
    configs["bad_init_mode"] = {**config, "env": {"init_mode": "bogus"}}
    # Two train graphs without a name, which training refuses.
    p["nameless"] = d / "nameless"
    p["nameless"].mkdir()
    for k, graph in enumerate((GRAPH, {**GRAPH, "nodes": GRAPH["nodes"][:2], "edges": [[0, 1]]})):
        (p["nameless"] / f"g{k}.json").write_text(json.dumps({"nodes": graph["nodes"], "edges": graph["edges"]}))
    (p["nameless"] / "manifest.json").write_text(json.dumps({"members": [
        {"file": f"g{k}.json", "split": "train"} for k in range(2)]}))
    configs["shared_names_config"] = {**config, "dataset": str(p["nameless"])}
    for name, doc in configs.items():
        p[name] = str(d / f"{name}.json")
        (d / f"{name}.json").write_text(json.dumps(doc))
    # A dataset directory without a manifest, and one whose manifest names an absent graph.
    (d / "no_manifest").mkdir()
    (d / "absent_member").mkdir()
    (d / "absent_member" / "manifest.json").write_text(json.dumps({"members": [{"file": "gone.json", "split": "test"}]}))
    p["deep"] = str(d / "deep.json")
    p["not_utf8"] = str(d / "not_utf8.json")
    (d / "not_utf8.json").write_bytes(b"\xff" + json.dumps(GRAPH).encode())
    (d / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["train", "--config", p["terminal"], "--out", str(d / "trained")]) == 0
    p["checkpoint"] = str(d / "trained" / "checkpoint.json")
    ckpt = json.loads((d / "trained" / "checkpoint.json").read_text())
    ckpt["params"][0]["shape"] = [-1]
    p["bad_checkpoint"] = str(d / "bad_checkpoint.json")
    (d / "bad_checkpoint.json").write_text(json.dumps(ckpt))
    return p


def _argv(p, case):
    out = str(p["dir"] / f"out_{case}")
    graph = ["--graph", p["graph"], "--topology", p["topology"]]

    def evaluate(checkpoint, dataset=p["dataset"]):
        return ["evaluate", "--checkpoint", checkpoint, "--dataset", dataset, "--topology", p["topology"],
                "--samples", "2", "--out", out]

    return {
        "datagen": ["datagen", "--family", "layered_random", "--count", "3", "--out", out],
        "datagen_branch_blocks": ["datagen", "--family", "branch_blocks", "--count", "3", "--out", out],
        "datagen_encoder_decoder": ["datagen", "--family", "encoder_decoder", "--count", "3", "--out", out],
        "simulate": ["simulate", *graph, "--placement", p["placement"], "--emit-dot", "--out", out],
        **{f"place_{s}": ["place", "--scheme", s, *graph, "--out", out] for s in cli.SCHEMES},
        "train_intermediate": ["train", "--config", p["intermediate"], "--out", out],
        "train_terminal": ["train", "--config", p["terminal"], "--out", out],
        "evaluate": evaluate(p["checkpoint"]),
        "oracle": ["oracle", *graph, "--out", out],
        "missing_file": ["simulate", "--graph", str(p["dir"] / "absent.json"), "--topology", p["topology"],
                         "--placement", p["placement"], "--out", out],
        "malformed_graph": ["place", "--scheme", "mincut", "--graph", p["bad_graph"], "--topology", p["topology"],
                            "--out", out],
        "not_utf8_graph": ["simulate", "--graph", p["not_utf8"], "--topology", p["topology"],
                           "--placement", p["placement"], "--out", out],
        "deep_document": ["oracle", "--graph", p["deep"], "--topology", p["topology"], "--out", out],
        "bad_run_config": ["train", "--config", p["bad_config"], "--out", out],
        "bad_init_mode": ["train", "--config", p["bad_init_mode"], "--out", out],
        "malformed_checkpoint": evaluate(p["bad_checkpoint"]),
        "missing_checkpoint": evaluate(str(p["dir"] / "absent_checkpoint.json")),
        "missing_manifest": evaluate(p["checkpoint"], str(p["dir"] / "no_manifest")),
        "missing_member": evaluate(p["checkpoint"], str(p["dir"] / "absent_member")),
        "negative_seed": ["place", "--scheme", "random", *graph, "--seed", "-1", "--out", out],
        "malformed_members": ["place", "--scheme", "mincut", "--graph", p["bad_members"], "--topology", p["topology"],
                              "--out", out],
        "shared_graph_names": ["train", "--config", p["shared_names_config"], "--out", out],
    }[case]


SUCCEEDS = ["datagen", "datagen_branch_blocks", "datagen_encoder_decoder", "simulate", *(f"place_{s}" for s in cli.SCHEMES), "train_intermediate", "train_terminal",
            "evaluate", "oracle"]
FAILS = ["missing_file", "malformed_graph", "deep_document", "bad_run_config", "bad_init_mode", "malformed_checkpoint",
         "negative_seed", "malformed_members", "shared_graph_names", "missing_checkpoint", "missing_manifest",
         "missing_member", "not_utf8_graph"]


@pytest.mark.parametrize("case", SUCCEEDS + FAILS)
def test_command_leaves_no_cyclic_garbage(paths, capsys, case):
    argv = _argv(paths, case)
    expected = 0 if case in SUCCEEDS else 1
    assert cli.main(argv) == expected  # warm
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli.main(argv) == expected
        found = gc.collect()
        kinds = collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert found == 0 and not kinds, f"{case} left cyclic garbage: {dict(kinds.most_common())}"
    if case in FAILS:
        assert capsys.readouterr().err.count("error: ") == 2
        assert not (paths["dir"] / f"out_{case}").exists()  # refused before anything is written


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["success", "error", "escaping_exception", "help", "unknown_flag"])
def test_main_gives_the_collector_back_as_it_found_it(paths, monkeypatch, capsys, enabled, case):
    argv = {
        "help": ["place", "--help"],
        "unknown_flag": ["place", "--bogus"],
        "error": _argv(paths, "missing_file"),
    }.get(case, _argv(paths, "simulate"))
    seen = []

    def failing_simulate(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("not a command error")

    def recording_simulate(*args):
        seen.append(gc.isenabled())
        return simulate(*args)

    simulate = cli.simulate
    monkeypatch.setattr(cli, "simulate", failing_simulate if case == "escaping_exception" else recording_simulate)
    was, threshold = gc.isenabled(), gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    try:
        if case in ("help", "unknown_flag"):
            with pytest.raises(SystemExit):
                cli.main(argv)
        elif case == "escaping_exception":
            with pytest.raises(RuntimeError, match="not a command error"):
                cli.main(argv)
        else:
            assert cli.main(argv) == (0 if case == "success" else 1)
        assert gc.isenabled() is enabled
        assert gc.get_threshold() == threshold
    finally:
        (gc.enable if was else gc.disable)()
    # The command itself ran with automatic collection paused.
    assert seen == ([False] if case in ("success", "escaping_exception") else [])
