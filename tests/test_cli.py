import argparse
import csv
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from placement_opt import cli, trainer
from placement_opt.datagen import FAMILIES, FamilySpec, write_dataset
from placement_opt.graph_core import load_graph
from placement_opt.neural_primitives import CHECKPOINT_FORMAT, params_to_doc
from placement_opt.placement_env import INTERMEDIATE, RewardConfig
from placement_opt.policy_gnn import PolicyConfig, init_policy
from placement_opt.sim_engine import Placement, load_topology
from placement_opt.trainer import save_policy_checkpoint


DIAMOND_DOC = {
    "name": "diamond",
    "nodes": [
        {"id": 0, "cost": 1.0, "output_bytes": 2e6},
        {"id": 1, "cost": 2.0, "output_bytes": 0.0},
        {"id": 2, "cost": 2.0, "output_bytes": 2e6},
        {"id": 3, "cost": 1.0, "output_bytes": 0.0},
    ],
    "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
}

TOPO_DOC = {
    "devices": [
        {"id": 0, "memory_bytes": 12e9, "compute_scale": 1.0},
        {"id": 1, "memory_bytes": 12e9, "compute_scale": 1.0},
    ],
    "bandwidth_bytes_per_sec": 1e6,
}


@pytest.fixture
def files(tmp_path):
    graph = tmp_path / "diamond.json"
    graph.write_text(json.dumps(DIAMOND_DOC))
    topo = tmp_path / "topology.json"
    topo.write_text(json.dumps(TOPO_DOC))
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({"graph": "diamond", "assignment": {"0": 0, "1": 0, "2": 1, "3": 0}}))
    return {"graph": str(graph), "topo": str(topo), "placement": str(placement), "dir": tmp_path}


def run(argv):
    return cli.main(argv)


class TestSimulate:
    def test_diamond_fixture_prints_makespan(self, files, capsys):
        out = files["dir"] / "sim_out"
        rc = run(
            [
                "simulate",
                "--graph", files["graph"],
                "--topology", files["topo"],
                "--placement", files["placement"],
                "--out", str(out),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "makespan 8.000000 s" in captured
        doc = json.loads((out / "simulation.json").read_text())
        assert doc["makespan_seconds"] == 8.0

    def test_emit_dot(self, files):
        out = files["dir"] / "dot_out"
        rc = run(
            [
                "simulate",
                "--graph", files["graph"],
                "--topology", files["topo"],
                "--placement", files["placement"],
                "--out", str(out),
                "--emit-dot",
            ]
        )
        assert rc == 0
        dot = (out / "placement.dot").read_text()
        assert dot.startswith("digraph")
        assert "n0 -> n1" in dot
        # nodes colored by device: node 2 is on device 1
        assert "lightcoral" in dot

    def test_missing_file_is_single_line_error(self, files, capsys):
        rc = run(
            [
                "simulate",
                "--graph", "/nonexistent.json",
                "--topology", files["topo"],
                "--placement", files["placement"],
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "assignment",
        [
            {"0": 0, "1": 0, "2": 1, "3": 0, "-1": 1},  # would alias the last node
            {"0": 0, "1": 0, "2": 1, "3": 0, "4": 1},  # no node 4
            {"0": 0, "1": 0, "2": 1.9, "3": 0},
            {"0": 0, "1": 0, "2": 1.0, "3": 0},
            {"0": 0, "1": True, "2": 1, "3": 0},
            {"0": 0, "1": "1", "2": 1, "3": 0},
            {"0": 0, "1": 0, "2": 1, "3": 0, "03": 1},  # node 3 twice
            {"0": 0, "1": 0, "2": 1, " 3": 0},
            {"0": 0, "1": 0, "2": 1, "3": 2},  # no device 2
            [0, 0, 1, 0],
        ],
    )
    def test_malformed_placement_is_single_line_error(self, files, capsys, assignment):
        bad = files["dir"] / "bad_placement.json"
        bad.write_text(json.dumps({"graph": "diamond", "assignment": assignment}))
        rc = run(["simulate", "--graph", files["graph"], "--topology", files["topo"], "--placement", str(bad)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "makespan" not in captured.out


class TestPlace:
    def test_single_device_all_zero(self, files, capsys):
        out = files["dir"] / "place_out"
        rc = run(
            [
                "place",
                "--scheme", "single_device",
                "--graph", files["graph"],
                "--topology", files["topo"],
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads((out / "placement_single_device.json").read_text())
        assert all(v == 0 for v in doc["assignment"].values())
        assert "makespan 6.000000 s" in capsys.readouterr().out

    def test_all_schemes_produce_valid_documents(self, files):
        for scheme in cli.SCHEMES:
            out = files["dir"] / f"place_{scheme}"
            rc = run(
                [
                    "place",
                    "--scheme", scheme,
                    "--graph", files["graph"],
                    "--topology", files["topo"],
                    "--out", str(out),
                    "--seed", "3",
                ]
            )
            assert rc == 0
            doc = json.loads((out / f"placement_{scheme}.json").read_text())
            assert set(doc["assignment"]) == {"0", "1", "2", "3"}


def _place_fails_with_one_error_line(capsys, files, graph, topo, *extra):
    out = str(files["dir"] / "place_out")
    rc = run(["place", "--scheme", "mincut", "--graph", graph, "--topology", topo, "--out", out, *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "makespan" not in captured.out
    return captured.err


def _diamond_text(**replace):
    """DIAMOND_DOC as JSON text, with raw JSON fragments substituted in."""
    text = json.dumps(DIAMOND_DOC)
    for old, new in replace.items():
        assert old in text
        text = text.replace(old, new)
    return text


NUMBER = "a finite number"
NUMBER_OR_LIST = "a finite number or a list"
NODE_3 = "graph nodes[3]"  # the diamond's last node, whose fields the cases below replace
DEVICE_0 = "topology devices[0]"
BANDWIDTH = "topology key 'bandwidth_bytes_per_sec'"


class TestMalformedPlaceInputs:
    @pytest.mark.parametrize(
        "graph_text",
        [
            json.dumps({"name": "g", "nodes": [1, 2], "edges": []}),  # nodes are not objects
            _diamond_text(**{'"id": 1,': '"id": 1.9,', "[0, 1]": "[0, 1.9]"}),  # non-integer node id
            _diamond_text(**{"[0, 1]": "[0, 1.9]"}),  # non-integer edge endpoint
            _diamond_text(**{'"id": 1,': '"id": true,'}),  # boolean node id, read as 1 by int()
            _diamond_text(**{'"cost": 2.0, "output_bytes": 0.0': '"compute_seconds": [2.0], "output_bytes": 0.0'}),
            _diamond_text(**{'"output_bytes": 2000000.0': '"output_bytes": 1e400'}),  # infinite size
        ],
        ids=["non_object_node", "float_node_id", "float_edge_endpoint", "bool_node_id", "unknown_key", "inf_bytes"],
    )
    def test_malformed_graph(self, files, capsys, graph_text):
        bad = files["dir"] / "bad_graph.json"
        bad.write_text(graph_text)
        _place_fails_with_one_error_line(capsys, files, str(bad), files["topo"])

    @pytest.mark.parametrize(
        "devices",
        [
            [0, 1],
            [{"id": 0.7, "memory_bytes": 12e9}, {"id": 1, "memory_bytes": 12e9}],
        ],
        ids=["non_object_device", "float_device_id"],
    )
    def test_malformed_topology(self, files, capsys, devices):
        bad = files["dir"] / "bad_topology.json"
        bad.write_text(json.dumps({"devices": devices, "bandwidth_bytes_per_sec": 1e6}))
        _place_fails_with_one_error_line(capsys, files, files["graph"], str(bad))

    @pytest.mark.parametrize(
        "topology, message",
        [
            ({**TOPO_DOC, "typo": 1}, "unknown topology key(s): typo"),
            ({**TOPO_DOC, "devices": [{"id": 0, "memory_bytes": 12e9, "speed": 3}, TOPO_DOC["devices"][1]]},
             "unknown topology devices[0] key(s): speed"),
            ({**TOPO_DOC, "devices": [TOPO_DOC["devices"][0], {"id": 1, "memory_bytes": 12e9, "compute_scael": 2}]},
             "unknown topology devices[1] key(s): compute_scael"),  # was read as compute_scale 1.0
            ({**TOPO_DOC, "devices": [{"id": 0, "compute_scale": 1.0}, TOPO_DOC["devices"][1]]},
             "topology devices[0] lacks key(s): memory_bytes"),  # was the bare "error: 'memory_bytes'"
        ],
        ids=["unknown_top_level_key", "unknown_device_key", "misspelt_compute_scale", "missing_memory_bytes"],
    )
    def test_topology_keys(self, files, capsys, topology, message):
        bad = files["dir"] / "bad_topology.json"
        bad.write_text(json.dumps(topology))
        assert message in _place_fails_with_one_error_line(capsys, files, files["graph"], str(bad))

    @pytest.mark.parametrize(
        "node_fields, message",
        [
            # float() per character read it as the vector (1.0, 5.0)
            ('"cost": "15"', f"{NODE_3} key 'cost' must be {NUMBER_OR_LIST}, not \"15\""),
            ('"cost": "1.5"', f"{NODE_3} key 'cost' must be {NUMBER_OR_LIST}, not \"1.5\""),
            ('"cost": [null, 1.0]', f"{NODE_3} key 'cost' must be {NUMBER}, not null"),
            ('"cost": []', f"{NODE_3} key 'cost' must be a non-empty list, not []"),
            ('"cost": true', f"{NODE_3} key 'cost' must be {NUMBER_OR_LIST}, not true"),
            ('"cost": 1.0, "output_bytes": [1]', f"{NODE_3} key 'output_bytes' must be {NUMBER}, not [1]"),
            ('"cost": 1.0, "output_bytes": "2e6"', f"{NODE_3} key 'output_bytes' must be {NUMBER}, not \"2e6\""),
            # an int no float can hold
            ('"cost": 1.0, "output_bytes": 1' + "0" * 400, f"{NODE_3} key 'output_bytes' must be {NUMBER}, not 1000"),
            # was a TypeError
            ('"cost": 1.0, "output_bytes": 0.0, "members": 5', f"{NODE_3} key 'members' must be a list, not 5"),
            # was read as ("a", "b")
            ('"cost": 1.0, "output_bytes": 0.0, "members": "ab"', f"{NODE_3} key 'members' must be a list, not \"ab\""),
        ],
        ids=["cost_digits_string", "cost_decimal_string", "cost_null_entry", "cost_empty_list", "cost_bool",
             "output_bytes_list", "output_bytes_string", "output_bytes_int_beyond_float", "members_int",
             "members_string"],
    )
    def test_non_numeric_graph_field(self, files, capsys, node_fields, message):
        bad = files["dir"] / "bad_graph.json"
        bad.write_text(_diamond_text(**{'"cost": 1.0, "output_bytes": 0.0': node_fields}))
        assert message in _place_fails_with_one_error_line(capsys, files, str(bad), files["topo"])

    @pytest.mark.parametrize(
        "device0, bandwidth, message",
        [
            ('"memory_bytes": null', "1e6", f"{DEVICE_0} key 'memory_bytes' must be {NUMBER}, not null"),
            ('"memory_bytes": "12e9"', "1e6", f"{DEVICE_0} key 'memory_bytes' must be {NUMBER}, not \"12e9\""),
            ('"memory_bytes": 12e9, "compute_scale": 1e400', "1e6",
             f"{DEVICE_0} key 'compute_scale' must be {NUMBER}, not Infinity"),
            ('"memory_bytes": 12e9', "true", f"{BANDWIDTH} must be {NUMBER_OR_LIST}, not true"),
            ('"memory_bytes": 12e9', '"1e6"', f"{BANDWIDTH} must be {NUMBER_OR_LIST}, not \"1e6\""),
            ('"memory_bytes": 12e9', "[[0, 1e6], [true, 0]]", f"{BANDWIDTH} must be {NUMBER}, not true"),
            ('"memory_bytes": 12e9', "[1e6, 1e6]", f"{BANDWIDTH} must be a list of finite numbers (a matrix row), not 1000000.0"),
        ],
        ids=["memory_null", "memory_string", "compute_scale_inf", "bandwidth_bool", "bandwidth_string",
             "bandwidth_matrix_bool_entry", "bandwidth_rows_not_lists"],
    )
    def test_non_numeric_topology_field(self, files, capsys, device0, bandwidth, message):
        bad = files["dir"] / "bad_topology.json"
        bad.write_text(
            f'{{"devices": [{{"id": 0, {device0}}}, {{"id": 1, "memory_bytes": 12e9}}], '
            f'"bandwidth_bytes_per_sec": {bandwidth}}}'
        )
        assert message in _place_fails_with_one_error_line(capsys, files, files["graph"], str(bad))

    def test_bandwidth_matrix_with_zero_diagonal_is_legal(self, files, capsys):
        topo = files["dir"] / "matrix_topology.json"
        topo.write_text(json.dumps({**TOPO_DOC, "bandwidth_bytes_per_sec": [[0, 1e6], [2e6, 0]]}))
        out = str(files["dir"] / "place_out")
        rc = run(["place", "--scheme", "mincut", "--graph", files["graph"], "--topology", str(topo), "--out", out])
        assert rc == 0
        assert "makespan" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, message",
        [("--balance-tolerance=nan", "partitioner key 'balance_tolerance' must be a finite number >= 0, not NaN"),
         ("--refinement-passes=-1", "partitioner key 'refinement_passes' must be an integer >= 0, not -1")],
    )
    def test_invalid_partitioner_flag(self, files, capsys, flag, message):
        err = _place_fails_with_one_error_line(capsys, files, files["graph"], files["topo"], flag)
        assert err == f"error: {message}\n"


class TestParserReuse:
    def test_successive_calls_do_not_share_values(self, files, monkeypatch):
        # main builds its parser once per process; every call parses into a
        # fresh Namespace, so no flag or default carries over to the next.
        parser = cli._parser()
        seen = []
        parse = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv=None: seen.append(parse(argv)) or seen[-1])
        out = files["dir"]
        graph_topo = ["--graph", files["graph"], "--topology", files["topo"]]
        assert run(["place", "--scheme", "random", *graph_topo, "--seed", "9", "--emit-dot",
                    "--balance-tolerance", "0.5", "--out", str(out / "a")]) == 0
        assert run(["simulate", *graph_topo, "--placement", files["placement"], "--out", str(out / "b")]) == 0
        assert run(["place", "--scheme", "mincut", *graph_topo, "--out", str(out / "c")]) == 0
        assert cli._parser() is parser
        first, second, third = seen
        assert (first.seed, first.emit_dot, first.balance_tolerance) == (9, True, 0.5)
        assert vars(second) == {"command": "simulate", "graph": files["graph"], "topology": files["topo"],
                                "placement": files["placement"], "out": str(out / "b"), "emit_dot": False,
                                "func": cli.cmd_simulate}
        assert (third.scheme, third.seed, third.emit_dot, third.balance_tolerance) == ("mincut", 0, False, 0.2)
        assert sorted(os.listdir(out / "a")) == ["placement_random.dot", "placement_random.json",
                                                 "simulation_random.json"]
        assert os.listdir(out / "b") == ["simulation.json"]
        assert sorted(os.listdir(out / "c")) == ["placement_mincut.json", "simulation_mincut.json"]


class TestOracle:
    def test_diamond_optimum(self, files, capsys):
        out = files["dir"] / "oracle_out"
        rc = run(["oracle", "--graph", files["graph"], "--topology", files["topo"], "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "exhaustive optimum: 6.000000 s" in captured

    def test_budget_exceeded(self, files, capsys):
        rc = run(
            [
                "oracle",
                "--graph", files["graph"],
                "--topology", files["topo"],
                "--budget", "3",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSearchFlags:
    """--samples below 0 and --budget below 1 end in one error line and exit 1."""

    @pytest.mark.parametrize("flags", [["--samples", "-5"], ["--budget", "0"], ["--budget", "-1"]])
    def test_evaluate(self, files, tmp_path, capsys, flags):
        ds = tmp_path / "ds"
        assert run(["datagen", "--family", "branch_blocks", "--count", "4", "--branch-ops", "1", "1",
                    "--out", str(ds)]) == 0
        ckpt = tmp_path / "ckpt.json"
        save_policy_checkpoint(str(ckpt), init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0))
        out = tmp_path / "eval_out"
        err = _fails_with_one_error_line(
            capsys,
            ["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds), "--topology", files["topo"],
             "--out", str(out), *flags],
        )
        assert flags[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_oracle(self, files, tmp_path, capsys, budget):
        out = tmp_path / "oracle_out"
        err = _fails_with_one_error_line(
            capsys, ["oracle", "--graph", files["graph"], "--topology", files["topo"], "--budget", budget,
                     "--out", str(out)]
        )
        assert "--budget" in err
        assert not out.exists()


class TestDatagen:
    def test_writes_manifest_and_graphs(self, tmp_path, capsys):
        out = tmp_path / "ds"
        rc = run(
            [
                "datagen",
                "--family", "branch_blocks",
                "--count", "4",
                "--out", str(out),
                "--seed", "2",
            ]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["members"]) == 4
        for m in manifest["members"]:
            g = load_graph((out / m["file"]).read_text())
            assert g.num_nodes >= 4

    @pytest.mark.parametrize(
        "family, flags, field",
        [
            ("branch_blocks", ["--blocks", "0"], "blocks"),
            ("branch_blocks", ["--blocks", "-2"], "blocks"),
            ("branch_blocks", ["--branches", "0", "0"], "branches_lo"),
            ("branch_blocks", ["--branch-ops", "0", "0"], "branch_ops_lo"),
            ("layered_random", ["--layers", "0", "0"], "layers_lo"),
            ("encoder_decoder", ["--unroll", "0", "0"], "unroll_lo"),
            ("encoder_decoder", ["--compute", "-1", "1"], "compute_lo"),
            ("layered_random", ["--tensor-bytes", "-1", "1"], "bytes_lo"),
            ("encoder_decoder", ["--compute", "1", "inf"], "compute_hi"),  # was an OverflowError traceback
            ("layered_random", ["--tensor-bytes", "1", "inf"], "bytes_hi"),
            ("branch_blocks", ["--branches", "1", "99999999999999999999"], "branches_hi"),  # was numpy's message
            ("encoder_decoder", ["--unroll", "1", str(2**64)], "unroll_hi"),
            # Each of these three used to build until it was killed.
            ("layered_random", ["--layers", "1", "4611686018427387904"], "layers_hi"),
            ("branch_blocks", ["--count", "1000000000000"], "count"),
            ("encoder_decoder", ["--unroll", "1", "100000"], "unroll_hi"),  # edges grow as unroll**2
        ],
    )
    def test_degenerate_sizes_are_single_line_errors(self, tmp_path, capsys, family, flags, field):
        out = tmp_path / "ds"
        err = _fails_with_one_error_line(capsys, ["datagen", "--family", family, *flags, "--out", str(out)])
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--count", "1"], "family key 'count' must be an integer >= 2, not 1"),
         (["--train-fraction", "1.5"], "family key 'train_fraction' must be a number > 0 and < 1, not 1.5"),
         (["--branches", "0", "3"], "family key 'branches_lo' must be an integer >= 1, not 0")],
    )
    def test_flag_values_are_refused_as_family_keys(self, tmp_path, capsys, flags, message):
        out = tmp_path / "ds"
        err = _fails_with_one_error_line(capsys, ["datagen", "--family", "branch_blocks", *flags, "--out", str(out)])
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_flags_default_to_the_family_spec(self, tmp_path, family):
        assert run(["datagen", "--family", family, "--out", str(tmp_path / "cli")]) == 0
        write_dataset(tmp_path / "spec", FamilySpec(family))
        names = sorted(os.listdir(tmp_path / "spec"))
        assert sorted(os.listdir(tmp_path / "cli")) == names
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "spec" / name).read_bytes()

    def test_reproducible(self, tmp_path):
        args = ["datagen", "--family", "layered_random", "--count", "3", "--seed", "9"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def write_run_config(tmp_path, topo_path, **overrides):
    cfg = {
        "topology": topo_path,
        "family": {
            "family": "branch_blocks",
            "count": 4,
            "blocks": 1,
            "branches_lo": 2,
            "branches_hi": 2,
            "branch_ops_lo": 1,
            "branch_ops_hi": 1,
            "seed": 3,
        },
        "seed": 1,
        "env": {"mode": "intermediate"},
        "policy": {"message_rounds": 1},
        "trainer": {"episodes": 3, "workers": 2},
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestTrainEvaluate:
    def test_train_writes_outputs_and_echoes_config(self, files, tmp_path):
        cfg_path = write_run_config(tmp_path, files["topo"])
        out = tmp_path / "train_out"
        rc = run(["train", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        assert (out / "checkpoint.json").exists()
        assert (out / "run_config.json").exists()
        with open(out / "learning_curve.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and set(rows[0]) == set(
            ["epoch", "graph", "mean_runtime_s", "best_runtime_s", "mean_entropy", "grad_norm", "lr", "entropy_w"]
        )

    def test_unknown_config_key_rejected(self, files, tmp_path, capsys):
        cfg_path = write_run_config(tmp_path, files["topo"], bogus_key=1)
        rc = run(["train", "--config", cfg_path, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_threads_other_than_one_is_single_line_error(self, files, tmp_path, capsys):
        cfg_path = write_run_config(tmp_path, files["topo"], trainer={"episodes": 1, "workers": 2, "threads": 2})
        out = tmp_path / "threads_out"
        rc = run(["train", "--config", cfg_path, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "threads" in err
        assert not (out / "checkpoint.json").exists()

    def test_evaluate_report(self, files, tmp_path, capsys):
        # dataset
        ds = tmp_path / "ds"
        run(
            [
                "datagen", "--family", "branch_blocks", "--count", "4",
                "--branch-ops", "1", "2", "--out", str(ds), "--seed", "5",
            ]
        )
        # fresh checkpoint
        params = init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0)
        ckpt = tmp_path / "ckpt.json"
        save_policy_checkpoint(ckpt, params)
        out = tmp_path / "eval_out"
        rc = run(
            [
                "evaluate",
                "--checkpoint", str(ckpt),
                "--dataset", str(ds),
                "--topology", files["topo"],
                "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out / "evaluation.csv") as f:
            rows = list(csv.DictReader(f))
        schemes = {r["scheme"] for r in rows}
        assert {"zero_shot", "random", "single_device", "mincut", "expert", "exhaustive"} <= schemes
        # exhaustive is the floor for every graph
        by_graph = {}
        for r in rows:
            by_graph.setdefault(r["graph"], {})[r["scheme"]] = float(r["penalized_runtime_s"])
        for vals in by_graph.values():
            assert vals["exhaustive"] <= min(vals.values()) + 1e-12

    def test_evaluate_device_mismatch(self, files, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["datagen", "--family", "branch_blocks", "--count", "4", "--out", str(ds)])
        params = init_policy(PolicyConfig(num_devices=3, message_rounds=1), seed=0)
        ckpt = tmp_path / "ckpt3.json"
        save_policy_checkpoint(ckpt, params)
        rc = run(
            [
                "evaluate",
                "--checkpoint", str(ckpt),
                "--dataset", str(ds),
                "--topology", files["topo"],
                "--out", str(tmp_path / "y"),
            ]
        )
        assert rc == 1
        assert "devices" in capsys.readouterr().err


class TestMemoryBound:
    """Workloads where the memory limits bind: encoder_decoder graphs with
    0.5-2 GB tensors peak at 5-7 GB on a device, against devices of 5-6 GB."""

    @pytest.mark.parametrize("limits", [(5e9, 5e9), (6e9, 6e9), (5e9, 6e9)], ids=["5GB", "6GB", "5GB_6GB"])
    def test_penalty_reads_each_device_limit(self, tmp_path, monkeypatch, limits):
        monkeypatch.chdir(tmp_path)
        assert run(["datagen", "--family", "encoder_decoder", "--layers", "1", "2", "--unroll", "2", "3",
                    "--tensor-bytes", "0.5e9", "2e9", "--count", "8", "--seed", "1", "--out", "ds"]) == 0
        topo = {"devices": [{"id": i, "memory_bytes": b} for i, b in enumerate(limits)],
                "bandwidth_bytes_per_sec": 1e9}
        (tmp_path / "topology.json").write_text(json.dumps(topo))
        (tmp_path / "run.json").write_text(json.dumps({
            "topology": "topology.json", "dataset": "ds", "seed": 1,
            "policy": {"message_rounds": 1}, "trainer": {"episodes": 1, "workers": 1},
        }))
        assert run(["train", "--config", "run.json", "--out", "train_out"]) == 0
        assert run(["evaluate", "--checkpoint", "train_out/checkpoint.json", "--dataset", "ds",
                     "--topology", "topology.json", "--out", "eval_out"]) == 0
        with open("eval_out/evaluation.csv") as f:
            rows = {(r["graph"], r["scheme"]): [float(r[k]) for k in cli.EVAL_COLUMNS[2:]] for r in csv.DictReader(f)}
        bound = []
        for (graph, scheme), (penalized, makespan, peak) in rows.items():
            if scheme == "single_device":
                # Everything on device 0: 2 s per GB over device 0's own limit.
                over = peak - limits[0]
                assert penalized == (makespan + 2.0 * over / 1e9 if over > 0 else makespan)
                penalized_exhaustive, makespan_exhaustive, _ = rows[graph, "exhaustive"]
                if penalized > makespan and penalized_exhaustive == makespan_exhaustive:
                    bound.append(graph)
        assert bound, "no graph whose single-device row is penalized and whose optimum is not"


def test_readme_walkthrough_documents_load(tmp_path, monkeypatch):
    # The walkthrough's heredocs are read by the loaders they feed.
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        heredocs = dict(re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", f.read(), re.DOTALL))
    assert set(heredocs) == {"topology.json", "run.json"}
    topology = load_topology(heredocs["topology.json"])
    assert [d.memory_bytes for d in topology.devices] == [12e9, 12e9]
    doc = cli.load_run_config(heredocs["run.json"])
    assert doc["topology"] == "topology.json" and doc["dataset"] == "dataset"
    assert RewardConfig(**doc["env"]) == RewardConfig(mode=INTERMEDIATE)


def _fails_with_one_error_line(capsys, argv):
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


INTEGER_AT_LEAST_1 = "must be an integer >= 1, not 0"
RUN_CONFIG_VALUE_CASES = [
    ("env", "mode", "bogus", 'env key \'mode\' must be one of "terminal", "intermediate", not "bogus"'),
    ("env", "penalty_per_gb", -1, "env key 'penalty_per_gb' must be a finite number >= 0, not -1"),
    ("env", "reward_scale", 0, "env key 'reward_scale' must be a finite number > 0 or null, not 0"),
    ("env", "init_mode", "bogus", 'env key \'init_mode\' must be one of "all_device_0", "random", not "bogus"'),
    ("policy", "message_rounds", -1, "policy key 'message_rounds' must be an integer >= 0, not -1"),
    ("policy", "mode", "bogus",
     'policy key \'mode\' must be one of "full", "simple_aggregator", "simple_partitioner", not "bogus"'),
    ("policy", "head_hidden", 0, "policy key 'head_hidden' must be an integer >= 1 or null, not 0"),
    ("trainer", "episodes", -1, "trainer key 'episodes' must be an integer >= 0, not -1"),
    ("trainer", "workers", 0, f"trainer key 'workers' {INTEGER_AT_LEAST_1}"),
    ("trainer", "baseline_window", 0, f"trainer key 'baseline_window' {INTEGER_AT_LEAST_1}"),
    ("trainer", "threads", 2, "trainer key 'threads' must be 1 (training runs in one thread), not 2"),
    ("trainer", "lr_end", 1.0, "need lr_start >= lr_end >= 0"),
    ("trainer", "entropy_end", -1e-3, "need entropy_start >= entropy_end >= 0"),
    ("family", "family", "bogus",
     'family key \'family\' must be one of "branch_blocks", "encoder_decoder", "layered_random", not "bogus"'),
    ("family", "count", 1, "family key 'count' must be an integer >= 2, not 1"),
    ("family", "train_fraction", 1, "family key 'train_fraction' must be a number > 0 and < 1, not 1"),
    ("family", "blocks", 0, f"family key 'blocks' {INTEGER_AT_LEAST_1}"),
    *(("family", key, 0, f"family key '{key}' {INTEGER_AT_LEAST_1}")
      for key in ("branches_lo", "branches_hi", "branch_ops_lo", "branch_ops_hi", "layers_lo", "layers_hi",
                  "unroll_lo", "unroll_hi")),
    ("family", "compute_lo", -0.5, "family key 'compute_lo' must be a finite number >= 0, not -0.5"),
    ("family", "compute_hi", float("inf"), "family key 'compute_hi' must be a finite number, not Infinity"),
    ("family", "bytes_lo", -1, "family key 'bytes_lo' must be a finite number >= 0, not -1"),
    ("family", "bytes_hi", -float("inf"), "family key 'bytes_hi' must be a finite number, not -Infinity"),
]


class TestMalformedRunConfig:
    """Each bad run-config value ends in one error line and exit 1."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("trainer", "workers", "8"),
            ("trainer", "workers", 8.0),
            ("trainer", "episodes", True),
            ("trainer", "baseline_window", None),
            ("trainer", "threads", [1]),
            ("trainer", "lr_start", "0.01"),
            ("trainer", "lr_end", True),
            ("trainer", "entropy_start", None),
            ("trainer", "entropy_end", 1e400),
            ("trainer", "randomize_visit_order", 1),
            ("trainer", "randomize_visit_order", "true"),
            ("env", "penalty_per_gb", "2"),
            ("env", "reward_scale", [2.5]),
            ("env", "reward_scale", False),
            ("env", "mode", 1),
            ("policy", "message_rounds", 1.5),
            ("policy", "message_rounds", "3"),
            ("policy", "head_hidden", 2.5),
            ("policy", "head_hidden", 0),
            ("policy", "head_hidden", -3),
            ("config", "seed", "1"),
            ("config", "topology", 3),
        ],
    )
    def test_bad_value(self, files, tmp_path, capsys, section, key, value):
        cfg = {
            "topology": files["topo"],
            "dataset": str(tmp_path / "ds"),
            "env": {"mode": "intermediate"},
            "policy": {"message_rounds": 1},
            "trainer": {"episodes": 1, "workers": 1},
        }
        (cfg if section == "config" else cfg[section])[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        err = _fails_with_one_error_line(capsys, ["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert repr(key) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text",
        ["[1]", '"run"', "null", '{"topology": "t.json", "dataset": "d", "trainer": [1]}',
         '{"topology": "t.json", "dataset": "d", "env": "terminal"}',
         '{"topology": "t.json", "dataset": "d", "policy": null}',
         '{"topology": "t.json", "family": 3}'],
    )
    def test_non_object_document_or_section(self, tmp_path, capsys, text):
        path = tmp_path / "run.json"
        path.write_text(text)
        err = _fails_with_one_error_line(capsys, ["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert "object" in err

    @pytest.mark.parametrize(
        "family",
        [{"family": "branch_blocks", "count": "4"}, {"family": "branch_blocks", "blocks": 1.0},
         {"family": "branch_blocks", "compute_lo": None}, {"family": 3}, {"family": "branch_blocks", "bogus": 1},
         {"count": 4}],
    )
    def test_bad_family(self, files, tmp_path, capsys, family):
        path = write_run_config(tmp_path, files["topo"], family=family)
        _fails_with_one_error_line(capsys, ["train", "--config", path, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("field, value", [("blocks", 0), ("branches_lo", 0), ("bytes_lo", -1.0)])
    def test_degenerate_family_sizes(self, files, tmp_path, capsys, field, value):
        family = {"family": "branch_blocks", "count": 4, field: value}
        path = write_run_config(tmp_path, files["topo"], family=family)
        err = _fails_with_one_error_line(capsys, ["train", "--config", path, "--out", str(tmp_path / "o")])
        assert field in err
        assert not (tmp_path / "o" / "checkpoint.json").exists()

    def test_nullable_and_bool_values_accepted(self, files, tmp_path):
        cfg_path = write_run_config(
            tmp_path, files["topo"],
            env={"mode": "terminal", "reward_scale": None, "penalty_per_gb": 2},
            policy={"message_rounds": 1, "head_hidden": None},
            trainer={"episodes": 1, "workers": 2, "lr_start": 1, "lr_end": 0.5, "randomize_visit_order": True},
        )
        assert run(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("section, key, value, message", RUN_CONFIG_VALUE_CASES)
    def test_value_refusal_names_its_section_and_key(self, files, tmp_path, capsys, section, key, value, message):
        # A value its field does not admit for every ruled field (the two
        # seeds are TestNegativeSeed's), and the trainer's two schedule rules.
        path = write_run_config(tmp_path, files["topo"])
        cfg = json.loads((tmp_path / "run.json").read_text())
        (cfg if section == "config" else cfg[section])[key] = value
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        out = tmp_path / "o"
        err = _fails_with_one_error_line(capsys, ["train", "--config", path, "--out", str(out)])
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_global_memory_threshold_is_refused(self, files, tmp_path, capsys):
        # The memory limit is each topology device's memory_bytes; a config
        # that still sets the removed global threshold is refused by name.
        path = write_run_config(tmp_path, files["topo"], env={"mode": "intermediate", "memory_threshold_gb": 10.7})
        err = _fails_with_one_error_line(capsys, ["train", "--config", path, "--out", str(tmp_path / "o")])
        assert err == "error: unknown env key(s): memory_threshold_gb\n"
        assert not (tmp_path / "o" / "checkpoint.json").exists()


class TestNegativeSeed:
    """A negative seed is refused by name before the command writes anything;
    each of these used to end in numpy's bare "expected non-negative integer"
    (place's mincut scheme, which draws nothing, used to succeed)."""

    def test_datagen(self, tmp_path, capsys):
        out = tmp_path / "ds"
        err = _fails_with_one_error_line(capsys, ["datagen", "--family", "branch_blocks", "--seed", "-1",
                                                  "--out", str(out)])
        assert err == "error: --seed must be >= 0, not -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("scheme", cli.SCHEMES)
    def test_place(self, files, tmp_path, capsys, scheme):
        out = tmp_path / "place"
        err = _fails_with_one_error_line(capsys, ["place", "--scheme", scheme, "--graph", files["graph"],
                                                  "--topology", files["topo"], "--seed", "-3", "--out", str(out)])
        assert err == "error: --seed must be >= 0, not -3\n"
        assert not out.exists()

    def test_evaluate(self, files, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert run(["datagen", "--family", "branch_blocks", "--count", "2", "--out", str(ds)]) == 0
        ckpt = tmp_path / "ckpt.json"
        save_policy_checkpoint(ckpt, init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0))
        out = tmp_path / "eval"
        err = _fails_with_one_error_line(capsys, ["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds),
                                                  "--topology", files["topo"], "--seed", "-1", "--out", str(out)])
        assert err == "error: --seed must be >= 0, not -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, flags, message",
        [
            ({}, ["--seed", "-1"], "--seed must be >= 0, not -1"),
            ({"seed": -2}, [], "config key 'seed' must be an integer >= 0, not -2"),  # TrainerConfig.seed's rule
            ({"family": {"family": "branch_blocks", "count": 4, "seed": -4}}, [],
             "family key 'seed' must be an integer >= 0, not -4"),
        ],
        ids=["flag", "config", "family"],
    )
    def test_train(self, files, tmp_path, capsys, overrides, flags, message):
        path = write_run_config(tmp_path, files["topo"], **overrides)
        out = tmp_path / "train"
        err = _fails_with_one_error_line(capsys, ["train", "--config", path, "--out", str(out), *flags])
        assert err == f"error: {message}\n"
        assert not out.exists()  # not even run_config.json


class _TrainCalled(Exception):
    pass


class TestRunConfigDefaults:
    """The run config's policy and trainer sections are the config dataclasses'
    fields, and each key not given takes its dataclass default."""

    def test_sections_keep_their_keys_and_kinds(self):
        # The tables the run config was checked against before they were derived.
        assert cli._SECTIONS["policy"] == {"message_rounds": "int", "mode": "str", "head_hidden": "int?"}
        assert cli._SECTIONS["trainer"] == {
            "episodes": "int", "workers": "int", "lr_start": "number", "lr_end": "number",
            "entropy_start": "number", "entropy_end": "number", "baseline_window": "int",
            "randomize_visit_order": "bool", "threads": "int",
        }
        # env is RewardConfig's fields and init_mode; the memory limit is the topology's.
        assert cli._SECTIONS["env"] == {"mode": "str", "penalty_per_gb": "number", "reward_scale": "number?",
                                        "init_mode": "str"}

    def _configs(self, files, tmp_path, monkeypatch, doc, flags=()):
        """The (policy, trainer, reward) configs train is called with."""
        seen = []

        def train(policy_cfg, cfg, graphs, topology, reward_cfg):
            seen.append((policy_cfg, cfg, reward_cfg))
            raise _TrainCalled

        monkeypatch.setattr(trainer, "train", train)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"topology": files["topo"], "family": {"family": "branch_blocks", "count": 2},
                                    **doc}))
        with pytest.raises(_TrainCalled):
            run(["train", "--config", str(path), "--out", str(tmp_path / "o"), *flags])
        return seen[0]

    @pytest.mark.parametrize("doc", [{}, {"env": {}, "policy": {}, "trainer": {}}], ids=["absent", "empty"])
    def test_sections_not_given_build_the_dataclass_defaults(self, files, tmp_path, monkeypatch, doc):
        policy_cfg, cfg, reward_cfg = self._configs(files, tmp_path, monkeypatch, doc)
        assert policy_cfg == PolicyConfig(num_devices=2)
        assert cfg == trainer.TrainerConfig()
        assert reward_cfg == RewardConfig()
        # The values cmd_train spelled out before it took them from the dataclasses.
        assert policy_cfg == PolicyConfig(num_devices=2, message_rounds=8, mode="full", head_hidden=None)
        assert (cfg.seed, cfg.init_mode) == (0, "all_device_0")
        assert reward_cfg == RewardConfig(mode=INTERMEDIATE, penalty_per_gb=2.0, reward_scale=None)

    def test_given_keys_reach_the_configs(self, files, tmp_path, monkeypatch):
        doc = {"seed": 5, "env": {"init_mode": "random", "penalty_per_gb": 3, "reward_scale": 2.5},
               "policy": {"mode": "simple_aggregator"}, "trainer": {"episodes": 4}}
        policy_cfg, cfg, reward_cfg = self._configs(files, tmp_path, monkeypatch, doc)
        assert policy_cfg == PolicyConfig(num_devices=2, mode="simple_aggregator")
        assert cfg == trainer.TrainerConfig(episodes=4, seed=5, init_mode="random")
        assert reward_cfg == RewardConfig(penalty_per_gb=3, reward_scale=2.5)
        _, cfg, _ = self._configs(files, tmp_path, monkeypatch, doc, ["--seed", "7"])
        assert cfg.seed == 7


def _valid_checkpoint_doc():
    params = init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0)
    return {"format": CHECKPOINT_FORMAT, "params": params_to_doc(params.flat_params()),
            "extra": {"policy": params.config.to_header()}}


def _drop_params(doc):
    del doc["params"]


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _set_entry(field, value):
    def mutate(doc):
        doc["params"][1][field] = value
    return mutate


def _set_datum(value):
    def mutate(doc):
        doc["params"][0]["data"][3] = value
    return mutate


class TestMalformedCheckpoint:
    """Each bad checkpoint document ends in one error line and exit 1."""

    @pytest.fixture
    def evaluate_argv(self, files, tmp_path):
        ds = tmp_path / "ds"
        assert run(["datagen", "--family", "branch_blocks", "--count", "4", "--branch-ops", "1", "2",
                    "--out", str(ds)]) == 0
        ckpt = tmp_path / "ckpt.json"
        return ckpt, ["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds), "--topology", files["topo"],
                      "--out", str(tmp_path / "eval_out")]

    def test_valid_document_evaluates(self, evaluate_argv):
        ckpt, argv = evaluate_argv
        ckpt.write_text(json.dumps(_valid_checkpoint_doc()))
        assert run(argv) == 0

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", '"checkpoint"', "3", "null", "{"])
    def test_not_an_object(self, evaluate_argv, capsys, text):
        ckpt, argv = evaluate_argv
        ckpt.write_text(text)
        _fails_with_one_error_line(capsys, argv)

    @pytest.mark.parametrize(
        "mutate",
        [
            _drop_params,
            _set("params", {}),
            _set("params", "weights"),
            _set("params", None),
            _set("params", [1, 2]),
            _set("extra", []),
            _set("extra", {"policy": [2, 1]}),
            _set("extra", {"policy": {"num_devices": None, "message_rounds": 1, "mode": "full"}}),
            _set_entry("shape", "12"),
            _set_entry("shape", [-1]),
            _set_entry("data", "0.0"),
            _set_datum("0.5"),
            _set_datum(True),
            _set_datum(None),
            _set_datum([0.5]),
            _set_datum(10**400),
        ],
        ids=["no_params", "params_object", "params_string", "params_null", "entries_not_objects",
             "extra_list", "policy_header_list", "policy_header_null_devices", "string_shape", "negative_shape", "string_data", "string_datum", "bool_datum", "null_datum",
             "list_datum", "huge_int_datum"],
    )
    def test_bad_document(self, evaluate_argv, capsys, mutate):
        ckpt, argv = evaluate_argv
        doc = _valid_checkpoint_doc()
        mutate(doc)
        ckpt.write_text(json.dumps(doc))
        _fails_with_one_error_line(capsys, argv)

    @pytest.mark.parametrize("mutate", [_set_entry("data", [0.0]), _set_entry("shape", [2, 3, 4])],
                             ids=["short_data", "long_shape"])
    def test_data_length_must_match_shape(self, evaluate_argv, capsys, mutate):
        ckpt, argv = evaluate_argv
        doc = _valid_checkpoint_doc()
        mutate(doc)
        ckpt.write_text(json.dumps(doc))
        assert "values for shape" in _fails_with_one_error_line(capsys, argv)

    @pytest.mark.parametrize("head_hidden", [0, -3])
    def test_head_hidden_below_one(self, evaluate_argv, capsys, head_hidden):
        ckpt, argv = evaluate_argv
        doc = _valid_checkpoint_doc()
        doc["extra"]["policy"]["head_hidden"] = head_hidden
        ckpt.write_text(json.dumps(doc))
        assert "'head_hidden'" in _fails_with_one_error_line(capsys, argv)

    @pytest.mark.parametrize(
        "key, value, wanted",
        [
            ("num_devices", 0, "an integer >= 1"),
            ("num_devices", -2, "an integer >= 1"),
            ("message_rounds", -1, "an integer >= 0"),
            ("mode", "bogus", 'one of "full", "simple_aggregator", "simple_partitioner"'),
        ],
    )
    def test_header_value_refusal_names_the_document_and_key(self, evaluate_argv, capsys, key, value, wanted):
        ckpt, argv = evaluate_argv
        doc = _valid_checkpoint_doc()
        doc["extra"]["policy"][key] = value
        ckpt.write_text(json.dumps(doc))
        err = _fails_with_one_error_line(capsys, argv)
        assert err == f"error: checkpoint policy header key {key!r} must be {wanted}, not {json.dumps(value)}\n"

    @pytest.mark.parametrize("extra", [{}, None], ids=["empty_extra", "no_extra"])
    def test_no_policy_header(self, evaluate_argv, capsys, extra):
        ckpt, argv = evaluate_argv
        doc = _valid_checkpoint_doc()
        if extra is None:
            del doc["extra"]
        else:
            doc["extra"] = extra
        ckpt.write_text(json.dumps(doc))
        assert _fails_with_one_error_line(capsys, argv) == "error: checkpoint extra lacks key(s): policy\n"

    def test_unknown_header_key(self, evaluate_argv, capsys):
        ckpt, argv = evaluate_argv
        doc = _valid_checkpoint_doc()
        doc["extra"]["policy"]["dropout"] = 0.1
        ckpt.write_text(json.dumps(doc))
        assert "unknown checkpoint policy header key(s): dropout" in _fails_with_one_error_line(capsys, argv)

    @pytest.mark.parametrize("key", ["num_devices", "message_rounds", "mode", "head_hidden"])
    def test_missing_header_key(self, evaluate_argv, capsys, key):
        ckpt, argv = evaluate_argv
        doc = _valid_checkpoint_doc()
        del doc["extra"]["policy"][key]
        ckpt.write_text(json.dumps(doc))
        assert f"policy header lacks key(s): {key}" in _fails_with_one_error_line(capsys, argv)

    def test_header_shapes_are_checked_before_allocating(self, evaluate_argv, capsys):
        # A header for 600 devices implies a head of ~4.8k x 4.8k weights,
        # but the file holds a 2-device policy's arrays.
        ckpt, argv = evaluate_argv
        doc = _valid_checkpoint_doc()
        doc["extra"]["policy"]["num_devices"] = 600
        ckpt.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            err = _fails_with_one_error_line(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert "policy header implies" in err

    def test_header_is_the_config_fields_in_order(self):
        header = PolicyConfig(num_devices=3, message_rounds=2, head_hidden=5).to_header()
        assert list(header.items()) == [("num_devices", 3), ("message_rounds", 2), ("mode", "full"),
                                        ("head_hidden", 5)]

    def test_non_finite_datum(self, evaluate_argv, capsys):
        ckpt, argv = evaluate_argv
        doc = _valid_checkpoint_doc()
        doc["params"][0]["data"][0] = float("inf")
        ckpt.write_text(json.dumps(doc))  # Python's json writes Infinity
        assert "finite number" in _fails_with_one_error_line(capsys, argv)


class TestFreshCheckpointBehavesLikeRandom:
    def test_zero_shot_mean_close_to_random_mean(self, files, tmp_path):
        # An untrained policy is near-uniform, so greedy zero-shot runtimes
        # across a dataset should land in the same range as random placement.
        from placement_opt import baselines, datagen, placement_env, trainer
        from placement_opt.placement_env import RewardConfig

        topo = load_topology(json.dumps(TOPO_DOC))
        spec = datagen.FamilySpec(
            family="branch_blocks", count=12, blocks=1, branches_lo=2, branches_hi=2,
            branch_ops_lo=2, branch_ops_hi=3, seed=8,
        )
        graphs = datagen.generate_family(spec)
        cfg = RewardConfig(mode="terminal")
        zs, rnd = [], []
        for i, g in enumerate(graphs):
            params = init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=i)
            (pred,) = trainer.predict_placement(params, [g], topo, cfg)
            zs.append(pred.runtime_seconds)
            r_runtimes = [
                placement_env.evaluate_placement(g, topo, baselines.place_random(g, topo, s), cfg)[0]
                for s in range(8)
            ]
            rnd.append(np.mean(r_runtimes))
        ratio = np.mean(zs) / np.mean(rnd)
        assert 0.75 <= ratio <= 1.25


def _recording_namespace():
    """A Namespace plus the set of attribute names read from it."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    return Recording(), reads


class TestDeclaredFlagsAreRead:
    """A subcommand declares only the flags its handler reads."""

    @pytest.mark.parametrize("command", ["datagen", "simulate", "place", "train", "evaluate", "oracle"])
    def test_handler_reads_every_declared_flag(self, files, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)  # commands without --out write to the working directory
        ds = str(tmp_path / "ds")
        graph_topo = ["--graph", files["graph"], "--topology", files["topo"]]
        datagen = ["datagen", "--family", "branch_blocks", "--count", "4", "--branch-ops", "1", "2", "--out", ds]
        argv = {
            "datagen": datagen,
            "simulate": ["simulate", *graph_topo, "--placement", files["placement"]],
            "place": ["place", "--scheme", "random", *graph_topo],
            "train": ["train", "--config", write_run_config(tmp_path, files["topo"])],
            "evaluate": ["evaluate", "--checkpoint", str(tmp_path / "ckpt.json"), "--dataset", ds,
                         "--topology", files["topo"]],
            "oracle": ["oracle", *graph_topo],
        }[command]
        if command == "evaluate":
            assert run(datagen) == 0
            save_policy_checkpoint(tmp_path / "ckpt.json", init_policy(PolicyConfig(num_devices=2, message_rounds=1)))
        args, reads = _recording_namespace()
        cli.build_parser().parse_args(argv, namespace=args)
        reads.clear()
        assert args.func(args) == 0
        unread = set(vars(args)) - reads - {"command", "func"}
        assert not unread, f"{command} declares flags its handler never reads: {sorted(unread)}"


def _dataset_run_config(tmp_path, topo_path, dataset):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "topology": topo_path,
        "dataset": str(dataset),
        "seed": 4,
        "env": {"mode": "intermediate"},
        "policy": {"message_rounds": 1},
        "trainer": {"episodes": 1, "workers": 3},
    }))
    return str(path)


class TestDatasetManifest:
    """train and evaluate read a dataset through its manifest."""

    @pytest.fixture
    def dataset(self, tmp_path):
        ds = tmp_path / "ds"
        assert run(["datagen", "--family", "branch_blocks", "--count", "4", "--branch-ops", "1", "2",
                    "--out", str(ds), "--seed", "8"]) == 0
        return ds

    def test_train_from_dataset_is_reproducible(self, files, tmp_path, dataset):
        outputs = []
        for k in range(2):
            out = tmp_path / f"train{k}"
            assert run(["train", "--config", _dataset_run_config(tmp_path, files["topo"], dataset),
                        "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("checkpoint.json", "learning_curve.csv", "best_placements.json")])
        assert outputs[0] == outputs[1]
        manifest = json.loads((dataset / "manifest.json").read_text())
        train_names = {m["name"] for m in manifest["members"] if m["split"] == "train"}
        assert set(json.loads((tmp_path / "train0" / "best_placements.json").read_text())) <= train_names

    def test_training_graphs_sharing_a_name_are_refused(self, files, tmp_path, capsys, dataset):
        # Baselines, learning-curve rows and best placements are kept by graph
        # name, so two train graphs without a name would be merged.
        for name, n in (("two", 2), ("three", 3)):
            doc = {"nodes": [{"id": v, "cost": 1.0, "output_bytes": 1e6} for v in range(n)],
                   "edges": [[v, v + 1] for v in range(n - 1)]}
            (dataset / f"{name}.json").write_text(json.dumps(doc))
        members = [{"file": f"{name}.json", "split": "train"} for name in ("two", "three")]
        (dataset / "manifest.json").write_text(json.dumps({"members": members}))
        out = tmp_path / "out"
        argv = ["train", "--config", _dataset_run_config(tmp_path, files["topo"], dataset), "--out", str(out)]
        err = _fails_with_one_error_line(capsys, argv)
        assert "two training graphs are named ''" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "manifest",
        [
            [],
            {},
            {"members": 3},
            {"members": ["x"]},
            {"members": [{"name": "g", "file": 5, "split": "test"}]},
            {"members": [{"name": "g", "split": "test"}]},
            {"members": [{"name": "g", "file": "g.json", "split": "validation"}]},
            {"members": [{"name": "g", "file": "g.json"}]},
        ],
    )
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_malformed_manifest_is_single_line_error(self, files, tmp_path, capsys, dataset, manifest, command):
        (dataset / "g.json").write_text(json.dumps(DIAMOND_DOC))
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        ckpt = tmp_path / "ckpt.json"
        save_policy_checkpoint(ckpt, init_policy(PolicyConfig(num_devices=2, message_rounds=1)))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--config", _dataset_run_config(tmp_path, files["topo"], dataset), "--out", str(out)],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                         "--topology", files["topo"], "--out", str(out)],
        }[command]
        err = _fails_with_one_error_line(capsys, argv)
        assert "manifest" in err
        assert not (out / "checkpoint.json").exists() and not (out / "evaluation.csv").exists()


@pytest.mark.parametrize("kind", ["graph", "topology", "placement", "run_config", "checkpoint", "manifest"])
def test_deeply_nested_document_is_single_line_error(files, tmp_path, capsys, kind):
    # The JSON parser runs out of recursion depth on each kind of input.
    deep = tmp_path / "deep.json"
    deep.write_text('{"nodes": ' + "[" * 100_000 + "]" * 100_000 + "}")
    ckpt, ds, out = tmp_path / "ckpt.json", tmp_path / "ds", str(tmp_path / "out")
    save_policy_checkpoint(ckpt, init_policy(PolicyConfig(num_devices=2, message_rounds=1)))
    ds.mkdir()
    if kind == "manifest":
        (ds / "manifest.json").write_text(deep.read_text())
    simulate = {"graph": files["graph"], "topology": files["topo"], "placement": files["placement"]}
    if kind in simulate:
        simulate[kind] = str(deep)
        argv = ["simulate", *(f"--{k}={v}" for k, v in simulate.items()), "--out", out]
    elif kind == "run_config":
        argv = ["train", "--config", str(deep), "--out", out]
    else:
        argv = ["evaluate", "--checkpoint", str(deep if kind == "checkpoint" else ckpt), "--dataset", str(ds),
                "--topology", files["topo"], "--out", out]
    err = _fails_with_one_error_line(capsys, argv)
    assert "recursion" in err
    name = {"run_config": "config", "manifest": "dataset manifest"}.get(kind, kind)
    assert err.startswith(f"error: {name} "), err  # the line names the document


class TestRefusedCommandsLeaveNoOutput:
    """A command refused for its inputs creates no --out: each is refused
    only after it has read every input, so nothing but the check stands
    between the refusal and the first write."""

    def test_place_with_an_edge_to_a_missing_node(self, files, tmp_path, capsys):
        graph = tmp_path / "bad_edge.json"
        graph.write_text(json.dumps({**DIAMOND_DOC, "edges": [[0, 9]]}))
        out = tmp_path / "o"
        err = _fails_with_one_error_line(
            capsys, ["place", "--scheme", "mincut", "--graph", str(graph), "--topology", files["topo"],
                     "--out", str(out)])
        assert "missing node" in err
        assert not out.exists()

    def test_simulate_with_a_node_on_a_missing_device(self, files, tmp_path, capsys):
        placement = tmp_path / "bad_placement.json"
        placement.write_text(json.dumps({"assignment": {"0": 0, "1": 5, "2": 1, "3": 0}}))
        out = tmp_path / "o"
        err = _fails_with_one_error_line(
            capsys, ["simulate", "--graph", files["graph"], "--topology", files["topo"], "--placement", str(placement),
                     "--out", str(out)])
        assert "node 1 placed on invalid device 5" in err
        assert not out.exists()

    def test_oracle_over_its_budget(self, files, tmp_path, capsys):
        out = tmp_path / "o"
        err = _fails_with_one_error_line(
            capsys, ["oracle", "--graph", files["graph"], "--topology", files["topo"], "--budget", "3",
                     "--out", str(out)])
        assert "exceed the budget 3" in err
        assert not out.exists()

    def test_evaluate_with_a_checkpoint_for_other_devices(self, files, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert run(["datagen", "--family", "branch_blocks", "--count", "4", "--branch-ops", "1", "1",
                    "--out", str(ds)]) == 0
        ckpt = tmp_path / "ckpt.json"
        save_policy_checkpoint(str(ckpt), init_policy(PolicyConfig(num_devices=3, message_rounds=1), seed=0))
        out = tmp_path / "o"
        err = _fails_with_one_error_line(
            capsys, ["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds), "--topology", files["topo"],
                     "--out", str(out)])
        assert "checkpoint is for 3 devices, topology has 2" in err
        assert not out.exists()


class TestMissingInputFiles:
    """A checkpoint, a dataset manifest or a dataset member that cannot be
    read is refused in the words of every other unreadable input."""

    @pytest.fixture
    def evaluate_inputs(self, files, tmp_path):
        ds = tmp_path / "ds"
        assert run(["datagen", "--family", "branch_blocks", "--count", "4", "--branch-ops", "1", "1",
                    "--out", str(ds)]) == 0
        ckpt = tmp_path / "ckpt.json"
        save_policy_checkpoint(str(ckpt), init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0))
        return {"checkpoint": str(ckpt), "dataset": ds}

    def _refused(self, capsys, files, tmp_path, checkpoint, dataset, path):
        out = tmp_path / "o"
        rc = run(["evaluate", "--checkpoint", checkpoint, "--dataset", str(dataset), "--topology", files["topo"],
                  "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: cannot read {path}: No such file or directory\n"
        assert not out.exists()

    def test_checkpoint(self, files, tmp_path, capsys, evaluate_inputs):
        path = str(tmp_path / "nope.json")
        self._refused(capsys, files, tmp_path, path, evaluate_inputs["dataset"], path)

    def test_dataset_manifest(self, files, tmp_path, capsys, evaluate_inputs):
        ds = tmp_path / "no_manifest"
        ds.mkdir()
        self._refused(capsys, files, tmp_path, evaluate_inputs["checkpoint"], ds, os.path.join(ds, "manifest.json"))

    def test_dataset_member(self, files, tmp_path, capsys, evaluate_inputs):
        ds = evaluate_inputs["dataset"]
        member = json.loads((ds / "manifest.json").read_text())["members"][-1]["file"]
        (ds / member).unlink()
        self._refused(capsys, files, tmp_path, evaluate_inputs["checkpoint"], ds, os.path.join(ds, member))


class TestNonUtf8InputFiles:
    """A graph, a checkpoint or a dataset member that is not UTF-8 text is
    refused as unreadable, naming its file, with no --out written."""

    REASON = "not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"

    def _refused(self, capsys, tmp_path, argv, path):
        out = tmp_path / "o"
        assert run([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot read {path}: {self.REASON}\n"
        assert not out.exists()

    @staticmethod
    def _spoil(path):
        path.write_bytes(b"\xff" + path.read_bytes())

    def test_graph(self, files, tmp_path, capsys):
        graph = tmp_path / "diamond.json"
        self._spoil(graph)
        self._refused(capsys, tmp_path, ["place", "--scheme", "mincut", "--graph", str(graph),
                                         "--topology", files["topo"]], graph)

    @pytest.fixture
    def evaluate_argv(self, files, tmp_path):
        ds = tmp_path / "ds"
        assert run(["datagen", "--family", "branch_blocks", "--count", "4", "--branch-ops", "1", "1",
                    "--out", str(ds)]) == 0
        ckpt = tmp_path / "ckpt.json"
        save_policy_checkpoint(str(ckpt), init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0))
        return ["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds), "--topology", files["topo"]]

    def test_checkpoint(self, tmp_path, capsys, evaluate_argv):
        self._spoil(tmp_path / "ckpt.json")
        self._refused(capsys, tmp_path, evaluate_argv, tmp_path / "ckpt.json")

    def test_dataset_member(self, tmp_path, capsys, evaluate_argv):
        ds = tmp_path / "ds"
        member = json.loads((ds / "manifest.json").read_text())["members"][-1]["file"]
        self._spoil(ds / member)
        self._refused(capsys, tmp_path, evaluate_argv, os.path.join(ds, member))


class TestSchemeTable:
    """cli.SCHEMES is the one list of baseline schemes: place takes its keys
    as its choices, and evaluate writes a row for each entry, in its order,
    after zero_shot and before exhaustive."""

    @pytest.fixture
    def evaluate_argv(self, files, tmp_path):
        ds = tmp_path / "ds"
        assert run(["datagen", "--family", "branch_blocks", "--count", "4", "--branch-ops", "1", "2",
                    "--out", str(ds), "--seed", "5"]) == 0
        ckpt = tmp_path / "ckpt.json"
        save_policy_checkpoint(str(ckpt), init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0))
        return ["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds), "--topology", files["topo"],
                "--out", str(tmp_path / "eval_out")]

    def _schemes_by_graph(self, argv, capsys):
        assert run(argv) == 0
        summary = capsys.readouterr().out.splitlines()[1:]
        with open(os.path.join(argv[-1], "evaluation.csv")) as f:
            rows = list(csv.DictReader(f))
        by_graph = {}
        for r in rows:
            by_graph.setdefault(r["graph"], []).append(r["scheme"])
        return by_graph, [line.split(":")[0].strip() for line in summary]

    def test_evaluate_rows_follow_the_table(self, evaluate_argv, capsys):
        expected = ["zero_shot", *cli.SCHEMES, "exhaustive"]
        assert list(cli.SCHEMES) == ["random", "single_device", "mincut", "expert"]
        by_graph, summary = self._schemes_by_graph(evaluate_argv, capsys)
        assert by_graph and all(schemes == expected for schemes in by_graph.values())
        assert summary == expected

    def test_an_added_entry_drives_both_commands(self, files, tmp_path, monkeypatch, capsys, evaluate_argv):
        monkeypatch.setitem(cli.SCHEMES, "last_device",
                            lambda graph, topology, seed, cfg: Placement((topology.num_devices - 1,) * graph.num_nodes))
        out = tmp_path / "place_out"
        assert run(["place", "--scheme", "last_device", "--graph", files["graph"], "--topology", files["topo"],
                    "--out", str(out)]) == 0
        assert set(json.loads((out / "placement_last_device.json").read_text())["assignment"].values()) == {1}
        capsys.readouterr()
        expected = ["zero_shot", "random", "single_device", "mincut", "expert", "last_device", "exhaustive"]
        by_graph, summary = self._schemes_by_graph(evaluate_argv, capsys)
        assert by_graph and all(schemes == expected for schemes in by_graph.values())
        assert summary == expected
