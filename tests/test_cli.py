import csv
import json
import os

import numpy as np
import pytest

from placement_opt import cli
from placement_opt.graph_core import load_graph
from placement_opt.policy_gnn import PolicyConfig, init_policy
from placement_opt.sim_engine import load_topology
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
        save_policy_checkpoint(ckpt, params, None)
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
        save_policy_checkpoint(ckpt, params, None)
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
            pred = trainer.predict_placement(params, g, topo, cfg)
            zs.append(pred.runtime_seconds)
            r_runtimes = [
                placement_env.evaluate_placement(g, topo, baselines.place_random(g, topo, s), cfg)[0]
                for s in range(8)
            ]
            rnd.append(np.mean(r_runtimes))
        ratio = np.mean(zs) / np.mean(rnd)
        assert 0.75 <= ratio <= 1.25
