"""The benchmark's tracer (placebench/tracing.py) times the layers it lists
in LAYERS by rebinding them. This installs it around one training epoch and
one prediction and checks that the rollout and policy layers record the
calls both make, so neither path hides its rollouts in its caller's self
time."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import placement_opt.cli  # noqa: F401  (loads every module the tracer rebinds)
from placement_opt import trainer
from placement_opt.neural_primitives import AdamState
from placement_opt.placement_env import RewardConfig
from placement_opt.policy_gnn import PolicyConfig, init_policy

from conftest import make_topology, random_dag

TRACING = Path(__file__).resolve().parents[1] / "placebench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("placebench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_rollout_and_policy_layers_record_train_and_predict(monkeypatch):
    tracing = _load_tracing()
    traced = {
        id(getattr(sys.modules[f"placement_opt.{module}"], name))
        for module, names in tracing.LAYERS.items()
        for name in names
    }
    # Re-set every binding the tracer will replace, so teardown restores it.
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "placement_opt" or mod_name.startswith("placement_opt."):
            for attr, value in list(vars(module).items()):
                if id(value) in traced:
                    monkeypatch.setattr(module, attr, value)

    topo = make_topology(2, bandwidth=4e6)
    graphs = [random_dag(np.random.default_rng(k), max_nodes=6, bytes_range=(0.1, 4e6), name=f"random{k}") for k in range(2)]
    params = init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0)
    cfg = trainer.TrainerConfig(episodes=1, workers=2, seed=3)
    adam = AdamState.for_params(params.flat_params(), lr=1.0)

    rec = tracing.SpanRecorder()
    tracing.install(rec)
    rec.op, rec.active = 0, True
    trainer.train_epoch(params, graphs, topo, cfg, RewardConfig(), 0, trainer.BaselineTable(5), adam)
    trainer.predict_placement(params, graphs, topo, n_samples=3, seed=1)
    rec.active = False

    summary = rec.summary()
    assert summary["ops"]["trainer.rollout"]["calls"] == 2
    assert summary["ops"]["policy_gnn.policy_forward"]["calls"] > 0
    edges = summary["edges"]
    assert edges[("trainer.rollout", "trainer.train_epoch")] == 1
    assert edges[("trainer.rollout", "trainer.predict_placement")] == 1  # every graph's episodes in lockstep
    forwards = summary["ops"]["policy_gnn.policy_forward"]["calls"]
    assert edges[("policy_gnn.policy_forward", "trainer.rollout")] == forwards
    assert edges[("policy_gnn.policy_backward", "trainer.train_epoch")] == 1  # one per epoch
