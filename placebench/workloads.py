"""The three closed-loop workloads: train, evaluate and place_large.

Each workload builds its inputs from the workload seed alone and runs one
operation at a time; the next starts when the previous one has finished.
`setup` is timed as set-up; `op` is the timed operation; `check` verifies one
operation's outputs and runs outside the timed region, as does `prepare`,
which computes the reference results the checks compare against.

Calls into placement_opt go through module attributes (`trainer.train_epoch`,
`cli.main`) so that the span recorder's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from placement_opt import baselines, cli, datagen, graph_core, placement_env, sim_engine, trainer
from placement_opt.neural_primitives import AdamState
from placement_opt.policy_gnn import PolicyConfig, init_policy
from placement_opt.sim_engine import Placement

# The README walkthrough's topology: two uniform devices at 1e6 bytes/s.
README_TOPOLOGY = {
    "devices": [{"id": 0, "memory_bytes": 12e9}, {"id": 1, "memory_bytes": 12e9}],
    "bandwidth_bytes_per_sec": 1e6,
}
# The same with ten times the bandwidth, for training. At 1e6 every transfer
# costs more than the compute it could overlap, so training collapses onto
# one device, and which device it picks is a coin flip of the seed: one never
# simulates, the other simulates at every step, and epochs differ by a third
# in cost. At 1e7 spreading a graph pays, and the policy learns mixed
# placements on almost every seed.
TWO_DEVICES = {**README_TOPOLOGY, "bandwidth_bytes_per_sec": 1e7}
# The README walkthrough's training settings, used by evaluate's set-up.
README_TRAINER = {
    "episodes": 300,
    "workers": 8,
    "lr_start": 0.01,
    "lr_end": 0.001,
    "entropy_start": 0.005,
    "entropy_end": 0.0001,
    "threads": 1,
}
# The train workload keeps TrainerConfig's default schedules (lr 1e-3 to
# 1e-4, entropy weight 1e-2 to 1e-3 over 200 epochs). With the README's
# ten-times-larger rates the policy turns deterministic within 30 epochs, and
# where it lands sets the share of steps that simulate.
TRAIN_TRAINER = {"workers": 8, "threads": 1}
MESSAGE_ROUNDS = 3

# Heterogeneous topology for the large graphs: two plain devices, a 1.5x and
# a 2x slower one, and faster links within each pair than across them.
LARGE_TOPOLOGY = {
    "devices": [
        {"id": i, "memory_bytes": 12e9, "compute_scale": s} for i, s in enumerate((1.0, 1.0, 1.5, 2.0))
    ],
    "bandwidth_bytes_per_sec": [
        [0.0, 1.6e7, 4.0e6, 4.0e6],
        [1.6e7, 0.0, 4.0e6, 4.0e6],
        [4.0e6, 4.0e6, 0.0, 8.0e6],
        [4.0e6, 4.0e6, 8.0e6, 0.0],
    ],
}


class OpFailed(RuntimeError):
    """A placement_opt command exited with a nonzero status."""


def run_cli(argv: list[str]):
    """Run one in-process `placement-opt` command, keeping its output off stdout."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"placement-opt {argv[0]} exited {code}: {err.getvalue().strip()}")


def datagen_argv(family: dict, seed: int, out: str) -> list[str]:
    """`placement-opt datagen` arguments that write the FamilySpec(seed, **family) dataset."""
    spec = datagen.FamilySpec(seed=seed, **family)
    return ["datagen", "--family", spec.family, "--count", str(spec.count), "--blocks", str(spec.blocks),
            "--branches", str(spec.branches_lo), str(spec.branches_hi),
            "--branch-ops", str(spec.branch_ops_lo), str(spec.branch_ops_hi), "--out", out, "--seed", str(seed)]


def write_json(directory: str, name: str, doc) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def file_digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def tree_digest(directory: str) -> str:
    """sha256 over the relative names and bytes of every file below a directory."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def params_digest(params) -> str:
    h = hashlib.sha256()
    for p in params.flat_params():
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()


def pick_data_seed(seed: int, family: dict, accept) -> int:
    """The first dataset seed of seed*1000, seed*1000+1, ... whose (train,
    test) split `accept`s. Graph sizes set the work of an op, so fixing them
    keeps every workload seed doing the same amount of work."""
    for k in range(1000):
        spec = datagen.FamilySpec(seed=seed * 1000 + k, **family)
        train, test = datagen.split(datagen.generate_family(spec), spec.train_fraction, spec.seed)
        if accept(train, test):
            return spec.seed
    raise ValueError(f"no dataset seed for workload seed {seed} meets the size condition")


class Workload:
    name = ""
    warmup_ops = 1
    output_ops = 1  # ops (warm-up included) after which quality and digests are final
    cycle = 1  # timed ops end on a multiple of this

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: str) -> str:
        """Build inputs and fresh state in `directory`; returns their digest."""
        raise NotImplementedError

    def prepare(self):
        """Reference results for the checks; untimed, runs after set-up."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        """Problems found in op i's outputs; also records quality and digests."""
        raise NotImplementedError

    def quality(self) -> float:
        raise NotImplementedError

    def digests(self) -> dict[str, str]:
        raise NotImplementedError

    def config(self) -> dict:
        return {}


class Train(Workload):
    """Repeated trainer.train_epoch on the README dataset's train split."""

    name = "train"
    warmup_ops = 3
    output_ops = 20  # quality_ratio and digests are taken after this many epochs
    FAMILY = {"family": "branch_blocks", "count": 32}  # the README dataset
    TRAIN_NODES = 304  # total nodes of the 16 train graphs (the family's mean)

    def __init__(self, seed):
        super().__init__(seed)
        self.data_seed = pick_data_seed(
            seed, self.FAMILY, lambda train, test: sum(g.num_nodes for g in train) == self.TRAIN_NODES
        )

    def config(self):
        return {
            "dataset": "branch_blocks count 32 blocks 2, default ranges, train split",
            "dataset_seed": self.data_seed,
            "train_nodes": self.TRAIN_NODES,
            "topology": TWO_DEVICES,
            "reward": "intermediate",
            "init": "all_device_0",
            "message_rounds": MESSAGE_ROUNDS,
            "trainer": TRAIN_TRAINER,
            "quality_epochs": self.output_ops,
        }

    def setup(self, directory):
        os.makedirs(directory, exist_ok=True)
        dataset = os.path.join(directory, "dataset")
        topo_path = write_json(directory, "topology.json", TWO_DEVICES)
        run_cli(datagen_argv(self.FAMILY, self.data_seed, dataset))
        _, self.graphs, _ = datagen.read_dataset(dataset)
        with open(topo_path) as f:
            self.topology = sim_engine.load_topology(f.read())
        self.reward_cfg = placement_env.RewardConfig(mode=placement_env.INTERMEDIATE)
        self.cfg = trainer.TrainerConfig(seed=self.seed, init_mode="all_device_0", **TRAIN_TRAINER)
        policy_cfg = PolicyConfig(num_devices=self.topology.num_devices, message_rounds=MESSAGE_ROUNDS)
        self.params = init_policy(policy_cfg, seed=self.seed)
        self.adam = AdamState.for_params(self.params.flat_params(), lr=1.0)
        self.table = trainer.BaselineTable(self.cfg.baseline_window)
        self.best: dict[str, float] = {}
        self.curve: list[tuple] = []
        self.final_params = None
        return tree_digest(directory)

    def prepare(self):
        self.by_name = {g.name: g for g in self.graphs}
        self.classical = {}
        for g in self.graphs:
            schemes = (
                baselines.place_single_device(g, self.topology),
                baselines.place_balanced_mincut(g, self.topology).placement,
                baselines.place_expert_chain(g, self.topology),
            )
            self.classical[g.name] = min(
                placement_env.evaluate_placement(g, self.topology, p, self.reward_cfg)[0] for p in schemes
            )

    def op(self, i):
        return trainer.train_epoch(
            self.params, self.graphs, self.topology, self.cfg, self.reward_cfg, i, self.table, self.adam
        )

    def check(self, i, out):
        stats, traces = out
        problems = []
        if not math.isfinite(stats.grad_norm):
            problems.append(f"epoch {i}: gradient norm {stats.grad_norm}")
        for w, tr in enumerate(traces):
            g = self.by_name[tr.graph_name]
            again, _ = placement_env.evaluate_placement(g, self.topology, Placement(tr.final_placement), self.reward_cfg)
            if again != tr.final_runtime:
                problems.append(f"epoch {i} worker {w}: final_runtime {tr.final_runtime!r} != re-simulated {again!r}")
        if i < self.output_ops:
            for tr in traces:
                self.best[tr.graph_name] = min(tr.final_runtime, self.best.get(tr.graph_name, math.inf))
            for name in sorted(stats.per_graph_runtime):
                self.curve.append(
                    (i, name, stats.per_graph_runtime[name], self.best[name], stats.mean_entropy,
                     stats.grad_norm, stats.lr, stats.entropy_weight)
                )
            if i == self.output_ops - 1:
                self.final_params = params_digest(self.params)
        return problems

    def quality(self):
        ratios = [self.best[name] / self.classical[name] for name in sorted(self.best)]
        return float(np.mean(ratios)) if ratios else -1.0

    def digests(self):
        return {
            f"params_after_epoch_{self.output_ops}": self.final_params or "",
            "curve_rows": hashlib.sha256(repr(self.curve).encode()).hexdigest(),
        }


class Evaluate(Workload):
    """One in-process `placement-opt evaluate --samples 4` command per op."""

    name = "evaluate"
    warmup_ops = 1
    output_ops = 1
    SETUP_EPOCHS = 10
    # One block of two branches of 4-5 ops gives graphs of 10-12 nodes, whose
    # exhaustive search costs 2^10 to 2^12 simulations; the test split is
    # fixed at these sizes, 7,168 placements in all.
    TEST_SIZES = (10, 11, 11, 11)
    FAMILY = {"family": "branch_blocks", "count": 8, "blocks": 1, "branches_lo": 2, "branches_hi": 2,
              "branch_ops_lo": 4, "branch_ops_hi": 5}

    def __init__(self, seed):
        super().__init__(seed)
        self.data_seed = pick_data_seed(
            seed, self.FAMILY, lambda train, test: tuple(sorted(g.num_nodes for g in test)) == self.TEST_SIZES
        )

    def config(self):
        return {
            "dataset": "branch_blocks count 8 blocks 1 branches 2-2 branch-ops 4-5",
            "dataset_seed": self.data_seed,
            "test_sizes": self.TEST_SIZES,
            "topology": README_TOPOLOGY,
            "setup_train_epochs": self.SETUP_EPOCHS,
            "command": "evaluate --samples 4 (default budget)",
        }

    def setup(self, directory):
        os.makedirs(directory, exist_ok=True)
        self.dataset = os.path.join(directory, "dataset")
        self.topology_path = write_json(directory, "topology.json", README_TOPOLOGY)
        run_cli(datagen_argv(self.FAMILY, self.data_seed, self.dataset))
        run_config = {
            "topology": self.topology_path,
            "dataset": self.dataset,
            "seed": self.seed,
            "env": {"mode": "intermediate"},
            "policy": {"message_rounds": MESSAGE_ROUNDS},
            "trainer": {**README_TRAINER, "episodes": self.SETUP_EPOCHS},
        }
        config_path = write_json(directory, "run.json", run_config)
        train_out = os.path.join(directory, "train_out")
        run_cli(["train", "--config", config_path, "--out", train_out])
        self.checkpoint = os.path.join(train_out, "checkpoint.json")
        self.out = os.path.join(directory, "eval_out")
        self.first_digest = None
        self.first_quality = None
        return file_digest(self.checkpoint, os.path.join(train_out, "learning_curve.csv")) + tree_digest(self.dataset)

    def prepare(self):
        _, _, test = datagen.read_dataset(self.dataset)
        with open(self.topology_path) as f:
            topology = sim_engine.load_topology(f.read())
        reward_cfg = placement_env.RewardConfig(mode=placement_env.TERMINAL)
        self.optimum = {}
        for g in test:
            placement, runtime = baselines.exhaustive_search(g, topology, reward_cfg)
            self.optimum[g.name] = (runtime, sim_engine.oracle_simulate(g, topology, placement))

    def op(self, i):
        run_cli(["evaluate", "--checkpoint", self.checkpoint, "--dataset", self.dataset,
                 "--topology", self.topology_path, "--samples", "4", "--out", self.out])
        return os.path.join(self.out, "evaluation.csv")

    def check(self, i, out):
        problems = []
        rows: dict[str, dict[str, dict]] = {}
        with open(out, newline="") as f:
            for row in csv.DictReader(f):
                rows.setdefault(row["graph"], {})[row["scheme"]] = row
        if sorted(rows) != sorted(self.optimum):
            return [f"op {i}: graphs {sorted(rows)} != test split {sorted(self.optimum)}"]
        ratios = []
        for name, schemes in sorted(rows.items()):
            if "exhaustive" not in schemes or "zero_shot" not in schemes:
                problems.append(f"op {i} {name}: schemes {sorted(schemes)}")
                continue
            best = float(schemes["exhaustive"]["penalized_runtime_s"])
            for scheme, row in schemes.items():
                if best > float(row["penalized_runtime_s"]):
                    problems.append(f"op {i} {name}: exhaustive {best} > {scheme} {row['penalized_runtime_s']}")
            runtime, oracle_makespan = self.optimum[name]
            if best != runtime:
                problems.append(f"op {i} {name}: exhaustive {best!r} != reference optimum {runtime!r}")
            if float(schemes["exhaustive"]["makespan_s"]) != oracle_makespan:
                problems.append(f"op {i} {name}: exhaustive makespan != oracle {oracle_makespan!r}")
            ratios.append(float(schemes["zero_shot"]["penalized_runtime_s"]) / best)
        digest = file_digest(out)
        if self.first_digest is None:
            self.first_digest = digest
            self.first_quality = float(np.mean(ratios)) if ratios and not problems else -1.0
        elif digest != self.first_digest:
            problems.append(f"op {i}: evaluation.csv differs from the first op's")
        return problems

    def quality(self):
        return self.first_quality if self.first_quality is not None else -1.0

    def digests(self):
        return {"evaluation.csv": self.first_digest or ""}


class PlaceLarge(Workload):
    """`placement-opt place` with every scheme on one ~1.4k-node graph per op,
    cycling through a pool of POOL graphs."""

    name = "place_large"
    warmup_ops = 1
    # Min-cut time varies by about ±17% between graphs of one size, with how
    # many moves its balance cap admits. Timed ops cover the pool in whole
    # cycles, so every seed's figures average over POOL graphs.
    POOL = 24
    cycle = POOL
    output_ops = warmup_ops + POOL
    SCHEMES = ("single_device", "random", "mincut", "expert")
    FAMILY = {"family": "branch_blocks", "count": POOL, "blocks": 128, "branches_lo": 2, "branches_hi": 4,
              "branch_ops_lo": 2, "branch_ops_hi": 4}

    def __init__(self, seed):
        super().__init__(seed)
        self.data_seed = seed * 1000

    def config(self):
        return {
            "dataset": f"branch_blocks count {self.POOL} blocks 128 branches 2-4 branch-ops 2-4; one graph per op",
            "dataset_seed": self.data_seed,
            "topology": LARGE_TOPOLOGY,
            "schemes": self.SCHEMES,
        }

    def setup(self, directory):
        os.makedirs(directory, exist_ok=True)
        dataset = os.path.join(directory, "dataset")
        self.topology_path = write_json(directory, "topology.json", LARGE_TOPOLOGY)
        run_cli(datagen_argv(self.FAMILY, self.data_seed, dataset))
        with open(os.path.join(dataset, "manifest.json")) as f:
            self.graph_paths = [os.path.join(dataset, m["file"]) for m in json.load(f)["members"]]
        self.out = os.path.join(directory, "place_out")
        self.first_digest: dict[int, str] = {}
        self.ratios: dict[int, float] = {}
        return tree_digest(directory)

    def prepare(self):
        with open(self.topology_path) as f:
            self.topology = sim_engine.load_topology(f.read())
        # The effective tolerance is fixed by the greedy stage, before any
        # refinement pass, so the greedy stage alone gives it cheaply.
        greedy_only = baselines.PartitionerConfig(refinement_passes=0)
        self.graphs, self.tolerance = [], []
        for path in self.graph_paths:
            with open(path) as f:
                graph = graph_core.load_graph(f.read())
            self.graphs.append(graph)
            self.tolerance.append(baselines.place_balanced_mincut(graph, self.topology, greedy_only).effective_tolerance)

    def graph_of(self, i):
        return (i - self.warmup_ops) % self.POOL

    def op(self, i):
        for scheme in self.SCHEMES:
            run_cli(["place", "--scheme", scheme, "--graph", self.graph_paths[self.graph_of(i)],
                     "--topology", self.topology_path, "--out", self.out, "--seed", str(self.seed)])
        return self.out

    def check(self, i, out):
        k = self.graph_of(i)
        graph = self.graphs[k]
        n, m = graph.num_nodes, self.topology.num_devices
        problems, paths, makespan = [], [], {}
        for scheme in self.SCHEMES:
            p_path = os.path.join(out, f"placement_{scheme}.json")
            s_path = os.path.join(out, f"simulation_{scheme}.json")
            paths += [p_path, s_path]
            with open(p_path) as f:
                assignment = json.load(f)["assignment"]
            if sorted(assignment) != sorted(str(v) for v in range(n)) or not all(
                isinstance(d, int) and 0 <= d < m for d in assignment.values()
            ):
                problems.append(f"op {i} graph {k} {scheme}: placement is not a complete valid assignment")
                continue
            with open(s_path) as f:
                makespan[scheme] = json.load(f)["makespan_seconds"]
            if scheme == "mincut":
                placement = Placement(tuple(assignment[str(v)] for v in range(n)))
                problems += self._check_mincut(i, k, placement, makespan[scheme], k not in self.first_digest)
        digest = file_digest(*paths)
        if k not in self.first_digest:
            self.first_digest[k] = digest
            if not problems:
                self.ratios[k] = min(makespan["mincut"], makespan["expert"]) / makespan["single_device"]
        elif digest != self.first_digest[k]:
            problems.append(f"op {i} graph {k}: placement or simulation documents differ from the first op's")
        return problems

    def _check_mincut(self, i, k, placement, makespan, first):
        """Load within the partitioner's effective tolerance and, on a graph's
        first op, a makespan equal to the reference oracle's. Later ops on
        the graph must write identical documents (checked by digest)."""
        graph, topo, tolerance = self.graphs[k], self.topology, self.tolerance[k]
        m = topo.num_devices
        load = [0.0] * m
        total = 0.0
        for v, d in enumerate(placement.assignment):
            w = float(np.mean([graph.nodes[v].cost_on(j) * topo.devices[j].compute_scale for j in range(m)]))
            load[d] += w
            total += w
        cap = (1.0 + tolerance) * total / m
        problems = []
        if max(load) > cap * (1 + 1e-9):
            problems.append(f"op {i} graph {k} mincut: load {max(load)} above cap {cap} (tolerance {tolerance})")
        if first:
            oracle = sim_engine.oracle_simulate(graph, topo, placement)
            if makespan != oracle:
                problems.append(f"op {i} graph {k} mincut: makespan {makespan!r} != oracle {oracle!r}")
        return problems

    def quality(self):
        if len(self.ratios) < self.POOL:
            return -1.0
        return float(np.mean([self.ratios[k] for k in range(self.POOL)]))

    def digests(self):
        h = hashlib.sha256()
        for k in sorted(self.first_digest):
            h.update(self.first_digest[k].encode())
        return {"placement+simulation documents": h.hexdigest() if len(self.first_digest) == self.POOL else ""}


WORKLOADS = {w.name: w for w in (Train, Evaluate, PlaceLarge)}
