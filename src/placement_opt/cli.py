"""Command-line entry point: datagen | simulate | place | train | evaluate | oracle.

Every command is reproducible from its inputs and seeds; machine-readable
outputs land under --out, configs are echoed next to them, and any validation
failure exits nonzero with a single `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import os
import sys

import numpy as np

from . import baselines, datagen, placement_env, trainer
from .fileio import (check_object, check_values, field_kinds, json_document, parse_json, read_text, write_atomic,
                     write_csv)
from .graph_core import load_graph
from .placement_env import BYTES_PER_GB, RewardConfig
from .policy_gnn import PolicyConfig
from .sim_engine import Placement, load_placement, load_topology, simulate

DOT_COLORS = [
    "lightblue",
    "lightcoral",
    "lightgreen",
    "gold",
    "plum",
    "lightsalmon",
    "paleturquoise",
    "khaki",
]


class CliError(ValueError):
    pass


def _outdir(args):
    """Create --out (default "."); each command calls it only once its inputs
    are read and checked and its results computed, so a refused command
    leaves no output directory."""
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def placement_dot(graph, placement: Placement) -> str:
    lines = ["digraph placement {", "  rankdir=TB;"]
    for v in range(graph.num_nodes):
        color = DOT_COLORS[placement.assignment[v] % len(DOT_COLORS)]
        lines.append(
            f'  n{v} [label="{v}\\nd{placement.assignment[v]}", style=filled, fillcolor={color}];'
        )
    for u, v in sorted(graph.edges):
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_dot(args, out, graph, placement, stem):
    if args.emit_dot:
        write_atomic(os.path.join(out, f"{stem}.dot"), placement_dot(graph, placement))


def _given(args, cls) -> dict:
    """The cls fields set by the flags given: flag x sets field x, or fields
    x_lo and x_hi as a LO HI pair. Flags not given are absent from args."""
    given = {}
    for f in dataclasses.fields(cls):
        stem, _, end = f.name.rpartition("_")
        if hasattr(args, f.name):
            given[f.name] = getattr(args, f.name)
        elif end in ("lo", "hi") and hasattr(args, stem):
            given[f.name] = getattr(args, stem)[end == "hi"]
    return given


def _check_seed(args):
    """Refuse a negative --seed before the command does anything."""
    seed = getattr(args, "seed", None)  # datagen omits a flag not given; train's defaults to None
    if seed is not None and seed < 0:
        raise CliError(f"--seed must be >= 0, not {seed}")


def cmd_datagen(args):
    _check_seed(args)
    spec = datagen.FamilySpec(**_given(args, datagen.FamilySpec))
    out = _outdir(args)
    manifest = datagen.write_dataset(out, spec)
    print(f"wrote {len(manifest['members'])} graphs to {out}")
    return 0


def cmd_simulate(args):
    graph = load_graph(read_text(args.graph, CliError))
    topology = load_topology(read_text(args.topology, CliError))
    placement = load_placement(read_text(args.placement, CliError), graph.num_nodes)
    result = simulate(graph, topology, placement)
    doc = result.to_document(graph, placement)
    out = _outdir(args)
    write_atomic(os.path.join(out, "simulation.json"), doc)
    _emit_dot(args, out, graph, placement, "placement")
    peak = max(result.peak_memory_bytes)
    print(f"makespan {result.makespan_seconds:.6f} s")
    print(f"peak memory {peak / BYTES_PER_GB:.3f} GB")
    print(f"transfers {len(result.transfers)}, events {result.event_count}")
    return 0


# Scheme name -> placer of (graph, topology, seed, partitioner config or None
# for the defaults). `place --scheme` takes one; `evaluate` writes a row for
# each, in this order, between zero_shot and exhaustive. Each placer is looked
# up on `baselines` at call time, so a rebinding there (a tracer) is seen.
SCHEMES = {
    "random": lambda graph, topology, seed, cfg: baselines.place_random(graph, topology, seed),
    "single_device": lambda graph, topology, seed, cfg: baselines.place_single_device(graph, topology),
    "mincut": lambda graph, topology, seed, cfg: baselines.place_balanced_mincut(graph, topology, cfg).placement,
    "expert": lambda graph, topology, seed, cfg: baselines.place_expert_chain(graph, topology),
}


def cmd_place(args):
    _check_seed(args)
    graph = load_graph(read_text(args.graph, CliError))
    topology = load_topology(read_text(args.topology, CliError))
    cfg = baselines.PartitionerConfig(**_given(args, baselines.PartitionerConfig))
    placement = SCHEMES[args.scheme](graph, topology, args.seed, cfg)
    result = simulate(graph, topology, placement)
    out = _outdir(args)
    write_atomic(os.path.join(out, f"placement_{args.scheme}.json"), placement.to_document(graph.name))
    write_atomic(os.path.join(out, f"simulation_{args.scheme}.json"), result.to_document(graph, placement))
    _emit_dot(args, out, graph, placement, f"placement_{args.scheme}")
    print(f"{args.scheme}: makespan {result.makespan_seconds:.6f} s")
    return 0


# Run-config schema: key -> kind (see fileio.check_object), per section. Each
# section is its config's fields; env also takes the trainer's init_mode.
_RUN_CONFIG = {
    "topology": "str",
    "dataset": "str",
    "family": "object",
    "out": "str",
    "seed": "int",
    "env": "object",
    "policy": "object",
    "trainer": "object",
}
_SECTIONS = {
    "env": {**field_kinds(RewardConfig), "init_mode": "str"},
    "policy": field_kinds(PolicyConfig, skip=("num_devices",)),
    "trainer": field_kinds(trainer.TrainerConfig, skip=("seed", "init_mode")),
    "family": field_kinds(datagen.FamilySpec),
}
# The config class whose field rules (see fileio.check_values) check each
# section's values; the trainer's also check the top-level seed and env's init_mode.
_RULED_BY = {"env": RewardConfig, "policy": PolicyConfig, "trainer": trainer.TrainerConfig,
             "family": datagen.FamilySpec}


def load_run_config(text):
    """The run config document, every value checked for its kind and then
    for its config field's rule; a refusal names the key holding the value."""
    doc = parse_json(text, "config", CliError)
    check_object(doc, _RUN_CONFIG, "config", CliError, required=("topology",))
    if ("dataset" in doc) == ("family" in doc):
        raise CliError("config needs exactly one of 'dataset' or 'family'")
    for section, schema in _SECTIONS.items():
        check_object(doc.get(section, {}), schema, section, CliError)
    if "family" in doc and "family" not in doc["family"]:
        raise CliError("config family needs a 'family' name")
    check_values(doc, trainer.TrainerConfig, "config", CliError)
    for section, cls in _RULED_BY.items():
        check_values(doc.get(section, {}), cls, section, CliError)
    check_values(doc.get("env", {}), trainer.TrainerConfig, "env", CliError)
    return doc


def cmd_train(args):
    _check_seed(args)
    doc = load_run_config(read_text(args.config, CliError))
    topology = load_topology(read_text(args.topology or doc["topology"], CliError))
    env_doc = dict(doc.get("env", {}))
    init_mode = env_doc.pop("init_mode", None)
    reward_cfg = RewardConfig(**env_doc)
    policy_cfg = PolicyConfig(num_devices=topology.num_devices, **doc.get("policy", {}))
    # Neither key may be null, so None means not given.
    given = {"seed": doc.get("seed") if args.seed is None else args.seed, "init_mode": init_mode}
    cfg = trainer.TrainerConfig(**doc.get("trainer", {}), **{k: v for k, v in given.items() if v is not None})
    fam = datagen.FamilySpec(**doc["family"]) if "family" in doc else None
    if fam is None:
        _, train_graphs, _ = datagen.read_dataset(doc["dataset"])
    else:
        graphs = datagen.generate_family(fam)
        train_graphs, _ = datagen.split(graphs, fam.train_fraction, fam.seed)

    result = trainer.train(policy_cfg, cfg, train_graphs, topology, reward_cfg)
    # Nothing is written before training returns, so a refused run, whether
    # for its config, its dataset or its graphs, leaves no output directory.
    out = args.out or doc.get("out") or "."
    os.makedirs(out, exist_ok=True)
    write_atomic(os.path.join(out, "run_config.json"), json_document(doc))
    curve_path = os.path.join(out, "learning_curve.csv")
    trainer.write_curve(curve_path, result.curve)
    ckpt_path = os.path.join(out, "checkpoint.json")
    trainer.save_policy_checkpoint(ckpt_path, result.params)
    best_path = os.path.join(out, "best_placements.json")
    write_atomic(
        best_path,
        json_document(
            {
                name: {"assignment": list(p), "runtime_s": r}
                for name, (p, r) in sorted(result.best_placements.items())
            }
        ),
    )
    print(f"trained {cfg.episodes} epochs on {len(train_graphs)} graphs")
    print(f"checkpoint: {ckpt_path}")
    print(f"learning curve: {curve_path}")
    return 0


EVAL_COLUMNS = ["graph", "scheme", "penalized_runtime_s", "makespan_s", "peak_memory_bytes"]


def _check_budget(args):
    if args.budget < 1:
        raise CliError(f"--budget must be >= 1, not {args.budget}")


def cmd_evaluate(args):
    if args.samples < 0:
        raise CliError(f"--samples must be >= 0, not {args.samples}")
    _check_budget(args)
    _check_seed(args)
    params, _ = trainer.load_policy_checkpoint(args.checkpoint)
    topology = load_topology(read_text(args.topology, CliError))
    _, _, test_graphs = datagen.read_dataset(args.dataset)
    if not test_graphs:
        raise CliError(f"dataset {args.dataset} has no test graphs")
    reward_cfg = placement_env.EVALUATION_REWARD

    predictions = trainer.predict_placement(
        params, test_graphs, topology, reward_cfg, n_samples=args.samples, seed=args.seed
    )
    rows, runtimes = [], {}  # runtimes: scheme -> its rows' runtimes, schemes in row order
    for graph, pred in zip(test_graphs, predictions):
        candidates = {"zero_shot": pred.placement}
        for scheme, place in SCHEMES.items():
            candidates[scheme] = place(graph, topology, args.seed, None)
        if topology.num_devices**graph.num_nodes <= args.budget:
            candidates["exhaustive"], _ = baselines.exhaustive_search(graph, topology, reward_cfg, args.budget)
        for scheme, placement in candidates.items():
            runtime, result = placement_env.evaluate_placement(graph, topology, placement, reward_cfg)
            runtimes.setdefault(scheme, []).append(runtime)
            rows.append(
                {
                    "graph": graph.name,
                    "scheme": scheme,
                    "penalized_runtime_s": runtime,
                    "makespan_s": result.makespan_seconds,
                    "peak_memory_bytes": max(result.peak_memory_bytes),
                }
            )

    report_path = os.path.join(_outdir(args), "evaluation.csv")
    write_csv(report_path, EVAL_COLUMNS, rows)
    print(f"evaluated {len(test_graphs)} test graphs -> {report_path}")
    for scheme, vals in runtimes.items():
        print(f"  {scheme}: mean {np.mean(vals):.4f} s over {len(vals)} graphs")
    return 0


def cmd_oracle(args):
    _check_budget(args)
    graph = load_graph(read_text(args.graph, CliError))
    topology = load_topology(read_text(args.topology, CliError))
    placement, runtime = baselines.exhaustive_search(graph, topology, budget=args.budget)
    out = _outdir(args)
    write_atomic(os.path.join(out, "placement_exhaustive.json"), placement.to_document(graph.name))
    _emit_dot(args, out, graph, placement, "placement_exhaustive")
    print(f"exhaustive optimum: {runtime:.6f} s")
    print(f"assignment: {list(placement.assignment)}")
    return 0


EMIT_DOT_HELP = "write a DOT file colored by device"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="placement-opt",
        description="Device placement for computation DAGs: simulate, train, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic graph dataset", argument_default=argparse.SUPPRESS,
                       description="Flags not given take their datagen.FamilySpec defaults.")
    p.add_argument("--family", choices=datagen.FAMILIES, required=True)
    p.add_argument("--count", type=int, help="graphs in the dataset")
    p.add_argument("--train-fraction", type=float, help="train split fraction")
    p.add_argument("--blocks", type=int, help="blocks per branch_blocks graph")
    p.add_argument("--branches", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--branch-ops", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--layers", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--unroll", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--compute", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--tensor-bytes", dest="bytes", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="random seed")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("simulate", help="simulate a placement and report the timeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--placement", required=True)
    p.add_argument("--out", help="output directory")
    p.add_argument("--emit-dot", action="store_true", help=EMIT_DOT_HELP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("place", help="run a baseline placement scheme")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--balance-tolerance", type=float, default=baselines.PartitionerConfig.balance_tolerance)
    p.add_argument("--refinement-passes", type=int, default=baselines.PartitionerConfig.refinement_passes)
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="seed of the random scheme")
    p.add_argument("--emit-dot", action="store_true", help=EMIT_DOT_HELP)
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("train", help="train a placement policy from a run config")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--topology", help="topology path (overrides config)")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="compare a checkpoint against baselines on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--samples", type=int, default=0, help="extra sampled rollouts per graph")
    p.add_argument("--budget", type=int, default=baselines.EXHAUSTIVE_BUDGET,
                   help="max placements for the exhaustive column (default %(default)s)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled rollouts and the random scheme")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oracle", help="exhaustive search for the optimal placement")
    p.add_argument("--graph", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--budget", type=int, default=baselines.EXHAUSTIVE_BUDGET,
                   help="max placements to search (default %(default)s)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--emit-dot", action="store_true", help=EMIT_DOT_HELP)
    p.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser():
    """The parser, built once per process; each parse_args call still makes a
    fresh Namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # A command makes many short-lived dicts, lists and tuples, and the
    # cyclic collector's passes over them took about 16% of a place command
    # on a 1.4k-node graph while finding nothing: the package makes no
    # reference cycles (tests/test_reference_cycles.py), so reference
    # counting frees everything. Pause automatic collection for the command
    # and hand the caller's collector back as it was, without forcing a
    # collection, which would cost a full pass and find nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as e:
        msg = str(e).replace("\n", " ")
        print(f"error: {msg}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
